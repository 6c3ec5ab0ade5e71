//! Deterministic, seeded fault injection for the whole HEB stack.
//!
//! Datacenter power infrastructure fails in characteristic ways the
//! paper's prototype had to ride through: grid brownouts and blackouts,
//! solar feed trips, battery strings dropping out or ageing, SC modules
//! failing, transfer relays sticking open, and the metering path losing
//! or corrupting samples. This module turns each of those into a typed,
//! timestamped [`FaultEvent`] that the simulation applies at tick
//! boundaries, so robustness experiments are reproducible bit-for-bit
//! under a seed.
//!
//! Three ways to build a [`FaultSchedule`]:
//!
//! - **Scripted**: hand the constructor explicit events
//!   ([`FaultSchedule::scripted`]).
//! - **Stochastic**: draw arrival/repair times from per-class MTBF/MTTR
//!   exponentials ([`FaultSchedule::stochastic`]) — the chaos-harness
//!   mode.
//! - **Parsed**: compact CLI specs like
//!   `blackout@1800~600;ba-fail(0)@3600` ([`FaultSchedule::parse`]).
//!
//! The [`FaultInjector`] walks a schedule as simulated time advances,
//! reporting edge transitions (for one-shot actions such as quarantining
//! a string) and answering continuous queries (current grid derating,
//! solar availability, metering health). The [`FaultLedger`] is the
//! audit trail: every event applied and recovered, plus the
//! resilience metrics the `exp_faults` experiment reports.

use heb_powersys::MeterFault;
use heb_rng::Rng;
use heb_units::{Joules, Ratio, Seconds};

/// One class of injectable fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The grid sags: the utility budget is derated to the given
    /// fraction of nameplate for the fault's duration.
    UtilityBrownout {
        /// Fraction of the nameplate budget still deliverable.
        derate: Ratio,
    },
    /// The grid is gone entirely (derate to zero).
    UtilityBlackout,
    /// The renewable feed trips offline; insolation is curtailed.
    SolarDropout,
    /// Battery string `index` fails and is quarantined out of the pool.
    BatteryStringFailure {
        /// Index of the failed string within the battery bank.
        index: usize,
    },
    /// A permanent ageing step applied to the battery pool:
    /// capacity fades and internal resistance grows. Instantaneous —
    /// there is no recovery edge.
    BatteryDegradation {
        /// Fraction of nameplate capacity lost (0 = none, 1 = all).
        capacity_fade: Ratio,
        /// Fractional growth of internal resistance (0.5 = +50 %).
        resistance_growth: f64,
    },
    /// SC module `index` fails and is quarantined out of the pool.
    ScModuleFailure {
        /// Index of the failed module within the SC pool.
        index: usize,
    },
    /// The transfer relay of `server` sticks open: the server cannot be
    /// switched onto either buffer pool until repaired.
    RelayStuckOpen {
        /// Index of the affected server.
        server: usize,
    },
    /// The metering poll is lost: no reading at all.
    MeterDropout,
    /// The meter keeps serving its last reading (stale data).
    MeterFreeze,
    /// The meter over/under-reads by the given factor.
    MeterSpike {
        /// Multiplier applied to every channel of the reading.
        factor: f64,
    },
}

impl FaultKind {
    /// Whether the fault is a one-shot state change with no recovery
    /// edge (currently only ageing steps).
    #[must_use]
    pub fn is_instantaneous(&self) -> bool {
        matches!(self, FaultKind::BatteryDegradation { .. })
    }

    /// Short stable name for logs and ledgers.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::UtilityBrownout { .. } => "brownout",
            FaultKind::UtilityBlackout => "blackout",
            FaultKind::SolarDropout => "solar-drop",
            FaultKind::BatteryStringFailure { .. } => "ba-fail",
            FaultKind::BatteryDegradation { .. } => "ba-degrade",
            FaultKind::ScModuleFailure { .. } => "sc-fail",
            FaultKind::RelayStuckOpen { .. } => "relay-open",
            FaultKind::MeterDropout => "meter-drop",
            FaultKind::MeterFreeze => "meter-freeze",
            FaultKind::MeterSpike { .. } => "meter-spike",
        }
    }
}

impl core::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fault with its onset time and (optional) duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulated time at which the fault strikes.
    pub at: Seconds,
    /// How long the fault lasts. `None` means permanent (or, for
    /// instantaneous kinds, meaningless).
    pub duration: Option<Seconds>,
    /// What breaks.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// A fault active from `at` for `duration`.
    #[must_use]
    pub fn lasting(at: Seconds, duration: Seconds, kind: FaultKind) -> Self {
        Self {
            at,
            duration: Some(duration),
            kind,
        }
    }

    /// A fault that never recovers (or an instantaneous state change).
    #[must_use]
    pub fn permanent(at: Seconds, kind: FaultKind) -> Self {
        Self {
            at,
            duration: None,
            kind,
        }
    }

    /// When the fault clears, if it ever does.
    #[must_use]
    pub fn end(&self) -> Option<Seconds> {
        self.duration.map(|d| self.at + d)
    }
}

/// Why a fault spec string could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(String);

impl core::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "bad fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

/// Per-class MTBF/MTTR parameters for stochastic schedule generation.
///
/// Arrival gaps and repair times are exponentially distributed, so a
/// schedule is a superposition of independent renewal processes — the
/// standard availability-modelling assumption. All times are in
/// simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Mean time between utility (grid) faults.
    pub utility_mtbf: Seconds,
    /// Mean utility repair time.
    pub utility_mttr: Seconds,
    /// Fraction of utility faults that are brownouts (the rest are
    /// blackouts).
    pub brownout_fraction: f64,
    /// Budget fraction remaining during a brownout.
    pub brownout_derate: Ratio,
    /// Mean time between solar feed trips.
    pub solar_mtbf: Seconds,
    /// Mean solar repair time.
    pub solar_mttr: Seconds,
    /// Mean time between battery-string failures.
    pub string_mtbf: Seconds,
    /// Mean string repair time.
    pub string_mttr: Seconds,
    /// Mean time between SC-module failures.
    pub sc_mtbf: Seconds,
    /// Mean SC-module repair time.
    pub sc_mttr: Seconds,
    /// Mean time between relay stick-open events.
    pub relay_mtbf: Seconds,
    /// Mean relay repair time.
    pub relay_mttr: Seconds,
    /// Mean time between metering faults.
    pub meter_mtbf: Seconds,
    /// Mean metering recovery time.
    pub meter_mttr: Seconds,
    /// Mean time between battery ageing steps (instantaneous).
    pub degradation_mtbf: Seconds,
    /// Capacity fade applied per ageing step.
    pub degradation_fade: Ratio,
    /// Resistance growth applied per ageing step.
    pub degradation_growth: f64,
    /// Number of servers (bound for relay faults).
    pub servers: usize,
    /// Number of battery strings (bound for string faults).
    pub strings: usize,
    /// Number of SC modules (bound for module faults).
    pub sc_modules: usize,
}

impl FaultProfile {
    /// A nominal small-datacenter profile, deliberately pessimistic so
    /// multi-hour runs see a handful of events of every class.
    #[must_use]
    pub fn nominal() -> Self {
        Self {
            utility_mtbf: Seconds::from_hours(4.0),
            utility_mttr: Seconds::new(600.0),
            brownout_fraction: 0.6,
            brownout_derate: Ratio::new_clamped(0.5),
            solar_mtbf: Seconds::from_hours(3.0),
            solar_mttr: Seconds::new(300.0),
            string_mtbf: Seconds::from_hours(8.0),
            string_mttr: Seconds::new(1_800.0),
            sc_mtbf: Seconds::from_hours(12.0),
            sc_mttr: Seconds::new(1_200.0),
            relay_mtbf: Seconds::from_hours(6.0),
            relay_mttr: Seconds::new(900.0),
            meter_mtbf: Seconds::from_hours(1.0),
            meter_mttr: Seconds::new(120.0),
            degradation_mtbf: Seconds::from_hours(12.0),
            degradation_fade: Ratio::new_clamped(0.05),
            degradation_growth: 0.05,
            servers: 6,
            strings: 1,
            sc_modules: 1,
        }
    }

    /// Same profile with every failure class arriving `intensity`
    /// times as often (repair times unchanged). `intensity = 0` yields
    /// a profile that generates no faults at all.
    #[must_use]
    pub fn scaled(&self, intensity: f64) -> Self {
        let scale = |mtbf: Seconds| {
            if intensity > 0.0 {
                Seconds::new(mtbf.get() / intensity)
            } else {
                Seconds::new(f64::INFINITY)
            }
        };
        Self {
            utility_mtbf: scale(self.utility_mtbf),
            solar_mtbf: scale(self.solar_mtbf),
            string_mtbf: scale(self.string_mtbf),
            sc_mtbf: scale(self.sc_mtbf),
            relay_mtbf: scale(self.relay_mtbf),
            meter_mtbf: scale(self.meter_mtbf),
            degradation_mtbf: scale(self.degradation_mtbf),
            ..*self
        }
    }

    /// Same profile sized to a given plant (bounds for indexed faults).
    #[must_use]
    pub fn sized(mut self, servers: usize, strings: usize, sc_modules: usize) -> Self {
        self.servers = servers;
        self.strings = strings;
        self.sc_modules = sc_modules;
        self
    }
}

/// A time-ordered set of fault events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule (no faults — the healthy baseline).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A schedule from explicit events, sorted by onset time.
    #[must_use]
    pub fn scripted(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by(|a, b| {
            a.at.get()
                .partial_cmp(&b.at.get())
                .unwrap_or(core::cmp::Ordering::Equal)
        });
        Self { events }
    }

    /// Adds one event, keeping the schedule sorted.
    pub fn push(&mut self, event: FaultEvent) {
        let pos = self
            .events
            .partition_point(|e| e.at.get() <= event.at.get());
        self.events.insert(pos, event);
    }

    /// The events, oldest first.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule contains no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Draws a schedule over `[0, horizon)` from per-class MTBF/MTTR
    /// exponentials, deterministically under `seed`.
    #[must_use]
    pub fn stochastic(seed: u64, horizon: Seconds, profile: &FaultProfile) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let mut events = Vec::new();
        let horizon = horizon.get();

        // One renewal process per class: wait ~Exp(mtbf), hold
        // ~Exp(mttr), repeat. `make` maps the draw onto a concrete
        // event for that class.
        let renewal =
            |rng: &mut Rng,
             mtbf: Seconds,
             mttr: Seconds,
             events: &mut Vec<FaultEvent>,
             make: &mut dyn FnMut(&mut Rng, Seconds, Seconds) -> FaultEvent| {
                if !mtbf.get().is_finite() || mtbf.get() <= 0.0 {
                    return;
                }
                let mut t = rng.exp_f64(mtbf.get());
                while t < horizon {
                    let dur = rng.exp_f64(mttr.get().max(1.0)).max(1.0);
                    events.push(make(rng, Seconds::new(t), Seconds::new(dur)));
                    t += dur + rng.exp_f64(mtbf.get());
                }
            };

        let p = *profile;
        renewal(
            &mut rng,
            p.utility_mtbf,
            p.utility_mttr,
            &mut events,
            &mut |rng, at, dur| {
                let kind = if rng.gen_f64() < p.brownout_fraction {
                    FaultKind::UtilityBrownout {
                        derate: p.brownout_derate,
                    }
                } else {
                    FaultKind::UtilityBlackout
                };
                FaultEvent::lasting(at, dur, kind)
            },
        );
        renewal(
            &mut rng,
            p.solar_mtbf,
            p.solar_mttr,
            &mut events,
            &mut |_, at, dur| FaultEvent::lasting(at, dur, FaultKind::SolarDropout),
        );
        if p.strings > 0 {
            renewal(
                &mut rng,
                p.string_mtbf,
                p.string_mttr,
                &mut events,
                &mut |rng, at, dur| {
                    let index = rng.range_usize(0, p.strings);
                    FaultEvent::lasting(at, dur, FaultKind::BatteryStringFailure { index })
                },
            );
        }
        if p.sc_modules > 0 {
            renewal(
                &mut rng,
                p.sc_mtbf,
                p.sc_mttr,
                &mut events,
                &mut |rng, at, dur| {
                    let index = rng.range_usize(0, p.sc_modules);
                    FaultEvent::lasting(at, dur, FaultKind::ScModuleFailure { index })
                },
            );
        }
        if p.servers > 0 {
            renewal(
                &mut rng,
                p.relay_mtbf,
                p.relay_mttr,
                &mut events,
                &mut |rng, at, dur| {
                    let server = rng.range_usize(0, p.servers);
                    FaultEvent::lasting(at, dur, FaultKind::RelayStuckOpen { server })
                },
            );
        }
        renewal(
            &mut rng,
            p.meter_mtbf,
            p.meter_mttr,
            &mut events,
            &mut |rng, at, dur| {
                let kind = match rng.range_usize(0, 3) {
                    0 => FaultKind::MeterDropout,
                    1 => FaultKind::MeterFreeze,
                    _ => FaultKind::MeterSpike {
                        factor: rng.range_f64(1.5, 4.0),
                    },
                };
                FaultEvent::lasting(at, dur, kind)
            },
        );
        renewal(
            &mut rng,
            p.degradation_mtbf,
            Seconds::new(1.0),
            &mut events,
            &mut |_, at, _| {
                FaultEvent::permanent(
                    at,
                    FaultKind::BatteryDegradation {
                        capacity_fade: p.degradation_fade,
                        resistance_growth: p.degradation_growth,
                    },
                )
            },
        );

        Self::scripted(events)
    }

    /// Parses a compact fault spec.
    ///
    /// Grammar, entries separated by `;`:
    ///
    /// ```text
    /// name[(arg[,arg])]@start[~duration]
    /// ```
    ///
    /// with times in seconds and a missing `~duration` meaning
    /// permanent. Names: `blackout`, `brownout(derate)`, `solar-drop`,
    /// `ba-fail(index)`, `ba-degrade(fade,growth)`, `sc-fail(index)`,
    /// `relay-open(server)`, `meter-drop`, `meter-freeze`,
    /// `meter-spike(factor)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use heb_core::FaultSchedule;
    ///
    /// let s = FaultSchedule::parse(
    ///     "blackout@1800~600; brownout(0.5)@3600~1200; ba-fail(0)@7200",
    /// )
    /// .unwrap();
    /// assert_eq!(s.len(), 3);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`FaultSpecError`] naming the offending entry when the
    /// grammar or an argument does not parse.
    pub fn parse(spec: &str) -> Result<Self, FaultSpecError> {
        let mut events = Vec::new();
        for raw in spec.split(';') {
            let entry = raw.trim();
            if entry.is_empty() {
                continue;
            }
            events.push(Self::parse_entry(entry)?);
        }
        Ok(Self::scripted(events))
    }

    fn parse_entry(entry: &str) -> Result<FaultEvent, FaultSpecError> {
        let err = |msg: &str| FaultSpecError(format!("{msg} in `{entry}`"));
        let (head, timing) = entry
            .split_once('@')
            .ok_or_else(|| err("missing `@start`"))?;
        let (name, args) = match head.split_once('(') {
            Some((name, rest)) => {
                let inner = rest
                    .strip_suffix(')')
                    .ok_or_else(|| err("unclosed argument list"))?;
                let args: Vec<f64> = inner
                    .split(',')
                    .map(|a| a.trim().parse::<f64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| err("non-numeric argument"))?;
                if args.iter().any(|a| !a.is_finite()) {
                    return Err(err("arguments must be finite"));
                }
                (name.trim(), args)
            }
            None => (head.trim(), Vec::new()),
        };
        let (start, duration) = match timing.split_once('~') {
            Some((s, d)) => {
                let start: f64 = s.trim().parse().map_err(|_| err("bad start time"))?;
                let dur: f64 = d.trim().parse().map_err(|_| err("bad duration"))?;
                (start, Some(dur))
            }
            None => (
                timing.trim().parse().map_err(|_| err("bad start time"))?,
                None,
            ),
        };
        // `f64::from_str` accepts `NaN` and `inf`; neither is a time.
        if !(start >= 0.0 && start.is_finite())
            || duration.is_some_and(|d| !(d > 0.0 && d.is_finite()))
        {
            return Err(err(
                "times must be finite and non-negative (duration positive)",
            ));
        }
        let arg = |idx: usize| -> Result<f64, FaultSpecError> {
            args.get(idx)
                .copied()
                .ok_or_else(|| err("missing argument"))
        };
        let index_arg = |idx: usize| -> Result<usize, FaultSpecError> {
            let v = arg(idx)?;
            if v < 0.0 || v.fract() != 0.0 {
                return Err(err("index must be a non-negative integer"));
            }
            Ok(v as usize)
        };
        let kind = match name {
            "blackout" => FaultKind::UtilityBlackout,
            "brownout" => FaultKind::UtilityBrownout {
                derate: Ratio::new_clamped(arg(0)?),
            },
            "solar-drop" => FaultKind::SolarDropout,
            "ba-fail" => FaultKind::BatteryStringFailure {
                index: index_arg(0)?,
            },
            "ba-degrade" => FaultKind::BatteryDegradation {
                capacity_fade: Ratio::new_clamped(arg(0)?),
                resistance_growth: arg(1)?,
            },
            "sc-fail" => FaultKind::ScModuleFailure {
                index: index_arg(0)?,
            },
            "relay-open" => FaultKind::RelayStuckOpen {
                server: index_arg(0)?,
            },
            "meter-drop" => FaultKind::MeterDropout,
            "meter-freeze" => FaultKind::MeterFreeze,
            "meter-spike" => FaultKind::MeterSpike { factor: arg(0)? },
            _ => return Err(err("unknown fault name")),
        };
        Ok(FaultEvent {
            at: Seconds::new(start),
            duration: duration.map(Seconds::new),
            kind,
        })
    }
}

/// An edge reported by [`FaultInjector::poll`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultTransition {
    /// The fault just struck.
    Started(FaultEvent),
    /// The fault just cleared.
    Ended(FaultEvent),
}

/// Walks a [`FaultSchedule`] as simulated time advances.
///
/// [`FaultInjector::poll`] returns the start/end edges since the last
/// poll (for one-shot actions such as quarantining a string), while the
/// query methods report the *current* superposed fault state (for
/// continuous effects such as grid derating).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    pending: Vec<FaultEvent>,
    cursor: usize,
    active: Vec<FaultEvent>,
}

impl FaultInjector {
    /// An injector over `schedule`.
    #[must_use]
    pub fn new(schedule: FaultSchedule) -> Self {
        Self {
            pending: schedule.events,
            cursor: 0,
            active: Vec::new(),
        }
    }

    /// An injector that never injects anything.
    #[must_use]
    pub fn idle() -> Self {
        Self::new(FaultSchedule::new())
    }

    /// Advances to time `now`, returning every start/end edge crossed
    /// since the previous poll (starts before ends for events shorter
    /// than one poll interval, so no edge is ever lost).
    pub fn poll(&mut self, now: Seconds) -> Vec<FaultTransition> {
        let mut out = Vec::new();
        // Clear faults that expired since the last poll.
        self.active.retain(|ev| match ev.end() {
            Some(end) if end.get() <= now.get() => {
                out.push(FaultTransition::Ended(*ev));
                false
            }
            _ => true,
        });
        // Start faults whose onset has arrived.
        while self
            .pending
            .get(self.cursor)
            .is_some_and(|ev| ev.at.get() <= now.get())
        {
            let ev = self.pending[self.cursor];
            self.cursor += 1;
            out.push(FaultTransition::Started(ev));
            if ev.kind.is_instantaneous() {
                continue;
            }
            match ev.end() {
                // Sub-poll-interval fault: report both edges at once.
                Some(end) if end.get() <= now.get() => {
                    out.push(FaultTransition::Ended(ev));
                }
                _ => self.active.push(ev),
            }
        }
        out
    }

    /// The currently active (non-instantaneous) faults.
    #[must_use]
    pub fn active(&self) -> &[FaultEvent] {
        &self.active
    }

    /// Whether any fault is active right now.
    #[must_use]
    pub fn any_active(&self) -> bool {
        !self.active.is_empty()
    }

    /// Events not yet started.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.pending.len() - self.cursor
    }

    /// The next simulated time at which the injector's answers can
    /// change: the earliest pending onset or active-fault end, whichever
    /// comes first. `None` means the fault state is final — polls will
    /// report nothing for the rest of time. The event core uses this to
    /// bound quiet spans.
    #[must_use]
    pub fn next_transition_at(&self) -> Option<Seconds> {
        let next_start = self.pending.get(self.cursor).map(|ev| ev.at);
        let next_end = self
            .active
            .iter()
            .filter_map(FaultEvent::end)
            .min_by(|a, b| a.get().total_cmp(&b.get()));
        match (next_start, next_end) {
            (Some(s), Some(e)) => Some(if s.get() <= e.get() { s } else { e }),
            (s, e) => s.or(e),
        }
    }

    /// The grid budget factor implied by the active utility faults:
    /// 1 when healthy, the most severe derate otherwise (a blackout is
    /// a derate to zero).
    #[must_use]
    pub fn budget_factor(&self) -> Ratio {
        let mut factor = Ratio::ONE;
        for ev in &self.active {
            let f = match ev.kind {
                FaultKind::UtilityBlackout => Ratio::ZERO,
                FaultKind::UtilityBrownout { derate } => derate,
                _ => continue,
            };
            if f.get() < factor.get() {
                factor = f;
            }
        }
        factor
    }

    /// Whether the renewable feed is currently deliverable.
    #[must_use]
    pub fn solar_online(&self) -> bool {
        !self
            .active
            .iter()
            .any(|ev| ev.kind == FaultKind::SolarDropout)
    }

    /// The current metering-path health. When multiple metering faults
    /// overlap, the most severe wins: dropout over freeze over spike.
    #[must_use]
    pub fn meter_fault(&self) -> MeterFault {
        let mut current = MeterFault::Healthy;
        for ev in &self.active {
            match ev.kind {
                FaultKind::MeterDropout => return MeterFault::Dropout,
                FaultKind::MeterFreeze => current = MeterFault::Freeze,
                FaultKind::MeterSpike { factor } if current == MeterFault::Healthy => {
                    current = MeterFault::Spike(factor);
                }
                _ => {}
            }
        }
        current
    }
}

/// The audit trail of a faulted run: what was injected, what it cost,
/// and how the stack coped. Embedded in
/// [`SimReport`](crate::SimReport).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultLedger {
    /// Fault onsets applied (including instantaneous events).
    pub events_applied: u64,
    /// Fault recoveries applied.
    pub events_recovered: u64,
    /// Ticks spent under a total utility blackout.
    pub blackout_ticks: u64,
    /// Ticks spent under a partial utility brownout.
    pub brownout_ticks: u64,
    /// Ticks spent with the renewable feed tripped (solar mode).
    pub solar_dropout_ticks: u64,
    /// Ticks with no usable meter reading (dropout or empty freeze).
    pub meter_gap_ticks: u64,
    /// Ticks with a corrupted (spiked) meter reading.
    pub meter_spike_ticks: u64,
    /// Seconds survived under an active supply fault with every server
    /// still powered — the ride-through the buffers bought.
    pub ride_through: Seconds,
    /// Load energy shed while a supply fault was active.
    pub fault_unserved: Joules,
    /// Mid-slot re-plans triggered by budget changes.
    pub replans: u64,
    /// Slots closed blind (forecaster fell back to last good values).
    pub forecast_fallbacks: u64,
    /// Buffer members (strings or modules) quarantined.
    pub strings_quarantined: u64,
    /// Buffer members returned to service.
    pub strings_restored: u64,
    /// Total seconds from supply-fault recovery until the rack was
    /// fully re-powered.
    pub recovery_latency: Seconds,
}

impl FaultLedger {
    /// Whether the run saw any fault activity at all.
    #[must_use]
    pub fn any(&self) -> bool {
        self.events_applied > 0
    }
}

impl core::fmt::Display for FaultLedger {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "faults: {} applied / {} recovered | blackout {} ticks, brownout {} ticks, \
             solar-out {} ticks | meter gaps {} spikes {} | ride-through {:.0} s, \
             unserved {:.0} J, recovery {:.0} s | replans {}, blind slots {}, \
             quarantines {}/{} restored",
            self.events_applied,
            self.events_recovered,
            self.blackout_ticks,
            self.brownout_ticks,
            self.solar_dropout_ticks,
            self.meter_gap_ticks,
            self.meter_spike_ticks,
            self.ride_through.get(),
            self.fault_unserved.get(),
            self.recovery_latency.get(),
            self.replans,
            self.forecast_fallbacks,
            self.strings_quarantined,
            self.strings_restored,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blackout(at: f64, dur: f64) -> FaultEvent {
        FaultEvent::lasting(
            Seconds::new(at),
            Seconds::new(dur),
            FaultKind::UtilityBlackout,
        )
    }

    #[test]
    fn schedule_sorts_and_pushes_in_order() {
        let mut s = FaultSchedule::scripted(vec![blackout(100.0, 10.0), blackout(5.0, 10.0)]);
        assert_eq!(s.events()[0].at, Seconds::new(5.0));
        s.push(blackout(50.0, 1.0));
        let times: Vec<f64> = s.events().iter().map(|e| e.at.get()).collect();
        assert_eq!(times, vec![5.0, 50.0, 100.0]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn injector_reports_edges_once() {
        let mut inj = FaultInjector::new(FaultSchedule::scripted(vec![blackout(10.0, 20.0)]));
        assert!(inj.poll(Seconds::new(5.0)).is_empty());
        assert_eq!(inj.budget_factor(), Ratio::ONE);
        let tr = inj.poll(Seconds::new(10.0));
        assert_eq!(tr.len(), 1);
        assert!(matches!(tr[0], FaultTransition::Started(_)));
        assert_eq!(inj.budget_factor(), Ratio::ZERO);
        assert!(inj.any_active());
        assert!(inj.poll(Seconds::new(20.0)).is_empty());
        let tr = inj.poll(Seconds::new(30.0));
        assert!(matches!(tr[0], FaultTransition::Ended(_)));
        assert_eq!(inj.budget_factor(), Ratio::ONE);
        assert!(!inj.any_active());
        assert_eq!(inj.remaining(), 0);
    }

    #[test]
    fn next_transition_tracks_onsets_and_ends() {
        let mut inj = FaultInjector::new(FaultSchedule::scripted(vec![
            blackout(10.0, 20.0),
            blackout(100.0, 5.0),
        ]));
        assert_eq!(inj.next_transition_at(), Some(Seconds::new(10.0)));
        inj.poll(Seconds::new(10.0));
        // Active until t=30, next onset t=100: the end comes first.
        assert_eq!(inj.next_transition_at(), Some(Seconds::new(30.0)));
        inj.poll(Seconds::new(30.0));
        assert_eq!(inj.next_transition_at(), Some(Seconds::new(100.0)));
        inj.poll(Seconds::new(200.0));
        assert_eq!(inj.next_transition_at(), None);

        // A permanent fault pins the state forever once started.
        let mut inj = FaultInjector::new(FaultSchedule::scripted(vec![FaultEvent::permanent(
            Seconds::new(5.0),
            FaultKind::SolarDropout,
        )]));
        inj.poll(Seconds::new(5.0));
        assert!(inj.any_active());
        assert_eq!(inj.next_transition_at(), None);

        assert_eq!(FaultInjector::idle().next_transition_at(), None);
    }

    #[test]
    fn sub_tick_fault_reports_both_edges() {
        let mut inj = FaultInjector::new(FaultSchedule::scripted(vec![blackout(10.0, 0.5)]));
        let tr = inj.poll(Seconds::new(11.0));
        assert_eq!(tr.len(), 2);
        assert!(matches!(tr[0], FaultTransition::Started(_)));
        assert!(matches!(tr[1], FaultTransition::Ended(_)));
        assert!(!inj.any_active());
    }

    #[test]
    fn permanent_fault_never_clears() {
        let mut inj = FaultInjector::new(FaultSchedule::scripted(vec![FaultEvent::permanent(
            Seconds::new(1.0),
            FaultKind::SolarDropout,
        )]));
        inj.poll(Seconds::new(1.0));
        assert!(!inj.solar_online());
        inj.poll(Seconds::new(1e9));
        assert!(!inj.solar_online());
    }

    #[test]
    fn instantaneous_fault_starts_but_never_occupies() {
        let mut inj = FaultInjector::new(FaultSchedule::scripted(vec![FaultEvent::permanent(
            Seconds::new(1.0),
            FaultKind::BatteryDegradation {
                capacity_fade: Ratio::new_clamped(0.1),
                resistance_growth: 0.1,
            },
        )]));
        let tr = inj.poll(Seconds::new(2.0));
        assert_eq!(tr.len(), 1);
        assert!(!inj.any_active());
    }

    #[test]
    fn overlapping_utility_faults_take_worst_derate() {
        let mut inj = FaultInjector::new(FaultSchedule::scripted(vec![
            FaultEvent::lasting(
                Seconds::new(0.0),
                Seconds::new(100.0),
                FaultKind::UtilityBrownout {
                    derate: Ratio::new_clamped(0.7),
                },
            ),
            FaultEvent::lasting(
                Seconds::new(10.0),
                Seconds::new(10.0),
                FaultKind::UtilityBrownout {
                    derate: Ratio::new_clamped(0.3),
                },
            ),
        ]));
        inj.poll(Seconds::new(10.0));
        assert!((inj.budget_factor().get() - 0.3).abs() < 1e-12);
        inj.poll(Seconds::new(30.0));
        assert!((inj.budget_factor().get() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn meter_fault_severity_ordering() {
        let freeze = FaultEvent::lasting(
            Seconds::new(0.0),
            Seconds::new(100.0),
            FaultKind::MeterFreeze,
        );
        let spike = FaultEvent::lasting(
            Seconds::new(0.0),
            Seconds::new(100.0),
            FaultKind::MeterSpike { factor: 2.0 },
        );
        let drop = FaultEvent::lasting(
            Seconds::new(0.0),
            Seconds::new(100.0),
            FaultKind::MeterDropout,
        );
        let mut inj = FaultInjector::new(FaultSchedule::scripted(vec![spike, freeze, drop]));
        inj.poll(Seconds::new(0.0));
        assert_eq!(inj.meter_fault(), MeterFault::Dropout);
    }

    #[test]
    fn parse_full_grammar() {
        let s = FaultSchedule::parse(
            "blackout@1800~600; brownout(0.5)@3600~1200; solar-drop@10~20; \
             ba-fail(0)@7200; ba-degrade(0.1,0.2)@100; sc-fail(1)@50~30; \
             relay-open(3)@60~600; meter-drop@70~5; meter-freeze@80~5; \
             meter-spike(3)@90~5",
        )
        .unwrap();
        assert_eq!(s.len(), 10);
        // Sorted by onset.
        assert_eq!(s.events()[0].at, Seconds::new(10.0));
        assert_eq!(s.events()[0].kind, FaultKind::SolarDropout);
        // Permanent event has no end.
        let ba_fail = s
            .events()
            .iter()
            .find(|e| matches!(e.kind, FaultKind::BatteryStringFailure { .. }))
            .unwrap();
        assert!(ba_fail.end().is_none());
        // Empty spec parses to the healthy baseline.
        assert!(FaultSchedule::parse("  ").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "blackout",        // no @start
            "nonsense@10",     // unknown name
            "brownout@10",     // missing argument
            "brownout(x)@10",  // non-numeric argument
            "brownout(0.5@10", // unclosed args
            "blackout@-5",     // negative start
            "blackout@5~0",    // zero duration
            "ba-fail(1.5)@10", // fractional index
            "blackout@ten",    // non-numeric start
        ] {
            assert!(
                FaultSchedule::parse(bad).is_err(),
                "spec `{bad}` should be rejected"
            );
        }
    }

    #[test]
    fn parse_rejects_non_finite_values_naming_the_entry() {
        // Each of these once parsed: a NaN start never fired and held
        // back every later event, a NaN duration never ended, a NaN
        // derate clamped to a blackout, and infinities passed as is.
        for (spec, entry) in [
            ("blackout@NaN;ba-fail(0)@100", "blackout@NaN"),
            ("blackout@0~NaN", "blackout@0~NaN"),
            ("brownout(NaN)@10~5", "brownout(NaN)@10~5"),
            ("meter-spike(inf)@10~5", "meter-spike(inf)@10~5"),
            ("blackout@inf", "blackout@inf"),
        ] {
            let err = FaultSchedule::parse(spec).expect_err(spec);
            assert!(
                err.to_string().contains(&format!("`{entry}`")),
                "{spec}: {err}"
            );
        }
        assert_eq!(FaultSchedule::parse("ba-fail(0)@100").unwrap().len(), 1);
    }

    #[test]
    fn stochastic_is_deterministic_and_respects_horizon() {
        let profile = FaultProfile::nominal().sized(6, 3, 2);
        let horizon = Seconds::from_hours(24.0);
        let a = FaultSchedule::stochastic(7, horizon, &profile);
        let b = FaultSchedule::stochastic(7, horizon, &profile);
        assert_eq!(a, b, "same seed must give the same schedule");
        let c = FaultSchedule::stochastic(8, horizon, &profile);
        assert_ne!(a, c, "different seeds must differ");
        assert!(!a.is_empty(), "24 h under nominal rates must see faults");
        for ev in a.events() {
            assert!(ev.at.get() >= 0.0 && ev.at.get() < horizon.get());
            if let FaultKind::BatteryStringFailure { index } = ev.kind {
                assert!(index < 3);
            }
            if let FaultKind::RelayStuckOpen { server } = ev.kind {
                assert!(server < 6);
            }
        }
        // Onsets are sorted.
        for pair in a.events().windows(2) {
            assert!(pair[0].at.get() <= pair[1].at.get());
        }
    }

    #[test]
    fn scaled_profile_changes_event_rate() {
        let base = FaultProfile::nominal();
        let horizon = Seconds::from_hours(48.0);
        let calm = FaultSchedule::stochastic(3, horizon, &base.scaled(0.25));
        let storm = FaultSchedule::stochastic(3, horizon, &base.scaled(4.0));
        assert!(
            storm.len() > calm.len(),
            "4x intensity ({}) must out-fault 0.25x ({})",
            storm.len(),
            calm.len()
        );
        assert!(
            FaultSchedule::stochastic(3, horizon, &base.scaled(0.0)).is_empty(),
            "zero intensity must generate nothing"
        );
    }

    #[test]
    fn ledger_display_and_any() {
        let mut ledger = FaultLedger::default();
        assert!(!ledger.any());
        ledger.events_applied = 2;
        ledger.ride_through = Seconds::new(120.0);
        assert!(ledger.any());
        let s = ledger.to_string();
        assert!(s.contains("2 applied"));
        assert!(s.contains("ride-through 120"));
    }

    #[test]
    fn kind_names_round_trip_through_parser() {
        // Every parseable name maps back to the kind that prints it.
        for (spec, name) in [
            ("blackout@1", "blackout"),
            ("brownout(0.5)@1", "brownout"),
            ("solar-drop@1", "solar-drop"),
            ("ba-fail(0)@1", "ba-fail"),
            ("ba-degrade(0.1,0.1)@1", "ba-degrade"),
            ("sc-fail(0)@1", "sc-fail"),
            ("relay-open(0)@1", "relay-open"),
            ("meter-drop@1", "meter-drop"),
            ("meter-freeze@1", "meter-freeze"),
            ("meter-spike(2)@1", "meter-spike"),
        ] {
            let s = FaultSchedule::parse(spec).unwrap();
            assert_eq!(s.events()[0].kind.name(), name);
            assert_eq!(s.events()[0].kind.to_string(), name);
        }
    }
}
