//! The driver core: a deterministic clock, the leap loop, and the
//! [`SimDriver`] that runs a [`Simulation`] either tick-by-tick or
//! leap-to-leap.
//!
//! # Why leap
//!
//! The simulator's physics advance in fixed one-second metering ticks
//! (the IPDU's reporting rate), but most ticks of a realistic run are
//! *quiet*: every server is up, the grid is healthy, the buffers are
//! full, and the workload sits at a steady level. A quiet tick moves no
//! energy through the buffers and changes nothing but a handful of
//! accumulators. `Simulation::try_leap` checks every quietness
//! condition itself, bounds the span by the next slot boundary and the
//! next fault edge, and fast-forwards it — bitwise identical to
//! stepping the span tick by tick. When any condition fails it leaps
//! nothing and the driver steps one tick densely.
//!
//! # Determinism
//!
//! Two runs of the same scenario must agree to the last bit, whatever
//! the driver mode. The clock derives every timestamp from one formula
//! ([`SimClock::time_at`]: `index × dt`), so event-mode and tick-mode
//! reports can never disagree on when something happened.
//!
//! # Driver modes
//!
//! [`DriverMode::Tick`] is the compatibility adapter: a plain loop that
//! calls [`Simulation::step`] once per tick, reproducing the legacy
//! fixed loop exactly — golden traces and fleet cache hashes are
//! unchanged.
//! [`DriverMode::Event`] runs the leap loop: it offers the rest of the
//! horizon to `Simulation::try_leap` each iteration and falls back
//! to [`Simulation::step`] whenever the leap refuses — so it is exact
//! by construction and fast only where fast is free. A
//! [`Scenario`](crate::Scenario) picks the mode
//! ([`Scenario::with_driver_mode`](crate::Scenario::with_driver_mode))
//! and builds the driver.

use crate::metrics::SimReport;
use crate::sim::Simulation;
use heb_units::Seconds;

/// The simulation's monotonic clock: a tick index plus the tick
/// duration. Every timestamp in the system is derived from
/// [`SimClock::time_at`], which is the single place real seconds are
/// computed from tick counts (the heb-analyze HEB006 rule enforces
/// this).
#[derive(Debug, Clone, PartialEq)]
pub struct SimClock {
    index: u64,
    dt: Seconds,
}

impl SimClock {
    /// A clock at tick 0 with the given tick duration.
    ///
    /// # Panics
    ///
    /// Panics unless `dt` is positive and finite.
    #[must_use]
    pub fn new(dt: Seconds) -> Self {
        assert!(
            dt.get() > 0.0 && dt.get().is_finite(),
            "tick duration must be positive and finite"
        );
        Self { index: 0, dt }
    }

    /// The current tick index (ticks completed so far).
    #[must_use]
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The tick duration.
    #[must_use]
    pub fn dt(&self) -> Seconds {
        self.dt
    }

    /// The start time of tick `index` — THE timestamp formula; every
    /// simulated timestamp must come from here so that tick-mode and
    /// event-mode runs can never disagree on when something happened.
    #[must_use]
    pub fn time_at(&self, index: u64) -> Seconds {
        Seconds::new(index as f64 * self.dt.get())
    }

    /// The start time of the current tick.
    #[must_use]
    pub fn now(&self) -> Seconds {
        self.time_at(self.index)
    }

    /// Advances one tick.
    pub fn advance(&mut self) {
        self.index += 1;
    }

    /// The first tick index whose start time is at or after `t` — the
    /// tick at which an event timestamped `t` takes effect.
    #[must_use]
    pub fn index_at_or_after(&self, t: Seconds) -> u64 {
        let raw = t.get() / self.dt.get();
        if raw <= 0.0 {
            0
        } else {
            raw.ceil() as u64
        }
    }
}

/// How a [`SimDriver`] advances time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverMode {
    /// The compatibility adapter: [`Simulation::step`] once per tick —
    /// bit-identical to the legacy fixed loop.
    Tick,
    /// The leap loop: leap across provably quiet spans, fall back to [`Simulation::step`] everywhere else.
    Event,
}

/// The public driver for a [`Simulation`]: owns the simulation and the
/// execution mode.
///
/// This replaces hand-rolled `Simulation::step()` loops as the one way
/// runs are driven — serial experiments, the fleet engine, and the
/// serve path all obtain one from
/// [`Scenario::build_driver`](crate::Scenario::build_driver).
///
/// # Examples
///
/// ```
/// use heb_core::{DriverMode, Scenario, SimConfig};
/// use heb_workload::Archetype;
///
/// let scenario = Scenario::new("doc/ws", SimConfig::prototype(), &[Archetype::WebSearch], 0.1, 7);
/// let mut driver = scenario.build_driver().unwrap();
/// assert_eq!(driver.mode(), DriverMode::Tick);
/// let report = driver.run_ticks(scenario.ticks());
/// assert!(report.sim_time.as_hours() > 0.09);
/// ```
#[derive(Debug)]
pub struct SimDriver {
    sim: Simulation,
    mode: DriverMode,
}

impl SimDriver {
    /// A driver advancing `sim` in `mode`. Event mode's reports and end
    /// states are bitwise identical to tick mode's; when tracing is
    /// enabled its trace additionally carries `driver.leaped` events
    /// describing the spans that were fast-forwarded.
    pub(crate) fn new(sim: Simulation, mode: DriverMode) -> Self {
        Self { sim, mode }
    }

    /// The execution mode.
    #[must_use]
    pub fn mode(&self) -> DriverMode {
        self.mode
    }

    /// The driven simulation (inspection).
    #[must_use]
    pub fn sim(&self) -> &Simulation {
        &self.sim
    }

    /// The report so far (see [`Simulation::snapshot`]).
    #[must_use]
    pub fn snapshot(&self) -> SimReport {
        self.sim.snapshot()
    }

    /// Runs `ticks` metering ticks and returns the cumulative report.
    pub fn run_ticks(&mut self, ticks: u64) -> SimReport {
        match self.mode {
            DriverMode::Tick => {
                for _ in 0..ticks {
                    self.sim.step();
                }
            }
            DriverMode::Event => self.run_event(ticks),
        }
        self.sim.snapshot()
    }

    /// The leap loop up to `ticks` from now: offer the rest of the
    /// horizon to [`Simulation::try_leap`], and step one tick densely
    /// whenever it refuses. `try_leap` checks every quietness condition
    /// and bounds the span by the next slot boundary and fault edge
    /// itself, so the loop needs no horizon of its own.
    fn run_event(&mut self, ticks: u64) {
        let target = self.sim.clock().index().saturating_add(ticks);
        while self.sim.clock().index() < target {
            let leaped = self.sim.try_leap(target - self.sim.clock().index());
            if leaped == 0 {
                self.sim.step();
            } else {
                self.sim.note_leap(leaped);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::faults::FaultSchedule;
    use crate::policy::PolicyKind;
    use crate::scenario::Scenario;
    use heb_units::{Ratio, Watts};
    use heb_workload::Archetype;

    #[test]
    fn clock_timestamps_match_the_tick_formula() {
        let mut clock = SimClock::new(Seconds::new(1.0));
        assert_eq!(clock.now(), Seconds::new(0.0));
        for _ in 0..1801 {
            clock.advance();
        }
        assert_eq!(clock.index(), 1801);
        // Bitwise the same expression step() historically used.
        assert_eq!(clock.now().get().to_bits(), (1801_f64 * 1.0).to_bits());
        assert_eq!(clock.time_at(600), Seconds::new(600.0));
    }

    #[test]
    fn clock_event_tick_mapping() {
        let clock = SimClock::new(Seconds::new(1.0));
        assert_eq!(clock.index_at_or_after(Seconds::new(0.0)), 0);
        assert_eq!(clock.index_at_or_after(Seconds::new(10.0)), 10);
        // A mid-tick timestamp takes effect at the next tick start.
        assert_eq!(clock.index_at_or_after(Seconds::new(10.5)), 11);
        assert_eq!(clock.index_at_or_after(Seconds::new(-3.0)), 0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_dt_clock_panics() {
        let _ = SimClock::new(Seconds::new(0.0));
    }

    fn steady(budget: f64) -> Scenario {
        Scenario::from_ticks(
            "t/steady",
            SimConfig::prototype()
                .with_policy(PolicyKind::HebD)
                .with_budget(Watts::new(budget)),
            &[Archetype::WordCount],
            0,
            42,
        )
        .with_steady_workload(Ratio::new_clamped(0.3))
    }

    fn driver(scenario: Scenario, mode: DriverMode) -> SimDriver {
        scenario.with_driver_mode(mode).build_driver().unwrap()
    }

    #[test]
    fn tick_mode_is_bit_identical_to_raw_step_loop() {
        let scenario = Scenario::from_ticks(
            "t/mixed",
            SimConfig::prototype().with_policy(PolicyKind::HebD),
            &[Archetype::WebSearch, Archetype::Terasort],
            0,
            11,
        );
        let mut a = scenario.build().unwrap();
        for _ in 0..1500 {
            a.step();
        }
        let mut b = driver(scenario, DriverMode::Tick);
        let rb = b.run_ticks(1500);
        assert_eq!(a.snapshot(), rb);
        assert_eq!(a.slot_log(), b.sim().slot_log());
    }

    #[test]
    fn event_mode_matches_tick_mode_on_a_quiet_valley() {
        let n = 3 * 3600;
        let mut tick = driver(steady(2000.0), DriverMode::Tick);
        let rt = tick.run_ticks(n);
        let mut event = driver(steady(2000.0), DriverMode::Event);
        let re = event.run_ticks(n);
        assert_eq!(rt, re, "reports must be bitwise identical");
        assert_eq!(tick.sim().slot_log(), event.sim().slot_log());
        assert_eq!(
            tick.sim().buffers().sc_available(),
            event.sim().buffers().sc_available()
        );
        assert_eq!(
            tick.sim().buffers().ba_available(),
            event.sim().buffers().ba_available()
        );
    }

    #[test]
    fn event_mode_matches_tick_mode_across_faults_and_peaks() {
        // A hostile scenario: standing mismatch (tiny budget), a
        // blackout, a string failure — event mode must agree bit for
        // bit because it falls back to step() whenever quiet fails.
        let schedule = "blackout@1800~600; ba-fail(0)@4200~900";
        let hostile = Scenario::from_ticks(
            "t/hostile",
            SimConfig::prototype()
                .with_policy(PolicyKind::HebD)
                .with_budget(Watts::new(150.0)),
            &[Archetype::Terasort],
            0,
            3,
        )
        .with_faults(FaultSchedule::parse(schedule).unwrap());
        let rt = driver(hostile.clone(), DriverMode::Tick).run_ticks(2 * 3600);
        let re = driver(hostile, DriverMode::Event).run_ticks(2 * 3600);
        assert_eq!(rt, re);
    }

    #[test]
    fn event_mode_actually_leaps_on_quiet_spans() {
        // Count driver.leaped telemetry: a 3-hour full-buffer valley
        // must be covered almost entirely by leaps.
        let recorder = std::sync::Arc::new(heb_telemetry::RingRecorder::new(4096));
        let mut driver = driver(
            steady(2000.0).with_recorder(recorder.clone()),
            DriverMode::Event,
        );
        let _ = driver.run_ticks(3 * 3600);
        let leaped: u64 = recorder
            .to_jsonl()
            .lines()
            .filter(|l| l.contains("\"type\":\"driver.leaped\""))
            .filter_map(|l| {
                heb_telemetry::json_field(l, "ticks").and_then(|v| v.parse::<u64>().ok())
            })
            .sum();
        assert!(
            leaped > 3 * 3600 / 2,
            "a quiet valley must mostly be leaped, got {leaped} of {}",
            3 * 3600
        );
    }

    #[test]
    fn driver_accessors_round_trip() {
        let driver = driver(steady(2000.0), DriverMode::Event);
        assert_eq!(driver.mode(), DriverMode::Event);
        assert_eq!(driver.sim().clock().index(), 0);
        let mut driver = steady(2000.0)
            .with_initial_soc(Ratio::new_clamped(0.5))
            .build_driver()
            .unwrap();
        assert_eq!(driver.mode(), DriverMode::Tick);
        let report = driver.run_ticks(10);
        assert_eq!(report.sim_time, Seconds::new(10.0));
    }
}
