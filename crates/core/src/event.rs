//! The discrete-event core: a deterministic clock, an event queue with
//! stable tie-breaking, the [`EventHandler`] protocol components use to
//! publish when they next need attention, and the [`SimDriver`] that
//! runs a [`Simulation`] either tick-by-tick or event-to-event.
//!
//! # Why an event core
//!
//! The simulator's physics advance in fixed one-second metering ticks
//! (the IPDU's reporting rate), but most ticks of a realistic run are
//! *quiet*: every server is up, the grid is healthy, the buffers are
//! full, and the workload sits at a steady level. A quiet tick moves no
//! energy through the buffers and changes nothing but a handful of
//! accumulators. The event core makes that observation structural:
//! components report the next simulated time at which their state can
//! change ([`EventHandler::next_activity`]), the [`EventQueue`] merges
//! those horizons, and [`Simulation::try_leap`] fast-forwards the span
//! in between — re-verifying every quietness condition itself, so the
//! result is bitwise identical to stepping the span tick by tick.
//!
//! # Determinism
//!
//! Two runs of the same scenario must agree to the last bit, whatever
//! the driver mode and whatever order events were inserted. The clock
//! derives every timestamp from one formula
//! ([`SimClock::time_at`]: `index × dt`), so event-mode and tick-mode
//! reports can never disagree on when something happened; and the queue
//! orders ties by insertion sequence, so draining it is a deterministic
//! function of the schedule alone.
//!
//! # Driver modes
//!
//! [`SimDriver::tick`] is the compatibility adapter: a plain loop that
//! calls [`Simulation::step`] once per tick, reproducing the legacy
//! fixed loop exactly — golden traces and fleet cache hashes are
//! unchanged.
//! [`SimDriver::event`] consults the handlers each iteration, leaps
//! across provably quiet spans, and falls back to [`Simulation::step`]
//! whenever any condition fails — so it is exact by construction and
//! fast only where fast is free.

use crate::buffers::HybridBuffers;
use crate::controller::HebController;
use crate::faults::FaultInjector;
use crate::metrics::SimReport;
use crate::sim::Simulation;
use heb_esd::{Bank, StorageDevice};
use heb_powersys::{Cluster, UtilityFeed};
use heb_units::Seconds;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

    /// Whole ticks from the current index until an event timestamped
    /// `t` takes effect (zero when `t` is due now or overdue).
    #[must_use]
    pub fn ticks_until(&self, t: Seconds) -> u64 {
        self.index_at_or_after(t).saturating_sub(self.index)
    }
}

/// What kind of thing the queue is waking the driver up for. The
/// variants carry no payload: an event is a *horizon*, and the
/// simulation re-derives the concrete effect when the tick executes —
/// which is what keeps event mode exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A control-slot boundary (close the slot, re-plan, reconfigure
    /// relays).
    SlotBoundary,
    /// The forecaster learns something new. Currently forecast updates
    /// ride slot boundaries, so this is scheduled only by tests and
    /// future mid-slot forecasters.
    ForecastUpdate,
    /// A fault onset or recovery crosses.
    FaultTrigger,
    /// A shed rack's periodic restore check, or a relay/shed deadline.
    RestoreDeadline,
    /// A buffer pool can move energy (charge headroom opened, or a
    /// threshold crossing is possible this very tick).
    EsdThreshold,
    /// The end of the requested run.
    HorizonEnd,
}

/// An [`Event`] with its due time and insertion sequence number.
///
/// Ordering is `(time, seq)`: earlier times first, and ties broken by
/// insertion order — never by the event kind or heap internals — so
/// drain order is a deterministic function of the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scheduled {
    /// When the event is due.
    pub time: Seconds,
    /// Insertion sequence within the queue (the tie-breaker).
    pub seq: u64,
    /// What is due.
    pub event: Event,
}

impl Eq for Scheduled {}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .get()
            .total_cmp(&other.time.get())
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A min-queue of [`Scheduled`] events with stable `(time, seq)`
/// ordering.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
}

impl EventQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at `time`. Events at equal times pop in the
    /// order they were scheduled.
    pub fn schedule(&mut self, time: Seconds, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled { time, seq, event }));
    }

    /// Removes and returns the earliest event (ties by insertion
    /// order).
    pub fn pop(&mut self) -> Option<Scheduled> {
        self.heap.pop().map(|Reverse(s)| s)
    }

    /// The earliest event without removing it.
    #[must_use]
    pub fn peek(&self) -> Option<&Scheduled> {
        self.heap.peek().map(|Reverse(s)| s)
    }

    /// Number of events queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every queued event and resets the sequence counter, so a
    /// rebuilt schedule tie-breaks the same way every time.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
    }
}

/// How a component participates in event-driven execution.
///
/// The protocol is a *horizon*, not a callback contract:
///
/// - `Some((t, e))` with `t` **after** the clock's now: the component
///   guarantees its observable behaviour cannot change before `t` — the
///   driver may treat the span up to `t` as quiet (subject to every
///   other handler and to [`Simulation::try_leap`]'s own re-checks).
/// - `Some((now, e))`: the component needs the dense per-tick path
///   *right now*; no leap may start this tick.
/// - `None`: the component imposes no constraint of its own (its
///   cadence is owned elsewhere, e.g. the controller's slot boundary is
///   owned by the clock and config).
///
/// Handlers are consulted between ticks, never during one, and the
/// leap re-verifies every condition per tick — so a conservative
/// handler (always claiming "now") costs speed, never correctness.
pub trait EventHandler {
    /// The next time this component's observable behaviour can change,
    /// with the event kind to schedule, or `None` for no constraint.
    fn next_activity(&self, clock: &SimClock) -> Option<(Seconds, Event)>;

    /// Notification that `event` was dispatched at `now`. The default
    /// is a no-op: the simulation re-derives all concrete effects
    /// inside the tick, and components only need this hook if they
    /// maintain driver-visible caches.
    fn on_event(&mut self, event: &Event, now: Seconds) {
        let _ = (event, now);
    }
}

impl EventHandler for FaultInjector {
    /// An active fault needs the dense path every tick (its continuous
    /// effects — derating, meter health — are queried per tick);
    /// otherwise the next pending onset is the horizon. A drained
    /// schedule imposes no constraint.
    fn next_activity(&self, clock: &SimClock) -> Option<(Seconds, Event)> {
        if self.any_active() {
            return Some((clock.now(), Event::FaultTrigger));
        }
        self.next_transition_at().map(|t| (t, Event::FaultTrigger))
    }
}

impl EventHandler for Cluster {
    /// A fully-up rack with no pending restart surcharges is pure
    /// steady load; anything else (a shed server accruing downtime, a
    /// restart drain in flight) changes per tick.
    fn next_activity(&self, clock: &SimClock) -> Option<(Seconds, Event)> {
        if self.all_running_steady() {
            None
        } else {
            Some((clock.now(), Event::RestoreDeadline))
        }
    }
}

impl<D: StorageDevice> EventHandler for Bank<D> {
    /// A bank whose every in-service member is full with zero charge
    /// acceptance cannot move energy on the quiet (charging) path; any
    /// headroom means a threshold crossing is possible this tick.
    fn next_activity(&self, clock: &SimClock) -> Option<(Seconds, Event)> {
        if self.charge_quiescent() {
            None
        } else {
            Some((clock.now(), Event::EsdThreshold))
        }
    }
}

impl EventHandler for HybridBuffers {
    /// The cabinet is quiet exactly when both pools are.
    fn next_activity(&self, clock: &SimClock) -> Option<(Seconds, Event)> {
        if self.sc_pool().charge_quiescent() && self.ba_pool().charge_quiescent() {
            None
        } else {
            Some((clock.now(), Event::EsdThreshold))
        }
    }
}

impl EventHandler for HebController {
    /// The controller acts only at slot boundaries, and the slot
    /// cadence is owned by the clock and config (the driver schedules
    /// [`Event::SlotBoundary`] itself) — so the controller imposes no
    /// constraint of its own.
    fn next_activity(&self, _clock: &SimClock) -> Option<(Seconds, Event)> {
        None
    }
}

impl EventHandler for UtilityFeed {
    /// The feed is memoryless within a budget setting; derates arrive
    /// through the fault injector, which owns that horizon.
    fn next_activity(&self, _clock: &SimClock) -> Option<(Seconds, Event)> {
        None
    }
}

/// How a [`SimDriver`] advances time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverMode {
    /// The compatibility adapter: [`Simulation::step`] once per tick —
    /// bit-identical to the legacy fixed loop.
    Tick,
    /// Event-to-event execution: leap across provably quiet spans,
    /// fall back to [`Simulation::step`] everywhere else.
    Event,
}

/// The public driver for a [`Simulation`]: owns the simulation, the
/// event queue, and the execution mode.
///
/// This replaces hand-rolled `Simulation::step()` loops as the one way
/// runs are driven — serial experiments, the fleet engine, and the
/// serve path all construct one of these (see
/// [`Scenario::build_driver`](crate::Scenario::build_driver)).
///
/// # Examples
///
/// ```
/// use heb_core::{DriverMode, SimConfig, SimDriver, Simulation};
/// use heb_workload::Archetype;
///
/// let sim = Simulation::new(SimConfig::prototype(), &[Archetype::WebSearch], 7);
/// let mut driver = SimDriver::tick(sim);
/// assert_eq!(driver.mode(), DriverMode::Tick);
/// let report = driver.run_for_hours(0.1);
/// assert!(report.sim_time.as_hours() > 0.09);
/// ```
#[derive(Debug)]
pub struct SimDriver {
    sim: Simulation,
    mode: DriverMode,
    queue: EventQueue,
}

impl SimDriver {
    /// A driver in tick-compatibility mode: bit-identical to calling
    /// [`Simulation::step`] in a loop, including telemetry and report
    /// contents.
    #[must_use]
    pub fn tick(sim: Simulation) -> Self {
        Self {
            sim,
            mode: DriverMode::Tick,
            queue: EventQueue::new(),
        }
    }

    /// A driver in event mode: consults the component handlers and
    /// leaps across quiet spans. Reports and end states are bitwise
    /// identical to tick mode; when tracing is enabled the trace
    /// additionally carries `driver.leaped` events describing the
    /// spans that were fast-forwarded.
    #[must_use]
    pub fn event(sim: Simulation) -> Self {
        Self {
            sim,
            mode: DriverMode::Event,
            queue: EventQueue::new(),
        }
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

    /// Mutable access to the driven simulation (experiment setup, e.g.
    /// presetting buffer SoC mid-run).
    pub fn sim_mut(&mut self) -> &mut Simulation {
        &mut self.sim
    }

    /// Consumes the driver, returning the simulation.
    #[must_use]
    pub fn into_sim(self) -> Simulation {
        self.sim
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

    /// Runs the given number of simulated hours.
    pub fn run_for_hours(&mut self, hours: f64) -> SimReport {
        self.run_ticks(crate::scenario::ticks_for(self.sim.config(), hours))
    }

    /// Event-to-event execution up to `ticks` from now.
    fn run_event(&mut self, ticks: u64) {
        let target = self.sim.clock().index().saturating_add(ticks);
        while self.sim.clock().index() < target {
            let cap = self.next_event_gap(target);
            // `try_leap` re-verifies every quietness condition itself,
            // so a stale or optimistic horizon can cost speed, never
            // correctness; `0` means "this tick is not quiet".
            let leaped = if cap > 0 { self.sim.try_leap(cap) } else { 0 };
            if leaped == 0 {
                self.sim.step();
            } else {
                self.sim.note_leap(leaped);
            }
        }
    }

    /// Rebuilds the queue from every component's published horizon and
    /// returns how many whole ticks separate now from the earliest due
    /// event (0 when something is due this very tick), capped at the
    /// run horizon.
    fn next_event_gap(&mut self, target: u64) -> u64 {
        let clock = self.sim.clock().clone();
        self.queue.clear();
        self.queue
            .schedule(clock.time_at(target), Event::HorizonEnd);
        // The slot cadence belongs to the clock and config, not to a
        // component: schedule the next boundary tick explicitly.
        let tps = self.sim.config().ticks_per_slot();
        let idx = clock.index();
        let boundary = if idx > 0 && idx.is_multiple_of(tps) {
            idx
        } else {
            (idx / tps + 1) * tps
        };
        self.queue
            .schedule(clock.time_at(boundary), Event::SlotBoundary);
        let activities = [
            self.sim.injector().next_activity(&clock),
            self.sim.cluster().next_activity(&clock),
            self.sim.buffers().next_activity(&clock),
            self.sim.controller().next_activity(&clock),
        ];
        for (time, event) in activities.into_iter().flatten() {
            self.queue.schedule(time, event);
        }
        // heb-analyze: allow(HEB003, HorizonEnd was scheduled above, the queue cannot be empty)
        let due = self.queue.pop().expect("HorizonEnd bounds the queue");
        clock.ticks_until(due.time).min(target - idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::faults::{FaultEvent, FaultKind, FaultSchedule};
    use crate::policy::PolicyKind;
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
        let mut clock = SimClock::new(Seconds::new(1.0));
        assert_eq!(clock.index_at_or_after(Seconds::new(0.0)), 0);
        assert_eq!(clock.index_at_or_after(Seconds::new(10.0)), 10);
        // A mid-tick timestamp takes effect at the next tick start.
        assert_eq!(clock.index_at_or_after(Seconds::new(10.5)), 11);
        assert_eq!(clock.ticks_until(Seconds::new(10.0)), 10);
        for _ in 0..10 {
            clock.advance();
        }
        assert_eq!(clock.ticks_until(Seconds::new(10.0)), 0);
        assert_eq!(clock.ticks_until(Seconds::new(4.0)), 0, "overdue saturates");
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_dt_clock_panics() {
        let _ = SimClock::new(Seconds::new(0.0));
    }

    #[test]
    fn queue_orders_by_time_then_insertion() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(30.0), Event::SlotBoundary);
        q.schedule(Seconds::new(10.0), Event::FaultTrigger);
        q.schedule(Seconds::new(10.0), Event::EsdThreshold);
        q.schedule(Seconds::new(20.0), Event::RestoreDeadline);
        assert_eq!(q.len(), 4);
        let order: Vec<Event> = std::iter::from_fn(|| q.pop()).map(|s| s.event).collect();
        assert_eq!(
            order,
            vec![
                Event::FaultTrigger,
                Event::EsdThreshold,
                Event::RestoreDeadline,
                Event::SlotBoundary
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn queue_drain_order_is_independent_of_heap_internals() {
        // Insert the same multiset of events in two different orders;
        // ties must pop by each queue's own insertion sequence, so two
        // schedules built in the same order drain identically, and the
        // tie-break is observable (seq, not event kind or address).
        let times = [10.0, 10.0, 10.0, 5.0, 5.0, 30.0, 10.0];
        let build = |perm: &[usize]| {
            let mut q = EventQueue::new();
            for &i in perm {
                q.schedule(Seconds::new(times[i]), Event::ForecastUpdate);
            }
            std::iter::from_fn(move || q.pop())
                .map(|s| (s.time.get(), s.seq))
                .collect::<Vec<_>>()
        };
        let a = build(&[0, 1, 2, 3, 4, 5, 6]);
        let b = build(&[0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(a, b, "same insertion order, same drain order");
        // Within one drain, equal-time events appear in seq order.
        for pair in a.windows(2) {
            if pair[0].0 == pair[1].0 {
                assert!(pair[0].1 < pair[1].1, "tie must break by insertion seq");
            }
        }
        // clear() resets seq so a rebuilt schedule tie-breaks the same.
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(1.0), Event::HorizonEnd);
        q.clear();
        q.schedule(Seconds::new(1.0), Event::HorizonEnd);
        assert_eq!(q.peek().map(|s| s.seq), Some(0));
    }

    #[test]
    fn injector_handler_publishes_fault_horizon() {
        let clock = SimClock::new(Seconds::new(1.0));
        let schedule = FaultSchedule::scripted(vec![FaultEvent::lasting(
            Seconds::new(1800.0),
            Seconds::new(600.0),
            FaultKind::UtilityBlackout,
        )]);
        let mut inj = FaultInjector::new(schedule);
        assert_eq!(
            inj.next_activity(&clock),
            Some((Seconds::new(1800.0), Event::FaultTrigger))
        );
        // Active fault: dense now.
        let _ = inj.poll(Seconds::new(1800.0));
        assert_eq!(
            inj.next_activity(&clock),
            Some((clock.now(), Event::FaultTrigger))
        );
        // Drained: no constraint.
        let _ = inj.poll(Seconds::new(3000.0));
        assert_eq!(inj.next_activity(&clock), None);
        assert_eq!(FaultInjector::idle().next_activity(&clock), None);
    }

    #[test]
    fn cluster_handler_tracks_steadiness() {
        let clock = SimClock::new(Seconds::new(1.0));
        let mut cluster = Cluster::prototype(3);
        assert_eq!(cluster.next_activity(&clock), None);
        cluster.power_off(0);
        assert_eq!(
            cluster.next_activity(&clock),
            Some((clock.now(), Event::RestoreDeadline))
        );
        // Powering back on leaves a restart surcharge pending: still
        // dense until it drains.
        cluster.power_on(0);
        assert_eq!(
            cluster.next_activity(&clock),
            Some((clock.now(), Event::RestoreDeadline))
        );
    }

    #[test]
    fn buffer_handlers_track_charge_quiescence() {
        let clock = SimClock::new(Seconds::new(1.0));
        let mut buffers = HybridBuffers::build(
            heb_units::Joules::from_watt_hours(150.0),
            Ratio::new_clamped(0.3),
            Ratio::new_clamped(0.8),
        );
        // Factory-full pools: quiet.
        assert_eq!(buffers.next_activity(&clock), None);
        for d in buffers.sc_pool_mut().devices_mut() {
            d.set_soc(Ratio::new_clamped(0.5));
        }
        assert_eq!(
            buffers.next_activity(&clock),
            Some((clock.now(), Event::EsdThreshold))
        );
        assert_eq!(
            buffers.sc_pool().next_activity(&clock),
            Some((clock.now(), Event::EsdThreshold))
        );
        assert_eq!(buffers.ba_pool().next_activity(&clock), None);
    }

    fn steady_sim(budget: f64) -> Simulation {
        Simulation::new(
            SimConfig::prototype()
                .with_policy(PolicyKind::HebD)
                .with_budget(Watts::new(budget)),
            &[Archetype::WordCount],
            42,
        )
        .with_steady_workload(Ratio::new_clamped(0.3))
    }

    #[test]
    fn tick_mode_is_bit_identical_to_raw_step_loop() {
        let mut a = Simulation::new(
            SimConfig::prototype().with_policy(PolicyKind::HebD),
            &[Archetype::WebSearch, Archetype::Terasort],
            11,
        );
        for _ in 0..1500 {
            a.step();
        }
        let mut b = SimDriver::tick(Simulation::new(
            SimConfig::prototype().with_policy(PolicyKind::HebD),
            &[Archetype::WebSearch, Archetype::Terasort],
            11,
        ));
        let rb = b.run_ticks(1500);
        assert_eq!(a.snapshot(), rb);
        assert_eq!(a.slot_log(), b.sim().slot_log());
    }

    #[test]
    fn event_mode_matches_tick_mode_on_a_quiet_valley() {
        let n = 3 * 3600;
        let mut tick = SimDriver::tick(steady_sim(2000.0));
        let rt = tick.run_ticks(n);
        let mut event = SimDriver::event(steady_sim(2000.0));
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
        let build = || {
            Simulation::new(
                SimConfig::prototype()
                    .with_policy(PolicyKind::HebD)
                    .with_budget(Watts::new(150.0)),
                &[Archetype::Terasort],
                3,
            )
            .with_faults(FaultSchedule::parse(schedule).unwrap())
        };
        let rt = SimDriver::tick(build()).run_ticks(2 * 3600);
        let re = SimDriver::event(build()).run_ticks(2 * 3600);
        assert_eq!(rt, re);
    }

    #[test]
    fn event_mode_actually_leaps_on_quiet_spans() {
        // Count driver.leaped telemetry: a 3-hour full-buffer valley
        // must be covered almost entirely by leaps.
        let recorder = std::sync::Arc::new(heb_telemetry::RingRecorder::new(4096));
        let mut driver = SimDriver::event(steady_sim(2000.0).with_recorder(recorder.clone()));
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
        let driver = SimDriver::event(steady_sim(2000.0));
        assert_eq!(driver.mode(), DriverMode::Event);
        assert_eq!(driver.sim().clock().index(), 0);
        let sim = driver.into_sim();
        assert_eq!(sim.clock().index(), 0);
        let mut driver = SimDriver::tick(sim);
        driver.sim_mut().set_buffer_soc(Ratio::new_clamped(0.5));
        let report = driver.run_ticks(10);
        assert_eq!(report.sim_time, Seconds::new(10.0));
    }
}
