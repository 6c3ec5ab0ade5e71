//! The discrete-time simulation engine.
//!
//! One [`Simulation`] owns the full prototype stack of Figure 11: the
//! server rack, the IPDU, the relay fabric, the hybrid buffer cabinet,
//! the hControl, and either a budget-limited utility feed
//! ([`PowerMode::Utility`]) or a solar feed ([`PowerMode::Solar`]).
//! Time advances in 1-second metering ticks grouped into control slots.
//!
//! Per tick: workloads update server utilization; demand is metered;
//! demand above the supply limit is routed to the buffers according to
//! the slot plan (with cross-pool overflow); shortfalls shed the
//! least-recently-used servers; headroom below the limit recharges the
//! buffers in the plan's priority order.
//!
//! A *frozen* cluster costs O(1) per tick. With steady workload lanes,
//! a drive of a cluster that nothing has changed since the last drive
//! ([`Cluster::generation`]) would rewrite the values already there, so
//! it is skipped; a healthy sample of an unchanged cluster by a
//! noiseless meter repeats the last reading ([`Ipdu::repeat_steady`]);
//! and a tick of a rack that is all running with no restart surcharge
//! only restamps it, which [`Cluster::mark_all_active`] does in
//! O(racks).

use crate::buffers::{HybridBuffers, Pool};
use crate::config::SimConfig;
use crate::controller::{HebController, SlotPlan};
use crate::errors::SimError;
use crate::event::SimClock;
use crate::faults::{FaultInjector, FaultKind, FaultTransition};
use crate::metrics::SimReport;
use crate::policy::{ChargePriority, DischargePriority, PolicyKind};
use crate::scenario::Scenario;
use heb_esd::{ChargeResult, DischargeResult, StorageDevice};
use heb_powersys::{
    Cluster, ConverterChain, DeliveryPath, FrequencyLevel, Ipdu, MeterFault, PowerSource,
    RenewableFeed, SwitchFabric, UtilityFeed,
};
use heb_telemetry::{
    null_recorder, ControllerEvent, DriverEvent, EsdEvent, Event, FaultEvent as TraceFaultEvent,
    PoolId, PowerEvent, RecorderHandle,
};
use heb_units::{Joules, Ratio, Seconds, Watts};
use heb_workload::{Archetype, PeakClass, PowerTrace, UtilizationLanes};

/// Where the rack's power comes from.
#[derive(Debug, Clone)]
pub enum PowerMode {
    /// Under-provisioned utility: a fixed budget; demand above it is a
    /// peak mismatch, headroom below it charges buffers.
    Utility,
    /// Renewable-powered: supply follows the trace (cycled if shorter
    /// than the run); surpluses charge buffers and REU is tracked.
    Solar(PowerTrace),
}

/// The simulator's per-server workload assignment, in one place:
/// `servers` prototype servers whose utilization streams follow
/// [`UtilizationLanes::round_robin`] (archetypes round-robin, server
/// `i` seeded `seed + i * 7919`), with servers running small-peak
/// archetypes in the low-frequency governor group and the rest high —
/// the paper's two-group setup. With a `steady` level the streams are
/// [`UtilizationLanes::steady`] instead (the frequency groups still
/// follow the archetypes).
pub(crate) fn seeded_rack(
    servers: usize,
    archetypes: &[Archetype],
    seed: u64,
    steady: Option<Ratio>,
) -> (Cluster, UtilizationLanes) {
    let frequencies = archetypes
        .iter()
        .cycle()
        .take(servers)
        .map(|archetype| match archetype.peak_class() {
            PeakClass::Small => FrequencyLevel::Low,
            PeakClass::Large => FrequencyLevel::High,
        })
        .collect();
    let cluster = Cluster::prototype_with_frequencies(frequencies);
    let lanes = match steady {
        Some(level) => UtilizationLanes::steady(servers, level),
        None => UtilizationLanes::round_robin(archetypes, servers, seed),
    };
    (cluster, lanes)
}

/// Lane samples a drive block holds at most.
const DRIVE_BLOCK_SAMPLES: usize = 8_192;

/// Ticks a drive block spans at most.
const DRIVE_BLOCK_TICKS: usize = 128;

/// Ticks a drive block spans at least; a fleet whose block would be
/// shorter draws tick by tick. Timed alone on a 2-core x86-64 host,
/// blocks beat the per-tick pass by 4–20 % per sample down to 4-tick
/// blocks (2,048 lanes) and broke even at 2 ticks.
const DRIVE_BLOCK_MIN_TICKS: usize = 4;

/// Ticks per lane an open-loop drive of `lanes` bursty lanes draws at
/// once: as many as fit [`DRIVE_BLOCK_SAMPLES`] samples, at most
/// [`DRIVE_BLOCK_TICKS`], and 1 (tick by tick) for fleets too large
/// for [`DRIVE_BLOCK_MIN_TICKS`].
pub(crate) fn drive_block(lanes: usize) -> usize {
    let block = (DRIVE_BLOCK_SAMPLES / lanes.max(1)).min(DRIVE_BLOCK_TICKS);
    if block < DRIVE_BLOCK_MIN_TICKS {
        1
    } else {
        block
    }
}

/// The simulation's drive of bursty lanes into its cluster, one tick
/// per [`LaneDrive::apply`].
///
/// Fleets up to the block limit ([`drive_block`]) draw a block of
/// ticks at a time, lane by lane ([`UtilizationLanes::next_block_into`]),
/// and apply one tick's column per call; larger ones draw tick by tick
/// ([`UtilizationLanes::next_into`]). The samples are open loop (no
/// power state feeds back into a stream), so drawing them ahead gives
/// every tick the utilizations it would draw itself.
#[derive(Debug, Clone)]
pub(crate) struct LaneDrive {
    /// The drawn samples, kept across ticks so the drive allocates
    /// nothing: a block lane by lane, or one tick in lane order.
    samples: Vec<Ratio>,
    /// Ticks per lane a block holds; 1 draws tick by tick.
    block: usize,
    /// Ticks of the current block not yet applied.
    left: usize,
}

impl LaneDrive {
    /// The drive of `lanes` lanes.
    pub(crate) fn new(lanes: usize) -> Self {
        Self {
            samples: Vec::new(),
            block: drive_block(lanes),
            left: 0,
        }
    }

    /// Draws the next tick of `lanes` and applies it to `cluster`.
    pub(crate) fn apply(&mut self, lanes: &mut UtilizationLanes, cluster: &mut Cluster) {
        if self.block == 1 {
            lanes.next_into(&mut self.samples);
            cluster.set_utilizations(&self.samples);
            return;
        }
        if self.left == 0 {
            lanes.next_block_into(self.block, &mut self.samples);
            self.left = self.block;
        }
        let tick = self.block - self.left;
        self.left -= 1;
        let column = self.samples[tick..].iter().step_by(self.block);
        cluster.set_utilizations_with(column.copied());
    }
}

/// One control slot's decision record — the telemetry a datacenter
/// operator would chart to audit the controller (prediction quality,
/// classification, the realised `R_λ`, and buffer state).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotRecord {
    /// Slot index (0-based).
    pub slot: u64,
    /// The mismatch the controller predicted for the slot.
    pub predicted_mismatch: Watts,
    /// The mismatch actually observed (metered peak − valley).
    pub actual_mismatch: Watts,
    /// The load-assignment ratio used.
    pub r_lambda: heb_units::Ratio,
    /// SC pool state of charge at the slot boundary.
    pub sc_soc: heb_units::Ratio,
    /// Battery pool state of charge at the slot boundary.
    pub ba_soc: heb_units::Ratio,
}

/// Per-tick discharge accounting with per-pool failure attribution
/// (arrays indexed by [`Pool`]).
#[derive(Debug, Clone, Copy, Default)]
struct DischargeOutcome {
    delivered: Joules,
    /// Power each pool was primarily asked to carry (before overflow).
    target: [Watts; 2],
    /// Power each pool actually sourced (including overflow help).
    sourced: [Watts; 2],
}

/// The end-to-end simulated prototype.
///
/// # Examples
///
/// ```
/// use heb_core::{PolicyKind, Scenario, SimConfig};
/// use heb_workload::Archetype;
///
/// let scenario = Scenario::new(
///     "doc/sc-first",
///     SimConfig::prototype().with_policy(PolicyKind::ScFirst),
///     &[Archetype::WebSearch],
///     0.1,
///     7,
/// );
/// let mut sim = scenario.build().unwrap();
/// for _ in 0..scenario.ticks() {
///     sim.step();
/// }
/// assert!(sim.snapshot().sim_time.as_hours() > 0.09);
/// ```
#[derive(Debug)]
pub struct Simulation {
    config: SimConfig,
    cluster: Cluster,
    fabric: SwitchFabric,
    buffers: HybridBuffers,
    controller: HebController,
    ipdu: Ipdu,
    utility: UtilityFeed,
    renewable: RenewableFeed,
    mode: PowerMode,
    /// One utilization stream per server, stepped in one pass per tick.
    lanes: UtilizationLanes,
    /// Whether every lane is steady ([`UtilizationLanes::is_steady`]):
    /// a constant of the lanes, recomputed whenever they are replaced.
    lanes_steady: bool,
    /// The cluster generation after the last drive of steady lanes.
    driven_at: Option<u64>,
    /// The cluster generation after the last healthy sample of a
    /// noiseless meter; cleared by a spike, which corrupts the reading.
    metered_at: Option<u64>,
    /// The drive of bursty `lanes` into the cluster. Steady lanes
    /// drive the cluster straight from their levels and never touch it.
    drive: LaneDrive,
    plan: SlotPlan,
    clock: SimClock,
    slot_peak: Watts,
    slot_valley: Watts,
    report: SimReport,
    slot_log: Vec<SlotRecord>,
    injector: FaultInjector,
    /// Budget factor in force last tick, for edge detection.
    prev_budget_factor: Ratio,
    /// Ticks of the current slot with no usable meter reading.
    slot_gap_ticks: u64,
    /// Whether a supply fault was active last tick.
    supply_fault_prev: bool,
    /// When the last supply fault cleared with servers still down.
    recovery_pending_since: Option<Seconds>,
    /// Solar feed health last tick, for availability-edge events.
    prev_solar_online: bool,
    /// Telemetry sink (default null); `trace` caches `is_enabled()` so
    /// the per-tick path pays one bool test, not a virtual call.
    recorder: RecorderHandle,
    trace: bool,
}

impl Simulation {
    /// Builds the simulation `scenario` describes — the one
    /// constructor, reached through [`Scenario::build`]. The workloads
    /// are assigned to servers round-robin (each server gets an
    /// independent seeded generator, or the scenario's steady level),
    /// servers running small-peak workloads join the low-frequency
    /// governor group as in the paper's two-group setup, and the power
    /// mode, fault schedule, initial state of charge and recorder are
    /// installed in place.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when the config fails
    /// [`SimConfig::try_validate`], [`SimError::NoWorkloads`] for an
    /// empty mix, and [`SimError::EmptySolarTrace`] for a solar trace
    /// with no samples — a silent all-zero supply would otherwise
    /// masquerade as a perpetual blackout.
    pub(crate) fn from_scenario(scenario: &Scenario) -> Result<Self, SimError> {
        let config = scenario.config();
        config.try_validate()?;
        if scenario.workloads().is_empty() {
            return Err(SimError::NoWorkloads);
        }
        if let PowerMode::Solar(trace) = scenario.mode() {
            if trace.is_empty() {
                return Err(SimError::EmptySolarTrace);
            }
        }
        let seed = scenario.seed();
        let (cluster, lanes) = seeded_rack(
            config.servers,
            scenario.workloads(),
            seed,
            scenario.steady_workload(),
        );
        let sc_fraction = if config.policy == PolicyKind::BaOnly {
            heb_units::Ratio::ZERO
        } else {
            config.sc_fraction
        };
        let mut buffers = HybridBuffers::build_split(
            config.total_capacity,
            sc_fraction,
            config.dod_limit,
            config.battery_strings,
        );
        let mut controller = HebController::new(config);
        // The first plan sees full pools; a preset SoC applies after it.
        let plan = controller.begin_slot(buffers.sc_available(), buffers.ba_available());
        if let Some(soc) = scenario.initial_soc() {
            for d in buffers.sc_pool_mut().devices_mut() {
                d.set_soc(soc);
            }
            for d in buffers.ba_pool_mut().devices_mut() {
                d.set_soc(soc);
            }
        }
        let mut sim = Self {
            ipdu: Ipdu::new(config.ticks_per_slot() as usize)
                .with_noise(config.metering_noise, seed ^ 0xA5A5_5A5A),
            cluster,
            fabric: SwitchFabric::new(config.servers),
            buffers,
            controller,
            utility: UtilityFeed::new(config.budget),
            renewable: RenewableFeed::new(),
            mode: scenario.mode().clone(),
            drive: LaneDrive::new(lanes.len()),
            lanes_steady: lanes.is_steady(),
            lanes,
            driven_at: None,
            metered_at: None,
            plan,
            clock: SimClock::new(config.tick),
            slot_peak: Watts::zero(),
            slot_valley: Watts::new(f64::INFINITY),
            report: SimReport::default(),
            slot_log: Vec::new(),
            injector: scenario
                .faults()
                .map_or_else(FaultInjector::idle, |s| FaultInjector::new(s.clone())),
            prev_budget_factor: Ratio::ONE,
            slot_gap_ticks: 0,
            supply_fault_prev: false,
            recovery_pending_since: None,
            prev_solar_online: true,
            recorder: null_recorder(),
            trace: false,
            config: config.clone(),
        };
        if let Some(recorder) = scenario.recorder() {
            sim.set_recorder(RecorderHandle::clone(recorder));
        }
        Ok(sim)
    }

    /// Routes the full event stream — controller decisions, per-slot
    /// pool state, power transitions, fault edges — to `recorder`.
    /// Without one the simulation keeps a
    /// [`heb_telemetry::NullRecorder`], which keeps the whole layer out
    /// of the per-tick path.
    fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.trace = recorder.is_enabled();
        self.controller
            .set_recorder(RecorderHandle::clone(&recorder));
        self.buffers
            .sc_pool_mut()
            .set_recorder(PoolId::SuperCap, RecorderHandle::clone(&recorder));
        self.buffers
            .ba_pool_mut()
            .set_recorder(PoolId::Battery, RecorderHandle::clone(&recorder));
        self.recorder = recorder;
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The simulation clock: completed tick count and tick duration.
    /// Every timestamp the simulation emits derives from this clock.
    #[must_use]
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The buffer pools (inspection).
    #[must_use]
    pub fn buffers(&self) -> &HybridBuffers {
        &self.buffers
    }

    /// The controller (inspection of PAT state etc.).
    #[must_use]
    pub fn controller(&self) -> &HebController {
        &self.controller
    }

    /// The server rack (inspection).
    #[must_use]
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The IPDU: the retained meter history and the latest per-server
    /// channels (inspection).
    #[must_use]
    pub fn meter(&self) -> &Ipdu {
        &self.ipdu
    }

    /// The per-slot decision log (one record per completed slot).
    #[must_use]
    pub fn slot_log(&self) -> &[SlotRecord] {
        &self.slot_log
    }

    /// The report so far, with battery-lifetime projection attached.
    #[must_use]
    pub fn snapshot(&self) -> SimReport {
        let mut report = self.report.clone();
        report.server_downtime = self.cluster.total_downtime();
        report.server_restarts = self.cluster.total_restarts();
        report.restart_waste = self.cluster.total_restart_waste();
        report.battery_lifetime = self.buffers.battery_projected_lifetime();
        report.battery_life_used = self.buffers.battery_life_used();
        report.utility_supplied = self.utility.energy_supplied();
        report.utility_peak = self.utility.peak_drawn();
        report.renewable_generated = self.renewable.energy_generated();
        report.renewable_used = self.renewable.energy_used();
        report.slots = self.controller.slots_completed();
        report.pat_entries = self.controller.pat().len();
        report.relay_actuations = self.fabric.actuations();
        report
    }

    /// Advances one metering tick.
    pub fn step(&mut self) {
        let dt = self.config.tick;
        let idx = self.clock.index();
        let now = self.clock.now();
        #[cfg(debug_assertions)]
        let supplied_before = self.feed_supplied();

        // Slot boundary: close the previous slot, restore shed servers
        // if the budget allows, and open the next slot.
        if idx > 0 && idx.is_multiple_of(self.config.ticks_per_slot()) {
            self.slot_boundary(now);
        }

        // Fault edges crossed since the last tick (quarantines, relay
        // sticks, ageing steps), then the continuous fault state.
        self.apply_fault_transitions(now);
        let factor = self.injector.budget_factor();
        if factor != self.prev_budget_factor {
            self.utility.derate(factor);
            self.prev_budget_factor = factor;
            if self.trace {
                self.recorder
                    .record(&Event::Power(PowerEvent::BudgetDerated {
                        time: now,
                        factor,
                    }));
                self.recorder
                    .record(&Event::Controller(ControllerEvent::Replanned {
                        time: now,
                        reason: "budget-change",
                    }));
            }
            // The slot plan was drawn against a different budget;
            // re-plan immediately instead of riding out the slot.
            self.replan();
            self.report.faults.replans += 1;
        }
        let solar_online = self.injector.solar_online();
        if self.trace && solar_online != self.prev_solar_online {
            self.recorder
                .record(&Event::Power(PowerEvent::SolarAvailability {
                    time: now,
                    online: solar_online,
                }));
        }
        self.prev_solar_online = solar_online;
        self.renewable.set_online(solar_online);

        if factor.get() <= 0.0 {
            self.report.faults.blackout_ticks += 1;
        } else if factor.get() < 1.0 {
            self.report.faults.brownout_ticks += 1;
        }
        if matches!(self.mode, PowerMode::Solar(_)) && !self.injector.solar_online() {
            self.report.faults.solar_dropout_ticks += 1;
        }
        // A supply fault is one that shrinks what the feed can deliver.
        let supply_fault = match &self.mode {
            PowerMode::Utility => factor.get() < 1.0,
            PowerMode::Solar(_) => !self.injector.solar_online(),
        };
        let unserved_before = self.report.unserved_energy;
        let shed_events_before = self.report.shed_events;

        // Drive workloads: every lane draws once (a steady lane writes
        // its level, skipped while the cluster is unchanged), and one
        // fused pass writes utilizations, draws and per-rack sums.
        self.drive_workload();

        // Periodic restore check (every 30 s): bring shed servers back
        // when supply can carry the whole rack again.
        if idx.is_multiple_of(30) {
            self.try_restore(now);
        }

        // Metering through the (possibly faulted) instrument path.
        let demand = self.cluster.total_demand();
        // The controller sees the *metered* totals, never ground truth.
        let meter_fault = self.injector.meter_fault();
        match self.meter_sample(now, meter_fault) {
            Some(total) => {
                self.record_reading(total);
                if matches!(meter_fault, MeterFault::Spike(_)) {
                    self.report.faults.meter_spike_ticks += 1;
                }
            }
            None => {
                self.slot_gap_ticks += 1;
                self.report.faults.meter_gap_ticks += 1;
            }
        }

        let raw_limit = self.feed_limit(idx);
        let supply_at_load = self.at_load(raw_limit);

        // Which pools exchange energy this tick, indexed by `Pool`.
        let mut active = [false; 2];
        if demand > supply_at_load {
            let mismatch = demand - supply_at_load;
            // Buffers must source extra to cover the buffer→load path.
            let buffer_request = self
                .chain(DeliveryPath::BufferToLoad)
                .required_input(mismatch);
            let outcome = self.discharge_buffers(buffer_request, dt, &mut active);
            let at_load = self
                .chain(DeliveryPath::BufferToLoad)
                .forward(Watts::new(outcome.delivered.get() / dt.get()));
            self.report.conversion_loss += outcome.delivered - at_load * dt;
            let shortfall = mismatch - at_load;
            if shortfall.get() > 1.0 {
                self.shed_for_shortfall(mismatch, shortfall, &outcome, dt, now);
            }
            // Servers behind stuck-open relays cannot reach the buffers
            // during the mismatch: their share of the peak browns out.
            self.shed_stuck_relays(mismatch, dt, now);
            // The grid/array supplies the rest (at the feed side).
            self.carry(raw_limit, (raw_limit - supply_at_load) * dt, dt);
        } else {
            let (raw_needed, loss) = self.feed_for(demand, dt);
            self.carry(raw_needed, loss, dt);
            let headroom_raw = (raw_limit - raw_needed).max(Watts::zero());
            // Offer the headroom to the buffers through the charging path.
            let offered = self
                .chain(DeliveryPath::SourceToBuffer)
                .forward(headroom_raw);
            let charged = self.charge_buffers(offered, dt, &mut active);
            let charged_power = Watts::new(charged.get() / dt.get());
            let source_draw = self
                .chain(DeliveryPath::SourceToBuffer)
                .required_input(charged_power);
            self.report.conversion_loss += (source_draw - charged_power) * dt;
            if let PowerMode::Solar(_) = &self.mode {
                // Energy absorbed into storage counts toward REU.
                self.renewable.absorb_into_storage(charged_power, dt);
            } else if charged.get() > 0.0 {
                // Charging draws through the utility feed too.
                let _ = self.utility.draw(source_draw, dt);
            }
        }

        // Pools that moved no energy this tick idle (battery recovery).
        for pool in [Pool::Sc, Pool::Ba] {
            if !active[pool as usize] {
                self.buffers.pool_mut(pool).idle(dt);
            }
        }

        // Timestamp every shedding event this tick triggered, so
        // post-hoc analyses (outage survival, storm forensics) can
        // locate sheds without re-running the simulation.
        for _ in shed_events_before..self.report.shed_events {
            self.report.shed_times.push(now);
        }

        // Servers consume; downtime accrues inside the cluster. A rack
        // all running with no restart surcharge accrues nothing, so its
        // tick is the restamp alone.
        if self.cluster.all_running_steady() {
            self.cluster.mark_all_active(now);
        } else {
            let _ = self.cluster.tick(now, dt);
        }

        // Resilience accounting: ride-through while the whole rack
        // survives an active supply fault, unserved energy attributable
        // to supply faults, and the latency from fault recovery until
        // the rack is fully re-powered.
        let fully_up = self.cluster.running_count() == self.cluster.len();
        if supply_fault {
            if fully_up {
                self.report.faults.ride_through += dt;
            }
            self.report.faults.fault_unserved += self.report.unserved_energy - unserved_before;
        }
        if self.supply_fault_prev && !supply_fault && !fully_up {
            self.recovery_pending_since = Some(now);
        }
        if let Some(since) = self.recovery_pending_since {
            if fully_up {
                self.report.faults.recovery_latency += now - since;
                self.recovery_pending_since = None;
            }
        }
        self.supply_fault_prev = supply_fault;
        #[cfg(debug_assertions)]
        self.check_feed_and_soc(supplied_before, raw_limit, dt);
        self.end_tick(dt);
    }

    /// Raw supply limit for tick `idx` at the feed, after any derating
    /// or trip the fault layer imposed; a solar feed takes the trace's
    /// sample for the tick first.
    fn feed_limit(&mut self, idx: u64) -> Watts {
        match &self.mode {
            PowerMode::Utility => self.utility.effective_budget(),
            PowerMode::Solar(trace) => {
                let idx = (idx as usize) % trace.len().max(1);
                let supply = trace.samples().get(idx).copied().unwrap_or_default();
                self.renewable.set_supply(supply);
                self.renewable.available()
            }
        }
    }

    /// What `raw` watts at the feed deliver at the load. That depends
    /// on the architecture (Figure 7): a centralized double-converting
    /// UPS taxes every watt on the utility path, HEB does not.
    fn at_load(&self, raw: Watts) -> Watts {
        self.chain(DeliveryPath::UtilityToLoad).forward(raw)
    }

    /// Feed power needed at the source to carry `demand`, and the
    /// conversion loss that costs over `dt`.
    fn feed_for(&self, demand: Watts, dt: Seconds) -> (Watts, Joules) {
        let raw_needed = self
            .chain(DeliveryPath::UtilityToLoad)
            .required_input(demand);
        (raw_needed, (raw_needed - demand) * dt)
    }

    /// Draws `raw` for `dt` from the feed the power mode names and
    /// books the conversion `loss` on the way to the load (see
    /// [`Simulation::feed_for`]).
    fn carry(&mut self, raw: Watts, loss: Joules, dt: Seconds) {
        self.report.conversion_loss += loss;
        match &self.mode {
            PowerMode::Utility => {
                let _ = self.utility.draw(raw, dt);
            }
            PowerMode::Solar(_) => {
                let _ = self.renewable.draw(raw, dt);
            }
        }
    }

    /// Folds a meter reading into the slot's peak and valley.
    fn record_reading(&mut self, total: Watts) {
        self.slot_peak = self.slot_peak.max(total);
        self.slot_valley = self.slot_valley.min(total);
    }

    /// Closes a tick: simulated time and the clock advance by `dt`.
    fn end_tick(&mut self, dt: Seconds) {
        self.report.sim_time += dt;
        self.clock.advance();
    }

    /// Energy both feeds have supplied so far, for the feed-balance
    /// check.
    #[cfg(debug_assertions)]
    fn feed_supplied(&self) -> Joules {
        self.utility.energy_supplied() + self.renewable.energy_used()
    }

    /// The per-tick safety checks: the feeds supplied no more than
    /// `raw_limit` over `span` since `supplied_before`, and every SoC
    /// is in bounds.
    #[cfg(debug_assertions)]
    fn check_feed_and_soc(&self, supplied_before: Joules, raw_limit: Watts, span: Seconds) {
        crate::invariants::check_feed_balance(
            self.feed_supplied() - supplied_before,
            raw_limit,
            span,
        );
        crate::invariants::check_soc_bounds(&self.buffers);
    }

    /// Writes this tick's utilizations into the cluster. Steady lanes
    /// drive it straight from their steady levels (bitwise every sample
    /// they would draw, see [`UtilizationLanes::is_steady`]) with no
    /// buffer between, and not at all while the cluster is unchanged
    /// since their last drive: every utilization, draw and per-rack sum
    /// then already holds what the drive would write. Bursty lanes go
    /// through the [`LaneDrive`].
    fn drive_workload(&mut self) {
        if self.lanes_steady {
            if self.driven_at == Some(self.cluster.generation()) {
                return;
            }
            self.cluster
                .set_utilizations_with(self.lanes.steady_levels());
            self.driven_at = Some(self.cluster.generation());
        } else {
            self.drive.apply(&mut self.lanes, &mut self.cluster);
        }
    }

    /// Samples the cluster through the (possibly faulted) meter and
    /// returns the reading's total, or `None` when the poll is lost.
    /// A spike corrupts the retained reading, so the next healthy
    /// sample is taken afresh; a dropout or a freeze leaves the meter
    /// as it was.
    fn meter_sample(&mut self, now: Seconds, fault: MeterFault) -> Option<Watts> {
        if fault == MeterFault::Healthy && self.ipdu.is_noiseless() {
            return Some(self.steady_reading(now));
        }
        let total = self
            .ipdu
            .try_sample(&self.cluster, now, fault)
            .map(|reading| reading.total);
        if matches!(fault, MeterFault::Spike(_)) {
            self.metered_at = None;
        }
        total
    }

    /// A healthy reading of a noiseless meter: the last reading
    /// repeated when the cluster has not changed since it was taken
    /// (bitwise what a fresh sample would give), a fresh sample
    /// otherwise.
    fn steady_reading(&mut self, now: Seconds) -> Watts {
        let generation = self.cluster.generation();
        if self.metered_at == Some(generation) {
            return self.ipdu.repeat_steady(now);
        }
        self.metered_at = Some(generation);
        self.ipdu.record_steady(&self.cluster, now)
    }

    /// The converter chain the configured topology routes `path`
    /// through.
    fn chain(&self, path: DeliveryPath) -> &ConverterChain {
        self.config.topology.chain(path)
    }

    /// Attempts to fast-forward up to `max_ticks` provably quiet ticks
    /// in one call, returning how many were covered (`0` means "this
    /// tick is not quiet — use [`Simulation::step`]").
    ///
    /// A tick is quiet when stepping it would move no energy through
    /// the buffers and cross no decision point: utility mode at full
    /// budget, no fault active or pending within the span, noiseless
    /// metering, every server up with no restart surcharge, every
    /// workload at a provably steady level, both pools unable to accept
    /// charge, and no slot boundary at the current tick. Each condition
    /// is re-verified *here*, not trusted from the caller, so the
    /// result is bitwise identical to stepping the same span tick by
    /// tick — the only skipped work is work that provably has no
    /// observable effect (zero-valued RNG draws, `+0.0` accumulator
    /// adds, idempotent relay/feed writes, re-metering a frozen cluster).
    ///
    /// Battery feedback state (SoC, temperature) is advanced through
    /// per-tick [`StorageDevice::idle_settled`] calls until every
    /// device reaches a bitwise fixed point, after which the remaining
    /// span is covered by [`StorageDevice::idle_accumulate`] — so even
    /// the self-discharge physics are exact, not approximated.
    pub(crate) fn try_leap(&mut self, max_ticks: u64) -> u64 {
        let idx = self.clock.index();
        let tps = self.config.ticks_per_slot();
        // No refusal scans the servers: each costs O(1), O(workload
        // profiles) or O(buffer strings). Bursty lanes (the dense
        // regime) refuse here.
        if max_ticks == 0
            || (idx > 0 && idx.is_multiple_of(tps)) // Slot boundaries always take the dense path.
            || !matches!(self.mode, PowerMode::Utility)
            || self.prev_budget_factor != Ratio::ONE
            || !self.prev_solar_online
            || self.supply_fault_prev
            || self.recovery_pending_since.is_some()
            || self.injector.any_active()
            || !self.ipdu.is_noiseless()
            || !self.lanes_steady
            || !self.cluster.all_running_steady()
            || !self.buffers.sc_pool().charge_quiescent()
            || !self.buffers.ba_pool().charge_quiescent()
        {
            return 0;
        }

        // Span end: the horizon, the next slot boundary, and the next
        // fault edge all bound it; the earliest wins.
        let mut end = idx.saturating_add(max_ticks).min((idx / tps + 1) * tps);
        if let Some(at) = self.injector.next_transition_at() {
            let fire = self.clock.index_at_or_after(at);
            if fire <= idx {
                return 0;
            }
            end = end.min(fire);
        }
        if end <= idx {
            return 0;
        }

        #[cfg(debug_assertions)]
        let supplied_before = self.feed_supplied();

        // The steady levels make every per-tick quantity a constant:
        // set utilizations once (a no-op when the cluster is unchanged
        // since the last drive) and work out the feed draw once.
        self.drive_workload();
        let dt = self.config.tick;
        let demand = self.cluster.total_demand();
        let raw_limit = self.feed_limit(idx);
        if demand > self.at_load(raw_limit) {
            return 0; // A standing mismatch discharges buffers: dense.
        }
        let (raw_needed, loss) = self.feed_for(demand, dt);

        // Each tick is a step's no-mismatch tick with nothing to
        // charge. The cluster stays frozen for the whole span, so the
        // meter samples it at most once (on the first tick, and only if
        // the cluster changed since the last sample) and repeats that
        // reading on every later one: a leaped tick costs O(1), not
        // O(servers). Devices idle tick by tick until every one hits a
        // bitwise fixed point (usually the very first tick); the ticks
        // after that are replayed in one sweep at the end.
        let span = end - idx;
        let mut done = 0_u64;
        let mut settled = false;
        // Ticks after the devices settled, replayed in one sweep.
        let mut replay = 0_u64;
        while done < span {
            let reading = self.steady_reading(self.clock.now());
            self.record_reading(reading);
            self.carry(raw_needed, loss, dt);
            if settled {
                replay += 1;
            } else {
                settled = self.buffers.idle_settled_all(dt);
            }
            self.end_tick(dt);
            done += 1;
            if !(settled
                || (self.buffers.sc_pool().charge_quiescent()
                    && self.buffers.ba_pool().charge_quiescent()))
            {
                // Idling opened charge headroom (self-discharge): the
                // next tick would move energy, so hand back to step().
                break;
            }
        }
        if replay > 0 {
            self.buffers.idle_accumulate_all(dt, replay);
        }
        // Running servers refresh their LRU stamp every tick; the span
        // collapses to one write of the final timestamp.
        self.cluster
            .mark_all_active(self.clock.time_at(self.clock.index() - 1));
        #[cfg(debug_assertions)]
        self.check_feed_and_soc(supplied_before, raw_limit, dt * done as f64);
        done
    }

    /// Records a completed leap in the telemetry stream (`time` is the
    /// start of the leaped span).
    pub(crate) fn note_leap(&mut self, ticks: u64) {
        if self.trace {
            let time = self.clock.time_at(self.clock.index() - ticks);
            self.recorder
                .record(&Event::Driver(DriverEvent::Leaped { time, ticks }));
        }
    }

    /// Applies every fault edge the injector crossed since last tick:
    /// one-shot state changes happen here; continuous effects (grid
    /// derating, solar trips, meter health) are queried per tick.
    fn apply_fault_transitions(&mut self, now: Seconds) {
        for transition in self.injector.poll(now) {
            match transition {
                FaultTransition::Started(event) => {
                    self.report.faults.events_applied += 1;
                    if self.trace {
                        self.recorder
                            .record(&Event::Fault(TraceFaultEvent::Injected {
                                time: now,
                                kind: event.kind.name(),
                            }));
                    }
                    match event.kind {
                        FaultKind::BatteryStringFailure { index } => {
                            if self.buffers.ba_pool_mut().quarantine(index) {
                                self.report.faults.strings_quarantined += 1;
                            }
                        }
                        FaultKind::ScModuleFailure { index } => {
                            if self.buffers.sc_pool_mut().quarantine(index) {
                                self.report.faults.strings_quarantined += 1;
                            }
                        }
                        FaultKind::BatteryDegradation {
                            capacity_fade,
                            resistance_growth,
                        } => {
                            self.buffers
                                .ba_pool_mut()
                                .degrade(capacity_fade, resistance_growth);
                        }
                        FaultKind::RelayStuckOpen { server } => {
                            if server < self.config.servers {
                                self.fabric.set_stuck_open(server, true);
                            }
                        }
                        // Continuous faults: realised via the injector's
                        // budget_factor/solar_online/meter_fault queries.
                        FaultKind::UtilityBrownout { .. }
                        | FaultKind::UtilityBlackout
                        | FaultKind::SolarDropout
                        | FaultKind::MeterDropout
                        | FaultKind::MeterFreeze
                        | FaultKind::MeterSpike { .. } => {}
                    }
                }
                FaultTransition::Ended(event) => {
                    self.report.faults.events_recovered += 1;
                    if self.trace {
                        self.recorder
                            .record(&Event::Fault(TraceFaultEvent::Recovered {
                                time: now,
                                kind: event.kind.name(),
                            }));
                    }
                    match event.kind {
                        FaultKind::BatteryStringFailure { index }
                            if self.buffers.ba_pool_mut().restore(index) =>
                        {
                            self.report.faults.strings_restored += 1;
                        }
                        FaultKind::ScModuleFailure { index }
                            if self.buffers.sc_pool_mut().restore(index) =>
                        {
                            self.report.faults.strings_restored += 1;
                        }
                        FaultKind::RelayStuckOpen { server } if server < self.config.servers => {
                            self.fabric.set_stuck_open(server, false);
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    /// Sheds running servers stranded behind stuck-open relays during a
    /// mismatch. They cannot switch onto the buffers, and the utility
    /// side is already at its limit, so their share of the peak browns
    /// out — capped at the number of servers the mismatch spans.
    fn shed_stuck_relays(&mut self, mismatch: Watts, dt: Seconds, now: Seconds) {
        if self.fabric.stuck_open_count() == 0 {
            return;
        }
        let mut quota = (mismatch.get() / 70.0).ceil().max(1.0) as usize;
        let mut shed_count = 0_usize;
        for id in self.fabric.stuck_open_iter() {
            if quota == 0 {
                break;
            }
            if self.cluster.is_running(id) {
                let draw = self.cluster.power_draw(id);
                self.cluster.power_off(id);
                self.report.unserved_energy += draw * dt;
                shed_count += 1;
                quota -= 1;
            }
        }
        if shed_count > 0 {
            self.report.shed_events += 1;
            if self.trace {
                self.recorder.record(&Event::Power(PowerEvent::Shed {
                    time: now,
                    servers: shed_count,
                }));
            }
        }
    }

    /// Runs the slot decision — at a slot boundary, or mid-slot after
    /// the available budget changed — and mirrors the fresh plan onto
    /// the relay fabric.
    fn replan(&mut self) {
        self.plan = self
            .controller
            .begin_slot(self.buffers.sc_available(), self.buffers.ba_available());
        self.mirror_plan();
    }

    /// Routes a discharge request through the pools per the slot plan,
    /// with cross-pool overflow, returning the energy delivered and the
    /// per-pool primary targets/deliveries (for failure attribution).
    fn discharge_buffers(
        &mut self,
        mismatch: Watts,
        dt: Seconds,
        active: &mut [bool; 2],
    ) -> DischargeOutcome {
        let mut total = DischargeResult::none();
        let mut outcome = DischargeOutcome::default();
        let buffers = &mut self.buffers;
        let mut draw = |pool: Pool, request: Watts| {
            active[pool as usize] = true;
            let r = buffers.pool_mut(pool).discharge(request, dt);
            let delivered = r.delivered;
            total.absorb(r);
            Watts::new(delivered.get() / dt.get())
        };
        let (target, sourced) = (&mut outcome.target, &mut outcome.sourced);
        let (sc, ba) = (Pool::Sc as usize, Pool::Ba as usize);
        let cascade = match self.plan.discharge {
            DischargePriority::BatteryOnly => Some((Pool::Ba, None)),
            DischargePriority::BatteryThenSc => Some((Pool::Ba, Some(Pool::Sc))),
            DischargePriority::ScThenBattery => Some((Pool::Sc, Some(Pool::Ba))),
            DischargePriority::Split => {
                target[sc] = mismatch * self.plan.r_lambda.get();
                target[ba] = mismatch - target[sc];
                sourced[sc] = draw(Pool::Sc, target[sc]);
                sourced[ba] = draw(Pool::Ba, target[ba]);
                let gap = mismatch - sourced[sc] - sourced[ba];
                if gap.get() > 0.5 {
                    // Overflow: whichever pool still has margin covers.
                    let extra = draw(Pool::Sc, gap);
                    sourced[sc] += extra;
                    let gap2 = gap - extra;
                    if gap2.get() > 0.5 {
                        sourced[ba] += draw(Pool::Ba, gap2);
                    }
                }
                None
            }
        };
        // The first pool carries the mismatch; the second covers what
        // it left.
        if let Some((first, second)) = cascade {
            target[first as usize] = mismatch;
            sourced[first as usize] = draw(first, mismatch);
            let gap = mismatch - sourced[first as usize];
            if let Some(second) = second.filter(|_| gap.get() > 0.5) {
                sourced[second as usize] = draw(second, gap);
            }
        }
        self.report.buffer_delivered += total.delivered;
        self.report.buffer_drained += total.drained;
        self.report.discharge_loss += total.loss;
        outcome.delivered = total.delivered;
        outcome
    }

    /// Offers charging headroom to the pools per the plan's priority,
    /// returning the energy drawn from the source.
    fn charge_buffers(&mut self, headroom: Watts, dt: Seconds, active: &mut [bool; 2]) -> Joules {
        if headroom.get() <= 0.0 {
            return Joules::zero();
        }
        let (first, second) = match self.plan.charge {
            ChargePriority::BatteryOnly => (Pool::Ba, None),
            ChargePriority::BatteryThenSc => (Pool::Ba, Some(Pool::Sc)),
            ChargePriority::ScThenBattery => (Pool::Sc, Some(Pool::Ba)),
        };
        let mut total = ChargeResult::none();
        let mut offer = |pool: Pool, offered: Watts| {
            active[pool as usize] = true;
            let r = self.buffers.pool_mut(pool).charge(offered, dt);
            let drawn = Watts::new(r.drawn.get() / dt.get());
            total.absorb(r);
            drawn
        };
        // The first pool takes what it can; the second is offered the
        // rest.
        let rest = headroom - offer(first, headroom);
        if let Some(second) = second.filter(|_| rest.get() > 0.5) {
            let _ = offer(second, rest);
        }
        self.report.charge_drawn += total.drawn;
        self.report.charge_stored += total.stored;
        self.report.charge_loss += total.loss;
        total.drawn
    }

    /// Sheds servers after a power shortfall the buffers could not
    /// cover. A pool that missed its primary target has *sagged*: in the
    /// prototype the whole DC bus browns out and every server wired to
    /// that pool drops, while servers on the healthy pool ride through —
    /// this is exactly why battery-only peak shaving costs so much more
    /// uptime than the hybrid (Figure 12(b)).
    fn shed_for_shortfall(
        &mut self,
        mismatch: Watts,
        shortfall: Watts,
        outcome: &DischargeOutcome,
        dt: Seconds,
        now: Seconds,
    ) {
        let per_server = Watts::new(70.0);
        // Servers riding on buffers this tick.
        let buffered = (mismatch.get() / per_server.get()).ceil().max(1.0) as usize;
        let buffered = buffered.min(self.config.servers);
        // Split the buffered group across pools proportionally to the
        // primary targets.
        let [sc_target, ba_target] = outcome.target;
        let total_target = (sc_target + ba_target).max(per_server);
        let sc_n = ((sc_target / total_target) * buffered as f64).round() as usize;
        let ba_n = buffered - sc_n.min(buffered);
        let mut count = 0;
        for (pool, n) in [(Pool::Sc, sc_n), (Pool::Ba, ba_n)] {
            let (target, sourced) = (
                outcome.target[pool as usize],
                outcome.sourced[pool as usize],
            );
            if target.get() > 0.0 && sourced < target - Watts::new(1.0) {
                count += n.max(1);
            }
        }
        // At minimum, shed enough to cover the residual shortfall.
        let floor = (shortfall.get() / per_server.get()).ceil().max(1.0) as usize;
        let count = count.max(floor);
        let shed = self.cluster.shed_least_recently_used(count);
        if !shed.is_empty() {
            self.report.shed_events += 1;
            self.report.unserved_energy += shortfall * dt;
            if self.trace {
                self.recorder.record(&Event::Power(PowerEvent::Shed {
                    time: now,
                    servers: shed.len(),
                }));
            }
        }
    }

    /// Brings shed servers back when supply plus dispatchable buffer
    /// power can carry the whole rack — with hysteresis: the buffers
    /// must also hold enough energy to ride the prospective mismatch
    /// for at least two minutes, or the rack would thrash between shed
    /// and restore (each cycle burning restart energy).
    fn try_restore(&mut self, now: Seconds) {
        if self.cluster.running_count() == self.cluster.len() {
            return;
        }
        let prospective: Watts = self.cluster.prospective_total();
        // Use the *effective* supply: a derated or blacked-out feed
        // must not lure shed servers back mid-outage.
        let supply = match &self.mode {
            PowerMode::Utility => self.utility.effective_budget(),
            PowerMode::Solar(_) => self.renewable.available(),
        };
        let supply = self.at_load(supply);
        let buffer_power = self
            .chain(DeliveryPath::BufferToLoad)
            .forward(self.buffers.total_discharge_power());
        let deliverable = supply + buffer_power * 0.8;
        let mismatch = (prospective - supply).max(Watts::zero());
        let ride_through = mismatch * Seconds::new(120.0);
        if deliverable >= prospective && self.buffers.total_available() >= ride_through {
            self.cluster.restore_all();
            if self.trace {
                self.recorder
                    .record(&Event::Power(PowerEvent::Restored { time: now }));
            }
        }
    }

    /// Slot bookkeeping: close the finished slot, reconfigure relays,
    /// open the next one.
    fn slot_boundary(&mut self, now: Seconds) {
        #[cfg(debug_assertions)]
        crate::invariants::check_energy_conservation(&self.report);
        if self.trace {
            self.emit_pool_state(now);
        }
        let peak = self.slot_peak;
        let valley = if self.slot_valley.get().is_finite() {
            self.slot_valley
        } else {
            Watts::zero()
        };
        self.slot_log.push(SlotRecord {
            slot: self.controller.slots_completed(),
            predicted_mismatch: self.plan.predicted_mismatch,
            actual_mismatch: (peak - valley).max(Watts::zero()),
            r_lambda: self.plan.r_lambda,
            sc_soc: self.buffers.sc_pool().soc(),
            ba_soc: self.buffers.ba_pool().soc(),
        });
        // A slot that was mostly blind carries no trustworthy
        // peak/valley: close it without feeding the predictors or the
        // PAT, and plan the next slot from the last good values.
        let blind = self.slot_gap_ticks * 2 > self.config.ticks_per_slot();
        self.slot_gap_ticks = 0;
        if blind {
            self.controller.end_slot_unmetered();
            self.controller.set_forecast_degraded(true);
            self.report.faults.forecast_fallbacks += 1;
        } else {
            self.controller.end_slot(
                peak,
                valley,
                self.buffers.sc_available(),
                self.buffers.ba_available(),
            );
        }
        self.replan();
        self.slot_peak = Watts::zero();
        self.slot_valley = Watts::new(f64::INFINITY);
    }

    /// Mirrors the current plan onto the relay fabric: R_λ of servers
    /// point at the SC pool, the rest at the battery pool (utility
    /// default applies outside mismatch events).
    fn mirror_plan(&mut self) {
        let n = self.config.servers;
        let sc_servers = (self.plan.r_lambda.get() * n as f64).round() as usize;
        let (sc_n, ba_n) = match self.plan.discharge {
            DischargePriority::BatteryOnly | DischargePriority::BatteryThenSc => {
                self.fabric.assign_all(PowerSource::Battery);
                (0, n)
            }
            DischargePriority::ScThenBattery => {
                self.fabric.assign_all(PowerSource::SuperCap);
                (n, 0)
            }
            DischargePriority::Split => {
                self.fabric.assign_split(sc_servers, n - sc_servers);
                (sc_servers, n - sc_servers)
            }
        };
        if self.trace {
            self.recorder
                .record(&Event::Power(PowerEvent::RelayAssignment {
                    slot: self.controller.slots_completed(),
                    sc_servers: sc_n,
                    ba_servers: ba_n,
                }));
        }
    }

    /// Emits one `esd.pool_state` sample per pool — the raw material
    /// of the paper's SoC-over-time curves (Figures 5 and 12).
    fn emit_pool_state(&self, now: Seconds) {
        let sc = self.buffers.sc_pool();
        self.recorder.record(&Event::Esd(EsdEvent::PoolState {
            time: now,
            pool: PoolId::SuperCap,
            soc: sc.soc(),
            voltage: sc.open_circuit_voltage().get(),
            available: sc.available_energy(),
            throughput_ah: 0.0,
        }));
        let ba = self.buffers.ba_pool();
        self.recorder.record(&Event::Esd(EsdEvent::PoolState {
            time: now,
            pool: PoolId::Battery,
            soc: ba.soc(),
            voltage: ba.open_circuit_voltage().get(),
            available: ba.available_energy(),
            throughput_ah: ba
                .devices()
                .iter()
                .map(|d| d.lifetime().raw_throughput().get())
                .sum(),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::SimError;
    use crate::faults::{FaultEvent, FaultSchedule};
    use heb_units::Ratio;

    /// `hours` of the WebSearch + Terasort rack under `policy`.
    fn mixed(policy: PolicyKind, hours: f64) -> Scenario {
        Scenario::new(
            "t/mixed",
            SimConfig::prototype().with_policy(policy),
            &[Archetype::WebSearch, Archetype::Terasort],
            hours,
            11,
        )
    }

    #[test]
    fn runs_and_accumulates_time() {
        let report = mixed(PolicyKind::HebD, 0.5).run().unwrap();
        assert_eq!(report.sim_time, Seconds::from_hours(0.5));
        assert!(report.slots >= 2);
    }

    /// A disabled recorder whose `record` panics: proves the disabled
    /// path never constructs or delivers an event — the semantic half
    /// of the zero-cost claim (the perf half is the telemetry guard of
    /// `microbench -- --guard PATH`).
    #[derive(Debug)]
    struct PanicRecorder;

    impl heb_telemetry::Recorder for PanicRecorder {
        fn is_enabled(&self) -> bool {
            false
        }

        fn record(&self, event: &Event) {
            panic!("record() reached while disabled: {}", event.kind());
        }
    }

    #[test]
    fn disabled_recorder_is_never_invoked() {
        // Cross several slot boundaries, a budget derate, and a fault
        // window — every emission site fires, none may call record().
        let schedule = FaultSchedule::parse("blackout@300~120").unwrap();
        let report = mixed(PolicyKind::HebD, 0.5)
            .with_faults(schedule)
            .with_recorder(std::sync::Arc::new(PanicRecorder))
            .run()
            .unwrap();
        assert!(report.slots >= 2);
    }

    #[test]
    fn ba_only_never_touches_sc() {
        let scenario = mixed(PolicyKind::BaOnly, 0.5);
        let mut s = scenario.build_driver().unwrap();
        let report = s.run_ticks(scenario.ticks());
        assert!(s.sim().buffers().sc_pool().is_empty());
        assert!(report.pat_entries == 0);
    }

    #[test]
    fn peaks_drain_buffers() {
        // Force a permanent peak with a tiny budget.
        let config = SimConfig::prototype()
            .with_policy(PolicyKind::HebD)
            .with_budget(Watts::new(150.0));
        let report = Scenario::new("t/peaks", config, &[Archetype::Terasort], 0.3, 3)
            .run()
            .unwrap();
        assert!(
            report.buffer_delivered.get() > 0.0,
            "buffers must shave the standing mismatch"
        );
    }

    #[test]
    fn valleys_recharge_buffers() {
        // Generous budget, light workload: buffers should top up after
        // being pre-drained.
        let config = SimConfig::prototype().with_policy(PolicyKind::ScFirst);
        let scenario = Scenario::new("t/valleys", config, &[Archetype::PageRank], 0.2, 5);
        let mut s = scenario.build().unwrap();
        s.buffers
            .sc_pool_mut()
            .devices_mut()
            .iter_mut()
            .for_each(|d| d.set_soc(Ratio::new_clamped(0.2)));
        let before = s.buffers().sc_available();
        for _ in 0..scenario.ticks() {
            s.step();
        }
        let report = s.snapshot();
        assert!(s.buffers().sc_available() > before);
        assert!(report.charge_drawn.get() > 0.0);
    }

    #[test]
    fn starvation_causes_downtime() {
        // Budget far below even idle power and almost no buffer.
        let config = SimConfig::prototype()
            .with_policy(PolicyKind::BaOnly)
            .with_budget(Watts::new(60.0))
            .with_total_capacity(Joules::from_watt_hours(2.0));
        let report = Scenario::new("t/starved", config, &[Archetype::Terasort], 0.5, 1)
            .run()
            .unwrap();
        assert!(
            report.server_downtime.get() > 0.0,
            "starved rack must shed servers"
        );
        assert!(report.shed_events > 0);
    }

    #[test]
    fn solar_mode_tracks_reu() {
        use heb_workload::SolarTraceBuilder;
        let trace = SolarTraceBuilder::new(Watts::new(400.0))
            .seed(2)
            .days(1.0)
            .build();
        let config = SimConfig::prototype().with_policy(PolicyKind::HebD);
        // Run across midday so generation actually happens.
        let report = Scenario::from_ticks("t/solar", config, &[Archetype::WebSearch], 12 * 3600, 9)
            .with_mode(PowerMode::Solar(trace))
            .run()
            .unwrap();
        assert!(report.renewable_generated.get() > 0.0);
        let reu = report.reu();
        assert!(reu.get() > 0.0 && reu.get() <= 1.0);
    }

    #[test]
    fn energy_accounting_is_consistent() {
        let report = mixed(PolicyKind::HebD, 1.0).run().unwrap();
        // delivered + discharge loss == drained
        assert!(
            ((report.buffer_delivered + report.discharge_loss) - report.buffer_drained)
                .get()
                .abs()
                < 1.0
        );
        // drawn == stored + charge loss
        assert!(
            ((report.charge_stored + report.charge_loss) - report.charge_drawn)
                .get()
                .abs()
                < 1.0
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let r1 = mixed(PolicyKind::HebD, 0.3).run().unwrap();
        let r2 = mixed(PolicyKind::HebD, 0.3).run().unwrap();
        assert_eq!(r1.buffer_delivered, r2.buffer_delivered);
        assert_eq!(r1.server_downtime, r2.server_downtime);
    }

    #[test]
    fn construction_reports_typed_errors() {
        let mut config = SimConfig::prototype();
        config.servers = 0;
        assert_eq!(
            Scenario::new("t/none", config, &[Archetype::WebSearch], 0.1, 0)
                .build()
                .err(),
            Some(SimError::Config(crate::config::ConfigError::NoServers))
        );
        // Invalid configs are reported before the workload mix.
        let mut config = SimConfig::prototype();
        config.tick = Seconds::new(f64::NAN);
        assert!(matches!(
            Scenario::new("t/nan", config, &[], 0.1, 0).build(),
            Err(SimError::Config(_))
        ));
    }

    #[test]
    fn faulted_run_completes_and_ledger_accounts_every_event() {
        let schedule = FaultSchedule::parse(
            "blackout@900~300; ba-fail(0)@600~600; meter-drop@300~120; \
             meter-spike(3)@1500~60; relay-open(2)@100~900; ba-degrade(0.1,0.2)@1200; \
             sc-fail(0)@200~400; brownout(0.5)@1900~200",
        )
        .unwrap();
        let config = SimConfig::prototype()
            .with_policy(PolicyKind::HebD)
            .with_battery_strings(3);
        let report = Scenario::new(
            "t/faulted",
            config,
            &[Archetype::WebSearch, Archetype::Terasort],
            1.0,
            11,
        )
        .with_faults(schedule)
        .run()
        .unwrap();
        let ledger = &report.faults;
        assert_eq!(ledger.events_applied, 8, "every onset must be applied");
        // Everything recovers except the instantaneous ageing step.
        assert_eq!(ledger.events_recovered, 7);
        assert_eq!(ledger.blackout_ticks, 300);
        assert_eq!(ledger.brownout_ticks, 200);
        assert_eq!(ledger.meter_gap_ticks, 120);
        assert_eq!(ledger.meter_spike_ticks, 60);
        assert_eq!(
            ledger.strings_quarantined, 2,
            "one BA string + one SC module"
        );
        assert_eq!(ledger.strings_restored, 2);
        // Budget changed four times: blackout on/off, brownout on/off.
        assert_eq!(ledger.replans, 4);
        assert!(
            ledger.ride_through.get() > 0.0,
            "150 Wh of buffer must ride through some of a 5-minute blackout"
        );
        // Energy conservation holds through quarantines, degradation,
        // and outages.
        assert!(
            ((report.buffer_delivered + report.discharge_loss) - report.buffer_drained)
                .get()
                .abs()
                < 1.0
        );
        assert!(
            ((report.charge_stored + report.charge_loss) - report.charge_drawn)
                .get()
                .abs()
                < 1.0
        );
        // No NaN leaked into the headline metrics.
        assert!(report.energy_efficiency().get().is_finite());
        assert!(report.server_downtime.get().is_finite());
    }

    #[test]
    fn fully_blind_slot_degrades_forecast_instead_of_poisoning_it() {
        // The meter is dark for the whole of slot 1 (ticks 600..1200).
        let schedule = FaultSchedule::parse("meter-drop@600~600").unwrap();
        let mut s = mixed(PolicyKind::HebD, 0.0)
            .with_faults(schedule)
            .build_driver()
            .unwrap();
        let report = s.run_ticks(1201);
        assert_eq!(report.faults.meter_gap_ticks, 600);
        assert_eq!(report.faults.forecast_fallbacks, 1);
        assert!(
            s.sim().controller().is_forecast_degraded(),
            "controller must be planning from last good values"
        );
        assert_eq!(report.slots, 2, "blind slots still count");
        // Recovery: the next fully metered slot clears the flag.
        let report = s.run_ticks(600);
        assert!(!s.sim().controller().is_forecast_degraded());
        assert_eq!(report.faults.forecast_fallbacks, 1);
    }

    #[test]
    fn mid_run_blackout_via_faults_matches_solar_trace_outage() {
        // The same outage expressed two ways must shed identically:
        // (a) utility mode with an injected blackout, (b) the
        // exp_outage construction — a solar trace that drops to zero.
        let warmup = 600_u64;
        let outage = 1800_u64;
        let config = SimConfig::prototype().with_policy(PolicyKind::HebD);
        let mix = [Archetype::WebSearch, Archetype::MediaStreaming];

        let scenario = Scenario::from_ticks("t/outage", config.clone(), &mix, warmup + outage, 13);
        let a = scenario
            .clone()
            .with_faults(FaultSchedule::scripted(vec![FaultEvent::lasting(
                Seconds::new(warmup as f64),
                Seconds::new(outage as f64),
                FaultKind::UtilityBlackout,
            )]))
            .run()
            .unwrap();

        let mut samples = vec![config.budget; warmup as usize];
        samples.extend(vec![Watts::zero(); outage as usize]);
        let trace = PowerTrace::new(samples, config.tick);
        let b = scenario.with_mode(PowerMode::Solar(trace)).run().unwrap();

        assert_eq!(
            a.server_downtime, b.server_downtime,
            "blackout-by-fault and blackout-by-trace must agree on downtime"
        );
        assert_eq!(a.shed_events, b.shed_events);
        assert_eq!(a.buffer_delivered, b.buffer_delivered);
        assert_eq!(a.faults.blackout_ticks, outage);
        assert_eq!(b.faults.events_applied, 0, "trace run injects nothing");
    }

    #[test]
    fn stuck_relay_browns_out_its_server_during_peaks() {
        // Tiny budget forces a standing mismatch; relay 0 stuck open for
        // the whole run means its server cannot ride the buffers.
        let schedule = FaultSchedule::parse("relay-open(0)@60").unwrap();
        let config = SimConfig::prototype()
            .with_policy(PolicyKind::HebD)
            .with_budget(Watts::new(150.0));
        let report = Scenario::new("t/relay", config, &[Archetype::Terasort], 0.3, 3)
            .with_faults(schedule)
            .run()
            .unwrap();
        assert!(
            report.shed_events > 0,
            "the stranded server must brown out during mismatches"
        );
        assert!(report.server_downtime.get() > 0.0);
    }

    #[test]
    fn solar_dropout_curtails_generation_use() {
        use heb_workload::SolarTraceBuilder;
        let trace = SolarTraceBuilder::new(Watts::new(400.0))
            .seed(2)
            .days(1.0)
            .build();
        let config = SimConfig::prototype().with_policy(PolicyKind::HebD);
        let healthy =
            Scenario::from_ticks("t/solar", config, &[Archetype::WebSearch], 12 * 3600, 9)
                .with_mode(PowerMode::Solar(trace));
        let schedule = FaultSchedule::parse("solar-drop@36000~3600").unwrap();
        let faulted = healthy.clone().with_faults(schedule).run().unwrap();
        let healthy = healthy.run().unwrap();
        assert_eq!(faulted.faults.solar_dropout_ticks, 3600);
        // Generation continues (the sun does not care) but use drops.
        assert_eq!(faulted.renewable_generated, healthy.renewable_generated);
        assert!(faulted.renewable_used < healthy.renewable_used);
        assert!(faulted.reu() < healthy.reu());
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let run = || {
            let schedule = FaultSchedule::stochastic(
                21,
                Seconds::from_hours(1.0),
                &crate::faults::FaultProfile::nominal().scaled(4.0),
            );
            mixed(PolicyKind::HebD, 1.0)
                .with_faults(schedule)
                .run()
                .unwrap()
        };
        let r1 = run();
        let r2 = run();
        assert_eq!(r1.faults, r2.faults);
        assert_eq!(r1.server_downtime, r2.server_downtime);
        assert_eq!(r1.buffer_delivered, r2.buffer_delivered);
    }

    fn steady_quiet() -> Scenario {
        Scenario::from_ticks(
            "t/quiet",
            SimConfig::prototype().with_budget(Watts::new(2000.0)),
            &[Archetype::WordCount],
            0,
            42,
        )
        .with_steady_workload(Ratio::new_clamped(0.3))
    }

    fn steady_quiet_sim() -> Simulation {
        steady_quiet().build().unwrap()
    }

    /// The leap correctness anchor: fast-forwarding a quiet valley must
    /// reproduce the stepped run bit for bit — report, slot state,
    /// meter history, utility counters, and buffer microstate.
    #[test]
    fn try_leap_is_bit_identical_to_stepping() {
        let n = 3000_u64;
        let mut stepped = steady_quiet_sim();
        for _ in 0..n {
            stepped.step();
        }
        let mut leaped = steady_quiet_sim();
        let mut leaps = 0_u64;
        while leaped.clock().index() < n {
            let got = leaped.try_leap(n - leaped.clock().index());
            if got == 0 {
                leaped.step();
            } else {
                leaps += 1;
            }
        }
        assert!(leaps > 0, "a quiet valley must actually leap");
        assert_eq!(stepped.snapshot(), leaped.snapshot());
        assert_eq!(stepped.slot_log(), leaped.slot_log());
        assert_same_meter_history(&stepped, &leaped);
        assert_eq!(
            stepped.buffers().sc_available(),
            leaped.buffers().sc_available()
        );
        assert_eq!(
            stepped.buffers().ba_available(),
            leaped.buffers().ba_available()
        );
        assert_eq!(
            stepped.buffers().battery_projected_lifetime(),
            leaped.buffers().battery_projected_lifetime()
        );
        // Continuing past the leap must also agree (internal state —
        // LRU stamps, slot peaks, meter history — survived intact).
        for _ in 0..700 {
            stepped.step();
            leaped.step();
        }
        assert_eq!(stepped.snapshot(), leaped.snapshot());
        assert_eq!(stepped.slot_log(), leaped.slot_log());
        assert_same_meter_history(&stepped, &leaped);
    }

    /// The two runs' meters retain bitwise-identical `(at, total)`
    /// histories and latest channels.
    fn assert_same_meter_history(a: &Simulation, b: &Simulation) {
        let bits = |s: &Simulation| -> Vec<(u64, u64)> {
            s.ipdu
                .history()
                .map(|r| (r.at.get().to_bits(), r.total.get().to_bits()))
                .collect()
        };
        assert_eq!(a.ipdu.len(), a.config().ticks_per_slot() as usize);
        assert_eq!(bits(a), bits(b));
        assert_eq!(a.ipdu.channels(), b.ipdu.channels());
    }

    #[test]
    fn try_leap_refuses_non_quiet_states() {
        // Stochastic workloads: never quiet.
        let mut s = mixed(PolicyKind::HebD, 0.0).build().unwrap();
        assert_eq!(s.try_leap(100), 0);
        // Steady but mismatched (budget below demand): dense.
        let mut starved = Scenario::from_ticks(
            "t/starved",
            SimConfig::prototype().with_budget(Watts::new(60.0)),
            &[Archetype::WordCount],
            0,
            42,
        )
        .with_steady_workload(Ratio::new_clamped(0.9))
        .build()
        .unwrap();
        assert_eq!(starved.try_leap(100), 0);
        // Slot boundaries take the dense path even in a quiet valley.
        let mut quiet = steady_quiet_sim();
        let tps = quiet.config().ticks_per_slot();
        while quiet.clock().index() < tps {
            if quiet.try_leap(tps - quiet.clock().index()) == 0 {
                quiet.step();
            }
        }
        assert_eq!(quiet.clock().index(), tps);
        assert_eq!(quiet.try_leap(100), 0, "boundary tick must be dense");
        // A fresh valley leaps; each disturbance below makes it refuse.
        assert!(steady_quiet_sim().try_leap(100) > 0);
        // A powered-off server accrues downtime every tick.
        let mut off = steady_quiet_sim();
        off.cluster.power_off(0);
        assert_eq!(off.try_leap(100), 0, "powered-off server");
        // Powering back on leaves a restart surcharge draining per tick.
        off.cluster.power_on(0);
        assert_eq!(off.try_leap(100), 0, "pending restart surcharge");
        // An SC pool with charge headroom moves energy this tick.
        let mut half = steady_quiet_sim();
        for d in half.buffers.sc_pool_mut().devices_mut() {
            d.set_soc(Ratio::new_clamped(0.5));
        }
        assert!(half.buffers.ba_pool().charge_quiescent());
        assert_eq!(half.try_leap(100), 0, "SC pool at half SoC");
        // An active fault's continuous effects are queried per tick.
        let mut faulted = steady_quiet()
            .with_faults(FaultSchedule::parse("blackout@0~600").unwrap())
            .build()
            .unwrap();
        let _ = faulted.injector.poll(faulted.clock.now());
        assert!(faulted.injector.any_active());
        assert_eq!(faulted.try_leap(100), 0, "active fault");
    }

    #[test]
    fn try_leap_stops_short_of_fault_onsets() {
        let schedule = FaultSchedule::parse("brownout(0.5)@900~300").unwrap();
        let mut s = steady_quiet().with_faults(schedule).build().unwrap();
        // From tick 0 the span must cap at the slot boundary (600),
        // never reaching the onset at 900.
        let got = s.try_leap(10_000);
        assert_eq!(got, 600);
        s.step(); // boundary tick
        let got = s.try_leap(10_000);
        assert_eq!(got, 299, "span must stop before the onset at 900");
        // At the onset the fault is active: dense until it clears.
        s.step();
        assert_eq!(s.try_leap(10_000), 0);
    }
}
