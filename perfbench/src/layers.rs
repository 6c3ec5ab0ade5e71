//! Per-layer timings of the simulator stack for one scenario.
//!
//! `Simulation::step` is driven call by call under a `core.step` span,
//! then the same ticks are replayed through each layer's public API
//! (`UtilizationGenerator`, `Cluster`, `Ipdu`, the `Bank`s behind
//! `HybridBuffers`, `HebController`, the Holt-Winters forecaster) on
//! the scenario's own inputs, making the calls one step makes in the
//! order it makes them. Each replayed call is a child of the step span
//! of the same tick, so a step's self time is the step minus the layer
//! time replayed for it.

use std::sync::atomic::{AtomicU64, Ordering};

use heb_core::{
    ChargePriority, DischargePriority, HebController, HybridBuffers, PolicyKind, Scenario,
    SimClock, Simulation, SlotPlan,
};
use heb_esd::StorageDevice;
use heb_forecast::{HoltWinters, Predictor};
use heb_powersys::{Cluster, ConverterChain, DeliveryPath, FrequencyLevel, Ipdu, MeterFault};
use heb_telemetry::{DriverEvent, Event, Recorder};
use heb_units::{Ratio, Seconds, Watts};
use heb_workload::{BurstProfile, PeakClass, UtilizationGenerator};

use crate::outcome::Outcome;
use crate::span::Tracer;
use crate::stats::{median, percentile};

/// Counts the ticks the event driver leaped (`driver.leaped` events)
/// and ignores every other event.
#[derive(Debug, Default)]
pub struct LeapCounter {
    ticks: AtomicU64,
}

impl LeapCounter {
    /// Ticks covered by leaps so far.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }
}

impl Recorder for LeapCounter {
    fn is_enabled(&self) -> bool {
        true
    }

    fn record(&self, event: &Event) {
        if let Event::Driver(DriverEvent::Leaped { ticks, .. }) = event {
            self.ticks.fetch_add(*ticks, Ordering::Relaxed);
        }
    }
}

/// Steps `sim` for `ticks` calls, one `core.step` span per call (the
/// tick index is the span id); returns the span indices.
pub fn step_spans(sim: &mut Simulation, ticks: u64, tracer: &mut Tracer) -> Vec<usize> {
    (0..ticks)
        .map(|k| {
            let span = tracer.begin("core.step", k, None);
            sim.step();
            tracer.end(span);
            span
        })
        .collect()
}

/// The layer objects a [`Simulation`] builds for `scenario`, rebuilt
/// through their public constructors exactly as `Simulation::try_new`
/// does, so the replay draws the same workload streams.
struct Layers {
    generators: Vec<UtilizationGenerator>,
    cluster: Cluster,
    ipdu: Ipdu,
    buffers: HybridBuffers,
    controller: HebController,
}

fn build_layers(scenario: &Scenario) -> Layers {
    let config = scenario.config();
    let seed = scenario.seed();
    let workloads = scenario.workloads();
    let mut cluster = Cluster::prototype(config.servers);
    let mut generators = Vec::with_capacity(config.servers);
    for idx in 0..config.servers {
        let archetype = workloads[idx % workloads.len()];
        generators.push(match scenario.steady_workload() {
            Some(level) => UtilizationGenerator::new(BurstProfile::steady(level.get()), 0),
            None => archetype.generator(seed.wrapping_add(idx as u64 * 7919)),
        });
        let freq = match archetype.peak_class() {
            PeakClass::Small => FrequencyLevel::Low,
            PeakClass::Large => FrequencyLevel::High,
        };
        cluster.set_frequency(idx, freq);
    }
    let sc_fraction = if config.policy == PolicyKind::BaOnly {
        Ratio::ZERO
    } else {
        config.sc_fraction
    };
    Layers {
        generators,
        cluster,
        ipdu: Ipdu::new(config.ticks_per_slot() as usize)
            .with_noise(config.metering_noise, seed ^ 0xA5A5_5A5A),
        buffers: HybridBuffers::build_split(
            config.total_capacity,
            sc_fraction,
            config.dod_limit,
            config.battery_strings,
        ),
        controller: HebController::new(config),
    }
}

/// Replays `parents.len()` ticks of `scenario` through each layer,
/// attaching every call the step makes to the step span of its tick.
pub fn replay(scenario: &Scenario, parents: &[usize], tracer: &mut Tracer) {
    let config = scenario.config();
    let dt = config.tick;
    let clock = SimClock::new(dt);
    let feed = Feed::of(scenario);
    let mut l = build_layers(scenario);
    let mut plan = l
        .controller
        .begin_slot(l.buffers.sc_available(), l.buffers.ba_available());
    let mut totals = Vec::with_capacity(parents.len());
    for (k, &parent) in parents.iter().enumerate() {
        let id = k as u64;
        let p = Some(parent);
        let now = clock.time_at(id);
        // What the step does: the workload drive in one fused pass.
        tracer.span("powersys.drive", id, p, || {
            l.cluster.set_utilizations_with(
                l.generators
                    .iter_mut()
                    .map(UtilizationGenerator::next_utilization),
            );
        });
        let demand = tracer.span("powersys.total_demand", id, p, || l.cluster.total_demand());
        let metered = tracer.span("powersys.ipdu_sample", id, p, || {
            l.ipdu
                .try_sample(&l.cluster, now, MeterFault::Healthy)
                .map_or(demand, |r| r.total)
        });
        totals.push(metered.get());
        let mut call = Call {
            dt,
            id,
            parent: p,
            tracer,
        };
        dispatch(&feed, &plan, &mut l.buffers, demand, &mut call);
        tracer.span("powersys.cluster_tick", id, p, || l.cluster.tick(now, dt));
        if (k as u64 + 1).is_multiple_of(config.ticks_per_slot()) {
            let slot = config.ticks_per_slot() as usize;
            let (peak, valley) = extremes(&totals[totals.len().saturating_sub(slot)..]);
            plan = slot_turn(&mut l, peak, valley);
        }
    }
    replay_split_drive(scenario, parents.len(), tracer);
    replay_controller(&mut l, &totals, tracer);
    replay_forecast(config.forecast_period, &totals, tracer);
    replay_idle_settled(scenario, tracer);
    probe_dispatch(scenario, tracer);
}

/// The fault-free utility budget and the converter chains
/// `Simulation::step` routes power through.
struct Feed {
    budget: Watts,
    utility_to_load: ConverterChain,
    buffer_to_load: ConverterChain,
    source_to_buffer: ConverterChain,
}

impl Feed {
    fn of(scenario: &Scenario) -> Self {
        let topology = &scenario.config().topology;
        Self {
            budget: scenario.config().budget,
            utility_to_load: topology.chain(DeliveryPath::UtilityToLoad).clone(),
            buffer_to_load: topology.chain(DeliveryPath::BufferToLoad).clone(),
            source_to_buffer: topology.chain(DeliveryPath::SourceToBuffer).clone(),
        }
    }
}

/// Which pools moved energy this tick; the others idle.
#[derive(Default)]
struct Active {
    sc: bool,
    ba: bool,
}

/// One tick of `Simulation::step`'s buffer dispatch on a fault-free
/// utility feed: a deficit is discharged and headroom charged in the
/// plan's priority order, with the same overflow thresholds, and each
/// pool that moved no energy idles. A call with no positive request is
/// recorded as `esd.idle`, which is what `Bank::discharge` and
/// `Bank::charge` do with it. Shedding and faults are not replayed.
fn dispatch(
    feed: &Feed,
    plan: &SlotPlan,
    buffers: &mut HybridBuffers,
    demand: Watts,
    call: &mut Call,
) {
    let mut active = Active::default();
    let supply_at_load = feed.utility_to_load.forward(feed.budget);
    if demand > supply_at_load {
        let request = feed.buffer_to_load.required_input(demand - supply_at_load);
        match plan.discharge {
            DischargePriority::BatteryOnly => {
                active.ba = true;
                call.discharge(buffers.ba_pool_mut(), request);
            }
            DischargePriority::BatteryThenSc => {
                active.ba = true;
                let gap = request - call.discharge(buffers.ba_pool_mut(), request);
                if gap.get() > 0.5 {
                    active.sc = true;
                    call.discharge(buffers.sc_pool_mut(), gap);
                }
            }
            DischargePriority::ScThenBattery => {
                active.sc = true;
                let gap = request - call.discharge(buffers.sc_pool_mut(), request);
                if gap.get() > 0.5 {
                    active.ba = true;
                    call.discharge(buffers.ba_pool_mut(), gap);
                }
            }
            DischargePriority::Split => {
                active.sc = true;
                active.ba = true;
                let sc_target = request * plan.r_lambda.get();
                let sc_got = call.discharge(buffers.sc_pool_mut(), sc_target);
                let ba_got = call.discharge(buffers.ba_pool_mut(), request - sc_target);
                let gap = request - sc_got - ba_got;
                if gap.get() > 0.5 {
                    let gap2 = gap - call.discharge(buffers.sc_pool_mut(), gap);
                    if gap2.get() > 0.5 {
                        call.discharge(buffers.ba_pool_mut(), gap2);
                    }
                }
            }
        }
    } else {
        let raw_needed = feed.utility_to_load.required_input(demand);
        let offered = feed
            .source_to_buffer
            .forward((feed.budget - raw_needed).max(Watts::zero()));
        if offered.get() > 0.0 {
            match plan.charge {
                ChargePriority::BatteryOnly => {
                    active.ba = true;
                    call.charge(buffers.ba_pool_mut(), offered);
                }
                ChargePriority::BatteryThenSc => {
                    active.ba = true;
                    let rest = offered - call.charge(buffers.ba_pool_mut(), offered);
                    if rest.get() > 0.5 {
                        active.sc = true;
                        call.charge(buffers.sc_pool_mut(), rest);
                    }
                }
                ChargePriority::ScThenBattery => {
                    active.sc = true;
                    let rest = offered - call.charge(buffers.sc_pool_mut(), offered);
                    if rest.get() > 0.5 {
                        active.ba = true;
                        call.charge(buffers.ba_pool_mut(), rest);
                    }
                }
            }
        }
    }
    if !active.sc {
        call.idle(buffers.sc_pool_mut());
    }
    if !active.ba {
        call.idle(buffers.ba_pool_mut());
    }
}

/// Records one tick's ESD calls as children of its step span.
struct Call<'a> {
    dt: Seconds,
    id: u64,
    parent: Option<usize>,
    tracer: &'a mut Tracer,
}

impl Call<'_> {
    /// Discharges `request` from `pool`; returns the power delivered.
    fn discharge(&mut self, pool: &mut impl StorageDevice, request: Watts) -> Watts {
        if request.get() <= 0.0 {
            self.idle(pool);
            return Watts::zero();
        }
        let dt = self.dt;
        let got = self.tracer.span("esd.discharge", self.id, self.parent, || {
            pool.discharge(request, dt)
        });
        Watts::new(got.delivered.get() / dt.get())
    }

    /// Offers `offered` to `pool`; returns the power drawn.
    fn charge(&mut self, pool: &mut impl StorageDevice, offered: Watts) -> Watts {
        if offered.get() <= 0.0 {
            self.idle(pool);
            return Watts::zero();
        }
        let dt = self.dt;
        let got = self.tracer.span("esd.charge", self.id, self.parent, || {
            pool.charge(offered, dt)
        });
        Watts::new(got.drawn.get() / dt.get())
    }

    fn idle(&mut self, pool: &mut impl StorageDevice) {
        let dt = self.dt;
        self.tracer
            .span("esd.idle", self.id, self.parent, || pool.idle(dt));
    }
}

/// Replayed calls below which an ESD dispatch median is taken from
/// [`probe_dispatch`] instead.
pub const MIN_DISPATCH_CALLS: usize = 50;

/// Discharge, charge and idle calls outside any step, on freshly built
/// buffers: alternately discharging and recharging a tenth of the
/// budget, split between the pools by the first slot's `R_λ`, then
/// idling. They stand in for the replay when its ticks never make that
/// call (`steady_day` never discharges, and charges both pools on every
/// tick, so neither idles).
fn probe_dispatch(scenario: &Scenario, tracer: &mut Tracer) {
    let mut l = build_layers(scenario);
    let dt = scenario.config().tick;
    let plan = l
        .controller
        .begin_slot(l.buffers.sc_available(), l.buffers.ba_available());
    let power = scenario.config().budget * 0.1;
    let (sc_share, ba_share) = (
        power * plan.r_lambda.get(),
        power * (1.0 - plan.r_lambda.get()),
    );
    for k in 0..100 {
        let sc = l.buffers.sc_pool_mut();
        tracer.span("esd.discharge.probe", k, None, || {
            sc.discharge(sc_share, dt)
        });
        let ba = l.buffers.ba_pool_mut();
        tracer.span("esd.discharge.probe", k, None, || {
            ba.discharge(ba_share, dt)
        });
        let sc = l.buffers.sc_pool_mut();
        tracer.span("esd.charge.probe", k, None, || sc.charge(sc_share, dt));
        let ba = l.buffers.ba_pool_mut();
        tracer.span("esd.charge.probe", k, None, || ba.charge(ba_share, dt));
        let sc = l.buffers.sc_pool_mut();
        tracer.span("esd.idle.probe", k, None, || sc.idle(dt));
        let ba = l.buffers.ba_pool_mut();
        tracer.span("esd.idle.probe", k, None, || ba.idle(dt));
    }
}

/// The two layers of the step's fused workload drive timed apart, over
/// the same ticks on freshly built layers fed the same streams. Not
/// children of the steps, which never make these two calls, and run
/// after the replay so neither pass evicts the other's state.
fn replay_split_drive(scenario: &Scenario, ticks: usize, tracer: &mut Tracer) {
    let dt = scenario.config().tick;
    let clock = SimClock::new(dt);
    let mut l = build_layers(scenario);
    let mut levels = vec![Ratio::ZERO; scenario.servers()];
    for k in 0..ticks as u64 {
        tracer.span("workload.next_utilization", k, None, || {
            for (slot, g) in levels.iter_mut().zip(&mut l.generators) {
                *slot = g.next_utilization();
            }
        });
        tracer.span("powersys.set_utilizations", k, None, || {
            l.cluster.set_utilizations(&levels);
        });
        let _ = l.cluster.tick(clock.time_at(k), dt);
    }
}

fn extremes(values: &[f64]) -> (Watts, Watts) {
    let peak = values.iter().copied().fold(0.0, f64::max);
    let valley = values.iter().copied().fold(f64::INFINITY, f64::min);
    (Watts::new(peak), Watts::new(valley.min(peak)))
}

fn slot_turn(l: &mut Layers, peak: Watts, valley: Watts) -> SlotPlan {
    let (sc, ba) = (l.buffers.sc_available(), l.buffers.ba_available());
    l.controller.end_slot(peak, valley, sc, ba);
    l.controller.begin_slot(sc, ba)
}

/// Slot turns (`end_slot` + `begin_slot`) fed with the replayed
/// metered totals, one `core.controller_slot` span each.
fn replay_controller(l: &mut Layers, totals: &[f64], tracer: &mut Tracer) {
    const SLOTS: usize = 200;
    let window = (totals.len() / 20).max(1);
    for j in 0..SLOTS {
        let start = (j * window) % totals.len().max(1);
        let end = (start + window).min(totals.len());
        let (peak, valley) = extremes(&totals[start..end]);
        tracer.span("core.controller_slot", j as u64, None, || {
            slot_turn(l, peak, valley)
        });
    }
}

/// Holt-Winters observations of the replayed metered totals, timed in
/// batches of [`FORECAST_BATCH`] so the clock read does not dominate.
fn replay_forecast(period: usize, totals: &[f64], tracer: &mut Tracer) {
    let mut predictor = HoltWinters::for_power_series(period);
    let values: Vec<f64> = totals.iter().copied().cycle().take(4096).collect();
    for (id, batch) in values.chunks_exact(FORECAST_BATCH).enumerate() {
        tracer.span("forecast.observe", id as u64, None, || {
            for &v in batch {
                predictor.observe(v);
            }
        });
    }
}

/// Observations per `forecast.observe` span.
pub const FORECAST_BATCH: usize = 64;

/// `Bank::idle_settled` calls on freshly built buffers (the leap
/// path's per-device fixed-point test).
fn replay_idle_settled(scenario: &Scenario, tracer: &mut Tracer) {
    let mut l = build_layers(scenario);
    let dt = scenario.config().tick;
    for k in 0..200 {
        tracer.span("esd.idle_settled", k, None, || {
            l.buffers.sc_pool_mut().idle_settled(dt)
        });
        tracer.span("esd.idle_settled", k, None, || {
            l.buffers.ba_pool_mut().idle_settled(dt)
        });
    }
}

/// Reports the simulator-layer metrics from the spans of
/// [`step_spans`] + [`replay`] on a fleet of `servers`.
pub fn report(tracer: &Tracer, servers: usize, out: &mut Outcome) {
    let n = servers as f64;
    let per_server = |name: &str| median(&tracer.durations(name)) / n;
    out.metric(
        "workload.next_utilization_ns",
        per_server("workload.next_utilization"),
        "ns",
    );
    out.metric(
        "powersys.set_utilizations_ns",
        per_server("powersys.set_utilizations"),
        "ns",
    );
    out.metric(
        "powersys.total_demand_ns",
        per_server("powersys.total_demand"),
        "ns",
    );
    out.metric(
        "powersys.cluster_tick_ns",
        per_server("powersys.cluster_tick"),
        "ns",
    );
    let per_call = |name: &str| median(&tracer.durations(name));
    out.metric(
        "powersys.ipdu_sample_ns",
        per_call("powersys.ipdu_sample"),
        "ns",
    );
    let mut sources = Vec::new();
    for (metric, name, probe) in [
        ("esd.discharge_ns", "esd.discharge", "esd.discharge.probe"),
        ("esd.charge_ns", "esd.charge", "esd.charge.probe"),
        ("esd.idle_ns", "esd.idle", "esd.idle.probe"),
    ] {
        let replayed = tracer.durations(name);
        if replayed.len() >= MIN_DISPATCH_CALLS {
            out.metric(metric, median(&replayed), "ns");
            sources.push(format!("{metric} on {} replayed call(s)", replayed.len()));
        } else {
            let probed = tracer.durations(probe);
            out.metric(metric, median(&probed), "ns");
            sources.push(format!(
                "{metric} on {} probe call(s) ({} replayed)",
                probed.len(),
                replayed.len()
            ));
        }
    }
    out.note(format!("esd dispatch: {}", sources.join(", ")));
    out.metric("esd.idle_settled_ns", per_call("esd.idle_settled"), "ns");
    let steps = tracer.durations("core.step");
    out.metric("core.step_p50_ns", median(&steps), "ns");
    out.metric("core.step_p99_ns", percentile(&steps, 0.99), "ns");
    out.metric(
        "core.step_self_ns",
        tracer.mean_self_time("core.step", crate::span::empty_span_ns()),
        "ns",
    );
    out.metric(
        "core.controller_slot_us",
        per_call("core.controller_slot") / 1e3,
        "us",
    );
    out.metric(
        "forecast.observe_ns",
        per_call("forecast.observe") / FORECAST_BATCH as f64,
        "ns",
    );
    out.note(format!(
        "layers: {} step calls on {servers} server(s); core.step_p99_ns has {} sample(s) beyond it",
        steps.len(),
        crate::stats::beyond(steps.len(), 0.99)
    ));
}
