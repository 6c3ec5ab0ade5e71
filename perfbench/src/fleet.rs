//! `fleet_matrix`: the full `heb_fleet` experiment matrix through
//! `FleetEngine::run` with two workers and a journal, written into an
//! empty cache (cold) and then replayed from it (warm).

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use heb_core::experiments::{
    architecture_scenarios, capacity_growth_scenarios, capacity_ratio_scenarios,
    deployment_scenarios, fault_sweep_scenarios, outage_scenarios, scheme_comparison_scenarios,
    valley_scenarios,
};
use heb_core::{Scenario, SimConfig, SimReport};
use heb_fleet::{FleetEngine, FsyncPolicy, ResultCache, RunJournal, RunPolicy};
use heb_telemetry::{Metrics, Snapshot};
use heb_units::Watts;

use crate::hostspeed::{self, Reference};
use crate::layers;
use crate::outcome::{peak_rss_mb, Outcome};
use crate::span::{trace_overhead, Tracer};
use crate::stats::{median, summary};
use crate::{serve, Args};

/// Worker threads, as `heb_fleet --jobs 2` runs the matrix.
pub const JOBS: usize = 2;
/// `heb_fleet`'s default horizon in simulated hours.
const HOURS: f64 = 1.0;

/// The matrix `heb_fleet` runs with no `--filter`, one batch per
/// experiment in its order, built with the same arguments.
#[must_use]
pub fn matrix(seed: u64) -> Vec<Vec<Scenario>> {
    let base = SimConfig::builder()
        .build()
        .expect("the prototype configuration satisfies the builder");
    let h = HOURS;
    vec![
        scheme_comparison_scenarios(&base, h, h, seed),
        capacity_ratio_scenarios(&base, &[1, 2, 3, 4, 5], h, h, seed),
        capacity_growth_scenarios(&base, &[40, 50, 60, 70, 80], h, h, seed),
        architecture_scenarios(&base, h, seed),
        deployment_scenarios(&base, 3, h, seed),
        valley_scenarios(&base, Watts::new(230.0), (h * 60.0).max(1.0), seed),
        fault_sweep_scenarios(&base, h, &[0.0, 1.0, 2.0, 4.0], seed),
        outage_scenarios(&base, 5.0, 30.0, seed),
    ]
}

/// One pass over the matrix: per-batch reports (`None` for a scenario
/// that did not finish), the pass's wall time (without reference-kernel
/// slices) and the slice times.
struct Pass {
    reports: Vec<Option<SimReport>>,
    seconds: f64,
    slices: Vec<f64>,
    unfinished: usize,
}

/// One pass over the matrix; with a `reference`, a kernel slice runs
/// after each batch, while the engine's workers are idle, and its time
/// is left out of the pass's.
fn run_pass(
    engine: &FleetEngine,
    batches: &[Vec<Scenario>],
    journal: Option<&RunJournal>,
    reference: Option<&Reference>,
    tracer: Option<(&mut Tracer, &'static str)>,
) -> Pass {
    let started = Instant::now();
    let mut reports = Vec::new();
    let (mut slices, mut sliced) = (Vec::new(), 0.0);
    let mut unfinished = 0;
    let mut tracer = tracer;
    let parent = tracer.as_mut().map(|(t, name)| t.begin(name, 0, None));
    for (i, batch) in batches.iter().enumerate() {
        let span = tracer
            .as_mut()
            .map(|(t, _)| t.begin("fleet.run", i as u64, parent));
        let outcome = engine.run(batch, &RunPolicy::new().maybe_journal(journal));
        if let (Some((t, _)), Some(span)) = (tracer.as_mut(), span) {
            t.end(span);
        }
        let counts = outcome.counts();
        unfinished += counts.failed + counts.quarantined + counts.pending;
        reports.extend(outcome.outcomes.into_iter().map(|o| o.report));
        if let Some(reference) = reference {
            let slice_started = Instant::now();
            slices.push(reference.slice());
            sliced += slice_started.elapsed().as_secs_f64();
        }
    }
    if let (Some((t, _)), Some(parent)) = (tracer.as_mut(), parent) {
        t.end(parent);
    }
    Pass {
        reports,
        seconds: started.elapsed().as_secs_f64() - sliced,
        slices,
        unfinished,
    }
}

/// A cache-backed engine over `dir`, as `heb_fleet --jobs 2` builds it.
pub(crate) fn engine(dir: &Path, metrics: Option<&Arc<Metrics>>) -> FleetEngine {
    let engine = FleetEngine::new(JOBS).with_cache(ResultCache::new(dir.join("cache")));
    match metrics {
        Some(m) => engine.with_metrics(Arc::clone(m)),
        None => engine,
    }
}

fn journal(dir: &Path, id: &str) -> Option<RunJournal> {
    RunJournal::create(&dir.join("runs"), id, FsyncPolicy::Batch).ok()
}

/// One cold + warm pair in a fresh directory, with kernel slices when
/// given a `reference`. Returns (setup seconds, cold pass, warm pass,
/// cold-pass simulations, warm-pass simulations).
fn pair(seed: u64, dir: &Path, reference: Option<&Reference>) -> (f64, Pass, Pass, usize, usize) {
    let _ = std::fs::remove_dir_all(dir);
    let started = Instant::now();
    let batches = matrix(seed);
    let cold_engine = engine(dir, None);
    let cold_journal = journal(dir, "cold");
    let mut setup = started.elapsed().as_secs_f64();
    let cold = run_pass(
        &cold_engine,
        &batches,
        cold_journal.as_ref(),
        reference,
        None,
    );
    let started = Instant::now();
    let warm_engine = engine(dir, None);
    let warm_journal = journal(dir, "warm");
    setup += started.elapsed().as_secs_f64();
    let warm = run_pass(
        &warm_engine,
        &batches,
        warm_journal.as_ref(),
        reference,
        None,
    );
    let (cold_sim, warm_sim) = (cold_engine.stats().simulated, warm_engine.stats().simulated);
    (setup, cold, warm, cold_sim, warm_sim)
}

/// Scenarios in the matrix and how many a cold pass simulates. The
/// engine probes the cache once per batch before simulating it, so a
/// scenario whose content hash an earlier batch already stored is a
/// cache hit, while repeats inside one batch are each simulated.
fn sizes(batches: &[Vec<Scenario>]) -> (usize, usize) {
    let mut stored = std::collections::BTreeSet::new();
    let (mut total, mut simulated) = (0, 0);
    for batch in batches {
        let hashes: Vec<u128> = batch.iter().map(Scenario::content_hash).collect();
        total += hashes.len();
        simulated += hashes.iter().filter(|h| !stored.contains(*h)).count();
        stored.extend(hashes);
    }
    (total, simulated)
}

fn check_pair(
    out: &mut Outcome,
    (total, expected): (usize, usize),
    cold: &Pass,
    warm: &Pass,
    cold_simulated: usize,
    warm_simulated: usize,
    first: &mut Option<Vec<Option<SimReport>>>,
) {
    out.attempted += 2 * total as u64;
    out.failed += (cold.unfinished + warm.unfinished) as u64;
    out.check(cold_simulated == expected, || {
        format!("cold pass simulated {cold_simulated} scenario(s), expected {expected}")
    });
    out.check(warm_simulated == 0, || {
        format!("warm pass simulated {warm_simulated} scenario(s); it must replay all")
    });
    out.check(warm.reports == cold.reports, || {
        "warm reports differ from cold reports".to_string()
    });
    match first {
        None => *first = Some(cold.reports.clone()),
        Some(first) => out.check(*first == cold.reports, || {
            "a repeated cold pass produced different reports".to_string()
        }),
    }
}

/// The untraced run: after one untimed warm-up pair, cold + warm pairs
/// for about `args.seconds`. Each pair's times are scaled to the
/// reference host speed by the kernel slices run on both cores between
/// its batches (see [`crate::hostspeed`]).
pub fn run(args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let batches = matrix(args.seed);
    let total = sizes(&batches);
    let server_ticks: f64 = batches
        .iter()
        .flatten()
        .map(|s| s.servers() as f64 * s.ticks() as f64)
        .sum();
    let mut first = None;
    let (_, cold, warm, cold_sim, warm_sim) = pair(args.seed, &work.join("pair-warm-up"), None);
    let reference = Reference::new(JOBS);
    check_pair(
        &mut out, total, &cold, &warm, cold_sim, warm_sim, &mut first,
    );
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut setups, mut colds, mut warms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wall_colds, mut factors) = (Vec::new(), Vec::new());
    let mut i = 0;
    while colds.len() < 3 || Instant::now() < deadline {
        let dir = work.join(format!("pair-{}", i % 2));
        let (setup, cold, warm, cold_sim, warm_sim) = pair(args.seed, &dir, Some(&reference));
        check_pair(
            &mut out, total, &cold, &warm, cold_sim, warm_sim, &mut first,
        );
        let slices: Vec<f64> = cold.slices.iter().chain(&warm.slices).copied().collect();
        let factor = hostspeed::factor(&slices);
        factors.push(factor);
        setups.push(setup * factor);
        wall_colds.push(cold.seconds);
        colds.push(cold.seconds * factor);
        warms.push(warm.seconds * factor);
        i += 1;
    }
    let cold = median(&colds);
    out.note(format!(
        "reference speed over host speed, per pair: {}",
        summary(&factors, 1.0)
    ));
    out.note(format!(
        "cold passes, wall (ms): {}",
        summary(&wall_colds, 1e3)
    ));
    out.note(format!(
        "cold passes, scaled (ms): {}",
        summary(&colds, 1e3)
    ));
    out.note(format!(
        "warm passes, scaled (ms): {}",
        summary(&warms, 1e3)
    ));
    out.note(format!(
        "fleet_matrix: seed {}, {} scenario(s) ({} simulated cold) in {} experiment(s), jobs {JOBS}, 1 warm-up pair, {} cold/warm pair(s)",
        args.seed,
        total.0,
        total.1,
        batches.len(),
        colds.len()
    ));
    out.note(format!(
        "matrix_cold_s {cold:.6} s, matrix_warm_s {:.6} s",
        median(&warms)
    ));
    out.metric("setup_s", median(&setups), "s");
    out.metric("server_ticks_per_s", server_ticks / cold, "1/s");
    out.metric("cold_p50_ms", cold * 1e3, "ms");
    out.metric("warm_p50_ms", median(&warms) * 1e3, "ms");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out
}

/// `fleet.*` phase timings of one pass and the engine's counters.
pub fn report_engine(engine: &FleetEngine, phases: &Snapshot, out: &mut Outcome) {
    let sum = |name: &str| phases.histogram(name).map_or(0.0, |h| h.sum);
    let simulate = sum("fleet.phase.simulate");
    out.metric("fleet.probe_s", sum("fleet.phase.probe"), "s");
    out.metric("fleet.simulate_s", simulate, "s");
    out.metric("fleet.merge_s", sum("fleet.phase.merge"), "s");
    let busy = sum("fleet.scenario_seconds") / (engine.jobs() as f64 * simulate);
    out.metric("fleet.worker_busy_share", busy, "ratio");
    let stats = engine.stats();
    out.metric("fleet.simulated", stats.simulated as f64, "count");
    out.metric("fleet.cache_hits", stats.cache_hits as f64, "count");
    out.metric("fleet.cache_writes", stats.cache_writes as f64, "count");
    out.metric("fleet.retries", stats.retries as f64, "count");
    out.metric("fleet.quarantined", stats.quarantined as f64, "count");
}

/// Direct `Scenario::content_hash`, `ResultCache::store` and
/// `ResultCache::load` calls on `scenarios` and their `reports`, one
/// span each under a `fleet.scenario` parent with the scenario's index
/// as id.
pub fn cache_calls(
    scenarios: &[Scenario],
    reports: &[SimReport],
    work: &Path,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let dir = work.join("direct-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::new(&dir);
    // Small batches are cycled so every metric rests on many calls.
    let rounds = (200 / scenarios.len().max(1)).max(1);
    for round in 0..rounds {
        for (i, (scenario, report)) in scenarios.iter().zip(reports).enumerate() {
            let id = i as u64;
            let parent = tracer.begin("fleet.scenario", id, None);
            tracer.span("core.content_hash", id, Some(parent), || {
                std::hint::black_box(scenario.content_hash())
            });
            if round == 0 {
                let stored = tracer.span("fleet.cache_store", id, Some(parent), || {
                    cache.store(scenario, report)
                });
                if stored.is_err() {
                    out.failed += 1;
                }
            }
            let loaded = tracer.span("fleet.cache_load", id, Some(parent), || {
                cache.load(scenario)
            });
            tracer.end(parent);
            out.attempted += 1;
            out.check(loaded.as_ref() == Some(report), || {
                format!("cache round trip changed the report of scenario {i}")
            });
        }
    }
    let us = |name: &str| median(&tracer.durations(name)) / 1e3;
    out.metric("core.content_hash_us", us("core.content_hash"), "us");
    out.metric("fleet.cache_store_us", us("fleet.cache_store"), "us");
    out.metric("fleet.cache_load_us", us("fleet.cache_load"), "us");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The traced pass: a pair with the engine's metrics registry, spans
/// per experiment batch and a leap recorder on every scenario between
/// two untraced pairs for reference, then direct cache calls, the layer
/// replay on the first scenario, and the advisor probed with its mix.
pub fn trace(args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let batches = matrix(args.seed);
    let total = sizes(&batches);
    let mut first = None;

    let mut untraced = 0.0;
    let mut plain_pair = |out: &mut Outcome, first: &mut Option<_>| {
        let (_, cold, warm, cold_sim, warm_sim) = pair(args.seed, &work.join("pair-0"), None);
        untraced += (cold.seconds + warm.seconds) / 2.0;
        check_pair(out, total, &cold, &warm, cold_sim, warm_sim, first);
    };
    plain_pair(&mut out, &mut first);

    let (cold_metrics, warm_metrics) = (Arc::new(Metrics::new()), Arc::new(Metrics::new()));
    let leaps = Arc::new(layers::LeapCounter::default());
    let dir = work.join("pair-1");
    let _ = std::fs::remove_dir_all(&dir);
    let recorded: Vec<Vec<Scenario>> = batches
        .iter()
        .map(|b| {
            b.iter()
                .map(|s| s.clone().with_recorder(leaps.clone()))
                .collect()
        })
        .collect();
    let cold_engine = engine(&dir, Some(&cold_metrics));
    let cold_journal = journal(&dir, "cold");
    let cold = run_pass(
        &cold_engine,
        &recorded,
        cold_journal.as_ref(),
        None,
        Some((&mut tracer, "fleet.matrix_cold")),
    );
    let warm_engine = engine(&dir, Some(&warm_metrics));
    let warm_journal = journal(&dir, "warm");
    let warm = run_pass(
        &warm_engine,
        &recorded,
        warm_journal.as_ref(),
        None,
        Some((&mut tracer, "fleet.matrix_warm")),
    );
    let traced = cold.seconds + warm.seconds;
    plain_pair(&mut out, &mut first);
    check_pair(
        &mut out,
        total,
        &cold,
        &warm,
        cold_engine.stats().simulated,
        warm_engine.stats().simulated,
        &mut first,
    );
    report_engine(&cold_engine, &cold_metrics.snapshot(), &mut out);
    // The warm engine's counters: every scenario a cache hit.
    out.note(format!(
        "warm pass: {} cache hit(s), {} simulated",
        warm_engine.stats().cache_hits,
        warm_engine.stats().simulated
    ));
    let ticks: f64 = batches.iter().flatten().map(|s| s.ticks() as f64).sum();
    out.metric("core.ticks_leaped", leaps.ticks() as f64, "count");
    out.metric("core.leap_share", leaps.ticks() as f64 / ticks, "ratio");

    let scenarios: Vec<Scenario> = batches.iter().flatten().cloned().collect();
    let reports: Vec<SimReport> = cold.reports.iter().flatten().cloned().collect();
    if reports.len() == scenarios.len() {
        cache_calls(&scenarios, &reports, work, &mut tracer, &mut out);
        serve::bill_calls(&reports, &mut tracer);
    } else {
        out.check(false, || "the traced cold pass lost reports".to_string());
    }
    for s in &scenarios {
        tracer.span("core.scenario_build", 0, None, || s.build().is_ok());
    }
    out.metric(
        "core.scenario_build_ms",
        median(&tracer.durations("core.scenario_build")) / 1e6,
        "ms",
    );
    let first_scenario = &scenarios[0];
    if let Ok(mut sim) = first_scenario.build() {
        let parents = layers::step_spans(&mut sim, first_scenario.ticks(), &mut tracer);
        layers::replay(first_scenario, &parents, &mut tracer);
    }
    layers::report(&tracer, first_scenario.servers(), &mut out);
    serve::probe(
        Some(first_scenario.workloads()),
        args.seed,
        crate::day::PROBE_SECONDS,
        work,
        &mut tracer,
        &mut out,
    );
    out.metric(
        "telemetry.trace_overhead",
        trace_overhead(traced, untraced),
        "ratio",
    );
    crate::write_spans(&tracer, work, "fleet_matrix", args.seed);
    out
}
