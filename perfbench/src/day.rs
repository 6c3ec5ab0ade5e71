//! `dense_day` and `steady_day`: one scenario simulated again and
//! again on the event driver.
//!
//! `dense_day` is 10,000 servers running the bursty large-peak mix on a
//! 1 s tick, so `try_leap` refuses every tick and the per-server-tick
//! kernels dominate. `steady_day` is the 100,000-server steady megafleet
//! day, which the event driver covers almost entirely by leaping.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use heb_core::experiments::megafleet_scenario;
use heb_core::{DriverMode, Scenario, SimConfig, SimDriver, SimReport};
use heb_fleet::{FleetEngine, ResultCache, RunPolicy};
use heb_telemetry::Metrics;
use heb_units::{Joules, Seconds, Watts};
use heb_workload::Archetype;

use crate::fingerprint::{self, Fingerprint};
use crate::hold::CoreHolder;
use crate::hostspeed::{self, Reference};
use crate::layers;
use crate::outcome::{peak_rss_mb, Outcome};
use crate::span::{trace_overhead, Tracer};
use crate::stats::{median, summary};
use crate::{fleet, serve, Args};

/// Which day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Day {
    /// 10,000 bursty servers on a 1 s tick: nothing leaps.
    Dense,
    /// 100,000 steady servers on a 60 s tick: nearly everything leaps.
    Steady,
}

/// Servers in the dense day.
pub const DENSE_SERVERS: usize = 10_000;
/// Simulated ticks of one dense run: 30 min of 1 s ticks, three slots.
pub const DENSE_TICKS: u64 = 1_800;
/// Servers in the steady day.
pub const STEADY_SERVERS: usize = 100_000;
/// Seconds of advisor load in the traced pass's probe.
pub const PROBE_SECONDS: f64 = 1.0;
/// Chunks a cold run is simulated in, with a reference-kernel slice
/// after each.
const CHUNKS_PER_RUN: u64 = 24;
/// Extra set-ups timed beside each cold run.
const SETUPS_PER_RUN: usize = 2;
/// Warm re-runs timed after each cold run.
const REPLAYS_PER_RUN: usize = 50;

impl Day {
    /// The workload name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Day::Dense => "dense_day",
            Day::Steady => "steady_day",
        }
    }

    /// The scenario this day simulates for `seed`.
    #[must_use]
    pub fn scenario(self, seed: u64) -> Scenario {
        match self {
            Day::Dense => dense_scenario(seed),
            Day::Steady => megafleet_scenario(STEADY_SERVERS, 24.0, seed),
        }
    }

    fn mix(self) -> &'static [Archetype] {
        match self {
            Day::Dense => &DENSE_MIX,
            Day::Steady => &[Archetype::WebSearch],
        }
    }
}

/// The large-peak mix: Terasort, Hivebench, Dfsioe.
pub const DENSE_MIX: [Archetype; 3] =
    [Archetype::Terasort, Archetype::Hivebench, Archetype::Dfsioe];

/// The dense scenario: the prototype's per-server budget (260 W per 6
/// servers) and buffer (25 Wh per server), 1 s tick, 10 min slots, on
/// the event driver.
#[must_use]
pub fn dense_scenario(seed: u64) -> Scenario {
    let n = DENSE_SERVERS as f64;
    let prototype = SimConfig::prototype();
    let config = prototype
        .to_builder()
        .servers(DENSE_SERVERS)
        .budget(Watts::new(
            prototype.budget.get() / prototype.servers as f64 * n,
        ))
        .total_capacity(Joules::from_watt_hours(25.0 * n))
        .battery_strings(DENSE_SERVERS / 1_000)
        .tick(Seconds::new(1.0))
        .slot_length(Seconds::from_minutes(10.0))
        .build()
        .expect("the dense configuration satisfies the builder");
    Scenario::from_ticks("dense_day", config, &DENSE_MIX, DENSE_TICKS, seed)
        .with_driver_mode(DriverMode::Event)
}

fn server_ticks(scenario: &Scenario) -> f64 {
    scenario.servers() as f64 * scenario.ticks() as f64
}

/// Checks one report of `day` against the recorded fingerprint (when
/// the seed has one) and against the structure every run must have.
fn check_report(day: Day, seed: u64, scenario: &Scenario, report: &SimReport, out: &mut Outcome) {
    let got = Fingerprint::of(report);
    if let Some(want) = fingerprint::recorded(day, seed) {
        out.check(got == want, || {
            format!(
                "{} seed {seed}: fingerprint {got:?}, recorded {want:?}",
                day.name()
            )
        });
    }
    let want_time = scenario.config().tick.get() * scenario.ticks() as f64;
    out.check((report.sim_time.get() - want_time).abs() < 1e-6, || {
        format!(
            "{}: simulated {} s, expected {want_time} s",
            day.name(),
            report.sim_time.get()
        )
    });
    let slots = scenario.ticks() / scenario.config().ticks_per_slot();
    out.check(report.slots + 1 >= slots && report.slots <= slots, || {
        format!(
            "{}: {} slots, expected about {slots}",
            day.name(),
            report.slots
        )
    });
    match day {
        Day::Dense => out.check(report.buffer_delivered.get() > 0.0, || {
            "dense_day: the buffers never discharged".to_string()
        }),
        Day::Steady => out.check(report.shed_events == 0, || {
            format!(
                "steady_day: {} sheds on a day under budget",
                report.shed_events
            )
        }),
    }
}

/// Simulates `ticks` on `driver` in [`CHUNKS_PER_RUN`] chunks with a
/// reference-kernel slice after each. Returns the report, the chunks'
/// summed wall time, and the scaling factor from the slices.
fn cold_run(driver: &mut SimDriver, ticks: u64, reference: &Reference) -> (SimReport, f64, f64) {
    let chunk = ticks.div_ceil(CHUNKS_PER_RUN).max(1);
    let (mut wall, mut slices, mut done) = (0.0, Vec::new(), 0);
    let mut report = None;
    while done < ticks {
        let n = chunk.min(ticks - done);
        let started = Instant::now();
        report = Some(black_box(driver.run_ticks(black_box(n))));
        wall += started.elapsed().as_secs_f64();
        slices.push(reference.slice());
        done += n;
    }
    let report = report.unwrap_or_else(|| driver.run_ticks(0));
    (report, wall, hostspeed::factor(&slices))
}

/// The untraced run: after one untimed warm-up run, repeated builds
/// (set-up) and full simulations (cold), each followed by warm re-runs
/// answered from the result cache, for about `args.seconds`, with the
/// second core held busy (see [`CoreHolder`]). Each round's times are
/// scaled to the reference host speed by the reference-kernel slices
/// run between the chunks of its cold run (see [`hostspeed`]).
pub fn run(day: Day, args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let hold = CoreHolder::start();
    let reference = Reference::new(1);
    let scenario = day.scenario(args.seed);
    let cache = ResultCache::new(work.join("cache"));
    out.attempted += 1;
    let first = match scenario.run() {
        Ok(report) => report,
        Err(err) => {
            out.failed += 1;
            out.check(false, || format!("{}: build failed: {err}", day.name()));
            return out;
        }
    };
    check_report(day, args.seed, &scenario, &first, &mut out);
    if cache.store(&scenario, &first).is_err() {
        out.failed += 1;
    }
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut setups, mut colds, mut warms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wall_colds, mut factors) = (Vec::new(), Vec::new());
    // Set-ups and warm re-runs are interleaved with the cold runs, so all
    // three sample the whole run rather than one moment of it.
    while colds.len() < 3 || Instant::now() < deadline {
        let (mut round_setups, mut round_warms) = (Vec::new(), Vec::new());
        for _ in 0..SETUPS_PER_RUN {
            let started = Instant::now();
            let built = black_box(scenario.build_driver());
            round_setups.push(started.elapsed().as_secs_f64());
            drop(built);
        }
        out.attempted += 1;
        let started = Instant::now();
        let mut driver = match scenario.build_driver() {
            Ok(driver) => driver,
            Err(err) => {
                out.failed += 1;
                out.check(false, || format!("{}: build failed: {err}", day.name()));
                break;
            }
        };
        round_setups.push(started.elapsed().as_secs_f64());
        let (report, wall, factor) = cold_run(&mut driver, scenario.ticks(), &reference);
        check_report(day, args.seed, &scenario, &report, &mut out);
        out.check(first == report, || {
            format!(
                "{}: repeat {} differs from the warm-up run",
                day.name(),
                colds.len() + 1
            )
        });
        // A warm re-run through the fleet engine: a fresh engine on the
        // cache, answered by one cache hit. (No journal: its per-batch
        // fsync would make this sub-millisecond figure bimodal.)
        for _ in 0..REPLAYS_PER_RUN {
            out.attempted += 1;
            let started = Instant::now();
            let engine = fleet::engine(work, None);
            let outcome = engine.run(std::slice::from_ref(&scenario), &RunPolicy::new());
            round_warms.push(started.elapsed().as_secs_f64());
            let replayed = outcome.reports().and_then(|mut r| r.pop());
            if replayed.is_none() {
                out.failed += 1;
            }
            out.check(
                engine.stats().simulated == 0 && replayed.as_ref() == Some(&first),
                || format!("{}: a warm re-run did not replay the first run", day.name()),
            );
        }
        factors.push(factor);
        setups.extend(round_setups.iter().map(|t| t * factor));
        wall_colds.push(wall);
        colds.push(wall * factor);
        // One warm sample per round: the mean of its re-runs, each a
        // few tens of microseconds, whose single times are bimodal.
        warms.push(round_warms.iter().sum::<f64>() / round_warms.len().max(1) as f64 * factor);
    }
    let held = hold.running();
    drop(hold);
    let cold = median(&colds);
    out.note(if held {
        "the second core was held busy while timing (see README.md)".to_string()
    } else {
        "the second core could not be held: times may flip between speeds".to_string()
    });
    out.note(format!(
        "reference speed over host speed, per cold run: {}",
        summary(&factors, 1.0)
    ));
    out.note(format!(
        "cold runs, wall (ms): {}",
        summary(&wall_colds, 1e3)
    ));
    out.note(format!("cold runs, scaled (ms): {}", summary(&colds, 1e3)));
    out.note(format!(
        "warm re-runs, scaled, mean per round (ms): {}",
        summary(&warms, 1e3)
    ));
    out.note(format!(
        "{}: seed {}, {} server(s) x {} tick(s) per run, 1 warm-up run, {} cold run(s), {} warm re-run(s)",
        day.name(),
        args.seed,
        scenario.servers(),
        scenario.ticks(),
        colds.len(),
        warms.len() * REPLAYS_PER_RUN
    ));
    if fingerprint::recorded(day, args.seed).is_none() {
        out.note(format!(
            "seed {} has no recorded fingerprint: repeats and the cache replay are checked against each other",
            args.seed
        ));
    }
    out.metric("setup_s", median(&setups), "s");
    out.metric("server_ticks_per_s", server_ticks(&scenario) / cold, "1/s");
    out.metric("cold_p50_ms", cold * 1e3, "ms");
    out.metric("warm_p50_ms", median(&warms) * 1e3, "ms");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out
}

/// The traced pass: leap counts from a recorder, step-by-step spans
/// with the layer replay, the fleet engine's phases on this scenario,
/// direct cache calls, and the advisor probed with this day's mix.
pub fn trace(day: Day, args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let scenario = day.scenario(args.seed);
    let ticks = scenario.ticks() as f64;

    // Untraced reference, then the same run with a leap recorder.
    out.attempted += 2;
    let started = Instant::now();
    let plain = scenario.run();
    let untraced = started.elapsed().as_secs_f64();
    let leaps = Arc::new(layers::LeapCounter::default());
    let recorded = scenario.clone().with_recorder(leaps.clone());
    let started = Instant::now();
    let build = tracer.begin("core.scenario_build", 0, None);
    let driver = recorded.build_driver();
    tracer.end(build);
    let traced_report = driver.map(|mut d| {
        let run = tracer.begin("core.run", 0, None);
        let report = d.run_ticks(recorded.ticks());
        tracer.end(run);
        report
    });
    let traced = started.elapsed().as_secs_f64();
    // A second untraced run after the traced one, so warm-up favours
    // neither side of the ratio.
    out.attempted += 1;
    let started = Instant::now();
    let again = scenario.run();
    let untraced = (untraced + started.elapsed().as_secs_f64()) / 2.0;
    out.check(again.as_ref().ok() == plain.as_ref().ok(), || {
        "a repeated untraced run changed the report".to_string()
    });
    match (&plain, &traced_report) {
        (Ok(a), Ok(b)) => {
            check_report(day, args.seed, &scenario, a, &mut out);
            out.check(a == b, || "a traced run changed the report".to_string());
        }
        _ => {
            out.failed += 1;
            out.check(false, || format!("{}: scenario failed to run", day.name()));
        }
    }
    let leaped = leaps.ticks() as f64;
    if day == Day::Dense {
        out.check(leaps.ticks() == 0, || {
            format!(
                "dense_day leaped {} tick(s); it must step every tick",
                leaps.ticks()
            )
        });
    }

    // Step call by call (every tick of the dense run; the first slot of
    // the steady day, whose 100k-server ticks step densely here).
    let step_ticks = match day {
        Day::Dense => scenario.ticks(),
        Day::Steady => 1_000,
    };
    if let Ok(mut sim) = scenario.build() {
        let parents = layers::step_spans(&mut sim, step_ticks, &mut tracer);
        if day == Day::Dense {
            if let Ok(plain) = &plain {
                out.check(sim.snapshot() == *plain, || {
                    "stepping the dense run tick by tick changed the report".to_string()
                });
            }
        }
        let replayed = &parents[..parents.len().min(DENSE_TICKS as usize)];
        layers::replay(&scenario, replayed, &mut tracer);
    }
    layers::report(&tracer, scenario.servers(), &mut out);

    out.metric("core.ticks_leaped", leaped, "count");
    out.metric("core.leap_share", leaped / ticks, "ratio");
    for _ in 0..4 {
        tracer.span("core.scenario_build", 1, None, || scenario.build().is_ok());
    }
    out.metric(
        "core.scenario_build_ms",
        median(&tracer.durations("core.scenario_build")) / 1e6,
        "ms",
    );

    // The scenario through the fleet engine, cold then warm.
    let metrics = Arc::new(Metrics::new());
    let engine = FleetEngine::new(1)
        .with_cache(ResultCache::new(work.join("engine-cache")))
        .with_metrics(Arc::clone(&metrics));
    let batch = [scenario.clone()];
    let cold = engine.run(&batch, &RunPolicy::new());
    let snapshot_cold = metrics.snapshot();
    let warm = engine.run(&batch, &RunPolicy::new());
    out.attempted += 2;
    out.check(cold.reports() == warm.reports(), || {
        format!("{}: engine replay differs from the engine run", day.name())
    });
    fleet::report_engine(&engine, &snapshot_cold, &mut out);

    if let Ok(report) = &plain {
        fleet::cache_calls(
            std::slice::from_ref(&scenario),
            std::slice::from_ref(report),
            work,
            &mut tracer,
            &mut out,
        );
        serve::bill_calls(std::slice::from_ref(report), &mut tracer);
    }
    serve::probe(
        Some(day.mix()),
        args.seed,
        PROBE_SECONDS,
        work,
        &mut tracer,
        &mut out,
    );
    out.metric(
        "telemetry.trace_overhead",
        trace_overhead(traced, untraced),
        "ratio",
    );
    out.note(format!(
        "{} traced: leaped {leaped} of {ticks} tick(s); traced run {traced:.3} s vs untraced {untraced:.3} s",
        day.name()
    ));
    crate::write_spans(&tracer, work, day.name(), args.seed);
    out
}
