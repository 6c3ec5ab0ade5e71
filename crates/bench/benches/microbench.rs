//! The engine guards, and the sweeps that record their ledger,
//! `BENCH_engine_throughput.json` (codec: [`heb_bench::ledger`]).
//! Plain `harness = false` timing loops (the build is offline, so
//! criterion is unavailable). Every mode takes the ledger's path; a
//! mode without one exits 2.
//!
//! `cargo bench -p heb-bench --bench microbench -- --guard PATH` runs
//! five guards in one process, prints one verdict per guard, and exits
//! 1 if any failed:
//!
//! - **telemetry overhead**: one control slot with the default recorder
//!   against one with an explicitly attached `NullRecorder`, built
//!   untimed, in pairs of alternating order; the median pair ratio must
//!   stay within 1.05. With the core `disabled_recorder_is_never_invoked`
//!   test this pins the "zero-cost when disabled" contract.
//! - **engine throughput**: a 16-scenario uncached batch at the
//!   ledger's `jobs` must reach `floor_fraction` (0.25) of
//!   `scenarios_per_sec`: generous on purpose, to catch
//!   order-of-magnitude regressions, not machine-to-machine noise.
//! - **sparse speedup**: a valley-heavy simulation driven dense and
//!   leaping must agree on the report, and leaping must be at least
//!   `sparse_speedup_floor` (5×) faster. A ratio is machine-independent,
//!   so this floor is a product claim, not a noise allowance.
//! - **megafleet scale**: the 1 k / 10 k / 100 k-server steady day. Each
//!   point keeps `scale_floor_fraction` (0.25) of its server-hours/s and
//!   builds in at most `build_secs` over that fraction; the largest day
//!   ends within `scale_max_wall_secs` (10 s). The 100 k day is recorded
//!   at 3.4 ms on a 2-core x86-64 container, so the cap only catches a
//!   collapse to stepping every server on every tick.
//! - **dense**: 1 k / 10 k bursty servers on a 1 s tick for 30 minutes,
//!   where nothing leaps; each point keeps `dense_floor_fraction` (0.25)
//!   of its server-ticks/s.
//!
//! `-- --throughput-baseline PATH`, `-- --scale-sweep PATH` and
//! `-- --dense-sweep PATH` each re-measure one section of the existing
//! ledger and write every other section back unchanged.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use heb_bench::ledger::{self, Ledger, Point, Section, Trajectory};
use heb_core::experiments::{megafleet_scenario, MEGAFLEET_SCALES};
use heb_core::{DriverMode, PolicyKind, Scenario, SimConfig, SimDriver, Simulation};
use heb_fleet::{FleetEngine, RunPolicy};
use heb_units::{Joules, Ratio, Seconds, Watts};
use heb_workload::Archetype;

/// What a guard reports: whether it held, and what it measured.
type Verdict = (bool, String);

/// Fraction of a recorded rate every throughput, scale and dense
/// guard run must reach. Generous on purpose: CI containers and
/// laptops differ by small factors, real regressions by large ones.
const FLOOR_FRACTION: f64 = 0.25;

/// Worker count the throughput batch is recorded at.
const THROUGHPUT_JOBS: usize = 4;

/// Passes the throughput batch takes the best of.
const THROUGHPUT_RUNS: usize = 3;

/// Scenarios in the throughput batch.
const THROUGHPUT_BATCH: usize = 16;

/// The workload the throughput baseline and guard both measure: an
/// uncached batch (every scenario simulates), best of
/// [`THROUGHPUT_RUNS`] passes at a fixed worker count.
fn measure_throughput(jobs: usize) -> f64 {
    let batch: Vec<Scenario> = (0..THROUGHPUT_BATCH as u64)
        .map(|i| {
            Scenario::new(
                format!("microbench/{i}"),
                SimConfig::prototype().with_policy(PolicyKind::HebD),
                &[Archetype::WebSearch, Archetype::Terasort],
                0.05,
                42 + i,
            )
        })
        .collect();
    let engine = FleetEngine::new(jobs);
    let mut throughput = 0.0_f64;
    for _ in 0..THROUGHPUT_RUNS {
        let start = Instant::now();
        black_box(
            engine
                .run(black_box(&batch), &RunPolicy::new())
                .expect_reports(),
        );
        throughput = throughput.max(THROUGHPUT_BATCH as f64 / start.elapsed().as_secs_f64());
    }
    throughput
}

fn throughput_guard(ledger: &Ledger) -> Verdict {
    let jobs = usize::try_from(ledger.jobs).unwrap_or(1).max(1);
    let measured = measure_throughput(jobs);
    let floor = ledger.scenarios_per_sec * ledger.floor_fraction;
    (
        measured >= floor,
        format!(
            "{measured:.2} scenarios/s at jobs={jobs} (recorded {:.2}, floor {floor:.2})",
            ledger.scenarios_per_sec
        ),
    )
}

/// One fleet-size trajectory as the sweeps and the guard run it.
struct Sweep {
    /// Where it sits in the ledger.
    ledger: Trajectory,
    /// Fleet sizes a sweep records.
    sizes: &'static [usize],
    /// The scenario at a fleet size.
    scenario: fn(usize) -> Scenario,
    /// Simulated hours (scale) or ticks (dense) of every scenario.
    horizon: f64,
    /// Whole runs a point is the best of.
    runs: usize,
    /// Builds timed alone before each run for `build_secs` (none: the
    /// point records no set-up time).
    builds_per_run: usize,
    /// Wall-clock cap on the largest point, in seconds.
    max_wall_secs: Option<f64>,
}

/// Seed pinning both trajectories' scenarios.
const TRAJECTORY_SEED: u64 = 2015;

/// The megafleet steady day, leaped by the event driver. A build takes
/// about a millisecond at 100 k servers, so it takes a few more samples
/// than the whole day.
const SCALE: Sweep = Sweep {
    ledger: ledger::SCALE,
    sizes: &MEGAFLEET_SCALES,
    scenario: scale_scenario,
    horizon: SCALE_HOURS,
    runs: 2,
    builds_per_run: 3,
    max_wall_secs: Some(10.0),
};

/// Bursty servers on a 1 s tick for 30 minutes: nothing leaps.
const DENSE: Sweep = Sweep {
    ledger: ledger::DENSE,
    sizes: &[1_000, 10_000],
    scenario: dense_scenario,
    horizon: DENSE_TICKS as f64,
    runs: 3,
    builds_per_run: 0,
    max_wall_secs: None,
};

/// Simulated horizon of every scale point: one full day.
const SCALE_HOURS: f64 = 24.0;

fn scale_scenario(servers: usize) -> Scenario {
    megafleet_scenario(servers, SCALE_HOURS, TRAJECTORY_SEED)
}

/// Simulated ticks of every dense point: 30 min of 1 s ticks.
const DENSE_TICKS: u64 = 1_800;

/// The bursty large-peak mix: no steady level, so nothing leaps.
const DENSE_MIX: [Archetype; 3] = [Archetype::Terasort, Archetype::Hivebench, Archetype::Dfsioe];

/// The dense scenario at `servers`: the prototype's per-server budget
/// (260 W per 6 servers) and buffer (25 Wh per server), 1 s tick,
/// 10 min slots, one battery string per 1,000 servers, event driver.
fn dense_scenario(servers: usize) -> Scenario {
    let n = servers as f64;
    let prototype = SimConfig::prototype();
    let config = prototype
        .to_builder()
        .servers(servers)
        .budget(Watts::new(
            prototype.budget.get() / prototype.servers as f64 * n,
        ))
        .total_capacity(Joules::from_watt_hours(25.0 * n))
        .battery_strings((servers / 1_000).max(1))
        .tick(Seconds::new(1.0))
        .slot_length(Seconds::from_minutes(10.0))
        .build()
        .expect("the dense configuration satisfies the builder");
    Scenario::from_ticks(
        format!("dense/{servers}"),
        config,
        &DENSE_MIX,
        DENSE_TICKS,
        TRAJECTORY_SEED,
    )
    .with_driver_mode(DriverMode::Event)
}

/// The point at `servers`: the best of `runs` whole runs and of the
/// builds timed alone before each.
fn measure(sweep: &Sweep, servers: u64) -> Point {
    let scenario = (sweep.scenario)(servers as usize);
    let (mut wall_secs, mut build_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..sweep.runs {
        for _ in 0..sweep.builds_per_run {
            let start = Instant::now();
            let driver = black_box(scenario.build_driver());
            build_secs = build_secs.min(start.elapsed().as_secs_f64());
            drop(driver);
        }
        let start = Instant::now();
        black_box(scenario.run_expect());
        wall_secs = wall_secs.min(start.elapsed().as_secs_f64());
    }
    Point {
        servers,
        wall_secs,
        rate: servers as f64 * sweep.horizon / wall_secs.max(1e-9),
        build_secs: (sweep.builds_per_run > 0).then_some(build_secs),
    }
}

/// One point's measurement, as a sweep or the guard prints it.
fn describe(sweep: &Sweep, p: &Point) -> String {
    let build = p
        .build_secs
        .map(|b| format!(", build {:.3} ms", b * 1e3))
        .unwrap_or_default();
    format!(
        "{:<14} {} {:>9.3e}  (wall {:.4} s{build})",
        format!("{}/{}", sweep.ledger.key, p.servers),
        sweep.ledger.rate_field,
        p.rate,
        p.wall_secs
    )
}

/// Re-measures every point `ledger` records for `sweep` against its
/// floor, and the scale-only build ceiling and wall-clock cap.
fn trajectory_guard(sweep: &Sweep, ledger: &Ledger) -> Verdict {
    let key = sweep.ledger.key;
    let Some(recorded) = ledger.sections.get(key) else {
        return (
            false,
            format!("no `{key}` trajectory recorded (--{key}-sweep)"),
        );
    };
    let largest = recorded.points.iter().map(|p| p.servers).max();
    let mut failed = 0;
    for r in &recorded.points {
        let measured = measure(sweep, r.servers);
        let floor = r.rate * recorded.floor_fraction;
        let mut problems = Vec::new();
        if measured.rate < floor {
            problems.push(format!("below floor {floor:.3e}"));
        }
        if let Some(cap) = recorded.max_wall_secs {
            if Some(r.servers) == largest && measured.wall_secs > cap {
                problems.push(format!("over the {cap} s cap"));
            }
        }
        // Set-up alone holds the same fraction of its recorded speed:
        // a build may take at most 1 / floor_fraction times as long.
        if let (Some(was), Some(took)) = (r.build_secs, measured.build_secs) {
            let ceiling = was / recorded.floor_fraction;
            if took > ceiling {
                problems.push(format!("build over ceiling {:.3} ms", ceiling * 1e3));
            }
        }
        let verdict = if problems.is_empty() {
            "ok".to_string()
        } else {
            failed += 1;
            format!("FAIL ({})", problems.join(", "))
        };
        println!(
            "{}  recorded {:.3e}  {verdict}",
            describe(sweep, &measured),
            r.rate
        );
    }
    (
        failed == 0,
        format!("{failed} of {} point(s) regressed", recorded.points.len()),
    )
}

/// The sparse microbench horizon: 8 simulated hours of overnight-style
/// valley — long enough that the dense side takes milliseconds and the
/// leaping side's fixed per-slot costs amortise away.
const SPARSE_HOURS: f64 = 8.0;

/// The speedup floor a fresh ledger records.
const SPARSE_SPEEDUP_FLOOR: f64 = 5.0;

/// A valley-heavy simulation the event driver can leap end to end:
/// generous budget (utility mode throughout), steady 30 % load, no
/// faults, noiseless metering.
fn sparse_sim() -> Simulation {
    Simulation::new(
        SimConfig::prototype()
            .with_policy(PolicyKind::HebD)
            .with_budget(Watts::new(2000.0)),
        &[Archetype::WordCount],
        42,
    )
    .with_steady_workload(Ratio::new_clamped(0.3))
}

/// The event-over-tick wall-clock speedup on the sparse trace
/// (interleaved best of five, both sides simulating identical
/// physics). Fails if the two drivers disagree on the report — the
/// guard must never trade correctness for speed.
fn sparse_speedup_guard(ledger: &Ledger) -> Verdict {
    let ticks = (SPARSE_HOURS * 3600.0).round() as u64;
    let mut tick_best = f64::INFINITY;
    let mut event_best = f64::INFINITY;
    for _ in 0..5 {
        let mut dense = SimDriver::tick(sparse_sim());
        let start = Instant::now();
        let tick_report = black_box(dense.run_ticks(ticks));
        tick_best = tick_best.min(start.elapsed().as_secs_f64());

        let mut leaping = SimDriver::event(sparse_sim());
        let start = Instant::now();
        let event_report = black_box(leaping.run_ticks(ticks));
        event_best = event_best.min(start.elapsed().as_secs_f64());

        if tick_report != event_report {
            return (
                false,
                "tick and event drivers disagree on the sparse report".to_string(),
            );
        }
    }
    let speedup = tick_best / event_best;
    let floor = ledger.sparse_speedup_floor;
    (
        speedup >= floor,
        format!(
            "{speedup:.2}x on a {SPARSE_HOURS} h valley \
             (tick {:.3} ms, event {:.3} ms, floor {floor}x)",
            tick_best * 1e3,
            event_best * 1e3
        ),
    )
}

/// The NullRecorder overhead budget.
const TELEMETRY_BUDGET: f64 = 1.05;

/// Paired samples the telemetry guard takes (odd, so the median is one
/// of them).
const TELEMETRY_PAIRS: usize = 201;

/// Attaching the default recorder explicitly must stay within the
/// budget of the untouched simulation. Each pair builds both sides
/// untimed, then times one control slot of each back to back, in
/// alternating order, so drift and cache warm-up hit both sides
/// equally; the median ratio ignores a pair a scheduler pause lands in.
fn telemetry_guard() -> Verdict {
    let slot_sim = || {
        Simulation::new(
            SimConfig::prototype().with_policy(PolicyKind::HebD),
            &[Archetype::WebSearch, Archetype::Terasort],
            42,
        )
    };
    let mut ratios: Vec<f64> = (0..TELEMETRY_PAIRS)
        .map(|pair| {
            let mut attached = slot_sim();
            attached.set_recorder(heb_telemetry::null_recorder());
            // [plain, attached]; even pairs run the plain side first.
            let mut sides = [SimDriver::tick(slot_sim()), SimDriver::tick(attached)];
            let mut secs = [0.0; 2];
            for side in [pair % 2, 1 - pair % 2] {
                let start = Instant::now();
                black_box(sides[side].run_ticks(600));
                secs[side] = start.elapsed().as_secs_f64();
            }
            secs[1] / secs[0]
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[TELEMETRY_PAIRS / 2];
    (
        ratio <= TELEMETRY_BUDGET,
        format!(
            "median ratio {ratio:.3} over {TELEMETRY_PAIRS} slot pairs (budget {TELEMETRY_BUDGET})"
        ),
    )
}

/// Runs every guard against the ledger at `path`.
fn guard(path: &Path) -> i32 {
    let ledger = match Ledger::load(path) {
        Ok(ledger) => ledger,
        Err(err) => {
            eprintln!("FAIL: {}: {err}", path.display());
            return 1;
        }
    };
    let verdicts = [
        ("telemetry overhead", telemetry_guard()),
        ("engine throughput", throughput_guard(&ledger)),
        ("sparse speedup", sparse_speedup_guard(&ledger)),
        ("megafleet scale", trajectory_guard(&SCALE, &ledger)),
        ("dense", trajectory_guard(&DENSE, &ledger)),
    ];
    println!("\nguards against {}:", path.display());
    for (name, (held, detail)) in &verdicts {
        let verdict = if *held { "ok  " } else { "FAIL" };
        println!("  {name:<20} {verdict}  {detail}");
    }
    i32::from(verdicts.iter().any(|(_, (held, _))| !held))
}

/// Refreshes one section of the existing ledger at `path`: `refresh`
/// measures it and says what it recorded.
fn record(path: &Path, refresh: impl FnOnce(&mut Ledger) -> String) -> i32 {
    let mut ledger = match Ledger::load(path) {
        Ok(ledger) => ledger,
        Err(err) => {
            eprintln!("FAIL: {}: {err}", path.display());
            return 1;
        }
    };
    let what = refresh(&mut ledger);
    match std::fs::write(path, ledger.render()) {
        Ok(()) => {
            println!("{what} -> {}", path.display());
            0
        }
        Err(err) => {
            eprintln!("FAIL: cannot write {}: {err}", path.display());
            1
        }
    }
}

fn throughput_baseline(ledger: &mut Ledger) -> String {
    let scenarios_per_sec = measure_throughput(THROUGHPUT_JOBS);
    ledger.batch_size = THROUGHPUT_BATCH as u64;
    ledger.jobs = THROUGHPUT_JOBS as u64;
    ledger.best_of = THROUGHPUT_RUNS as u64;
    ledger.scenarios_per_sec = scenarios_per_sec;
    ledger.floor_fraction = FLOOR_FRACTION;
    ledger.sparse_speedup_floor = SPARSE_SPEEDUP_FLOOR;
    format!("throughput baseline: {scenarios_per_sec:.2} scenarios/s")
}

fn sweep(sweep: &Sweep, ledger: &mut Ledger) -> String {
    let points: Vec<Point> = sweep
        .sizes
        .iter()
        .map(|&servers| {
            let p = measure(sweep, servers as u64);
            println!("{}", describe(sweep, &p));
            p
        })
        .collect();
    let what = format!("{} trajectory ({} points)", sweep.ledger.key, points.len());
    ledger.sections.insert(
        sweep.ledger.key,
        Section {
            horizon: sweep.horizon,
            floor_fraction: FLOOR_FRACTION,
            max_wall_secs: sweep.max_wall_secs,
            points,
        },
    );
    what
}

fn main() {
    const MODES: [&str; 4] = [
        "--guard",
        "--throughput-baseline",
        "--scale-sweep",
        "--dense-sweep",
    ];
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(at) = argv.iter().position(|a| MODES.contains(&a.as_str())) else {
        eprintln!("usage: microbench {{{}}} LEDGER_PATH", MODES.join("|"));
        std::process::exit(2);
    };
    // `cargo bench` may append its own flags; a following `--flag` is
    // not a path operand.
    let Some(path) = argv.get(at + 1).filter(|v| !v.starts_with("--")) else {
        eprintln!("{} needs the ledger's path", argv[at]);
        std::process::exit(2);
    };
    let path = Path::new(path);
    std::process::exit(match argv[at].as_str() {
        "--guard" => guard(path),
        "--throughput-baseline" => record(path, throughput_baseline),
        "--scale-sweep" => record(path, |ledger| sweep(&SCALE, ledger)),
        _ => record(path, |ledger| sweep(&DENSE, ledger)),
    });
}
