//! Micro-benchmarks for HEB's hot paths: the PAT lookup, the
//! Holt-Winters step, the device step functions, and a full control
//! slot of the end-to-end simulation per policy.
//!
//! Plain `harness = false` timing loops (median-of-runs over a fixed
//! iteration budget) — the build environment is offline, so criterion
//! is unavailable. Run with `cargo bench`.
//!
//! `cargo bench -p heb-bench --bench microbench -- --telemetry-guard`
//! runs only the telemetry-overhead guard: an interleaved A/B of the
//! end-to-end slot loop without and with an explicitly attached
//! `NullRecorder`, failing (exit 1) if the attached side is more than
//! 5 % slower. Together with the core `disabled_recorder_is_never_invoked`
//! test this pins the "zero-cost when disabled" contract.
//!
//! `-- --throughput-baseline [PATH]` measures fleet-engine throughput
//! and writes it to `PATH` (default `BENCH_engine_throughput.json`);
//! the committed copy at the repo root is the regression reference.
//! `-- --throughput-guard PATH` re-measures and fails (exit 1) if
//! throughput fell below `floor_fraction` of the recorded baseline —
//! the floor is deliberately generous (0.25) so the guard catches
//! order-of-magnitude regressions (an accidentally quadratic probe
//! pass, a sync added per tick) rather than machine-to-machine noise.
//!
//! `-- --scale-sweep [PATH]` runs the megafleet scale trajectory
//! (1 k / 10 k / 100 k servers, a steady 24 h day each, through the
//! event driver) and records per-point wall-clock and server-hours/s
//! into the baseline JSON, preserving the other recorded fields.
//! `-- --scale-guard PATH` re-measures every recorded point and fails
//! (exit 1) if a point's throughput fell below `scale_floor_fraction`
//! of its recorded baseline, or if the largest fleet's day takes longer
//! than `scale_max_wall_secs` (10 s) — a hard cap rather than a
//! relative floor. The recorded 100 k-server day takes 3.4 ms on a
//! 2-core x86-64 container, so the cap only catches a collapse to
//! stepping every server on every tick. Each point also records
//! `build_secs`, the best `Scenario::build_driver` time alone, and the
//! guard fails a point whose build takes longer than its recorded
//! `build_secs` over `scale_floor_fraction` (points recorded without
//! the field are guarded on throughput only).
//!
//! `-- --dense-sweep [PATH]` runs the dense trajectory (1 k / 10 k
//! servers of bursty Terasort/Hivebench/Dfsioe on a 1 s tick for
//! 30 simulated minutes, where nothing leaps and every server pays
//! every tick) and records per-point wall-clock and server-ticks/s
//! under the baseline's `dense` key, preserving the other fields.
//! `-- --dense-guard PATH` re-measures every recorded dense point and
//! fails (exit 1) if its throughput fell below `dense_floor_fraction`
//! of the recorded one. The scale guard covers only the leaped steady
//! day; this one covers the per-server-tick kernels.
//!
//! `-- --sparse-speedup-guard PATH` runs the sparse-workload
//! microbench: the same valley-heavy simulation driven dense
//! (`SimDriver::tick`) and leaping (`SimDriver::event`), asserting the
//! reports are identical and failing (exit 1) if event mode's
//! wall-clock speedup falls below the `sparse_speedup_floor` recorded
//! in the baseline JSON. A speedup ratio is machine-independent, so
//! unlike the throughput guard this floor is a hard product claim
//! (≥ 5×), not a noise allowance.

use heb_core::experiments::{megafleet_scenario, MEGAFLEET_SCALES};
use heb_core::{
    DriverMode, PolicyKind, PowerAllocationTable, Scenario, SimConfig, SimDriver, Simulation,
};
use heb_esd::{LeadAcidBattery, StorageDevice, SuperCapacitor};
use heb_fleet::{FleetEngine, RunPolicy};
use heb_forecast::{HoltWinters, Predictor};
use heb_units::{Joules, Ratio, Seconds, Watts};
use heb_workload::Archetype;
use std::hint::black_box;
use std::time::Instant;

/// Times `iters` calls of `f`, repeated over `runs` runs, and prints
/// the best per-iteration latency (least-noise estimator for short,
/// deterministic kernels).
fn bench(name: &str, runs: usize, iters: u64, mut f: impl FnMut()) {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let per_iter = start.elapsed().as_secs_f64() / iters as f64;
        best = best.min(per_iter);
    }
    let (value, unit) = if best < 1e-6 {
        (best * 1e9, "ns")
    } else if best < 1e-3 {
        (best * 1e6, "us")
    } else {
        (best * 1e3, "ms")
    };
    println!("{name:<40} {value:>10.2} {unit}/iter  ({runs} runs x {iters} iters)");
}

fn bench_pat() {
    let mut pat = PowerAllocationTable::new(
        Joules::from_watt_hours(10.0),
        Watts::new(20.0),
        Ratio::new_clamped(0.01),
    );
    // Populate a realistic table (hundreds of entries).
    for sc in 0..8 {
        for ba in 0..12 {
            for pm in 0..8 {
                let key = pat.key(
                    Joules::from_watt_hours(f64::from(sc) * 10.0),
                    Joules::from_watt_hours(f64::from(ba) * 10.0),
                    Watts::new(f64::from(pm) * 20.0),
                );
                pat.insert(key, Ratio::new_clamped(0.3));
            }
        }
    }
    let miss = pat.key(
        Joules::from_watt_hours(83.0),
        Joules::from_watt_hours(123.0),
        Watts::new(171.0),
    );
    bench("pat/lookup_similar_miss", 10, 10_000, || {
        black_box(pat.lookup_similar(black_box(miss)));
    });
    let hit = pat.key(
        Joules::from_watt_hours(40.0),
        Joules::from_watt_hours(60.0),
        Watts::new(80.0),
    );
    bench("pat/lookup_hit", 10, 100_000, || {
        black_box(pat.lookup(black_box(hit)));
    });
}

fn bench_forecast() {
    let mut hw = HoltWinters::for_power_series(144);
    let mut x = 0.0_f64;
    bench("forecast/holt_winters_observe", 10, 50_000, || {
        x += 1.0;
        hw.observe(black_box(200.0 + (x * 0.1).sin() * 50.0));
        black_box(hw.forecast(1));
    });
}

fn bench_devices() {
    let mut battery = LeadAcidBattery::prototype_string();
    bench("esd/battery_discharge_tick", 10, 50_000, || {
        let r = battery.discharge(black_box(Watts::new(120.0)), Seconds::new(1.0));
        if battery.is_depleted() {
            battery = LeadAcidBattery::prototype_string();
        }
        black_box(r);
    });
    let mut sc = SuperCapacitor::prototype_module();
    bench("esd/supercap_discharge_tick", 10, 50_000, || {
        let r = sc.discharge(black_box(Watts::new(120.0)), Seconds::new(1.0));
        if sc.is_depleted() {
            sc = SuperCapacitor::prototype_module();
        }
        black_box(r);
    });
}

fn bench_simulation() {
    for policy in [PolicyKind::BaOnly, PolicyKind::ScFirst, PolicyKind::HebD] {
        bench(&format!("sim/one_slot/{}", policy.name()), 5, 10, || {
            let sim = Simulation::new(
                SimConfig::prototype().with_policy(policy),
                &[Archetype::WebSearch, Archetype::Terasort],
                42,
            );
            black_box(SimDriver::tick(sim).run_ticks(600));
        });
    }
}

fn bench_fleet_engine() {
    // Engine throughput: a 16-scenario batch of short mixed-workload
    // runs, executed at increasing worker counts (no cache, so every
    // scenario simulates). On a single-core host the levels collapse
    // to serial throughput; on multi-core the scaling is visible.
    let batch: Vec<Scenario> = (0..16)
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
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut levels = vec![1, 4];
    if !levels.contains(&cores) {
        levels.push(cores);
    }
    for jobs in levels {
        let engine = FleetEngine::new(jobs);
        let mut throughput = 0.0_f64;
        for _ in 0..3 {
            let start = Instant::now();
            black_box(
                engine
                    .run(black_box(&batch), &RunPolicy::new())
                    .expect_reports(),
            );
            throughput = throughput.max(batch.len() as f64 / start.elapsed().as_secs_f64());
        }
        println!(
            "{:<40} {throughput:>10.2} scenarios/s  (best of 3 x {}-scenario batches)",
            format!("fleet/engine_throughput/jobs={jobs}"),
            batch.len()
        );
    }
}

/// The workload the throughput baseline and guard both measure: a
/// 16-scenario uncached batch (every scenario simulates), best of
/// `runs` passes at a fixed worker count.
fn measure_throughput(jobs: usize, runs: usize) -> (f64, usize) {
    let batch: Vec<Scenario> = (0..16)
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
    for _ in 0..runs {
        let start = Instant::now();
        black_box(
            engine
                .run(black_box(&batch), &RunPolicy::new())
                .expect_reports(),
        );
        throughput = throughput.max(batch.len() as f64 / start.elapsed().as_secs_f64());
    }
    (throughput, batch.len())
}

/// Fraction of the recorded baseline the current measurement must
/// reach. Generous on purpose: CI containers and laptops differ by
/// small factors, real regressions by large ones.
const THROUGHPUT_FLOOR_FRACTION: f64 = 0.25;

/// Worker count both modes pin, for comparability across machines.
const THROUGHPUT_JOBS: usize = 4;

/// One recorded (or freshly measured) megafleet scale point.
#[derive(Debug, Clone, Copy)]
struct ScalePoint {
    servers: u64,
    wall_secs: f64,
    server_hours_per_sec: f64,
    /// Best `Scenario::build_driver` time alone; `None` in baselines
    /// recorded before set-up was guarded.
    build_secs: Option<f64>,
}

/// Simulated horizon of every scale point: one full day.
const SCALE_HOURS: f64 = 24.0;

/// Seed pinning the scale trajectory's scenarios.
const SCALE_SEED: u64 = 2015;

/// Fraction of a recorded scale point the re-measured throughput must
/// reach — generous for the same machine-variance reason as
/// [`THROUGHPUT_FLOOR_FRACTION`].
const SCALE_FLOOR_FRACTION: f64 = 0.25;

/// Hard wall-clock cap on the largest recorded fleet's day, in seconds
/// (the 100 k-server steady day is recorded at 3.4 ms).
const SCALE_MAX_WALL_SECS: f64 = 10.0;

/// Builds timed per run for a scale point's `build_secs`: a build
/// takes about a millisecond at 100 k servers, so a few more samples
/// than whole-day runs cost little.
const SCALE_BUILDS_PER_RUN: usize = 3;

/// Runs the megafleet day at `servers` and returns the best-of-`runs`
/// wall-clock measurement, and the best of `SCALE_BUILDS_PER_RUN`
/// builds per run alone.
fn measure_scale_point(servers: u64, runs: usize) -> ScalePoint {
    let scenario = megafleet_scenario(servers as usize, SCALE_HOURS, SCALE_SEED);
    let (mut wall_secs, mut build_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..runs {
        for _ in 0..SCALE_BUILDS_PER_RUN {
            let start = Instant::now();
            let driver = black_box(scenario.build_driver());
            build_secs = build_secs.min(start.elapsed().as_secs_f64());
            drop(driver);
        }
        let start = Instant::now();
        black_box(scenario.run_expect());
        wall_secs = wall_secs.min(start.elapsed().as_secs_f64());
    }
    ScalePoint {
        servers,
        wall_secs,
        server_hours_per_sec: servers as f64 * SCALE_HOURS / wall_secs.max(1e-9),
        build_secs: Some(build_secs),
    }
}

/// The scale points recorded in a parsed baseline, oldest format
/// (no `scale` key) yielding an empty list.
fn parse_scale(baseline: &heb_serve::Json) -> Vec<ScalePoint> {
    baseline
        .get("scale")
        .and_then(heb_serve::Json::as_arr)
        .map(|points| {
            points
                .iter()
                .filter_map(|p| {
                    Some(ScalePoint {
                        servers: p.get("servers")?.as_u64()?,
                        wall_secs: p.get("wall_secs")?.as_f64()?,
                        server_hours_per_sec: p.get("server_hours_per_sec")?.as_f64()?,
                        build_secs: p.get("build_secs").and_then(heb_serve::Json::as_f64),
                    })
                })
                .collect()
        })
        .unwrap_or_default()
}

/// One recorded (or freshly measured) dense-regime point.
#[derive(Debug, Clone, Copy)]
struct DensePoint {
    servers: u64,
    wall_secs: f64,
    server_ticks_per_sec: f64,
}

/// Fleet sizes of the dense trajectory.
const DENSE_SCALES: [usize; 2] = [1_000, 10_000];

/// Simulated ticks of every dense point: 30 min of 1 s ticks.
const DENSE_TICKS: u64 = 1_800;

/// Seed pinning the dense trajectory's scenarios.
const DENSE_SEED: u64 = 2015;

/// Fraction of a recorded dense point the re-measured throughput must
/// reach — the same machine-variance allowance as the scale guard.
const DENSE_FLOOR_FRACTION: f64 = 0.25;

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
        DENSE_SEED,
    )
    .with_driver_mode(DriverMode::Event)
}

/// Runs the dense scenario at `servers` and returns the best-of-`runs`
/// wall-clock measurement.
fn measure_dense_point(servers: u64, runs: usize) -> DensePoint {
    let scenario = dense_scenario(servers as usize);
    let mut wall_secs = f64::INFINITY;
    for _ in 0..runs {
        let start = Instant::now();
        black_box(scenario.run_expect());
        wall_secs = wall_secs.min(start.elapsed().as_secs_f64());
    }
    DensePoint {
        servers,
        wall_secs,
        server_ticks_per_sec: servers as f64 * DENSE_TICKS as f64 / wall_secs.max(1e-9),
    }
}

/// The dense points recorded in a parsed baseline (none before the
/// dense gate existed).
fn parse_dense(baseline: &heb_serve::Json) -> Vec<DensePoint> {
    baseline
        .get("dense")
        .and_then(heb_serve::Json::as_arr)
        .map(|points| {
            points
                .iter()
                .filter_map(|p| {
                    Some(DensePoint {
                        servers: p.get("servers")?.as_u64()?,
                        wall_secs: p.get("wall_secs")?.as_f64()?,
                        server_ticks_per_sec: p.get("server_ticks_per_sec")?.as_f64()?,
                    })
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Everything the baseline file records. Each sweep refreshes its own
/// part and keeps the others as recorded.
struct Baseline {
    batch: usize,
    scenarios_per_sec: f64,
    scale: Vec<ScalePoint>,
    dense: Vec<DensePoint>,
}

impl Baseline {
    /// The baseline at `path`; the engine-throughput number is
    /// measured fresh only when the file does not record one.
    fn load_or_measure(path: &str) -> Self {
        let parsed = load_baseline(path);
        let kept = parsed.as_ref().and_then(|b| {
            Some((
                b.get("scenarios_per_sec")?.as_f64()?,
                b.get("batch_size")?.as_u64()? as usize,
            ))
        });
        let (scenarios_per_sec, batch) =
            kept.unwrap_or_else(|| measure_throughput(THROUGHPUT_JOBS, 3));
        Self {
            batch,
            scenarios_per_sec,
            scale: parsed.as_ref().map(parse_scale).unwrap_or_default(),
            dense: parsed.as_ref().map(parse_dense).unwrap_or_default(),
        }
    }

    fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }

    /// Serialises the complete baseline file: the engine-throughput
    /// fields plus the (possibly empty) megafleet scale and dense
    /// trajectories.
    fn render(&self) -> String {
        let mut body = format!(
            "{{\n  \"bench\": \"fleet/engine_throughput\",\n  \"batch_size\": {},\n  \
             \"jobs\": {THROUGHPUT_JOBS},\n  \"best_of\": 3,\n  \
             \"scenarios_per_sec\": {:.2},\n  \
             \"floor_fraction\": {THROUGHPUT_FLOOR_FRACTION},\n  \
             \"sparse_speedup_floor\": {SPARSE_SPEEDUP_FLOOR}",
            self.batch, self.scenarios_per_sec
        );
        if !self.scale.is_empty() {
            body.push_str(&format!(
                ",\n  \"scale_hours\": {SCALE_HOURS},\n  \
                 \"scale_floor_fraction\": {SCALE_FLOOR_FRACTION},\n  \
                 \"scale_max_wall_secs\": {SCALE_MAX_WALL_SECS},\n  \"scale\": [\n"
            ));
            for (i, p) in self.scale.iter().enumerate() {
                let comma = if i + 1 < self.scale.len() { "," } else { "" };
                let build = p
                    .build_secs
                    .map(|b| format!(", \"build_secs\": {b:.6}"))
                    .unwrap_or_default();
                body.push_str(&format!(
                    "    {{\"servers\": {}, \"wall_secs\": {:.4}, \"server_hours_per_sec\": {:.1}{build}}}{comma}\n",
                    p.servers, p.wall_secs, p.server_hours_per_sec
                ));
            }
            body.push_str("  ]");
        }
        if !self.dense.is_empty() {
            body.push_str(&format!(
                ",\n  \"dense_ticks\": {DENSE_TICKS},\n  \
                 \"dense_floor_fraction\": {DENSE_FLOOR_FRACTION},\n  \"dense\": [\n"
            ));
            for (i, p) in self.dense.iter().enumerate() {
                let comma = if i + 1 < self.dense.len() { "," } else { "" };
                body.push_str(&format!(
                    "    {{\"servers\": {}, \"wall_secs\": {:.4}, \"server_ticks_per_sec\": {:.1}}}{comma}\n",
                    p.servers, p.wall_secs, p.server_ticks_per_sec
                ));
            }
            body.push_str("  ]");
        }
        body.push_str("\n}\n");
        body
    }
}

/// The baseline currently at `path`, if readable and valid.
fn load_baseline(path: &str) -> Option<heb_serve::Json> {
    let raw = std::fs::read_to_string(path).ok()?;
    heb_serve::json::parse(&raw).ok()
}

fn throughput_baseline(path: &str) -> i32 {
    let (scenarios_per_sec, batch) = measure_throughput(THROUGHPUT_JOBS, 3);
    // Refreshing the throughput number must not drop a recorded scale
    // or dense trajectory — the sweeps are updated independently.
    let recorded = load_baseline(path);
    let baseline = Baseline {
        batch,
        scenarios_per_sec,
        scale: recorded.as_ref().map(parse_scale).unwrap_or_default(),
        dense: recorded.as_ref().map(parse_dense).unwrap_or_default(),
    };
    match baseline.write(path) {
        Ok(()) => {
            println!("throughput baseline: {scenarios_per_sec:.2} scenarios/s -> {path}");
            0
        }
        Err(err) => {
            eprintln!("FAIL: cannot write {path}: {err}");
            1
        }
    }
}

fn scale_sweep(path: &str) -> i32 {
    println!("megafleet scale sweep: steady {SCALE_HOURS} h day, event driver\n");
    let scale: Vec<ScalePoint> = MEGAFLEET_SCALES
        .iter()
        .map(|&servers| {
            let p = measure_scale_point(servers as u64, 2);
            println!(
                "{:<40} {:>10.3} s  ({:.3e} server-hours/s, build {:.3} ms)",
                format!("megafleet/{servers}"),
                p.wall_secs,
                p.server_hours_per_sec,
                p.build_secs.unwrap_or(f64::NAN) * 1e3
            );
            p
        })
        .collect();
    let baseline = Baseline {
        scale,
        ..Baseline::load_or_measure(path)
    };
    match baseline.write(path) {
        Ok(()) => {
            println!(
                "scale trajectory ({} points) -> {path}",
                baseline.scale.len()
            );
            0
        }
        Err(err) => {
            eprintln!("FAIL: cannot write {path}: {err}");
            1
        }
    }
}

fn dense_sweep(path: &str) -> i32 {
    println!("dense sweep: bursty TS/HB/DFS, 1 s tick, {DENSE_TICKS} ticks, event driver\n");
    let dense: Vec<DensePoint> = DENSE_SCALES
        .iter()
        .map(|&servers| {
            let p = measure_dense_point(servers as u64, 3);
            println!(
                "{:<40} {:>10.3} s  ({:.3e} server-ticks/s)",
                format!("dense/{servers}"),
                p.wall_secs,
                p.server_ticks_per_sec
            );
            p
        })
        .collect();
    let baseline = Baseline {
        dense,
        ..Baseline::load_or_measure(path)
    };
    match baseline.write(path) {
        Ok(()) => {
            println!(
                "dense trajectory ({} points) -> {path}",
                baseline.dense.len()
            );
            0
        }
        Err(err) => {
            eprintln!("FAIL: cannot write {path}: {err}");
            1
        }
    }
}

fn dense_guard(path: &str) -> i32 {
    let regenerate = || {
        eprintln!(
            "regenerate with: cargo bench -p heb-bench --bench microbench -- --dense-sweep {path}"
        )
    };
    let Some(baseline) = load_baseline(path) else {
        eprintln!("FAIL: cannot read baseline {path}");
        regenerate();
        return 1;
    };
    let recorded = parse_dense(&baseline);
    if recorded.is_empty() {
        eprintln!("FAIL: baseline {path} records no dense trajectory");
        regenerate();
        return 1;
    }
    let floor_fraction = baseline
        .get("dense_floor_fraction")
        .and_then(heb_serve::Json::as_f64)
        .unwrap_or(DENSE_FLOOR_FRACTION);
    println!(
        "dense guard: {} recorded point(s), bursty TS/HB/DFS, 1 s tick, {DENSE_TICKS} ticks\n",
        recorded.len()
    );
    let mut failed = false;
    for r in &recorded {
        let measured = measure_dense_point(r.servers, 3);
        let floor = r.server_ticks_per_sec * floor_fraction;
        let verdict = if measured.server_ticks_per_sec < floor {
            failed = true;
            "FAIL (below floor)"
        } else {
            "ok"
        };
        println!(
            "dense/{:<8} recorded {:>9.3e}  measured {:>9.3e} server-ticks/s  \
             (floor {:>9.3e}, wall {:.3} s)  {verdict}",
            r.servers,
            r.server_ticks_per_sec,
            measured.server_ticks_per_sec,
            floor,
            measured.wall_secs
        );
    }
    if failed {
        eprintln!("FAIL: dense trajectory regressed");
        1
    } else {
        println!("OK: every dense point holds its throughput floor");
        0
    }
}

fn scale_guard(path: &str) -> i32 {
    let Some(baseline) = load_baseline(path) else {
        eprintln!("FAIL: cannot read baseline {path}");
        eprintln!(
            "regenerate with: cargo bench -p heb-bench --bench microbench -- --scale-sweep {path}"
        );
        return 1;
    };
    let recorded = parse_scale(&baseline);
    if recorded.is_empty() {
        eprintln!("FAIL: baseline {path} records no scale trajectory");
        eprintln!(
            "regenerate with: cargo bench -p heb-bench --bench microbench -- --scale-sweep {path}"
        );
        return 1;
    }
    let floor_fraction = baseline
        .get("scale_floor_fraction")
        .and_then(heb_serve::Json::as_f64)
        .unwrap_or(SCALE_FLOOR_FRACTION);
    let max_wall = baseline
        .get("scale_max_wall_secs")
        .and_then(heb_serve::Json::as_f64)
        .unwrap_or(SCALE_MAX_WALL_SECS);
    println!(
        "megafleet scale guard: {} recorded point(s), steady {SCALE_HOURS} h day\n",
        recorded.len()
    );
    let largest = recorded.iter().map(|p| p.servers).max().unwrap_or(0);
    let mut failed = false;
    for r in &recorded {
        let measured = measure_scale_point(r.servers, 2);
        let floor = r.server_hours_per_sec * floor_fraction;
        let mut verdict = if measured.server_hours_per_sec < floor {
            failed = true;
            "FAIL (below floor)"
        } else {
            "ok"
        };
        // The wall-clock cap binds the trajectory's top.
        if r.servers == largest && measured.wall_secs > max_wall {
            failed = true;
            verdict = "FAIL (over wall-clock cap)";
        }
        // Set-up alone holds the same fraction of its recorded speed:
        // a build may take at most 1 / floor_fraction times as long.
        let mut build = String::new();
        if let (Some(recorded), Some(took)) = (r.build_secs, measured.build_secs) {
            let ceiling = recorded / floor_fraction;
            if took > ceiling {
                failed = true;
                verdict = "FAIL (build over ceiling)";
            }
            build = format!(
                ", build {:.3} ms (recorded {:.3}, ceiling {:.3})",
                took * 1e3,
                recorded * 1e3,
                ceiling * 1e3
            );
        }
        println!(
            "megafleet/{:<8} recorded {:>9.3e}  measured {:>9.3e} server-hours/s  \
             (floor {:>9.3e}, wall {:.3} s{build})  {verdict}",
            r.servers,
            r.server_hours_per_sec,
            measured.server_hours_per_sec,
            floor,
            measured.wall_secs
        );
    }
    if failed {
        eprintln!("FAIL: megafleet scale trajectory regressed");
        1
    } else {
        println!("OK: every scale point holds its throughput floor and the wall-clock cap");
        0
    }
}

fn throughput_guard(path: &str) -> i32 {
    let raw = match std::fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(err) => {
            eprintln!("FAIL: cannot read baseline {path}: {err}");
            eprintln!("regenerate with: cargo bench -p heb-bench --bench microbench -- --throughput-baseline {path}");
            return 1;
        }
    };
    let baseline = match heb_serve::json::parse(&raw) {
        Ok(json) => json,
        Err(err) => {
            eprintln!("FAIL: baseline {path} is not valid JSON: {err}");
            return 1;
        }
    };
    let field = |name: &str| baseline.get(name).and_then(heb_serve::Json::as_f64);
    let (Some(recorded), Some(floor_fraction)) =
        (field("scenarios_per_sec"), field("floor_fraction"))
    else {
        eprintln!("FAIL: baseline {path} lacks scenarios_per_sec / floor_fraction");
        return 1;
    };
    let jobs = baseline
        .get("jobs")
        .and_then(heb_serve::Json::as_u64)
        .map_or(THROUGHPUT_JOBS, |j| usize::try_from(j).unwrap_or(1).max(1));

    println!("engine-throughput guard: 16-scenario uncached batch, jobs={jobs}\n");
    let (measured, _) = measure_throughput(jobs, 3);
    let floor = recorded * floor_fraction;
    println!("baseline  {recorded:>10.2} scenarios/s  ({path})");
    println!("measured  {measured:>10.2} scenarios/s");
    println!("floor     {floor:>10.2} scenarios/s  (fraction {floor_fraction})");
    if measured < floor {
        eprintln!("FAIL: engine throughput regressed below {floor_fraction} of baseline");
        1
    } else {
        println!("OK: engine throughput within the regression floor");
        0
    }
}

/// The sparse microbench horizon: 8 simulated hours of overnight-style
/// valley — long enough that the dense side takes milliseconds and the
/// leaping side's fixed per-slot costs amortise away.
const SPARSE_HOURS: f64 = 8.0;

/// The committed speedup floor written into the baseline JSON.
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

/// Measures the event-over-tick wall-clock speedup on the sparse trace
/// (interleaved best-of, both sides snapshotting identical physics).
/// Errors if the two drivers disagree on the report — the guard must
/// never trade correctness for speed.
fn measure_sparse_speedup(runs: usize) -> Result<(f64, f64, f64), String> {
    let ticks = (SPARSE_HOURS * 3600.0).round() as u64;
    let mut tick_best = f64::INFINITY;
    let mut event_best = f64::INFINITY;
    for _ in 0..runs {
        let mut dense = SimDriver::tick(sparse_sim());
        let start = Instant::now();
        let tick_report = black_box(dense.run_ticks(ticks));
        tick_best = tick_best.min(start.elapsed().as_secs_f64());

        let mut leaping = SimDriver::event(sparse_sim());
        let start = Instant::now();
        let event_report = black_box(leaping.run_ticks(ticks));
        event_best = event_best.min(start.elapsed().as_secs_f64());

        if tick_report != event_report {
            return Err("tick and event drivers disagree on the sparse report".to_string());
        }
    }
    Ok((tick_best / event_best, tick_best, event_best))
}

fn sparse_speedup_guard(path: &str) -> i32 {
    let floor = match std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {path}: {e}"))
        .and_then(|raw| heb_serve::json::parse(&raw).map_err(|e| format!("baseline {path}: {e}")))
    {
        Ok(json) => match json
            .get("sparse_speedup_floor")
            .and_then(heb_serve::Json::as_f64)
        {
            Some(floor) => floor,
            None => {
                eprintln!("FAIL: baseline {path} lacks sparse_speedup_floor");
                return 1;
            }
        },
        Err(err) => {
            eprintln!("FAIL: {err}");
            return 1;
        }
    };
    println!("sparse-speedup guard: {SPARSE_HOURS} h steady valley, tick vs event driver\n");
    match measure_sparse_speedup(5) {
        Err(err) => {
            eprintln!("FAIL: {err}");
            1
        }
        Ok((speedup, tick, event)) => {
            println!("tick driver   {:>10.3} ms  (dense, best of 5)", tick * 1e3);
            println!(
                "event driver  {:>10.3} ms  (leaping, best of 5)",
                event * 1e3
            );
            println!("speedup       {speedup:>10.2} x  (floor {floor} x, {path})");
            if speedup < floor {
                eprintln!("FAIL: event-mode speedup fell below the {floor}x floor");
                1
            } else {
                println!("OK: event mode holds the sparse-workload speedup floor");
                0
            }
        }
    }
}

/// Best per-iteration seconds for one full control slot, with or
/// without an explicitly attached `NullRecorder`.
fn slot_latency(attach_null: bool, runs: usize, iters: u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let start = Instant::now();
        for _ in 0..iters {
            let mut sim = Simulation::new(
                SimConfig::prototype().with_policy(PolicyKind::HebD),
                &[Archetype::WebSearch, Archetype::Terasort],
                42,
            );
            if attach_null {
                sim.set_recorder(heb_telemetry::null_recorder());
            }
            black_box(SimDriver::tick(sim).run_ticks(600));
        }
        best = best.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

/// The NullRecorder overhead budget: attaching the default recorder
/// explicitly must stay within 5 % of the untouched simulation. The
/// sides are interleaved (A, B, A, B, …) so frequency drift and cache
/// warm-up hit both equally; each side keeps its own best-of estimate.
fn telemetry_guard() -> i32 {
    println!("telemetry-overhead guard: slot loop, default vs attached NullRecorder\n");
    let (runs, iters) = (6, 8);
    let mut baseline = f64::INFINITY;
    let mut with_null = f64::INFINITY;
    for _ in 0..runs {
        baseline = baseline.min(slot_latency(false, 1, iters));
        with_null = with_null.min(slot_latency(true, 1, iters));
    }
    let ratio = with_null / baseline;
    println!("baseline      {:>10.3} ms/slot", baseline * 1e3);
    println!("null recorder {:>10.3} ms/slot", with_null * 1e3);
    println!("ratio         {ratio:>10.3}  (budget 1.05)");
    if ratio > 1.05 {
        eprintln!("FAIL: NullRecorder overhead exceeds the 5 % budget");
        1
    } else {
        println!("OK: NullRecorder within the overhead budget");
        0
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--telemetry-guard") {
        std::process::exit(telemetry_guard());
    }
    // `cargo bench` may append its own flags; a following `--flag` is
    // not a path operand.
    let value_of = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .map(|at| argv.get(at + 1).filter(|v| !v.starts_with("--")).cloned())
    };
    if let Some(path) = value_of("--throughput-baseline") {
        let path = path.unwrap_or_else(|| "BENCH_engine_throughput.json".to_string());
        std::process::exit(throughput_baseline(&path));
    }
    if let Some(path) = value_of("--throughput-guard") {
        let Some(path) = path else {
            eprintln!("--throughput-guard needs a baseline path");
            std::process::exit(2);
        };
        std::process::exit(throughput_guard(&path));
    }
    if let Some(path) = value_of("--sparse-speedup-guard") {
        let path = path.unwrap_or_else(|| "BENCH_engine_throughput.json".to_string());
        std::process::exit(sparse_speedup_guard(&path));
    }
    if let Some(path) = value_of("--scale-sweep") {
        let path = path.unwrap_or_else(|| "BENCH_engine_throughput.json".to_string());
        std::process::exit(scale_sweep(&path));
    }
    if let Some(path) = value_of("--dense-sweep") {
        let path = path.unwrap_or_else(|| "BENCH_engine_throughput.json".to_string());
        std::process::exit(dense_sweep(&path));
    }
    if let Some(path) = value_of("--dense-guard") {
        let Some(path) = path else {
            eprintln!("--dense-guard needs a baseline path");
            std::process::exit(2);
        };
        std::process::exit(dense_guard(&path));
    }
    if let Some(path) = value_of("--scale-guard") {
        let Some(path) = path else {
            eprintln!("--scale-guard needs a baseline path");
            std::process::exit(2);
        };
        std::process::exit(scale_guard(&path));
    }
    println!("HEB micro-benchmarks (best-of-runs per-iteration latency)\n");
    bench_pat();
    bench_forecast();
    bench_devices();
    bench_simulation();
    bench_fleet_engine();
    match measure_sparse_speedup(3) {
        Ok((speedup, tick, event)) => println!(
            "{:<40} {speedup:>10.2} x  (tick {:.2} ms vs event {:.2} ms)",
            "sim/sparse_event_speedup",
            tick * 1e3,
            event * 1e3
        ),
        Err(err) => println!("sim/sparse_event_speedup: {err}"),
    }
}
