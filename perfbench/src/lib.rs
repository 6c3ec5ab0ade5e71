//! The HEB simulator benchmark: four workloads, end-to-end metrics from
//! untraced runs, per-layer metrics from a separate traced run. See
//! `perfbench/README.md` for what each workload and metric measures.

pub mod day;
pub mod fingerprint;
pub mod fleet;
pub mod hold;
pub mod hostspeed;
pub mod layers;
pub mod outcome;
pub mod serve;
pub mod span;
pub mod stats;
pub mod steadiness;

use std::path::{Path, PathBuf};

use outcome::Outcome;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["dense_day", "steady_day", "fleet_matrix", "serve_mix"];

/// End-to-end metrics every untraced run reports.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "server_ticks_per_s",
    "cold_p50_ms",
    "warm_p50_ms",
    "peak_rss_mb",
];

/// Per-layer metrics every traced run reports.
pub const PER_LAYER: [&str; 38] = [
    "workload.next_utilization_ns",
    "powersys.set_utilizations_ns",
    "powersys.total_demand_ns",
    "powersys.cluster_tick_ns",
    "powersys.ipdu_sample_ns",
    "esd.discharge_ns",
    "esd.charge_ns",
    "esd.idle_ns",
    "esd.idle_settled_ns",
    "core.step_p50_ns",
    "core.step_p99_ns",
    "core.step_self_ns",
    "core.controller_slot_us",
    "forecast.observe_ns",
    "core.ticks_leaped",
    "core.leap_share",
    "core.scenario_build_ms",
    "core.content_hash_us",
    "fleet.cache_load_us",
    "fleet.cache_store_us",
    "fleet.probe_s",
    "fleet.simulate_s",
    "fleet.merge_s",
    "fleet.worker_busy_share",
    "fleet.simulated",
    "fleet.cache_hits",
    "fleet.cache_writes",
    "fleet.retries",
    "fleet.quarantined",
    "serve.advisor_warm_us",
    "serve.advisor_cold_ms",
    "serve.transport_us",
    "serve.json_parse_us",
    "tco.bill_run_us",
    "serve.hit_ratio",
    "serve.singleflight_coalesced",
    "serve.queue_depth_max",
    "telemetry.trace_overhead",
];

/// One run's arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Whether this is the traced pass.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`; a later
    /// flag overrides an earlier one.
    ///
    /// # Errors
    ///
    /// Names the flag that is unknown, missing a value, or malformed.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 42,
            seconds: 10.0,
            trace: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => args.workload.clone_from(value),
                "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                        return Err("--seconds must be in (0, 3600]".to_string());
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_string()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        Ok(args)
    }
}

/// Runs one workload pass in `work` and returns its outcome, with the
/// metric list checked against the contract.
#[must_use]
pub fn run(args: &Args, work: &Path) -> Outcome {
    let mut out = match (args.workload.as_str(), args.trace) {
        ("dense_day", false) => day::run(day::Day::Dense, args, work),
        ("dense_day", true) => day::trace(day::Day::Dense, args, work),
        ("steady_day", false) => day::run(day::Day::Steady, args, work),
        ("steady_day", true) => day::trace(day::Day::Steady, args, work),
        ("fleet_matrix", false) => fleet::run(args, work),
        ("fleet_matrix", true) => fleet::trace(args, work),
        (_, false) => serve::run(args, work),
        (_, true) => serve::trace(args, work),
    };
    out.note(format!(
        "host: {} core(s) available",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
    ));
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut ordered = Vec::with_capacity(expected.len());
    for name in expected {
        match out.metrics.iter().position(|m| m.name == *name) {
            Some(i) => ordered.push(out.metrics.remove(i)),
            None => out
                .mismatches
                .push(format!("metric {name} was not measured")),
        }
    }
    for extra in &out.metrics {
        out.mismatches
            .push(format!("metric {} is not in the contract", extra.name));
    }
    out.metrics = ordered;
    out
}

/// Where a run keeps its scratch files: `.perfbench_work` under the
/// directory the benchmark runs from.
#[must_use]
pub fn work_root() -> PathBuf {
    PathBuf::from(".perfbench_work")
}

/// Writes the traced pass's spans once, at the end of the run.
pub fn write_spans(tracer: &span::Tracer, work: &Path, workload: &str, seed: u64) {
    let dir = work.parent().unwrap_or(work).join("spans");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
        if let Err(err) = tracer.write_jsonl(&path) {
            eprintln!("spans not written to {}: {err}", path.display());
        }
    }
}
