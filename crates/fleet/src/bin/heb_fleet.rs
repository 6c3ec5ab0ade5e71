//! Fleet batch driver: runs every scenario-ised experiment of the
//! evaluation through the parallel engine, the result cache, and the
//! execution-robustness layer.
//!
//! ```text
//! heb_fleet [--jobs N] [--no-cache] [--cache-dir DIR] [--filter NAME]
//!           [--hours H] [--seed S] [--replicate R] [--metrics]
//!           [--verbose] [--list]
//!           [--run-id ID] [--resume ID] [--runs-dir DIR] [--no-journal]
//!           [--max-retries N] [--retry-backoff-ms MS] [--timeout-secs S]
//!           [--fail-fast] [--fsync always|batch|never] [--events PATH]
//! ```
//!
//! The second invocation with a warm cache performs zero simulations;
//! `--jobs N` is bit-identical to `--jobs 1` at any worker count.
//! `--list` is a dry run: it enumerates every scenario the selected
//! experiments would execute — one line per scenario with its
//! warm/cold cache status, content hash, experiment, and label —
//! without simulating or writing anything.
//! Every run journals per-scenario progress to
//! `<runs-dir>/<run-id>/manifest.jsonl` (run ids derive from the batch
//! content, so the same arguments name the same run); `--resume ID`
//! skips scenarios the interrupted run already completed and is
//! bit-identical to the uninterrupted run. Exit status is honest: 0
//! only when every scenario produced a report, 1 when any failed, was
//! quarantined, or never ran, 2 on usage errors.
//!
//! Builds with `--features failpoints` additionally accept
//! `--inject SPEC` (e.g. `worker.panic=2,run.abort=5`) for
//! deterministic chaos runs.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use heb_core::experiments::{
    architecture_scenarios, capacity_growth_scenarios, capacity_ratio_scenarios,
    deployment_scenarios, fault_sweep_scenarios, outage_scenarios, scheme_comparison_scenarios,
    valley_scenarios,
};
use heb_core::{Scenario, SimConfig};
#[cfg(feature = "failpoints")]
use heb_fleet::Failpoints;
use heb_fleet::{
    replicate, FleetEngine, FsyncPolicy, HardenPolicy, MetricSummary, ResultCache, RunJournal,
    RunPolicy, StateCounts,
};
use heb_telemetry::JsonlRecorder;
use heb_units::Watts;

/// One registered experiment: a name and its batch builder.
struct Experiment {
    name: &'static str,
    what: &'static str,
    build: fn(&SimConfig, f64, u64) -> Vec<Scenario>,
}

/// Every scenario-ised experiment, in evaluation order.
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "schemes",
        what: "Figure 12: six schemes x eight workloads + solar REU",
        build: |base, hours, seed| scheme_comparison_scenarios(base, hours, hours, seed),
    },
    Experiment {
        name: "capacity-ratio",
        what: "Figure 13: SC:battery ratio sweep at constant capacity",
        build: |base, hours, seed| {
            capacity_ratio_scenarios(base, &[1, 2, 3, 4, 5], hours, hours, seed)
        },
    },
    Experiment {
        name: "capacity-growth",
        what: "Figure 14: capacity growth by DoD relaxation at 3:7",
        build: |base, hours, seed| {
            capacity_growth_scenarios(base, &[40, 50, 60, 70, 80], hours, hours, seed)
        },
    },
    Experiment {
        name: "architecture",
        what: "Figure 7: four delivery architectures",
        build: architecture_scenarios,
    },
    Experiment {
        name: "deployment",
        what: "Figure 8: cluster-level vs rack-level deployment",
        build: |base, hours, seed| deployment_scenarios(base, 3, hours, seed),
    },
    Experiment {
        name: "valley",
        what: "Deep-valley surplus absorption per scheme",
        build: |base, hours, seed| {
            valley_scenarios(base, Watts::new(230.0), (hours * 60.0).max(1.0), seed)
        },
    },
    Experiment {
        name: "faults",
        what: "Fault-intensity sweep: shared storms x six schemes",
        build: |base, hours, seed| fault_sweep_scenarios(base, hours, &[0.0, 1.0, 2.0, 4.0], seed),
    },
    Experiment {
        name: "outage",
        what: "Utility-outage ride-through per scheme",
        build: |base, _hours, seed| outage_scenarios(base, 5.0, 30.0, seed),
    },
];

/// Parsed command line.
struct Args {
    jobs: usize,
    cache: bool,
    cache_dir: String,
    filter: Option<String>,
    hours: f64,
    seed: u64,
    replicate: u64,
    metrics: bool,
    verbose: bool,
    list: bool,
    run_id: Option<String>,
    resume: Option<String>,
    runs_dir: PathBuf,
    journal: bool,
    max_retries: u32,
    retry_backoff_ms: u64,
    timeout_secs: Option<u64>,
    fail_fast: bool,
    fsync: FsyncPolicy,
    events: Option<PathBuf>,
    inject: Option<String>,
}

const USAGE: &str = "usage: heb_fleet [--jobs N] [--no-cache] [--cache-dir DIR] \
     [--filter NAME] [--hours H] [--seed S] [--replicate R] \
     [--metrics] [--verbose] [--list] [--run-id ID] [--resume ID] \
     [--runs-dir DIR] [--no-journal] [--max-retries N] \
     [--retry-backoff-ms MS] [--timeout-secs S] [--fail-fast] \
     [--fsync always|batch|never] [--events PATH] [--inject SPEC]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        jobs: 1,
        cache: true,
        cache_dir: "results/cache".to_string(),
        filter: None,
        hours: 1.0,
        seed: 42,
        replicate: 1,
        metrics: false,
        verbose: false,
        list: false,
        run_id: None,
        resume: None,
        runs_dir: PathBuf::from("results/runs"),
        journal: true,
        max_retries: 1,
        retry_backoff_ms: 0,
        timeout_secs: None,
        fail_fast: false,
        fsync: FsyncPolicy::Batch,
        events: None,
        inject: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--jobs" => {
                args.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
            }
            "--no-cache" => args.cache = false,
            "--cache-dir" => args.cache_dir = value("--cache-dir")?,
            "--filter" => args.filter = Some(value("--filter")?),
            "--hours" => {
                args.hours = value("--hours")?
                    .parse()
                    .map_err(|e| format!("--hours: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--replicate" => {
                args.replicate = value("--replicate")?
                    .parse()
                    .map_err(|e| format!("--replicate: {e}"))?;
            }
            "--metrics" => args.metrics = true,
            "--verbose" => args.verbose = true,
            "--list" => args.list = true,
            "--run-id" => args.run_id = Some(value("--run-id")?),
            "--resume" => args.resume = Some(value("--resume")?),
            "--runs-dir" => args.runs_dir = PathBuf::from(value("--runs-dir")?),
            "--no-journal" => args.journal = false,
            "--max-retries" => {
                args.max_retries = value("--max-retries")?
                    .parse()
                    .map_err(|e| format!("--max-retries: {e}"))?;
            }
            "--retry-backoff-ms" => {
                args.retry_backoff_ms = value("--retry-backoff-ms")?
                    .parse()
                    .map_err(|e| format!("--retry-backoff-ms: {e}"))?;
            }
            "--timeout-secs" => {
                let secs: u64 = value("--timeout-secs")?
                    .parse()
                    .map_err(|e| format!("--timeout-secs: {e}"))?;
                if secs == 0 {
                    return Err("--timeout-secs must be positive".to_string());
                }
                args.timeout_secs = Some(secs);
            }
            "--fail-fast" => args.fail_fast = true,
            "--fsync" => {
                let name = value("--fsync")?;
                args.fsync = FsyncPolicy::parse(&name)
                    .ok_or_else(|| format!("--fsync: unknown policy {name:?}"))?;
            }
            "--events" => args.events = Some(PathBuf::from(value("--events")?)),
            "--inject" => args.inject = Some(value("--inject")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.hours <= 0.0 {
        return Err("--hours must be positive".to_string());
    }
    if args.run_id.is_some() && args.resume.is_some() {
        return Err("--run-id and --resume are mutually exclusive".to_string());
    }
    if args.resume.is_some() && !args.journal {
        return Err("--resume needs the journal; drop --no-journal".to_string());
    }
    if args.inject.is_some() && cfg!(not(feature = "failpoints")) {
        return Err("--inject requires a build with --features failpoints".to_string());
    }
    Ok(args)
}

/// Derives a deterministic run id from the batch content: FNV-1a over
/// every scenario hash, so the same arguments always name the same run
/// and `--resume` needs no wall-clock identifiers.
fn derive_run_id(batches: &[(&Experiment, Vec<Scenario>)]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (_, batch) in batches {
        for scenario in batch {
            for byte in scenario.hash_hex().bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    format!("{h:016x}")
}

/// Picks a fresh (non-colliding) run id, suffixing `-2`, `-3`, … when
/// a prior run already used the derived id.
fn fresh_run_id(runs_dir: &Path, base: &str) -> String {
    if !runs_dir.join(base).exists() {
        return base.to_string();
    }
    let mut n: u64 = 2;
    loop {
        let candidate = format!("{base}-{n}");
        if !runs_dir.join(&candidate).exists() {
            return candidate;
        }
        n += 1;
    }
}

fn main() {
    let code = fleet_main();
    if code != 0 {
        std::process::exit(code);
    }
}

#[allow(clippy::too_many_lines)]
fn fleet_main() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return 2;
        }
    };

    let base = match SimConfig::builder().build() {
        Ok(base) => base,
        Err(err) => {
            eprintln!("invalid base config: {err}");
            return 2;
        }
    };

    let selected: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|e| {
            args.filter
                .as_deref()
                .is_none_or(|needle| e.name.contains(needle))
        })
        .collect();
    if selected.is_empty() {
        eprintln!(
            "no experiment matches --filter {}; try --list",
            args.filter.as_deref().unwrap_or("")
        );
        return 2;
    }

    // Build every batch up front so the run id covers the whole run
    // and a resume settles scenarios from any experiment.
    let batches: Vec<(&Experiment, Vec<Scenario>)> = selected
        .iter()
        .map(|exp| {
            let mut batch = (exp.build)(&base, args.hours, args.seed);
            if args.replicate > 1 {
                batch = batch
                    .iter()
                    .flat_map(|s| replicate(s, args.replicate))
                    .collect();
            }
            (*exp, batch)
        })
        .collect();

    // Dry-run enumeration: every scenario the run *would* execute,
    // with its content hash and cache status. Nothing is simulated and
    // nothing is written, so this is safe to point at a live cache.
    if args.list {
        let cache = args.cache.then(|| ResultCache::new(&args.cache_dir));
        let (mut total, mut warm, mut servers) = (0usize, 0usize, 0usize);
        for (exp, batch) in &batches {
            eprintln!("# {:16} {}", exp.name, exp.what);
            for scenario in batch {
                let status = match &cache {
                    Some(cache) if cache.probe(scenario) => {
                        warm += 1;
                        "warm"
                    }
                    Some(_) => "cold",
                    None => "off",
                };
                total += 1;
                servers += scenario.servers();
                println!(
                    "{status:4}  {}  {:16}  {:>7}  {}",
                    scenario.hash_hex(),
                    exp.name,
                    scenario.servers(),
                    scenario.label()
                );
            }
        }
        if cache.is_some() {
            eprintln!(
                "{total} scenario(s) over {servers} server(s): {warm} warm, {} cold",
                total - warm
            );
        } else {
            eprintln!("{total} scenario(s) over {servers} server(s), cache disabled");
        }
        return 0;
    }

    #[cfg(feature = "failpoints")]
    let failpoints = match args.inject.as_deref().map(Failpoints::parse) {
        None => None,
        Some(Ok(fp)) => Some(Arc::new(fp)),
        Some(Err(why)) => {
            eprintln!("--inject: {why}");
            return 2;
        }
    };

    let journal = if args.journal {
        let journal = if let Some(id) = &args.resume {
            RunJournal::resume(&args.runs_dir, id, args.fsync)
        } else {
            let base_id = args
                .run_id
                .clone()
                .unwrap_or_else(|| derive_run_id(&batches));
            let id = if args.run_id.is_some() {
                base_id
            } else {
                fresh_run_id(&args.runs_dir, &base_id)
            };
            RunJournal::create(&args.runs_dir, &id, args.fsync)
        };
        match journal {
            Ok(journal) => {
                #[cfg(feature = "failpoints")]
                let journal = match &failpoints {
                    Some(fp) => journal.with_failpoints(Arc::clone(fp)),
                    None => journal,
                };
                Some(journal)
            }
            Err(err) => {
                if args.resume.is_some() {
                    eprintln!("--resume: {err}");
                    return 2;
                }
                // A fresh run without a journal is degraded, not dead.
                eprintln!("warning: journal disabled ({err})");
                None
            }
        }
    } else {
        None
    };

    let mut engine = FleetEngine::new(args.jobs).with_policy(HardenPolicy {
        max_retries: args.max_retries,
        backoff_base_ms: args.retry_backoff_ms,
        timeout_ms: args.timeout_secs.map(|s| s.saturating_mul(1000)),
        fail_fast: args.fail_fast,
    });
    if args.cache {
        engine = engine.with_cache(ResultCache::new(&args.cache_dir));
    }
    if let Some(path) = &args.events {
        match JsonlRecorder::create(path) {
            Ok(recorder) => engine = engine.with_recorder(Arc::new(recorder)),
            Err(err) => {
                eprintln!("--events {}: {err}", path.display());
                return 2;
            }
        }
    }
    #[cfg(feature = "failpoints")]
    if let Some(fp) = &failpoints {
        engine = engine.with_failpoints(Arc::clone(fp));
    }

    println!(
        "heb_fleet: {} experiment(s), jobs={}, cache={}, run={}",
        batches.len(),
        engine.jobs(),
        if args.cache {
            args.cache_dir.as_str()
        } else {
            "off"
        },
        journal.as_ref().map_or("<no journal>", RunJournal::run_id)
    );

    let mut totals = StateCounts::default();
    let mut aborted = false;
    let mut grand_scenarios = 0;
    let wall_start = Instant::now();
    for (exp, batch) in &batches {
        if aborted {
            // A fail-fast abort (or emulated kill) stops scheduling;
            // later experiments count as pending, honestly.
            totals.pending += batch.len();
            grand_scenarios += batch.len();
            println!(
                "{:16} {:4} scenario(s)  skipped (run aborted)",
                exp.name,
                batch.len()
            );
            continue;
        }
        let before = engine.stats();
        let start = Instant::now();
        let outcome = engine.run(batch, &RunPolicy::new().maybe_journal(journal.as_ref()));
        let elapsed = start.elapsed();
        let after = engine.stats();
        grand_scenarios += batch.len();
        let counts = outcome.counts();
        totals.done += counts.done;
        totals.failed += counts.failed;
        totals.quarantined += counts.quarantined;
        totals.pending += counts.pending;
        aborted = aborted || outcome.aborted;
        let mut trouble = String::new();
        if counts.quarantined > 0 {
            trouble.push_str(&format!("  [{} quarantined]", counts.quarantined));
        }
        if counts.pending + counts.failed > 0 {
            trouble.push_str(&format!(
                "  [{} unfinished]",
                counts.pending + counts.failed
            ));
        }
        println!(
            "{:16} {:4} scenario(s)  {:4} simulated  {:4} cached  {:8.2?}{trouble}",
            exp.name,
            batch.len(),
            after.simulated - before.simulated,
            after.cache_hits - before.cache_hits,
            elapsed,
        );
        if args.verbose {
            for o in &outcome.outcomes {
                match &o.report {
                    Some(report) => println!(
                        "  {:40} eff {:6.4}  downtime {:8.1} s  [{}]",
                        o.label,
                        report.energy_efficiency().get(),
                        report.server_downtime.get(),
                        &o.hash[..12],
                    ),
                    None => println!(
                        "  {:40} {}  [{}]",
                        o.label,
                        o.failure
                            .as_ref()
                            .map_or_else(|| o.state.name().to_string(), ToString::to_string),
                        &o.hash[..12],
                    ),
                }
            }
        }
        if args.replicate > 1 {
            // Per base scenario, summarise efficiency across replicas.
            for (chunk_idx, chunk) in outcome.outcomes.chunks(args.replicate as usize).enumerate() {
                let label = &batch[chunk_idx * args.replicate as usize].label();
                let base_label = label.rsplit_once("@s").map_or(&label[..], |(l, _)| l);
                let reports: Vec<_> = chunk.iter().filter_map(|o| o.report.clone()).collect();
                if let Some(summary) =
                    MetricSummary::over_reports(&reports, |r| r.energy_efficiency().get())
                {
                    println!(
                        "  {:40} eff mean {:6.4}  p50 {:6.4}  p95 {:6.4}  [n={}]",
                        base_label, summary.mean, summary.p50, summary.p95, summary.n
                    );
                }
            }
        }
    }
    let stats = engine.stats();
    let mut state_summary = format!("{} done", totals.done);
    if totals.failed > 0 {
        state_summary.push_str(&format!(", {} failed", totals.failed));
    }
    if totals.quarantined > 0 {
        state_summary.push_str(&format!(", {} quarantined", totals.quarantined));
    }
    if totals.pending > 0 {
        state_summary.push_str(&format!(", {} pending", totals.pending));
    }
    println!(
        "total: {grand_scenarios} scenario(s), {} simulated ({} server(s)), {} cache hit(s), {} written, {:.2?} wall",
        stats.simulated,
        stats.servers_simulated,
        stats.cache_hits,
        stats.cache_writes,
        wall_start.elapsed()
    );
    println!(
        "run {}: {state_summary}{}",
        journal.as_ref().map_or("<no journal>", RunJournal::run_id),
        if aborted { " (aborted)" } else { "" }
    );
    if stats.resumed > 0 {
        println!(
            "resumed: {} scenario(s) settled from the prior run's journal",
            stats.resumed
        );
    }
    if let Some(journal) = &journal {
        if !journal.healthy() {
            eprintln!(
                "warning: journal went unhealthy; {} is incomplete (results unaffected)",
                journal.dir().join(heb_fleet::MANIFEST_FILE).display()
            );
        }
    }
    if args.metrics {
        println!("cache: mode={}", stats.cache_mode.name());
        println!("--- engine metrics ---");
        print!("{}", engine.metrics().snapshot());
    }
    let all_done = totals.failed == 0
        && totals.quarantined == 0
        && totals.pending == 0
        && totals.done == grand_scenarios;
    i32::from(!all_done || aborted)
}
