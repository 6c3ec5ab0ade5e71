//! `heb-sim` — run a configurable HEB simulation from the command line.
//!
//! ```bash
//! heb-sim --policy heb-d --hours 8 --budget 260 --capacity 150 \
//!         --workloads TS,WS --seed 42
//! heb-sim --all-policies --hours 4
//! heb-sim --solar 500 --hours 24 --policy sc-first
//! heb-sim --supply-trace demand.csv --hours 2  # drive supply from a CSV
//! heb-sim --trace out.jsonl --metrics --hours 2  # capture telemetry
//! ```

use heb::telemetry::{MetricsRecorder, TeeRecorder};
use heb::workload::{read_trace_csv, Archetype, SolarTraceBuilder};
use heb::{
    FaultSchedule, Joules, JsonlRecorder, Metrics, PolicyKind, PowerMode, RecorderHandle, Scenario,
    Seconds, SimConfig, Watts,
};
use std::process::ExitCode;
use std::sync::Arc;

#[derive(Debug)]
struct Options {
    policy: PolicyKind,
    all_policies: bool,
    hours: f64,
    budget: f64,
    capacity_wh: f64,
    sc_fraction: f64,
    workloads: Vec<Archetype>,
    solar_peak: Option<f64>,
    supply_trace: Option<String>,
    trace_out: Option<String>,
    metrics: bool,
    faults: Option<FaultSchedule>,
    seed: u64,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            policy: PolicyKind::HebD,
            all_policies: false,
            hours: 4.0,
            budget: 260.0,
            capacity_wh: 150.0,
            sc_fraction: 0.3,
            workloads: vec![Archetype::WebSearch, Archetype::Terasort],
            solar_peak: None,
            supply_trace: None,
            trace_out: None,
            metrics: false,
            faults: None,
            seed: 42,
        }
    }
}

fn parse_policy(s: &str) -> Option<PolicyKind> {
    PolicyKind::ALL.into_iter().find(|p| {
        p.name().eq_ignore_ascii_case(s)
            || p.name()
                .replace('-', "")
                .eq_ignore_ascii_case(&s.replace('-', ""))
    })
}

fn parse_workloads(s: &str) -> Option<Vec<Archetype>> {
    s.split(',')
        .map(|abbr| {
            Archetype::ALL
                .into_iter()
                .find(|w| w.abbreviation().eq_ignore_ascii_case(abbr.trim()))
        })
        .collect()
}

fn usage() {
    eprintln!(
        "usage: heb-sim [options]\n\
         \n\
         --policy <name>      BaOnly|BaFirst|SCFirst|HEB-F|HEB-S|HEB-D (default HEB-D)\n\
         --all-policies       run and compare all six schemes\n\
         --hours <f>          simulated hours (default 4)\n\
         --budget <W>         utility power budget (default 260)\n\
         --capacity <Wh>      total usable buffer energy (default 150)\n\
         --sc-fraction <f>    SC share of capacity, 0..1 (default 0.3)\n\
         --workloads <list>   comma list of PR,WC,DA,WS,MS,DFS,HB,TS (default WS,TS)\n\
         --solar <W>          power the rack from a solar array with this peak\n\
         --supply-trace <csv> power the rack from a CSV supply trace (1 s samples)\n\
         --trace <out.jsonl>  stream telemetry events to a JSONL file\n\
         --metrics            print event counters after the run\n\
         --faults <spec>      inject faults, e.g. 'blackout@1800~600;ba-fail(0)@3600'\n\
         \u{20}                    names: blackout brownout(x) solar-drop ba-fail(i)\n\
         \u{20}                    ba-degrade(f,g) sc-fail(i) relay-open(s) meter-drop\n\
         \u{20}                    meter-freeze meter-spike(x); times in seconds\n\
         --seed <n>           RNG seed (default 42)"
    );
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--policy" => {
                let v = value("--policy")?;
                opts.policy = parse_policy(&v).ok_or_else(|| format!("unknown policy {v:?}"))?;
            }
            "--all-policies" => opts.all_policies = true,
            "--hours" => {
                opts.hours = value("--hours")?
                    .parse()
                    .map_err(|_| "bad --hours".to_string())?;
            }
            "--budget" => {
                opts.budget = value("--budget")?
                    .parse()
                    .map_err(|_| "bad --budget".to_string())?;
            }
            "--capacity" => {
                opts.capacity_wh = value("--capacity")?
                    .parse()
                    .map_err(|_| "bad --capacity".to_string())?;
            }
            "--sc-fraction" => {
                opts.sc_fraction = value("--sc-fraction")?
                    .parse()
                    .map_err(|_| "bad --sc-fraction".to_string())?;
            }
            "--workloads" => {
                let v = value("--workloads")?;
                opts.workloads =
                    parse_workloads(&v).ok_or_else(|| format!("unknown workload in {v:?}"))?;
            }
            "--solar" => {
                opts.solar_peak = Some(
                    value("--solar")?
                        .parse()
                        .map_err(|_| "bad --solar".to_string())?,
                );
            }
            "--supply-trace" => opts.supply_trace = Some(value("--supply-trace")?),
            "--trace" => opts.trace_out = Some(value("--trace")?),
            "--metrics" => opts.metrics = true,
            "--faults" => {
                let v = value("--faults")?;
                opts.faults = Some(FaultSchedule::parse(&v).map_err(|e| e.to_string())?);
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "bad --seed".to_string())?;
            }
            "--help" | "-h" => {
                usage();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.trace_out.is_some() && opts.all_policies {
        return Err("--trace captures a single run; drop --all-policies".to_string());
    }
    Ok(opts)
}

fn run_one(
    opts: &Options,
    policy: PolicyKind,
) -> Result<(heb::SimReport, Option<Arc<Metrics>>), String> {
    let config = SimConfig::builder()
        .policy(policy)
        .budget(Watts::new(opts.budget))
        .total_capacity(Joules::from_watt_hours(opts.capacity_wh))
        .sc_fraction(opts.sc_fraction)
        .build()
        .map_err(|e| e.to_string())?;
    let mut scenario = Scenario::new(
        policy.name(),
        config,
        &opts.workloads,
        opts.hours,
        opts.seed,
    );
    if let Some(path) = &opts.supply_trace {
        let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        let trace =
            read_trace_csv(file, Seconds::new(1.0)).map_err(|e| format!("parse {path}: {e}"))?;
        scenario = scenario.with_mode(PowerMode::Solar(trace));
    } else if let Some(peak) = opts.solar_peak {
        let trace = SolarTraceBuilder::new(Watts::new(peak))
            .seed(opts.seed)
            .days((opts.hours / 24.0).max(1.0).ceil())
            .build();
        scenario = scenario.with_mode(PowerMode::Solar(trace));
    }
    if let Some(schedule) = &opts.faults {
        scenario = scenario.with_faults(schedule.clone());
    }
    let metrics = opts.metrics.then(|| Arc::new(Metrics::new()));
    let mut branches: Vec<RecorderHandle> = Vec::new();
    if let Some(path) = &opts.trace_out {
        let jsonl = JsonlRecorder::create(path).map_err(|e| format!("create {path}: {e}"))?;
        branches.push(Arc::new(jsonl));
    }
    if let Some(m) = &metrics {
        branches.push(Arc::new(MetricsRecorder::new(Arc::clone(m))));
    }
    match branches.len() {
        0 => {}
        1 => scenario = scenario.with_recorder(branches.pop().expect("one branch")),
        _ => scenario = scenario.with_recorder(Arc::new(TeeRecorder::new(branches))),
    }
    let report = scenario.run().map_err(|e| e.to_string())?;
    Ok((report, metrics))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n");
            usage();
            return ExitCode::FAILURE;
        }
    };

    let policies: Vec<PolicyKind> = if opts.all_policies {
        PolicyKind::ALL.to_vec()
    } else {
        vec![opts.policy]
    };

    let workload_names: Vec<&str> = opts.workloads.iter().map(|w| w.abbreviation()).collect();
    println!(
        "heb-sim: {:.1} h, budget {} W, buffer {} Wh ({}% SC), workloads {}, seed {}",
        opts.hours,
        opts.budget,
        opts.capacity_wh,
        (opts.sc_fraction * 100.0).round(),
        workload_names.join(","),
        opts.seed
    );

    for policy in policies {
        match run_one(&opts, policy) {
            Ok((report, metrics)) => {
                println!("\n--- {policy} ---");
                println!("{report}");
                if let Some(metrics) = metrics {
                    println!("--- telemetry counters ---");
                    print!("{}", metrics.snapshot());
                }
                if let Some(path) = &opts.trace_out {
                    eprintln!("trace written to {path}");
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn defaults_parse() {
        let o = parse_args(&[]).unwrap();
        assert_eq!(o.policy, PolicyKind::HebD);
        assert_eq!(o.hours, 4.0);
        assert!(!o.all_policies);
    }

    #[test]
    fn full_option_set_parses() {
        let o = parse_args(&args(&[
            "--policy",
            "sc-first",
            "--hours",
            "2.5",
            "--budget",
            "200",
            "--capacity",
            "80",
            "--sc-fraction",
            "0.5",
            "--workloads",
            "ts,ws,pr",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(o.policy, PolicyKind::ScFirst);
        assert_eq!(o.hours, 2.5);
        assert_eq!(o.budget, 200.0);
        assert_eq!(o.capacity_wh, 80.0);
        assert_eq!(o.sc_fraction, 0.5);
        assert_eq!(o.workloads.len(), 3);
        assert_eq!(o.seed, 9);
    }

    #[test]
    fn policy_names_accept_paper_spelling() {
        assert_eq!(parse_policy("HEB-D"), Some(PolicyKind::HebD));
        assert_eq!(parse_policy("hebd"), Some(PolicyKind::HebD));
        assert_eq!(parse_policy("BaOnly"), Some(PolicyKind::BaOnly));
        assert_eq!(parse_policy("nonsense"), None);
    }

    #[test]
    fn workload_abbreviations_round_trip() {
        let all = parse_workloads("PR,WC,DA,WS,MS,DFS,HB,TS").unwrap();
        assert_eq!(all.len(), 8);
        assert!(parse_workloads("PR,??").is_none());
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(parse_args(&args(&["--hours"])).is_err());
        assert!(parse_args(&args(&["--hours", "x"])).is_err());
        assert!(parse_args(&args(&["--frobnicate"])).is_err());
        assert!(parse_args(&args(&["--policy", "zap"])).is_err());
    }

    #[test]
    fn telemetry_flags_parse() {
        let o = parse_args(&args(&["--trace", "out.jsonl", "--metrics"])).unwrap();
        assert_eq!(o.trace_out.as_deref(), Some("out.jsonl"));
        assert!(o.metrics);
        let o = parse_args(&args(&["--supply-trace", "demand.csv"])).unwrap();
        assert_eq!(o.supply_trace.as_deref(), Some("demand.csv"));
        assert!(o.trace_out.is_none());
    }

    #[test]
    fn trace_conflicts_with_all_policies() {
        let err = parse_args(&args(&["--trace", "out.jsonl", "--all-policies"])).unwrap_err();
        assert!(err.contains("--all-policies"), "{err}");
    }

    #[test]
    fn fault_spec_parses_into_schedule() {
        let o = parse_args(&args(&[
            "--faults",
            "blackout@1800~600;ba-fail(0)@3600;meter-spike(2.5)@100~60",
        ]))
        .unwrap();
        assert_eq!(o.faults.as_ref().map(FaultSchedule::len), Some(3));
        assert!(parse_args(&args(&["--faults", "nonsense@10"])).is_err());
        assert!(parse_args(&args(&["--faults"])).is_err());
    }
}
