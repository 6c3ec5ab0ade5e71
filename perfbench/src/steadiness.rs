//! Steadiness mode: runs each workload untraced with several seeds and
//! prints every end-to-end metric's median and quartile spread next to
//! its bound from `BENCHMARK.json`.
//!
//! ```text
//! perfbench steadiness [--runs 10] [--sets 1] [--seconds S] [--first-seed 1]
//!                      [--workload W]...
//! ```
//!
//! A metric is steady when its spread (interquartile distance over the
//! median) is below a third of its bound; `setup_s` is exempt from the
//! spread test. With `--sets 2` the whole set is repeated on fresh seeds
//! and each metric's second median must not be worse than the first by
//! more than its bound.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use heb_serve::{json, Json};

use crate::stats::{median, quartiles};
use crate::{END_TO_END, WORKLOADS};

/// A metric's bound and direction from `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
struct Bound {
    bound: f64,
    lower_is_better: bool,
}

fn bounds() -> (BTreeMap<String, Bound>, Option<f64>) {
    let mut out = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return (out, None);
    };
    let Ok(parsed) = json::parse(&text) else {
        return (out, None);
    };
    for m in parsed
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        if let (Some(name), Some(bound), Some(better)) = (
            m.get("name").and_then(Json::as_str),
            m.get("bound").and_then(Json::as_f64),
            m.get("better").and_then(Json::as_str),
        ) {
            out.insert(
                name.to_string(),
                Bound {
                    bound,
                    lower_is_better: better == "lower",
                },
            );
        }
    }
    (out, parsed.get("run_seconds").and_then(Json::as_f64))
}

struct Options {
    runs: u64,
    sets: u64,
    seconds: Option<f64>,
    first_seed: u64,
    workloads: Vec<String>,
}

fn parse(argv: &[String]) -> Result<Options, String> {
    let mut o = Options {
        runs: 10,
        sets: 1,
        seconds: None,
        first_seed: 1,
        workloads: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--runs" => o.runs = number(value)?.max(2),
            "--sets" => o.sets = number(value)?.max(1),
            "--first-seed" => o.first_seed = number(value)?,
            "--seconds" => {
                o.seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--workload" if WORKLOADS.contains(&value.as_str()) => o.workloads.push(value.clone()),
            _ => return Err(format!("bad argument {flag} {value}")),
        }
    }
    if o.workloads.is_empty() {
        o.workloads = WORKLOADS.iter().map(ToString::to_string).collect();
    }
    Ok(o)
}

/// Runs one untraced pass in a child process; returns its metrics.
fn one_run(workload: &str, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let parsed = json::parse(last).map_err(|e| format!("seed {seed}: no result line ({e})"))?;
    if !matches!(parsed.get("correct"), Some(Json::Bool(true))) || !output.status.success() {
        return Err(format!("seed {seed}: run was not correct:\n{stdout}"));
    }
    let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
        return Err(format!("seed {seed}: result has no metrics"));
    };
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect())
}

/// Entry point of `perfbench steadiness`.
#[must_use]
pub fn main(argv: &[String]) -> ExitCode {
    let options = match parse(argv) {
        Ok(o) => o,
        Err(message) => {
            eprintln!("perfbench steadiness: {message}");
            return ExitCode::from(2);
        }
    };
    let (bounds, run_seconds) = bounds();
    let seconds = options.seconds.or(run_seconds).unwrap_or(10.0);
    let mut steady = true;
    let mut seed = options.first_seed;
    for workload in &options.workloads {
        let mut set_medians: Vec<BTreeMap<&str, f64>> = Vec::new();
        for set in 0..options.sets {
            let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
            for _ in 0..options.runs {
                match one_run(workload, seed, seconds) {
                    Ok(metrics) => {
                        let row: Vec<String> = END_TO_END
                            .iter()
                            .map(|name| {
                                format!(
                                    "{name}={}",
                                    metrics.get(*name).copied().unwrap_or(f64::NAN)
                                )
                            })
                            .collect();
                        println!("{workload} set {set} seed {seed}: {}", row.join(" "));
                        for name in END_TO_END {
                            if let Some(v) = metrics.get(name) {
                                values.entry(name).or_default().push(*v);
                            }
                        }
                    }
                    Err(message) => {
                        println!("{workload}: {message}");
                        steady = false;
                    }
                }
                seed += 1;
            }
            let mut medians = BTreeMap::new();
            for name in END_TO_END {
                let v = values.get(name).cloned().unwrap_or_default();
                let Some([q1, q2, q3]) = quartiles(&v) else {
                    steady = false;
                    continue;
                };
                let spread = (q3 - q1) / q2.abs();
                let b = bounds.get(name).map_or(f64::NAN, |b| b.bound);
                let verdict = if name == "setup_s" {
                    "exempt"
                } else if spread < b / 3.0 {
                    "steady"
                } else if spread <= b {
                    "within bound, above a third"
                } else {
                    "UNSTEADY"
                };
                if name != "setup_s" && spread >= b / 3.0 {
                    steady = false;
                }
                println!(
                    "{workload:12} set {set} {name:20} median {:>14.6} q1 {:>14.6} q3 {:>14.6} n {:>2} spread {:.4} bound {b} ({verdict})",
                    median(&v),
                    q1,
                    q3,
                    v.len(),
                    spread
                );
                medians.insert(name, median(&v));
            }
            set_medians.push(medians);
        }
        if let [first, .., last] = set_medians.as_slice() {
            for name in END_TO_END {
                let (Some(a), Some(b), Some(bound)) =
                    (first.get(name), last.get(name), bounds.get(name))
                else {
                    continue;
                };
                let worse = if bound.lower_is_better {
                    (b - a) / a
                } else {
                    (a - b) / a
                };
                let ok = worse <= bound.bound;
                steady &= ok;
                println!(
                    "{workload:12} {name:20} first median {a:.6} last median {b:.6} worse by {:+.4} of bound {} ({})",
                    worse,
                    bound.bound,
                    if ok { "ok" } else { "REGRESSED" }
                );
            }
        }
    }
    if steady {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
