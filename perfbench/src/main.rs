//! `perfbench --workload W --seed N --seconds S --trace 0|1` runs one
//! pass and prints its JSON result as the last line;
//! `perfbench steadiness [...]` repeats passes and reports each
//! metric's spread; `perfbench fingerprints W SEED...` prints
//! fingerprint table rows.

use std::process::ExitCode;

use perfbench::{day, fingerprint::Fingerprint, steadiness, work_root, Args};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("steadiness") => steadiness::main(&argv[1..]),
        Some("fingerprints") => fingerprints(&argv[1..]),
        _ => bench(&argv),
    }
}

fn bench(argv: &[String]) -> ExitCode {
    let args = match Args::parse(argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let work = work_root().join(format!("run-{}", std::process::id()));
    if let Err(err) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {err}", work.display());
        return ExitCode::from(2);
    }
    let out = perfbench::run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    out.print();
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn fingerprints(argv: &[String]) -> ExitCode {
    let day = match argv.first().map(String::as_str) {
        Some("dense_day") => day::Day::Dense,
        Some("steady_day") => day::Day::Steady,
        _ => {
            eprintln!("usage: perfbench fingerprints dense_day|steady_day SEED...");
            return ExitCode::from(2);
        }
    };
    for seed in &argv[1..] {
        let Ok(seed) = seed.parse::<u64>() else {
            eprintln!("not a seed: {seed}");
            return ExitCode::from(2);
        };
        match day.scenario(seed).run() {
            Ok(report) => println!("{}", Fingerprint::of(&report).row(seed)),
            Err(err) => {
                eprintln!("seed {seed}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
