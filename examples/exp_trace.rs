//! Scenario: capture a telemetry trace, then chart pool state from it.
//!
//! Runs the prototype rack with a [`JsonlRecorder`] attached, then
//! re-reads the captured event stream and renders an SoC-over-time
//! table for both pools — the offline-analysis loop an operator would
//! script against `heb-sim --trace out.jsonl`, exercised end-to-end
//! against the same JSONL format.
//!
//! ```bash
//! cargo run --release --example exp_trace            # capture + render
//! cargo run --release --example exp_trace out.jsonl  # render existing
//! ```

use heb::telemetry::json_field;
use heb::workload::Archetype;
use heb::{FaultSchedule, JsonlRecorder, PolicyKind, Scenario, SimConfig};
use std::sync::Arc;

fn capture(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let config = SimConfig::builder().policy(PolicyKind::HebD).build()?;
    let mix = [Archetype::WebSearch, Archetype::Terasort, Archetype::Dfsioe];
    // The scenario is a temporary: it and the simulation it builds drop
    // at the end of this statement, so the recorder flushes before we
    // re-read.
    let report = Scenario::new("exp-trace", config, &mix, 3.0, 42)
        .with_faults(FaultSchedule::parse("brownout(0.9)@3600~1200")?)
        .with_recorder(Arc::new(JsonlRecorder::create(path)?))
        .run()?;
    println!(
        "captured 3 h of HEB-D telemetry to {path} (efficiency {:.1})",
        report.energy_efficiency()
    );
    Ok(())
}

fn render(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    // Collate `esd.pool_state` samples by timestamp: one row per slot
    // boundary, one SoC column per pool.
    let mut rows: Vec<(f64, Option<f64>, Option<f64>)> = Vec::new();
    let mut events = 0usize;
    for line in text.lines() {
        events += 1;
        if json_field(line, "type") != Some("esd.pool_state") {
            continue;
        }
        let t: f64 = json_field(line, "t")
            .ok_or("pool_state without t")?
            .parse()?;
        let soc: f64 = json_field(line, "soc")
            .ok_or("pool_state without soc")?
            .parse()?;
        let row = match rows.last_mut() {
            Some(row) if row.0 == t => row,
            _ => {
                rows.push((t, None, None));
                rows.last_mut().expect("just pushed")
            }
        };
        match json_field(line, "pool") {
            Some("sc") => row.1 = Some(soc),
            Some("ba") => row.2 = Some(soc),
            other => return Err(format!("unknown pool {other:?}").into()),
        }
    }

    println!("\n{events} events in trace; pool state over time:");
    println!(
        "{:>8}  {:>7}  {:>7}   SC charge bar",
        "t [min]", "SC SoC", "BA SoC"
    );
    let bar = |soc: f64| "#".repeat((soc * 24.0).round().max(0.0) as usize);
    for (t, sc, ba) in &rows {
        let sc = sc.unwrap_or(f64::NAN);
        println!(
            "{:>8.0}  {:>6.1}%  {:>6.1}%   {}",
            t / 60.0,
            100.0 * sc,
            100.0 * ba.unwrap_or(f64::NAN),
            bar(sc),
        );
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    match std::env::args().nth(1) {
        // Render a trace somebody else captured (e.g. heb-sim --trace).
        Some(path) => render(&path),
        None => {
            let path = std::env::temp_dir().join("heb_exp_trace.jsonl");
            let path = path.to_string_lossy().into_owned();
            capture(&path)?;
            render(&path)
        }
    }
}
