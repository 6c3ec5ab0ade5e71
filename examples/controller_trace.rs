//! Scenario: audit the hControl's slot-by-slot decisions.
//!
//! Prints the controller's telemetry for a few hours of operation —
//! predicted vs observed mismatch, the small/large classification's
//! effect on `R_λ`, and buffer state — plus the prediction error the
//! Holt-Winters forecaster achieved. This is the view a datacenter
//! operator would chart to decide whether to trust the controller.
//!
//! ```bash
//! cargo run --release --example controller_trace
//! ```

use heb::workload::Archetype;
use heb::{PolicyKind, Scenario, SimConfig, SimError, Watts};

fn main() -> Result<(), SimError> {
    let config = SimConfig::builder()
        .policy(PolicyKind::HebD)
        .budget(Watts::new(250.0))
        .build()?;
    let mix = [Archetype::Terasort, Archetype::WebSearch, Archetype::Dfsioe];
    let scenario = Scenario::new("controller-trace", config, &mix, 5.0, 123);
    let mut driver = scenario.build_driver()?;
    let report = driver.run_ticks(scenario.ticks());

    println!(
        "{:>4}  {:>10} {:>10} {:>8}  {:>7} {:>7}",
        "slot", "predicted", "observed", "R_l", "SC SoC", "BA SoC"
    );
    let mut abs_err = 0.0;
    let mut count = 0usize;
    for rec in driver.sim().slot_log() {
        println!(
            "{:>4}  {:>8.1} W {:>8.1} W {:>8.2}  {:>6.1}% {:>6.1}%",
            rec.slot,
            rec.predicted_mismatch.get(),
            rec.actual_mismatch.get(),
            rec.r_lambda.get(),
            rec.sc_soc.as_percent(),
            rec.ba_soc.as_percent(),
        );
        if rec.slot > 2 {
            abs_err += (rec.predicted_mismatch - rec.actual_mismatch).get().abs();
            count += 1;
        }
    }
    if count > 0 {
        println!(
            "\nmean absolute prediction error after warm-up: {:.1} W over {count} slots",
            abs_err / count as f64
        );
    }
    println!(
        "run summary: efficiency {:.1}, downtime {:.0} s, PAT {} entries",
        report.energy_efficiency(),
        report.server_downtime.get(),
        report.pat_entries
    );
    Ok(())
}
