//! Quickstart: simulate the scale-down HEB prototype for one hour and
//! print the paper's four metrics.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use heb::workload::Archetype;
use heb::{PolicyKind, Scenario, SimConfig, SimError};

fn main() -> Result<(), SimError> {
    // The paper's prototype: six 30–70 W servers on a 260 W utility
    // budget, backed by 150 Wh of buffers split 3:7 SC:battery.
    let config = SimConfig::builder().policy(PolicyKind::HebD).build()?;
    println!(
        "prototype: {} servers, {:.0} budget, {:.0} Wh buffer ({:.0} % SC)",
        config.servers,
        config.budget,
        config.total_capacity.as_watt_hours().get(),
        config.sc_fraction.as_percent(),
    );

    // One hour of a mixed rack: web search (small peaks) alongside
    // Terasort (large peaks), exactly the two-group setup of Section 6.
    let mix = [Archetype::WebSearch, Archetype::Terasort];
    let report = Scenario::new("quickstart", config, &mix, 1.0, 42).run()?;

    println!("\nafter {:.1} simulated hours:", report.sim_time.as_hours());
    println!(
        "  buffers delivered {:.1} Wh at {:.1} efficiency",
        report.buffer_delivered.as_watt_hours().get(),
        report.energy_efficiency()
    );
    println!(
        "  downtime {:.0} s across {} shed events",
        report.server_downtime.get(),
        report.shed_events
    );
    if let Some(years) = report.battery_lifetime_years() {
        println!("  battery lifetime projection: {years:.1} years");
    }
    println!(
        "  controller ran {} slots, PAT holds {} entries",
        report.slots, report.pat_entries
    );
    Ok(())
}
