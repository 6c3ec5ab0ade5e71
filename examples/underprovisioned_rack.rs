//! Scenario: an under-provisioned rack rides out peak mismatches.
//!
//! The motivating workload of the paper's Section 2.1 — a rack whose
//! utility feed is deliberately provisioned below its nameplate demand.
//! This example compares how each Table 2 power-management scheme fares
//! on an identical day, then shows the PAT the dynamic controller
//! learned.
//!
//! ```bash
//! cargo run --release --example underprovisioned_rack
//! ```

use heb::workload::Archetype;
use heb::{Joules, PolicyKind, Scenario, SimConfig, SimError, Watts};

fn main() -> Result<(), SimError> {
    // Aggressive under-provisioning: the stress regime the paper uses
    // to expose downtime differences (lowered budget, small buffers).
    let base = SimConfig::builder()
        .budget(Watts::new(245.0))
        .total_capacity(Joules::from_watt_hours(60.0))
        .build()?;

    println!(
        "under-provisioned rack: 6 servers (180–420 W band) on a {:.0} feed,\n\
         {:.0} Wh hybrid buffer\n",
        base.budget,
        base.total_capacity.as_watt_hours().get()
    );
    println!(
        "{:<8} {:>10} {:>10} {:>12} {:>10}",
        "scheme", "eff", "downtime", "shed events", "PAT size"
    );

    let mix = [Archetype::Terasort, Archetype::Dfsioe, Archetype::WebSearch];
    let day = |policy: PolicyKind| {
        Scenario::new(
            policy.name(),
            base.clone().with_policy(policy),
            &mix,
            6.0,
            7,
        )
    };
    for policy in PolicyKind::ALL {
        let report = day(policy).run()?;
        println!(
            "{:<8} {:>9.1}% {:>9.0}s {:>12} {:>10}",
            policy.name(),
            report.energy_efficiency().as_percent(),
            report.server_downtime.get(),
            report.shed_events,
            report.pat_entries
        );
    }

    // Peek inside HEB-D's learned allocation table.
    let heb_d = day(PolicyKind::HebD);
    let mut driver = heb_d.build_driver()?;
    let _ = driver.run_ticks(heb_d.ticks());
    println!("\nHEB-D's learned power-allocation table (bucketed):");
    let mut entries: Vec<_> = driver.sim().controller().pat().iter().collect();
    entries.sort_by_key(|(k, _)| (k.pm_bucket, k.sc_bucket, k.ba_bucket));
    for (key, entry) in entries.into_iter().take(12) {
        println!(
            "  SC~{:>2} BA~{:>2} PM~{:>2}  ->  R_lambda = {:.2}  ({} hits)",
            key.sc_bucket,
            key.ba_bucket,
            key.pm_bucket,
            entry.r_lambda.get(),
            entry.hits
        );
    }
    Ok(())
}
