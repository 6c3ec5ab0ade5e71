//! Scenario: a solar-powered rack maximising renewable utilisation.
//!
//! The Section 2.2 / 7.4 setting: the rack runs from a rooftop array
//! with hybrid buffers smoothing clouds and demand bursts. Compares the
//! renewable-energy utilisation (REU) of battery-only vs hybrid
//! buffering across a cloudy day, plus the deep-valley absorption test
//! behind the paper's headline REU gain.
//!
//! ```bash
//! cargo run --release --example solar_datacenter
//! ```

use heb::core::experiments::deep_valley_absorption;
use heb::core::SerialRunner;
use heb::workload::{Archetype, SolarTraceBuilder};
use heb::{PolicyKind, PowerMode, Ratio, Scenario, SimConfig, SimError, Watts};

fn main() -> Result<(), SimError> {
    // A cloudy day on a 500 W array.
    let trace = SolarTraceBuilder::new(Watts::new(500.0))
        .seed(11)
        .days(1.0)
        .clouds_per_day(80.0)
        .mean_cloud_secs(360.0)
        .build();
    println!(
        "solar day: {:.1} kWh generated, peak {:.0}",
        trace.energy().as_kilowatt_hours(),
        trace.peak()
    );

    let mix = [
        Archetype::WebSearch,
        Archetype::Terasort,
        Archetype::MediaStreaming,
    ];
    println!("\nfull-day REU by scheme (buffers start drained overnight):");
    for policy in [PolicyKind::BaOnly, PolicyKind::BaFirst, PolicyKind::HebD] {
        let config = SimConfig::builder().policy(policy).build()?;
        let report = Scenario::new(policy.name(), config, &mix, 24.0, 11)
            .with_mode(PowerMode::Solar(trace.clone()))
            .with_initial_soc(Ratio::new_clamped(0.15))
            .run()?;
        println!(
            "  {:<8} REU {:>5.1}%  (generated {:>6.1} Wh, used {:>6.1} Wh)",
            policy.name(),
            report.reu().as_percent(),
            report.renewable_generated.as_watt_hours().get(),
            report.renewable_used.as_watt_hours().get()
        );
    }

    // One deep valley: a 230 W surplus window of 15 minutes hitting
    // drained buffers — where the charge-current asymmetry bites.
    println!("\ndeep-valley absorption (230 W surplus, 15 min, drained buffers):");
    for point in deep_valley_absorption(
        &SerialRunner,
        &SimConfig::prototype(),
        Watts::new(230.0),
        15.0,
        3,
    ) {
        println!(
            "  {:<8} window REU {:>5.1}%  absorbed {:>5.1} Wh",
            point.policy.name(),
            point.reu.as_percent(),
            point.absorbed_wh
        );
    }
    println!(
        "\nthe battery pool is pinned at its charge-acceptance limit; the SC\n\
         pool swallows the whole valley — the paper's Figure 12(d) story."
    );
    Ok(())
}
