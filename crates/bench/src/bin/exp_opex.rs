//! Extension experiment: the operating bill per scheme — Figure 12's
//! metrics priced at Figure 15's rates (energy + demand charge +
//! downtime cost), in dollars.

use heb_bench::cli::BenchArgs;
use heb_bench::{print_table, Figure, Series};
use heb_core::{PolicyKind, Scenario, SimConfig};
use heb_tco::{bill_run, Tariff};
use heb_units::{Joules, Watts};
use heb_workload::Archetype;

fn main() {
    let cli = BenchArgs::from_env(12.0, 2015);
    let hours = cli.hours;
    // The stressed regime where scheme quality shows up as money.
    let base = SimConfig::prototype()
        .with_budget(Watts::new(245.0))
        .with_total_capacity(Joules::from_watt_hours(60.0));
    let tariff = Tariff::paper_defaults();
    let mix = [
        Archetype::Terasort,
        Archetype::WebSearch,
        Archetype::Dfsioe,
        Archetype::PageRank,
        Archetype::Hivebench,
        Archetype::MediaStreaming,
    ];

    let mut rows = Vec::new();
    let mut totals = Vec::new();
    for (idx, policy) in PolicyKind::ALL.into_iter().enumerate() {
        let report = Scenario::new(
            policy.name(),
            base.clone().with_policy(policy),
            &mix,
            hours,
            cli.seed,
        )
        .run_expect();
        let bill = bill_run(
            &tariff,
            report.utility_supplied,
            report.utility_peak,
            report.server_downtime,
            report.sim_time,
        );
        rows.push(vec![
            policy.name().to_string(),
            format!("{:.2} $", bill.energy_cost.get()),
            format!("{:.2} $", bill.demand_cost.get()),
            format!("{:.2} $", bill.downtime_cost.get()),
            format!("{:.2} $", bill.total().get()),
        ]);
        totals.push((idx as f64, bill.total().get()));
    }
    print_table(
        &format!(
            "operating bill per scheme ({hours:.1} h stressed run; energy 0.10 $/kWh, \
             demand 12 $/kW-mo, downtime 20 $/server-h)"
        ),
        &["scheme", "energy", "demand", "downtime", "total"],
        &rows,
    );
    println!(
        "\ndowntime dominates the bill at real rates — the dollars behind the\n\
         paper's argument that buffer management quality, not buffer capacity,\n\
         is what pays."
    );

    if let Some(path) = cli.json.as_deref() {
        Figure::new(
            "operating bill per scheme",
            vec![Series::new("total_usd", totals)],
        )
        .write_json(path)
        .expect("write json");
        println!("(series written to {})", path.display());
    }
}
