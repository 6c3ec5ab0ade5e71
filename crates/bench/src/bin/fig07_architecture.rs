//! Figures 7–8: energy-storage architecture comparison — centralized
//! double-converting UPS vs distributed DC batteries vs HEB at cluster
//! and rack level, all running the same HEB-D policy and workloads.

use heb_bench::cli::BenchArgs;
use heb_bench::{print_table, Figure, Series};
use heb_core::experiments::architecture_comparison;
use heb_core::SimConfig;
use heb_units::Watts;

fn main() {
    let cli = BenchArgs::from_env(6.0, 2015);
    let hours = cli.hours;
    let base = SimConfig::prototype().with_budget(Watts::new(255.0));
    let points = architecture_comparison(&cli.engine(), &base, hours, cli.seed);

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.name.to_string(),
                format!("{:.1} %", p.report.energy_efficiency().as_percent()),
                format!("{:.1} Wh", p.report.conversion_loss.as_watt_hours().get()),
                format!("{:.1} Wh", p.report.utility_supplied.as_watt_hours().get()),
                format!("{:.0} s", p.report.server_downtime.get()),
            ]
        })
        .collect();
    print_table(
        &format!("Figures 7-8: storage-architecture comparison ({hours:.1} h, HEB-D policy)"),
        &[
            "architecture",
            "scheme efficiency",
            "conversion loss",
            "utility energy",
            "downtime",
        ],
        &rows,
    );
    println!(
        "\npaper shape: the centralized online UPS pays a 4-10 % double-conversion\n\
         tax on every watt; distributed and rack-level HEB deliver DC directly;\n\
         cluster-level HEB pays one inversion on the buffer path but can share\n\
         buffer energy across the whole cluster."
    );

    if let Some(path) = cli.json.as_deref() {
        let fig = Figure::new(
            "Figures 7-8: architecture comparison",
            vec![
                Series::new(
                    "efficiency",
                    points
                        .iter()
                        .enumerate()
                        .map(|(i, p)| (i as f64, p.report.energy_efficiency().get()))
                        .collect(),
                ),
                Series::new(
                    "conversion_loss_wh",
                    points
                        .iter()
                        .enumerate()
                        .map(|(i, p)| (i as f64, p.report.conversion_loss.as_watt_hours().get()))
                        .collect(),
                ),
            ],
        );
        fig.write_json(path).expect("write json");
        println!("(series written to {})", path.display());
    }
}
