//! Figure 14: total-capacity growth (DoD 40 % → 80 %) at fixed 3:7.

use heb_bench::cli::BenchArgs;
use heb_bench::{print_table, Figure, Series};
use heb_core::experiments::capacity_growth_sweep;
use heb_core::SimConfig;
use heb_units::Watts;

fn main() {
    let cli = BenchArgs::from_env(4.0, 14);
    let hours = cli.hours;
    // Mild stress so the smallest configuration visibly struggles.
    let base = SimConfig::prototype().with_budget(Watts::new(240.0));
    let points = capacity_growth_sweep(
        &cli.engine(),
        &base,
        &[40, 50, 60, 70, 80],
        hours,
        hours,
        cli.seed,
    );

    let smallest = &points[0];
    let (ref_eff, ref_down, _, ref_reu) = smallest.metrics();
    let ref_wear = smallest.report.battery_life_used.get().max(1e-12);

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let (eff, down, _, reu) = p.metrics();
            let wear = p.report.battery_life_used.get();
            vec![
                p.label.clone(),
                format!("{:.0} Wh", p.total_capacity.as_watt_hours().get()),
                format!("{:.3}", eff / ref_eff),
                format!("{:.3}", if ref_down > 0.0 { down / ref_down } else { 1.0 }),
                format!("{:.2}", ref_wear / wear.max(1e-12)),
                format!("{:.3}", reu / ref_reu),
            ]
        })
        .collect();
    print_table(
        &format!("Figure 14: capacity growth via DoD, normalised to DoD 40 % ({hours:.1} h runs)"),
        &[
            "configuration",
            "usable capacity",
            "efficiency (norm)",
            "downtime (norm)",
            "battery life (norm)",
            "REU (norm)",
        ],
        &rows,
    );
    println!(
        "\npaper shape: larger installed capacity improves efficiency and \
         resiliency, but the relationship is non-linear — gains taper."
    );

    if let Some(path) = cli.json.as_deref() {
        let fig = Figure::new(
            "Figure 14: capacity growth",
            vec![
                Series::new(
                    "efficiency",
                    points
                        .iter()
                        .map(|p| (p.total_capacity.as_watt_hours().get(), p.metrics().0))
                        .collect(),
                ),
                Series::new(
                    "downtime_s",
                    points
                        .iter()
                        .map(|p| (p.total_capacity.as_watt_hours().get(), p.metrics().1))
                        .collect(),
                ),
                Series::new(
                    "reu",
                    points
                        .iter()
                        .map(|p| (p.total_capacity.as_watt_hours().get(), p.metrics().3))
                        .collect(),
                ),
            ],
        );
        fig.write_json(path).expect("write json");
        println!("(series written to {})", path.display());
    }
}
