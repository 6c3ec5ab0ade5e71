//! Figure 13: SC:battery capacity-ratio sweep, normalised to 3:7.

use heb_bench::cli::BenchArgs;
use heb_bench::{print_table, Figure, Series};
use heb_core::experiments::capacity_ratio_sweep;
use heb_core::SimConfig;
use heb_units::Watts;

fn main() {
    let cli = BenchArgs::from_env(4.0, 13);
    let hours = cli.hours;
    // The standard regime: the ratio's dominant effect is on battery
    // wear (the paper's strongest Figure 13 trend); efficiency, REU and
    // downtime shift by smaller margins.
    let base = SimConfig::prototype().with_budget(Watts::new(245.0));
    let points = capacity_ratio_sweep(
        &cli.engine(),
        &base,
        &[1, 2, 3, 4, 5],
        hours,
        hours,
        cli.seed,
    );

    let reference = points
        .iter()
        .find(|p| p.label == "3:7")
        .expect("3:7 present");
    let (ref_eff, ref_down, _, ref_reu) = reference.metrics();
    let ref_wear = reference.report.battery_life_used.get().max(1e-12);

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let (eff, down, _, reu) = p.metrics();
            let wear = p.report.battery_life_used.get();
            vec![
                p.label.clone(),
                format!("{:.3}", eff / ref_eff),
                format!("{:.3}", if ref_down > 0.0 { down / ref_down } else { 1.0 }),
                // Lifetime improvement is the inverse of wear rate.
                format!("{:.2}", ref_wear / wear.max(1e-12)),
                format!("{:.3}", reu / ref_reu),
            ]
        })
        .collect();
    print_table(
        &format!("Figure 13: capacity-ratio sweep, normalised to 3:7 ({hours:.1} h runs)"),
        &[
            "SC:BA",
            "efficiency (norm)",
            "downtime (norm)",
            "battery life (norm)",
            "REU (norm)",
        ],
        &rows,
    );
    println!(
        "\npaper shape: every metric improves with more SC share; battery \
         lifetime improves the most, efficiency and downtime flatten out."
    );

    if let Some(path) = cli.json.as_deref() {
        let fig = Figure::new(
            "Figure 13: ratio sweep",
            vec![
                Series::new(
                    "efficiency",
                    points
                        .iter()
                        .map(|p| (p.sc_fraction.get(), p.metrics().0))
                        .collect(),
                ),
                Series::new(
                    "battery wear",
                    points
                        .iter()
                        .map(|p| (p.sc_fraction.get(), p.report.battery_life_used.get()))
                        .collect(),
                ),
                Series::new(
                    "reu",
                    points
                        .iter()
                        .map(|p| (p.sc_fraction.get(), p.metrics().3))
                        .collect(),
                ),
            ],
        );
        fig.write_json(path).expect("write json");
        println!("(series written to {})", path.display());
    }
}
