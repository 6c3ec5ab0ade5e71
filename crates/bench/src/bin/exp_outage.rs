//! Extension experiment: utility-outage ride-through (the original UPS
//! duty the buffers still owe the rack).

use heb_bench::cli::BenchArgs;
use heb_bench::{print_table, Figure, Series};
use heb_core::experiments::outage_ride_through;
use heb_core::SimConfig;
use heb_units::Joules;

fn main() {
    let cli = BenchArgs::from_env(0.5, 2015);
    let outage_minutes = cli.hours * 60.0;
    let engine = cli.engine();

    for capacity_wh in [60.0, 150.0] {
        let base = SimConfig::prototype().with_total_capacity(Joules::from_watt_hours(capacity_wh));
        let points = outage_ride_through(&engine, &base, 5.0, outage_minutes, cli.seed);
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    p.policy.name().to_string(),
                    format!("{:.1} min", p.survival.as_minutes()),
                    format!("{:.0} s", p.downtime.get()),
                ]
            })
            .collect();
        print_table(
            &format!(
                "outage ride-through: {outage_minutes:.0} min blackout on a {capacity_wh:.0} Wh buffer"
            ),
            &["scheme", "survival to first shed", "downtime during outage"],
            &rows,
        );
        if let Some(path) = cli.json.as_deref() {
            let fig = Figure::new(
                format!("outage ride-through ({capacity_wh:.0} Wh)"),
                vec![Series::new(
                    "survival_min",
                    points
                        .iter()
                        .enumerate()
                        .map(|(i, p)| (i as f64, p.survival.as_minutes()))
                        .collect(),
                )],
            );
            let file = path.with_file_name(format!(
                "{}_{capacity_wh:.0}wh.json",
                path.file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or("outage")
            ));
            fig.write_json(&file).expect("write json");
        }
    }
    println!(
        "\nall schemes ride through on the full prototype buffer; survival scales\n\
         with installed capacity — the safety layer the paper's equal-capacity\n\
         fairness rule protects."
    );
}
