//! Extension experiment: cluster-level vs rack-level deployment
//! (Figure 8(b) vs 8(c)) on an imbalanced multi-rack datacenter.

use heb_bench::cli::BenchArgs;
use heb_bench::{print_table, Figure, Series};
use heb_core::experiments::deployment_comparison;
use heb_core::SimConfig;
use heb_units::{Joules, Watts};

fn main() {
    let cli = BenchArgs::from_env(6.0, 2015);
    let hours = cli.hours;
    let engine = cli.engine();
    let base = SimConfig::prototype()
        .with_budget(Watts::new(250.0))
        .with_total_capacity(Joules::from_watt_hours(50.0));

    let mut rows = Vec::new();
    let mut benefit_series = Vec::new();
    for racks in [2usize, 3, 4] {
        let r = deployment_comparison(&engine, &base, racks, hours, cli.seed);
        rows.push(vec![
            racks.to_string(),
            format!("{:.0} s", r.cluster_level.server_downtime.get()),
            format!("{:.0} s", r.rack_level.server_downtime.get()),
            if r.sharing_benefit().is_finite() {
                format!("{:.2}x", r.sharing_benefit())
            } else {
                "eliminated".to_string()
            },
            format!(
                "{:.1}/{:.1} Wh",
                r.cluster_level.conversion_loss.as_watt_hours().get(),
                r.rack_level.conversion_loss.as_watt_hours().get()
            ),
        ]);
        benefit_series.push((racks as f64, r.sharing_benefit().min(100.0)));
    }
    print_table(
        &format!(
            "Figure 8(b) vs 8(c): deployment comparison ({hours:.1} h, one hot rack per datacenter)"
        ),
        &[
            "racks",
            "cluster-level downtime",
            "rack-level downtime",
            "sharing benefit",
            "conversion loss (cluster/rack)",
        ],
        &rows,
    );
    println!(
        "\nthe paper's trade-off, quantified: cluster-level deployment shares\n\
         buffer energy across racks (hot racks ride on cool racks' storage) at\n\
         the price of a DC/AC inversion on the buffer path; rack-level delivery\n\
         is lossless but strands the cool racks' energy."
    );

    if let Some(path) = cli.json.as_deref() {
        Figure::new(
            "deployment sharing benefit",
            vec![Series::new("rack/cluster downtime ratio", benefit_series)],
        )
        .write_json(path)
        .expect("write json");
        println!("(series written to {})", path.display());
    }
}
