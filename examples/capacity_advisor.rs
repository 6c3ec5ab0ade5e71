//! Scenario: right-sizing a hybrid buffer purchase.
//!
//! Walks the capacity-planning space of Figures 13–15: sweeps the
//! SC:battery ratio for a fixed budget, then runs the TCO models to
//! answer "is the hybrid worth buying, and when does it pay back?"
//!
//! ```bash
//! cargo run --release --example capacity_advisor
//! ```

use heb::core::experiments::capacity_ratio_sweep;
use heb::core::SerialRunner;
use heb::tco::{PeakShavingModel, RoiModel, SchemeEconomics};
use heb::units::Dollars;
use heb::{SimConfig, SimError, Watts};

fn main() -> Result<(), SimError> {
    // 1. Performance side: sweep SC share at constant total capacity.
    println!("== performance vs SC:battery ratio (HEB-D, equal total capacity) ==");
    let base = SimConfig::builder().budget(Watts::new(250.0)).build()?;
    let points = capacity_ratio_sweep(&SerialRunner, &base, &[1, 3, 5], 2.0, 2.0, 9);
    for p in &points {
        let (eff, downtime, _, reu) = p.metrics();
        println!(
            "  {:<4} efficiency {:>5.1}%  downtime {:>5.0}s  battery wear {:>8.6}  REU {:>5.1}%",
            p.label,
            100.0 * eff,
            downtime,
            p.report.battery_life_used.get(),
            100.0 * reu
        );
    }

    // 2. Investment side: ROI against provisioning more infrastructure.
    println!("\n== ROI of buying buffers instead of provisioning watts ==");
    let roi = RoiModel::paper_defaults();
    for c_cap in [5.0, 10.0, 20.0] {
        for hours in [0.5, 1.0, 2.0] {
            println!(
                "  C_cap {:>4.0} $/W, {:>3.1} h peaks -> ROI {:+.1}",
                c_cap,
                hours,
                roi.roi(Dollars::new(c_cap), hours)
            );
        }
    }

    // 3. Operating side: the 8-year peak-shaving race.
    println!("\n== 8-year peak-shaving outlook (100 kW facility, 20 kWh buffer) ==");
    let model = PeakShavingModel::paper_defaults();
    let baseline = SchemeEconomics::ba_only();
    for scheme in SchemeEconomics::figure15_schemes() {
        let be = model
            .break_even_years(&scheme, 20.0)
            .map_or("never".to_string(), |y| format!("{y:.1} y"));
        let gain = model
            .gain_vs(&scheme, &baseline, 8.0)
            .map_or("-".into(), |g| format!("{g:.2}x"));
        println!(
            "  {:<8} capex {:>7.0} $  break-even {:>6}  8-y net {:>7.0} $  gain {}",
            scheme.name,
            model.capex(&scheme).get(),
            be,
            model.net_profit(&scheme, 8.0).get(),
            gain
        );
    }

    // 4. The verdict the paper reaches.
    let heb = SchemeEconomics::heb();
    let gain = model.gain_vs(&heb, &baseline, 8.0).unwrap_or(0.0);
    println!(
        "\nverdict: a well-managed 3:7 hybrid breaks even in {:.1} years and nets\n\
         {gain:.1}x the homogeneous battery's profit over 8 years — but the same\n\
         hardware under a battery-first policy would under-perform BaOnly.",
        model.break_even_years(&heb, 20.0).unwrap_or(f64::NAN),
    );
    Ok(())
}
