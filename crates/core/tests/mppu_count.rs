//! `scenario_mppu` must equal the MPPU of the collected open-loop
//! demand trace, bit for bit, whatever way it arrives at the count.
//!
//! The grid is the one `demand_trace` is pinned against in `query.rs`
//! (3 cluster sizes × 4 workload mixes × 5 seeds), run at three budgets
//! per cluster so that the counts land below, inside and above the
//! demand band.

use heb_core::{demand_trace, scenario_mppu, Scenario, SimConfig};
use heb_units::Watts;
use heb_workload::Archetype;

#[test]
fn scenario_mppu_equals_the_mppu_of_the_collected_trace() {
    use Archetype::{DataAnalysis, Hivebench, MediaStreaming, PageRank, Terasort, WebSearch};
    let mixes: [&[Archetype]; 4] = [
        &[WebSearch],
        &[WebSearch, Terasort],
        &[PageRank, MediaStreaming, Hivebench],
        &[Terasort, DataAnalysis, WebSearch, Hivebench, PageRank],
    ];
    let mut interior = 0;
    for servers in [1, 6, 7] {
        for watts_per_server in [30.0, 40.0, 50.0] {
            let config = SimConfig::prototype()
                .to_builder()
                .servers(servers)
                .budget(Watts::new(watts_per_server * servers as f64))
                .build()
                .expect("valid server count and budget");
            for mix in mixes {
                for seed in [0, 7, 42, 1013, u64::MAX] {
                    let scenario = Scenario::new("mppu", config.clone(), mix, 600.0 / 3600.0, seed);
                    assert_eq!(scenario.ticks(), 600);
                    let counted = scenario_mppu(&scenario);
                    let collected =
                        demand_trace(&config, mix, scenario.ticks(), seed).mppu(config.budget);
                    assert_eq!(
                        counted.to_bits(),
                        collected.to_bits(),
                        "servers {servers}, budget {}, mix {mix:?}, seed {seed}",
                        config.budget.get()
                    );
                    if counted > 0.0 && counted < 1.0 {
                        interior += 1;
                    }
                }
            }
        }
    }
    assert!(
        interior > 0,
        "the grid must reach budgets strictly inside the demand band"
    );
}

#[test]
fn scenario_mppu_of_an_empty_horizon_is_zero() {
    let config = SimConfig::prototype();
    let scenario = Scenario::new(
        "mppu/empty",
        config.clone(),
        &[Archetype::WebSearch],
        0.0,
        7,
    );
    assert_eq!(scenario.ticks(), 0);
    assert_eq!(scenario_mppu(&scenario).to_bits(), 0.0_f64.to_bits());
    assert_eq!(
        demand_trace(&config, &[Archetype::WebSearch], 0, 7)
            .mppu(config.budget)
            .to_bits(),
        0.0_f64.to_bits()
    );
}
