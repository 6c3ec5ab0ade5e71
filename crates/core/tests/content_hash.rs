//! Scenario content hashes are cache keys: they must not move.
//!
//! The pinned hex digests below were recorded before
//! `Scenario::content_hash` was memoised and before the scheme and
//! capacity builders shared one synthesised sunrise day between their
//! solar runs. A change that moves any of them silently orphans every
//! user's result cache, and must bump the engine version instead.

use heb_core::experiments::{
    capacity_ratio_scenarios, fault_sweep_scenarios, megafleet_scenario, outage_scenarios,
    scheme_comparison_scenarios,
};
use heb_core::{DriverMode, FaultSchedule, PowerMode, Scenario, SimConfig};
use heb_units::{Ratio, Seconds, Watts};
use heb_workload::{Archetype, PowerTrace};
use proptest::prelude::*;

fn rack() -> Scenario {
    Scenario::new(
        "pin/rack",
        SimConfig::prototype(),
        &[Archetype::WebSearch, Archetype::Terasort],
        0.5,
        42,
    )
}

fn labelled<'a>(batch: &'a [Scenario], label: &str) -> &'a Scenario {
    batch
        .iter()
        .find(|s| s.label() == label)
        .unwrap_or_else(|| panic!("no scenario labelled {label:?}"))
}

#[test]
fn cache_keys_are_pinned() {
    assert_eq!(rack().hash_hex(), "f7b669002092d590bdd98cf2662c6c97");
    assert_eq!(
        rack().with_driver_mode(DriverMode::Event).hash_hex(),
        "575279649093eab59c4a88f17ba033c4"
    );

    // Solar runs from the matrix builders: the first and last scheme,
    // and a capacity point, all on the one shared sunrise day.
    let schemes = scheme_comparison_scenarios(&SimConfig::prototype(), 1.0, 1.0, 42);
    assert_eq!(
        labelled(&schemes, "schemes/BaOnly/solar").hash_hex(),
        "2976616c110f038d93a2dc6c425725b6"
    );
    assert_eq!(
        labelled(&schemes, "schemes/HEB-D/solar").hash_hex(),
        "10f24fbef8b59dc6f64dc9a2b7f79402"
    );
    let capacity = capacity_ratio_scenarios(&SimConfig::prototype(), &[1, 3], 1.0, 1.0, 42);
    assert_eq!(
        labelled(&capacity, "capacity/ratio/3:7/solar").hash_hex(),
        "10f24fbef8b59dc6f64dc9a2b7f79402",
        "the 3:7 HEB-D point is the scheme matrix's HEB-D solar run"
    );

    let outage = outage_scenarios(&SimConfig::prototype(), 5.0, 30.0, 42)
        .remove(0)
        .with_faults(FaultSchedule::parse("blackout@600~300;ba-fail(0)@900~600").unwrap());
    assert_eq!(outage.label(), "outage/BaOnly/full");
    assert_eq!(outage.hash_hex(), "fe30e2d478da28ed6bcd599b97d498d4");

    let storms = fault_sweep_scenarios(&SimConfig::prototype(), 1.0, &[0.0, 2.0], 42);
    let storm = labelled(&storms, "faults/x2/HEB-D");
    assert_eq!(storm.faults().map(FaultSchedule::len), Some(6));
    assert_eq!(storm.hash_hex(), "a735f56f7cc887e066c386b3e002fc87");

    assert_eq!(
        megafleet_scenario(10_000, 24.0, 42).hash_hex(),
        "67d24efb53346e7e3e17459fea6575d4"
    );
}

/// One hash-bearing setter, chosen and parameterised by `(op, value)`.
fn apply(scenario: Scenario, op: u8, value: u64) -> Scenario {
    let level = Ratio::new_clamped((value % 101) as f64 / 100.0);
    match op {
        0 => scenario.with_seed(value),
        1 => scenario.with_ticks(value % 5_000),
        2 => scenario.with_initial_soc(level),
        3 => scenario.with_steady_workload(level),
        4 => scenario.with_driver_mode(if value.is_multiple_of(2) {
            DriverMode::Tick
        } else {
            DriverMode::Event
        }),
        5 => scenario.with_mode(if value.is_multiple_of(3) {
            PowerMode::Utility
        } else {
            PowerMode::Solar(PowerTrace::new(
                vec![Watts::new(200.0 + (value % 97) as f64); 32],
                Seconds::new(1.0),
            ))
        }),
        6 => scenario
            .with_faults(FaultSchedule::parse(&format!("blackout@{}~30", value % 600)).unwrap()),
        7 => scenario.relabeled(format!("relabel/{value}")),
        _ => scenario.with_recorder(std::sync::Arc::new(heb_telemetry::NullRecorder)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hashing between setters (so each setter lands on a memoised
    /// scenario) gives the hash of the same setters applied without
    /// ever hashing in between.
    #[test]
    fn memo_follows_every_setter_sequence(
        ops in proptest::collection::vec((0u8..9, 0u64..1_000_000), 0..12),
    ) {
        let mut hashed = rack();
        let mut unhashed = rack();
        for &(op, value) in &ops {
            let _ = hashed.content_hash();
            hashed = apply(hashed, op, value);
            unhashed = apply(unhashed, op, value);
        }
        prop_assert_eq!(hashed.content_hash(), unhashed.content_hash());
        prop_assert_eq!(hashed.clone().content_hash(), unhashed.content_hash());
    }
}
