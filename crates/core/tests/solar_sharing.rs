//! The sunrise solar day is synthesised once per seed and shared by
//! every solar scenario the batch builders make, while any of them is
//! alive; once the last one drops, nothing keeps the day alive.
//!
//! Every seed here, "another seed" included, belongs to one test
//! alone, so no concurrently running test can hold (or release) its
//! day.

use std::sync::{Arc, Weak};

use heb_core::experiments::{
    capacity_growth_scenarios, capacity_ratio_scenarios, scheme_comparison_scenarios,
};
use heb_core::{PowerMode, Scenario, SimConfig};
use heb_units::Watts;

fn solar_samples(batch: &[Scenario]) -> Vec<Arc<[Watts]>> {
    batch
        .iter()
        .filter_map(|s| match s.mode() {
            PowerMode::Solar(trace) => Some(Arc::clone(trace.shared_samples())),
            _ => None,
        })
        .collect()
}

fn solar_batches(seed: u64) -> Vec<Vec<Scenario>> {
    let base = SimConfig::prototype();
    vec![
        scheme_comparison_scenarios(&base, 0.05, 0.05, seed),
        capacity_ratio_scenarios(&base, &[1, 2, 3, 4, 5], 0.05, 0.05, seed),
        capacity_growth_scenarios(&base, &[40, 50, 60, 70, 80], 0.05, 0.05, seed),
    ]
}

#[test]
fn every_builder_shares_one_day_per_seed() {
    let seed = 0x5EED_0001;
    let batches = solar_batches(seed);
    let days: Vec<_> = batches.iter().flat_map(|b| solar_samples(b)).collect();
    // Six schemes plus five ratio and five growth points.
    assert_eq!(days.len(), 16);
    assert_eq!(days[0].len(), 86_400);
    for day in &days {
        assert!(Arc::ptr_eq(day, &days[0]), "one allocation per seed");
    }

    // Not `seed + 1`: that is the next test's seed, whose day this
    // test would then hold while that test checks it was released.
    let other = solar_batches(0x5EED_0003);
    let other_days: Vec<_> = other.iter().flat_map(|b| solar_samples(b)).collect();
    assert_eq!(other_days.len(), 16);
    assert!(
        !Arc::ptr_eq(&other_days[0], &days[0]),
        "another seed, another day"
    );
    assert_ne!(other_days[0][..], days[0][..]);
}

#[test]
fn a_dropped_day_is_released_and_synthesised_afresh() {
    let seed = 0x5EED_0002;
    let batches = solar_batches(seed);
    let day = Arc::clone(&solar_samples(&batches[0])[0]);
    let samples: Vec<u64> = day.iter().map(|w| w.get().to_bits()).collect();
    // A weak handle keeps the old allocation's block reserved (so a
    // fresh day cannot land at the same address) without keeping the
    // samples alive.
    let weak: Weak<[Watts]> = Arc::downgrade(&day);
    drop(day);
    drop(batches);
    assert!(
        weak.upgrade().is_none(),
        "the memo must not keep a dropped day alive"
    );

    let again = solar_batches(seed);
    let fresh = Arc::clone(&solar_samples(&again[1])[0]);
    assert!(!std::ptr::eq(weak.as_ptr(), Arc::as_ptr(&fresh)));
    let fresh_bits: Vec<u64> = fresh.iter().map(|w| w.get().to_bits()).collect();
    assert_eq!(
        fresh_bits, samples,
        "the same seed synthesises the same day"
    );
    for day in solar_batches(seed).iter().flat_map(|b| solar_samples(b)) {
        assert!(Arc::ptr_eq(&day, &fresh), "the fresh day is shared again");
    }
}
