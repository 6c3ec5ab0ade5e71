//! Lane parity: [`UtilizationLanes`] must yield, lane by lane and tick
//! by tick, exactly the samples of a [`UtilizationGenerator`] built
//! from the same profile and seed — bitwise, across burst arrivals and
//! burst ends, for all eight archetypes and for steady profiles.
//! The streams themselves cannot drift: both layouts step through one
//! kernel; these tests pin the seeding, the profile table and the
//! lane bookkeeping around it.

use heb_units::Ratio;
use heb_workload::{Archetype, BurstProfile, UtilizationGenerator, UtilizationLanes};
use proptest::prelude::*;

/// Steps `lanes` and `generators` side by side for `ticks` ticks,
/// asserting every sample and burst flag agree bitwise.
fn assert_lockstep(
    lanes: &mut UtilizationLanes,
    generators: &mut [UtilizationGenerator],
    ticks: usize,
) {
    prop_assert_eq!(lanes.len(), generators.len());
    let mut out = Vec::new();
    for tick in 0..ticks {
        lanes.next_into(&mut out);
        prop_assert_eq!(out.len(), generators.len());
        for (i, g) in generators.iter_mut().enumerate() {
            let want = g.next_utilization();
            prop_assert_eq!(
                out[i].get().to_bits(),
                want.get().to_bits(),
                "lane {} diverged at tick {}",
                i,
                tick
            );
            prop_assert_eq!(lanes.in_burst(i), g.in_burst());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn steady_lanes_match_steady_generators_of_any_seed(
        level in 0.0..=1.0f64,
        count in 1usize..40,
        seed in proptest::num::u64::ANY,
    ) {
        let mut lanes = UtilizationLanes::steady(count, Ratio::new_clamped(level));
        let mut generators: Vec<_> = (0..count)
            .map(|i| UtilizationGenerator::new(BurstProfile::steady(level), seed ^ i as u64))
            .collect();
        prop_assert!(lanes.is_steady());
        assert_lockstep(&mut lanes, &mut generators, 600);
    }

    #[test]
    fn round_robin_lanes_follow_the_seeding_rule(
        mix in proptest::collection::vec(
            proptest::sample::select(Archetype::ALL.to_vec()),
            1..9,
        ),
        count in 1usize..40,
        seed in proptest::num::u64::ANY,
    ) {
        let mut lanes = UtilizationLanes::round_robin(&mix, count, seed);
        let mut generators: Vec<_> = (0..count)
            .map(|i| mix[i % mix.len()].generator(seed.wrapping_add(i as u64 * 7919)))
            .collect();
        for (i, generator) in generators.iter().enumerate() {
            prop_assert_eq!(lanes.profile(i), generator.profile());
        }
        // Half an hour covers many small-peak bursts end to end and
        // the arrival of large-peak ones.
        assert_lockstep(&mut lanes, &mut generators, 1_800);
        prop_assert!(!lanes.is_steady());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Blocks of any size, mixed with single ticks, lay out lane by
    /// lane exactly the samples the generators give tick by tick, and
    /// leave every lane where the generators are.
    #[test]
    fn blocks_match_generators_lane_by_lane(
        mix in proptest::collection::vec(
            proptest::sample::select(Archetype::ALL.to_vec()),
            1..9,
        ),
        count in 1usize..40,
        seed in proptest::num::u64::ANY,
        blocks in proptest::collection::vec(0usize..300, 1..12),
        steady in proptest::sample::select(vec![false, false, true]),
    ) {
        let (mut lanes, mut generators): (_, Vec<_>) = if steady {
            (
                UtilizationLanes::steady(count, Ratio::new_clamped(0.4)),
                (0..count).map(|_| UtilizationGenerator::new(BurstProfile::steady(0.4), seed)).collect(),
            )
        } else {
            (
                UtilizationLanes::round_robin(&mix, count, seed),
                (0..count)
                    .map(|i| mix[i % mix.len()].generator(seed.wrapping_add(i as u64 * 7919)))
                    .collect(),
            )
        };
        let mut out = Vec::new();
        for ticks in blocks {
            let want: Vec<Vec<u64>> = generators
                .iter_mut()
                .map(|g| (0..ticks).map(|_| g.next_utilization().get().to_bits()).collect())
                .collect();
            lanes.next_block_into(ticks, &mut out);
            prop_assert_eq!(out.len(), count * ticks);
            for (i, lane) in want.iter().enumerate() {
                let got: Vec<u64> = out[i * ticks..(i + 1) * ticks]
                    .iter()
                    .map(|u| u.get().to_bits())
                    .collect();
                prop_assert_eq!(&got, lane, "lane {} of a {}-tick block", i, ticks);
                prop_assert_eq!(lanes.in_burst(i), generators[i].in_burst());
            }
            assert_lockstep(&mut lanes, &mut generators, 3);
        }
    }
}

/// Over four hours every archetype's lanes start bursts and finish
/// them, in lockstep with their generators throughout.
#[test]
fn every_archetype_crosses_burst_arrivals_and_ends() {
    let lanes_per = 6;
    let mut lanes = UtilizationLanes::round_robin(&Archetype::ALL, 8 * lanes_per, 42);
    let mut generators: Vec<_> = (0..8 * lanes_per)
        .map(|i| Archetype::ALL[i % 8].generator(42 + i as u64 * 7919))
        .collect();
    let (mut starts, mut ends) = ([0_u32; 8], [0_u32; 8]);
    let mut was = vec![false; lanes.len()];
    let mut out = Vec::new();
    for _ in 0..4 * 3_600 {
        lanes.next_into(&mut out);
        for (i, g) in generators.iter_mut().enumerate() {
            assert_eq!(out[i].get().to_bits(), g.next_utilization().get().to_bits());
            let now = lanes.in_burst(i);
            match (was[i], now) {
                (false, true) => starts[i % 8] += 1,
                (true, false) => ends[i % 8] += 1,
                _ => {}
            }
            was[i] = now;
        }
    }
    for (k, archetype) in Archetype::ALL.iter().enumerate() {
        assert!(
            starts[k] > 0 && ends[k] > 0,
            "{archetype}: {} burst start(s), {} end(s)",
            starts[k],
            ends[k]
        );
    }
}
