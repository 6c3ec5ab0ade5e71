//! Struct-of-arrays utilization streams — the fleet-scale workload
//! drive.
//!
//! A `Vec<UtilizationGenerator>` keeps each server's xoshiro256++
//! state, burst counters and a full [`BurstProfile`] copy side by side,
//! so a per-tick sweep over 10 k servers drags every field of every
//! generator through cache. [`UtilizationLanes`] stores the same state
//! as parallel arrays — four RNG state words, the burst counters, and
//! a per-lane index into a deduplicated profile table — and steps every
//! lane in one pass.
//!
//! Lane `i` steps through the same kernel as
//! [`UtilizationGenerator::next_utilization`] and draws the same
//! uniforms from the same stream, so it yields exactly the samples a
//! generator built from the same profile and seed would.
//!
//! A fleet held at one steady level ([`UtilizationLanes::steady`])
//! keeps no per-lane state at all: a noiseless, burst-free stream
//! multiplies every draw by zero, so its samples are its base level
//! and its RNG state is unobservable.
//!
//! [`UtilizationGenerator::next_utilization`]: crate::UtilizationGenerator::next_utilization

use crate::archetype::{Archetype, BurstProfile};
use crate::generator::{arrival_prob, next_utilization_raw};
use heb_rng::Rng;
use heb_units::Ratio;

/// Per-server utilization streams as parallel arrays, one lane per
/// server.
///
/// # Examples
///
/// ```
/// use heb_workload::{Archetype, UtilizationLanes};
///
/// let mut lanes = UtilizationLanes::round_robin(&[Archetype::WebSearch], 4, 7);
/// let mut samples = Vec::new();
/// lanes.next_into(&mut samples);
/// // Lane 2 is the WebSearch stream seeded 7 + 2 * 7919.
/// let mut solo = Archetype::WebSearch.generator(7 + 2 * 7919);
/// assert_eq!(samples[2], solo.next_utilization());
/// ```
#[derive(Debug, Clone)]
pub struct UtilizationLanes {
    /// The distinct profiles, in order of first use.
    profiles: Vec<BurstProfile>,
    streams: Streams,
}

/// Where the lanes' stream state lives.
#[derive(Debug, Clone)]
enum Streams {
    /// One stream per lane.
    PerLane {
        /// Five arrays of one word per lane, back to back in one
        /// allocation: the xoshiro256++ state words `s0`, `s1`, `s2`,
        /// `s3`, then the remaining ticks of each lane's burst in
        /// progress, if any.
        words: Vec<u64>,
        /// Amplitude of each lane's burst in progress.
        burst_level: Vec<f64>,
        /// Each lane's index into `profiles`.
        profile: Vec<u32>,
        /// Each table slot's profile beside its [`arrival_prob`],
        /// computed once: what the lane kernel reads, with one lookup
        /// a lane.
        kernel: Vec<(BurstProfile, f64)>,
    },
    /// `lanes` lanes all running `profiles[0]`, a steady profile.
    Steady { lanes: usize },
}

/// Bitwise profile identity: two profiles share a table slot only if
/// every field has the same bits.
fn same_bits(a: &BurstProfile, b: &BurstProfile) -> bool {
    let bits = |p: &BurstProfile| {
        [
            p.base_utilization.to_bits(),
            p.base_noise.to_bits(),
            p.bursts_per_hour.to_bits(),
            p.burst_amplitude.to_bits(),
            p.mean_burst_secs.to_bits(),
        ]
    };
    bits(a) == bits(b)
}

/// The table slot holding `profile`, added if new.
///
/// # Panics
///
/// Panics if the profile fails [`BurstProfile::validate`].
fn slot_for(profiles: &mut Vec<BurstProfile>, profile: BurstProfile) -> u32 {
    profile.validate();
    let slot = match profiles.iter().position(|p| same_bits(p, &profile)) {
        Some(slot) => slot,
        None => {
            profiles.push(profile);
            profiles.len() - 1
        }
    };
    // Profiles are deduplicated: a table outgrowing u32 would need four
    // billion distinct ones.
    slot as u32
}

/// The per-lane word arrays `(s0, s1, s2, s3, burst_remaining)` of
/// `lanes` lanes.
type Words<'a> = (
    &'a mut [u64],
    &'a mut [u64],
    &'a mut [u64],
    &'a mut [u64],
    &'a mut [u64],
);

fn split_words(words: &mut [u64], lanes: usize) -> Words<'_> {
    let (s0, rest) = words.split_at_mut(lanes);
    let (s1, rest) = rest.split_at_mut(lanes);
    let (s2, rest) = rest.split_at_mut(lanes);
    let (s3, remaining) = rest.split_at_mut(lanes);
    (s0, s1, s2, s3, remaining)
}

impl UtilizationLanes {
    /// The simulator's per-server seeding rule: `lanes` streams with
    /// `archetypes` assigned round-robin (lane `i` runs
    /// `archetypes[i % archetypes.len()]`) and lane `i` seeded
    /// `seed + i * 7919` (wrapping). Returns no lanes for an empty
    /// archetype list.
    #[must_use]
    pub fn round_robin(archetypes: &[Archetype], lanes: usize, seed: u64) -> Self {
        let mut profiles = Vec::new();
        let slots: Vec<u32> = archetypes
            .iter()
            .map(|a| slot_for(&mut profiles, a.profile()))
            .collect();
        let lanes = if slots.is_empty() { 0 } else { lanes };
        let streams = (0..lanes)
            .zip(slots.iter().cycle())
            .map(|(idx, &slot)| (slot, seed.wrapping_add((idx as u64).wrapping_mul(7919))));
        Self::from_slots(profiles, lanes, streams)
    }

    /// `lanes` provably steady streams at a constant `level` (see
    /// [`BurstProfile::steady`]): every sample equals what
    /// `UtilizationGenerator::new(BurstProfile::steady(level), seed)`
    /// yields, for any seed. Keeps no per-lane state.
    #[must_use]
    pub fn steady(lanes: usize, level: Ratio) -> Self {
        let mut profiles = Vec::new();
        let _ = slot_for(&mut profiles, BurstProfile::steady(level.get()));
        Self {
            profiles,
            streams: Streams::Steady { lanes },
        }
    }

    /// `lanes` lanes over the table `profiles`, lane `i` running table
    /// slot and seed `streams[i]`.
    fn from_slots(
        profiles: Vec<BurstProfile>,
        lanes: usize,
        streams: impl Iterator<Item = (u32, u64)>,
    ) -> Self {
        let mut words = vec![0_u64; 5 * lanes];
        let mut profile = Vec::with_capacity(lanes);
        let (s0, s1, s2, s3, _) = split_words(&mut words, lanes);
        let state = s0.iter_mut().zip(s1).zip(s2).zip(s3);
        for ((((s0, s1), s2), s3), (slot, seed)) in state.zip(streams) {
            [*s0, *s1, *s2, *s3] = Rng::seed_from_u64(seed).state();
            profile.push(slot);
        }
        let kernel = profiles.iter().map(|p| (*p, arrival_prob(p))).collect();
        Self {
            profiles,
            streams: Streams::PerLane {
                words,
                burst_level: vec![0.0; lanes],
                profile,
                kernel,
            },
        }
    }

    /// Number of lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.streams {
            Streams::PerLane { profile, .. } => profile.len(),
            Streams::Steady { lanes } => *lanes,
        }
    }

    /// Whether there are no lanes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The profile lane `i` runs.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn profile(&self, i: usize) -> &BurstProfile {
        let slot = match &self.streams {
            Streams::PerLane { profile, .. } => profile[i] as usize,
            Streams::Steady { lanes } => {
                assert!(i < *lanes, "lane {i} out of range");
                0
            }
        };
        &self.profiles[slot]
    }

    /// Whether lane `i` has a burst in progress.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn in_burst(&self, i: usize) -> bool {
        match &self.streams {
            Streams::PerLane { words, profile, .. } => words[4 * profile.len()..][i] > 0,
            Streams::Steady { lanes } => {
                assert!(i < *lanes, "lane {i} out of range");
                false
            }
        }
    }

    /// Draws the next one-second sample of every lane, in lane order,
    /// into `out` (cleared first; its capacity is reused, so a caller
    /// that keeps `out` across ticks allocates nothing per tick).
    pub fn next_into(&mut self, out: &mut Vec<Ratio>) {
        out.clear();
        let profiles = &self.profiles;
        match &mut self.streams {
            Streams::PerLane {
                words,
                burst_level,
                profile,
                kernel,
            } => {
                let (s0, s1, s2, s3, remaining) = split_words(words, profile.len());
                let lanes = s0
                    .iter_mut()
                    .zip(s1)
                    .zip(s2)
                    .zip(s3)
                    .zip(remaining)
                    .zip(burst_level)
                    .zip(profile.iter());
                out.extend(
                    lanes.map(|((((((s0, s1), s2), s3), remaining), level), &slot)| {
                        // Step a register copy of the lane's state, then
                        // store it back once.
                        let mut state = [*s0, *s1, *s2, *s3];
                        let (p, arrival) = &kernel[slot as usize];
                        let sample =
                            next_utilization_raw(p, *arrival, &mut state, remaining, level);
                        [*s0, *s1, *s2, *s3] = state;
                        sample
                    }),
                );
            }
            Streams::Steady { lanes } => out.resize(*lanes, steady_sample(&profiles[0])),
        }
    }

    /// Draws the next `ticks` one-second samples of every lane into
    /// `out` (cleared first), lane by lane: `out[i * ticks + t]` is the
    /// sample lane `i` gives on the `t`-th of `ticks` calls to
    /// [`UtilizationLanes::next_into`], bit for bit. Stepping one lane
    /// through a block of ticks keeps its stream state in registers,
    /// which is about twice as fast per sample as a pass over every
    /// lane per tick.
    pub fn next_block_into(&mut self, ticks: usize, out: &mut Vec<Ratio>) {
        out.clear();
        let profiles = &self.profiles;
        match &mut self.streams {
            Streams::PerLane {
                words,
                burst_level,
                profile,
                kernel,
            } => {
                out.resize(profile.len() * ticks, Ratio::ZERO);
                let (s0, s1, s2, s3, remaining) = split_words(words, profile.len());
                let lanes = s0
                    .iter_mut()
                    .zip(s1)
                    .zip(s2)
                    .zip(s3)
                    .zip(remaining)
                    .zip(burst_level)
                    .zip(profile.iter())
                    .zip(out.chunks_exact_mut(ticks.max(1)));
                for (((((((s0, s1), s2), s3), remaining), level), &slot), samples) in lanes {
                    let (p, arrival) = &kernel[slot as usize];
                    let arrival = *arrival;
                    let mut state = [*s0, *s1, *s2, *s3];
                    let (mut left, mut height) = (*remaining, *level);
                    for sample in samples {
                        *sample =
                            next_utilization_raw(p, arrival, &mut state, &mut left, &mut height);
                    }
                    [*s0, *s1, *s2, *s3] = state;
                    (*remaining, *level) = (left, height);
                }
            }
            Streams::Steady { lanes } => out.resize(*lanes * ticks, steady_sample(&profiles[0])),
        }
    }

    /// Whether every lane is provably steady: every profile is
    /// noiseless and burst-free, and no burst is in flight. O(distinct
    /// profiles): a lane can only be in a burst if its profile has a
    /// positive burst rate, so a burst-free table rules out bursts in
    /// flight without visiting the lanes.
    ///
    /// When this holds, every future sample of lane `i` equals
    /// `Ratio::new_clamped(profile(i).base_utilization)` bitwise (see
    /// [`crate::UtilizationGenerator::steady_level`]), which is what
    /// [`UtilizationLanes::steady_levels`] yields.
    #[must_use]
    pub fn is_steady(&self) -> bool {
        let steady = self
            .profiles
            .iter()
            .all(|p| p.base_noise == 0.0 && p.bursts_per_hour == 0.0);
        debug_assert!(
            !steady || (0..self.len()).all(|i| !self.in_burst(i)),
            "a burst-free profile never starts a burst"
        );
        steady
    }

    /// Every lane's steady level, in lane order, without advancing any
    /// stream. Meaningful only when [`UtilizationLanes::is_steady`]
    /// holds: the skipped draws are then unobservable, since a
    /// noiseless, burst-free profile multiplies every draw by zero.
    pub fn steady_levels(&self) -> impl Iterator<Item = Ratio> + '_ {
        let level = |slot: usize| Ratio::new_clamped(self.profiles[slot].base_utilization);
        // One of the two parts is empty: per-lane slots, or `lanes`
        // lanes all on slot 0.
        let (slots, shared): (&[u32], usize) = match &self.streams {
            Streams::PerLane { profile, .. } => (profile, 0),
            Streams::Steady { lanes } => (&[], *lanes),
        };
        slots
            .iter()
            .map(move |&slot| level(slot as usize))
            .chain((0..shared).map(move |_| level(0)))
    }
}

/// The kernel's sample for a noiseless, burst-free profile: base +
/// (±0 noise) + (0 burst), clamped. Every draw of a steady lane gives
/// it, per tick or in a block.
fn steady_sample(profile: &BurstProfile) -> Ratio {
    Ratio::new_clamped(profile.base_utilization + 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UtilizationGenerator;

    #[test]
    fn lanes_match_generators_bitwise() {
        let mix = Archetype::ALL;
        let n = 19;
        let mut lanes = UtilizationLanes::round_robin(&mix, n, 42);
        let mut generators: Vec<_> = (0..n)
            .map(|i| mix[i % mix.len()].generator(42 + i as u64 * 7919))
            .collect();
        let mut out = Vec::new();
        for _ in 0..3_000 {
            lanes.next_into(&mut out);
            for (i, g) in generators.iter_mut().enumerate() {
                assert_eq!(out[i].get().to_bits(), g.next_utilization().get().to_bits());
                assert_eq!(lanes.in_burst(i), g.in_burst());
            }
        }
    }

    #[test]
    fn profiles_are_deduplicated() {
        let lanes = UtilizationLanes::round_robin(
            &[
                Archetype::Terasort,
                Archetype::Hivebench,
                Archetype::Terasort,
            ],
            30,
            1,
        );
        assert_eq!(lanes.len(), 30);
        assert_eq!(lanes.profiles.len(), 2);
        assert_eq!(*lanes.profile(2), Archetype::Terasort.profile());
        assert!(UtilizationLanes::round_robin(&[], 5, 1).is_empty());
    }

    #[test]
    fn steady_lanes_hold_their_level() {
        for level in [0.0, 0.3, 1.0] {
            let ratio = Ratio::new_clamped(level);
            let mut lanes = UtilizationLanes::steady(5, ratio);
            assert!(lanes.is_steady());
            assert_eq!(lanes.len(), 5);
            assert_eq!(*lanes.profile(4), BurstProfile::steady(level));
            assert!(!lanes.in_burst(4));
            assert_eq!(lanes.steady_levels().collect::<Vec<_>>(), vec![ratio; 5]);
            let mut drawn = Vec::new();
            let mut solo = UtilizationGenerator::new(BurstProfile::steady(level), 0);
            for _ in 0..100 {
                lanes.next_into(&mut drawn);
                let want = solo.next_utilization().get().to_bits();
                assert!(drawn.iter().all(|u| u.get().to_bits() == want));
            }
        }
        assert!(!UtilizationLanes::round_robin(&[Archetype::WebSearch], 3, 1).is_steady());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn steady_lanes_reject_out_of_range_lanes() {
        let _ = UtilizationLanes::steady(2, Ratio::HALF).in_burst(2);
    }
}
