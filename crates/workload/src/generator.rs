//! Seeded stochastic utilization streams.

use crate::archetype::BurstProfile;
use heb_rng::{unit_f64, xoshiro_step, Rng};
use heb_units::Ratio;

/// One uniform draw in `[0, 1)` from xoshiro256++ state held as four
/// words — what [`Rng::gen_f64`] draws from an [`Rng`] with that state.
#[inline]
fn draw(state: &mut [u64; 4]) -> f64 {
    let [s0, s1, s2, s3] = state;
    unit_f64(xoshiro_step(s0, s1, s2, s3))
}

/// The chance that a burst starts in a one-second tick between bursts:
/// a Bernoulli approximation of the profile's Poisson arrivals.
#[inline]
pub(crate) fn arrival_prob(profile: &BurstProfile) -> f64 {
    profile.bursts_per_hour / 3600.0
}

/// The single authoritative utilization step: one sample of the burst
/// process for `profile`, advancing the xoshiro256++ `state` by the
/// uniforms it draws, in a fixed order — the arrival draw (only between
/// bursts), the duration and height draws (only when a burst starts),
/// then the two noise draws. Both [`UtilizationGenerator`] and
/// [`crate::UtilizationLanes`] step through this function, so the two
/// layouts cannot drift apart bitwise.
///
/// `profile.mean_burst_secs` must be positive (every validated profile
/// has it), so the duration draw always happens, as in
/// [`Rng::exp_f64`]. `arrival_prob` is [`arrival_prob`] of `profile`,
/// which a caller stepping many streams of one profile computes once.
#[inline]
pub(crate) fn next_utilization_raw(
    profile: &BurstProfile,
    arrival_prob: f64,
    state: &mut [u64; 4],
    burst_remaining: &mut u64,
    burst_level: &mut f64,
) -> Ratio {
    let p = profile;
    // A burst can start only between bursts; the arrival draw happens
    // only then.
    if *burst_remaining == 0 && draw(state) < arrival_prob {
        // Exponential duration via inverse transform.
        let dur = heb_rng::exp_of_unit(draw(state), p.mean_burst_secs);
        *burst_remaining = dur.ceil().max(1.0) as u64;
        // Burst height jitters ±25 % around the profile mean.
        let jitter = heb_rng::range_of_unit(draw(state), 0.75, 1.25);
        *burst_level = p.burst_amplitude * jitter;
    }
    let burst = if *burst_remaining > 0 {
        *burst_remaining -= 1;
        *burst_level
    } else {
        0.0
    };
    // Cheap symmetric noise (Irwin–Hall-of-2), bounded and smooth
    // enough for load traces.
    let noise = (draw(state) + draw(state) - 1.0) * p.base_noise * 2.0;
    Ratio::new_clamped(p.base_utilization + noise + burst)
}

/// An infinite, reproducible per-server utilization stream driven by a
/// [`BurstProfile`]: Gaussian-ish noise around the base load, plus
/// Poisson-arriving bursts that hold an elevated level for an
/// exponentially distributed time.
///
/// One tick is one simulated second (the IPDU metering rate).
///
/// # Examples
///
/// ```
/// use heb_workload::Archetype;
///
/// let mut a = Archetype::WebSearch.generator(7);
/// let mut b = Archetype::WebSearch.generator(7);
/// // Same seed, same stream:
/// assert_eq!(a.take_utilization(100), b.take_utilization(100));
/// ```
#[derive(Debug, Clone)]
pub struct UtilizationGenerator {
    profile: BurstProfile,
    /// xoshiro256++ state, seeded as [`Rng::seed_from_u64`] seeds it.
    state: [u64; 4],
    /// Remaining ticks of the burst currently in progress, if any.
    burst_remaining: u64,
    /// Amplitude of the burst currently in progress.
    burst_level: f64,
}

impl UtilizationGenerator {
    /// Creates a generator for `profile` seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`BurstProfile::validate`].
    #[must_use]
    pub fn new(profile: BurstProfile, seed: u64) -> Self {
        profile.validate();
        Self {
            profile,
            state: Rng::seed_from_u64(seed).state(),
            burst_remaining: 0,
            burst_level: 0.0,
        }
    }

    /// The driving profile.
    #[must_use]
    pub fn profile(&self) -> &BurstProfile {
        &self.profile
    }

    /// Produces the next one-second utilization sample.
    pub fn next_utilization(&mut self) -> Ratio {
        next_utilization_raw(
            &self.profile,
            arrival_prob(&self.profile),
            &mut self.state,
            &mut self.burst_remaining,
            &mut self.burst_level,
        )
    }

    /// Collects the next `n` samples into a vector.
    pub fn take_utilization(&mut self, n: usize) -> Vec<Ratio> {
        (0..n).map(|_| self.next_utilization()).collect()
    }

    /// Whether a burst is currently in progress.
    #[must_use]
    pub fn in_burst(&self) -> bool {
        self.burst_remaining > 0
    }

    /// The constant level every future sample is guaranteed to equal, if
    /// the stream is provably steady: no noise, no burst arrivals, and
    /// no burst in flight. Returns `None` for any stochastic profile.
    ///
    /// When this returns `Some`, [`Self::next_utilization`] would return
    /// the same `Ratio` bitwise forever, so the event core may skip the
    /// generator across a quiet span entirely. (The skipped RNG draws
    /// are unobservable: a noiseless, burst-free profile multiplies
    /// every draw by zero.)
    #[must_use]
    pub fn steady_level(&self) -> Option<Ratio> {
        let p = &self.profile;
        if p.base_noise == 0.0 && p.bursts_per_hour == 0.0 && self.burst_remaining == 0 {
            Some(Ratio::new_clamped(p.base_utilization))
        } else {
            None
        }
    }
}

impl Iterator for UtilizationGenerator {
    type Item = Ratio;

    fn next(&mut self) -> Option<Ratio> {
        Some(self.next_utilization())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archetype::Archetype;

    #[test]
    fn deterministic_under_seed() {
        let mut a = Archetype::PageRank.generator(123);
        let mut b = Archetype::PageRank.generator(123);
        assert_eq!(a.take_utilization(500), b.take_utilization(500));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Archetype::PageRank.generator(1);
        let mut b = Archetype::PageRank.generator(2);
        assert_ne!(a.take_utilization(500), b.take_utilization(500));
    }

    #[test]
    fn samples_stay_in_unit_interval() {
        let mut g = Archetype::Terasort.generator(9);
        for u in g.take_utilization(10_000) {
            assert!(u.in_unit_interval(), "got {u:?}");
        }
    }

    #[test]
    fn mean_tracks_base_plus_burst_load() {
        let mut g = Archetype::MediaStreaming.generator(5);
        let n = 200_000;
        let mean: f64 = g.take_utilization(n).iter().map(|u| u.get()).sum::<f64>() / n as f64;
        let p = Archetype::MediaStreaming.profile();
        // Bursts cannot overlap, so the process is an on/off renewal:
        // time-in-burst = on / (on + off), off = 1 / arrival rate.
        let mean_off = 3600.0 / p.bursts_per_hour;
        let burst_fraction = p.mean_burst_secs / (p.mean_burst_secs + mean_off);
        let expected = p.base_utilization + burst_fraction * p.burst_amplitude;
        assert!(
            (mean - expected).abs() < 0.03,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn bursts_do_occur() {
        let mut g = Archetype::WebSearch.generator(11);
        let samples = g.take_utilization(3600 * 3);
        let p = Archetype::WebSearch.profile();
        let above = samples
            .iter()
            .filter(|u| u.get() > p.base_utilization + 0.5 * p.burst_amplitude)
            .count();
        assert!(above > 0, "three hours of WS should contain bursts");
    }

    #[test]
    fn steady_level_only_for_deterministic_profiles() {
        let steady = BurstProfile {
            base_utilization: 0.3,
            base_noise: 0.0,
            bursts_per_hour: 0.0,
            burst_amplitude: 0.0,
            mean_burst_secs: 1.0,
        };
        let mut g = UtilizationGenerator::new(steady, 17);
        let level = g.steady_level().expect("noiseless profile is steady");
        for _ in 0..1000 {
            assert_eq!(g.next_utilization(), level);
        }
        assert_eq!(g.steady_level(), Some(level));

        // Any stochastic ingredient disqualifies the stream.
        for a in Archetype::ALL {
            assert_eq!(a.generator(1).steady_level(), None);
        }
    }

    #[test]
    fn iterator_interface() {
        let g = Archetype::WordCount.generator(3);
        let v: Vec<Ratio> = g.take(10).collect();
        assert_eq!(v.len(), 10);
    }
}
