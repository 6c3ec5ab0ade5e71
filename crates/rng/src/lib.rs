//! A small, dependency-free, deterministic PRNG.
//!
//! The simulator needs reproducible randomness in three places: the
//! synthetic workload/solar/cluster trace builders, the stochastic
//! fault-schedule generator, and the in-repo property-test harness.
//! All of them run offline, so this crate supplies the one generator
//! they share instead of pulling the `rand` ecosystem: a
//! [xoshiro256++](https://prng.di.unimi.it/) core seeded through
//! SplitMix64, the same construction the reference implementation
//! recommends. Streams are stable across platforms and releases —
//! seeded experiments must reproduce bit-for-bit.
//!
//! # Examples
//!
//! ```
//! use heb_rng::Rng;
//!
//! let mut a = Rng::seed_from_u64(42);
//! let mut b = Rng::seed_from_u64(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! let u = a.gen_f64();
//! assert!((0.0..1.0).contains(&u));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A deterministic xoshiro256++ generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

/// One SplitMix64 step — used to expand a 64-bit seed into the 256-bit
/// xoshiro state (and useful on its own for deriving per-entity seeds).
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Seeds the generator from a single 64-bit value.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        Self {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The four state words, in order — for callers that keep many
    /// streams as parallel arrays and step them with [`xoshiro_step`].
    #[must_use]
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = &mut self.s;
        xoshiro_step(s0, s1, s2, s3)
    }

    /// A uniform sample in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// A uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi && lo.is_finite() && hi.is_finite(), "bad range");
        range_of_unit(self.gen_f64(), lo, hi)
    }

    /// A uniform integer in `[lo, hi)` (Lemire-style rejection-free
    /// multiply-shift; bias is < 2^-64 and irrelevant at these ranges).
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "bad range");
        let span = hi - lo;
        let hi128 = (u128::from(self.next_u64()) * u128::from(span)) >> 64;
        lo + hi128 as u64
    }

    /// A uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// A Bernoulli trial with success probability `p` (clamped to
    /// `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p.clamp(0.0, 1.0)
    }

    /// An exponentially distributed sample with the given mean (inverse
    /// transform; the workhorse behind Poisson arrivals and MTBF/MTTR
    /// draws). Returns 0 for non-positive means.
    pub fn exp_f64(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        exp_of_unit(self.gen_f64(), mean)
    }
}

/// One xoshiro256++ step over state held in four separate words — the
/// core of [`Rng::next_u64`], exposed so a caller keeping many streams
/// as four parallel state arrays steps lane `i` as
/// `xoshiro_step(&mut s0[i], &mut s1[i], &mut s2[i], &mut s3[i])` and
/// draws exactly what an [`Rng`] with that state would.
#[inline]
pub fn xoshiro_step(s0: &mut u64, s1: &mut u64, s2: &mut u64, s3: &mut u64) -> u64 {
    let result = s0.wrapping_add(*s3).rotate_left(23).wrapping_add(*s0);
    let t = *s1 << 17;
    *s2 ^= *s0;
    *s3 ^= *s1;
    *s1 ^= *s2;
    *s0 ^= *s3;
    *s2 ^= t;
    *s3 = s3.rotate_left(45);
    result
}

/// Maps a raw 64-bit output to a uniform sample in `[0, 1)` with 53
/// bits of precision (the [`Rng::gen_f64`] transform).
#[inline]
#[must_use]
pub fn unit_f64(raw: u64) -> f64 {
    (raw >> 11) as f64 / (1u64 << 53) as f64
}

/// Maps a uniform `u` in `[0, 1)` into `[lo, hi)` (the
/// [`Rng::range_f64`] transform, without its bound checks).
#[inline]
#[must_use]
pub fn range_of_unit(u: f64, lo: f64, hi: f64) -> f64 {
    lo + u * (hi - lo)
}

/// Maps a uniform `u` in `[0, 1)` to an exponential sample with the
/// given positive mean by inverse transform (the [`Rng::exp_f64`]
/// transform for `mean > 0`).
#[inline]
#[must_use]
pub fn exp_of_unit(u: f64, mean: f64) -> f64 {
    // Map into (0, 1] so ln never sees zero.
    let u = 1.0 - u;
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_state_step_matches_the_generator() {
        let mut rng = Rng::seed_from_u64(11);
        let [mut s0, mut s1, mut s2, mut s3] = rng.state();
        for _ in 0..1000 {
            let split = xoshiro_step(&mut s0, &mut s1, &mut s2, &mut s3);
            assert_eq!(split, rng.next_u64());
        }
        assert_eq!([s0, s1, s2, s3], rng.state());
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn f64_stays_in_unit_interval_and_is_roughly_uniform() {
        let mut rng = Rng::seed_from_u64(3);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = rng.gen_f64();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = Rng::seed_from_u64(4);
        for _ in 0..10_000 {
            let x = rng.range_f64(-3.0, 9.0);
            assert!((-3.0..9.0).contains(&x));
            let i = rng.range_u64(5, 12);
            assert!((5..12).contains(&i));
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = Rng::seed_from_u64(5);
        let n = 200_000;
        let mean = 42.0;
        let sum: f64 = (0..n).map(|_| rng.exp_f64(mean)).sum();
        let got = sum / f64::from(n);
        assert!((got - mean).abs() < 0.5, "exp mean {got}");
        assert_eq!(rng.exp_f64(0.0), 0.0);
        assert_eq!(rng.exp_f64(-1.0), 0.0);
    }

    #[test]
    fn bernoulli_frequency_tracks_p() {
        let mut rng = Rng::seed_from_u64(6);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.3)).count();
        let freq = hits as f64 / f64::from(n);
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }
}
