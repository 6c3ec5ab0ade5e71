//! The intelligent PDU: per-second, per-server power metering.
//!
//! The prototype's IPDU reports every server's draw once per second over
//! SNMP; the hControl bases all decisions on these readings rather than
//! on ground truth. Keeping metering as an explicit layer preserves that
//! structure (and gives experiments a place to inject metering noise).

use crate::cluster::Cluster;
use crate::error::PowerSysError;
use heb_units::{Seconds, Watts};
use std::collections::VecDeque;

/// The health of the metering path for one sampling instant.
///
/// Real SNMP metering fails in three characteristic ways: the poll
/// times out (dropout), the agent keeps answering with a stale cached
/// reading (freeze), or a transducer glitch returns a wildly scaled
/// value (spike). The fault-injection layer drives this enum; the
/// controller must survive all three.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum MeterFault {
    /// The meter answers truthfully.
    #[default]
    Healthy,
    /// The poll is lost: no reading at all this tick.
    Dropout,
    /// The meter repeats its last reading instead of sampling.
    Freeze,
    /// The reading is scaled by the given factor (e.g. 3.0 for a 3×
    /// over-read).
    Spike(f64),
}

/// One metering sample: the aggregate draw at one instant. The
/// per-server channels of the latest sample live on the meter
/// ([`Ipdu::channels`]), not in the history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeterReading {
    /// Simulation time of the sample.
    pub at: Seconds,
    /// Aggregate draw.
    pub total: Watts,
}

/// The metering unit, retaining a bounded history window, with
/// optional multiplicative Gaussian-ish noise on every per-server
/// sample — real IPDUs are 1–3 % instruments, and the controller only
/// ever sees their readings.
///
/// # Examples
///
/// ```
/// use heb_powersys::{Cluster, Ipdu};
/// use heb_units::{Ratio, Seconds};
///
/// let mut cluster = Cluster::prototype(2);
/// cluster.set_all_utilization(Ratio::ONE);
/// let mut ipdu = Ipdu::new(60);
/// let reading = ipdu.sample(&cluster, Seconds::new(1.0));
/// assert_eq!(reading.total.get(), 140.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ipdu {
    history: VecDeque<MeterReading>,
    /// Per-server draws of the latest sample, indexed by server id; one
    /// buffer, overwritten by every sample.
    channels: Vec<Watts>,
    window: usize,
    /// Relative (1-sigma) measurement noise; 0 = ideal instrument.
    noise_std: f64,
    /// Internal xorshift state for deterministic noise.
    rng_state: u64,
}

impl Ipdu {
    /// Creates a meter retaining the last `window` samples.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: usize) -> Self {
        // heb-analyze: allow(HEB003, documented panicking twin of try_new)
        Self::try_new(window).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: rejects a zero-length window instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns [`PowerSysError::EmptyMeterWindow`] if `window` is zero.
    pub fn try_new(window: usize) -> Result<Self, PowerSysError> {
        if window == 0 {
            return Err(PowerSysError::EmptyMeterWindow);
        }
        Ok(Self {
            history: VecDeque::with_capacity(window),
            channels: Vec::new(),
            window,
            noise_std: 0.0,
            rng_state: 0x9E37_79B9_7F4A_7C15,
        })
    }

    /// Same meter with multiplicative measurement noise of the given
    /// relative standard deviation, seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `noise_std` is negative.
    #[must_use]
    pub fn with_noise(mut self, noise_std: f64, seed: u64) -> Self {
        assert!(noise_std >= 0.0, "noise must be non-negative");
        self.noise_std = noise_std;
        self.rng_state = seed | 1;
        self
    }

    /// One xorshift64* step mapped to a zero-mean, unit-ish-variance
    /// sample (sum of two uniforms, Irwin–Hall of 2, scaled).
    fn noise_sample(&mut self) -> f64 {
        let mut x = self.rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state = x;
        let u1 = (x >> 11) as f64 / (1u64 << 53) as f64;
        let mut y = self.rng_state;
        y ^= y << 13;
        y ^= y >> 7;
        y ^= y << 17;
        self.rng_state = y;
        let u2 = (y >> 11) as f64 / (1u64 << 53) as f64;
        // Irwin-Hall(2) has variance 1/6; scale to unit variance.
        (u1 + u2 - 1.0) * (6.0_f64).sqrt()
    }

    /// Samples the cluster at time `at`, appends the total to history,
    /// and returns a reference to the retained reading. The per-server
    /// samples overwrite [`Ipdu::channels`].
    ///
    /// History holds scalar readings and the channel buffer is reused,
    /// so metering allocates nothing per tick once the buffer has grown
    /// to the fleet size. The channels are copied from the cluster's
    /// draw cache; the total adds them left to right.
    pub fn sample(&mut self, cluster: &Cluster, at: Seconds) -> &MeterReading {
        self.channels.clear();
        let truth = cluster.fleet().draws();
        let noise_std = self.noise_std;
        if noise_std > 0.0 {
            for &draw in truth {
                let sampled = (draw * (1.0 + noise_std * self.noise_sample())).max(Watts::zero());
                self.channels.push(sampled);
            }
        } else {
            // An ideal instrument reads the cluster's cached draws.
            self.channels.extend_from_slice(truth);
        }
        let total = self.channels.iter().copied().sum();
        self.push(MeterReading { at, total })
    }

    /// Appends `reading`, evicting the oldest one once the window is
    /// full, and returns the retained copy.
    fn push(&mut self, reading: MeterReading) -> &MeterReading {
        if self.history.len() == self.window {
            self.history.pop_front();
        }
        self.history.push_back(reading);
        // heb-analyze: allow(HEB003, the reading was pushed on the line above)
        self.history.back().unwrap()
    }

    /// Whether this meter adds measurement noise to its samples.
    ///
    /// A noiseless meter draws nothing from its RNG, so repeated samples
    /// of an unchanged cluster are bitwise-identical — the property the
    /// event-driven simulation core relies on to fast-forward quiet
    /// spans.
    #[must_use]
    pub fn is_noiseless(&self) -> bool {
        self.noise_std == 0.0
    }

    /// Samples the cluster like [`Ipdu::sample`] and returns the total,
    /// but only on a noiseless meter: the event core's quiet-span fast
    /// path calls it, and relies on noiseless samples of an unchanged
    /// cluster being bitwise identical.
    ///
    /// # Panics
    ///
    /// Panics if the meter was configured with noise
    /// (see [`Ipdu::is_noiseless`]); noisy sampling must go through
    /// [`Ipdu::sample`] so the RNG stream stays aligned.
    pub fn record_steady(&mut self, cluster: &Cluster, at: Seconds) -> Watts {
        assert!(
            self.is_noiseless(),
            "record_steady requires a noiseless meter"
        );
        self.sample(cluster, at).total
    }

    /// Appends the latest reading's total again at time `at` and returns
    /// it, without sampling the cluster; the channels are left as they
    /// are. For a noiseless meter over a cluster that has not changed
    /// since the latest sample, history ends up bitwise identical to
    /// what [`Ipdu::sample`] would have produced — the event core's
    /// quiet-span fast path samples a frozen cluster once per span and
    /// repeats that reading for every later tick.
    ///
    /// # Panics
    ///
    /// Panics if the meter was configured with noise (a noisy sample
    /// draws from the RNG and differs from the last), or if it has no
    /// reading yet.
    pub fn repeat_steady(&mut self, at: Seconds) -> Watts {
        assert!(
            self.is_noiseless(),
            "repeat_steady requires a noiseless meter"
        );
        // heb-analyze: allow(HEB003, documented panic: repeating needs a prior sample)
        let latest = *self.latest().expect("repeat_steady needs a prior sample");
        self.push(MeterReading { at, ..latest }).total
    }

    /// Samples the cluster through a possibly faulty metering path.
    ///
    /// - [`MeterFault::Healthy`] behaves exactly like [`Ipdu::sample`].
    /// - [`MeterFault::Dropout`] returns `None` and records nothing —
    ///   the poll was simply lost.
    /// - [`MeterFault::Freeze`] returns the latest retained reading (or
    ///   `None` if there is none) without touching history: the agent
    ///   keeps serving stale data.
    /// - [`MeterFault::Spike`]`(f)` takes a real sample, scales every
    ///   channel by `f` in place, and *does* retain the corrupted
    ///   reading — bad data enters the history window just as it would
    ///   in the field.
    pub fn try_sample(
        &mut self,
        cluster: &Cluster,
        at: Seconds,
        fault: MeterFault,
    ) -> Option<&MeterReading> {
        match fault {
            MeterFault::Healthy => Some(self.sample(cluster, at)),
            MeterFault::Dropout => None,
            MeterFault::Freeze => self.latest(),
            MeterFault::Spike(factor) => {
                let factor = factor.max(0.0);
                let _ = self.sample(cluster, at);
                // Corrupt the just-taken channels and the appended entry
                // in place so history, channels and the returned
                // reference agree on the bad data.
                for w in &mut self.channels {
                    *w = *w * factor;
                }
                let total = self.channels.iter().copied().sum();
                let back = self.history.back_mut()?;
                back.total = total;
                self.history.back()
            }
        }
    }

    /// Per-server draws of the latest sample, indexed by server id
    /// (empty before the first sample). A [`MeterFault::Spike`] scales
    /// them with the reading; a dropout, a freeze or
    /// [`Ipdu::repeat_steady`] leaves them as they are.
    #[must_use]
    pub fn channels(&self) -> &[Watts] {
        &self.channels
    }

    /// The retained samples, oldest first.
    pub fn history(&self) -> impl Iterator<Item = &MeterReading> {
        self.history.iter()
    }

    /// The most recent sample.
    #[must_use]
    pub fn latest(&self) -> Option<&MeterReading> {
        self.history.back()
    }

    /// Mean aggregate draw over the retained window.
    #[must_use]
    pub fn mean_total(&self) -> Watts {
        if self.history.is_empty() {
            return Watts::zero();
        }
        let sum: Watts = self.history.iter().map(|r| r.total).sum();
        sum / self.history.len() as f64
    }

    /// Peak aggregate draw over the retained window.
    #[must_use]
    pub fn peak_total(&self) -> Watts {
        self.history
            .iter()
            .map(|r| r.total)
            .fold(Watts::zero(), Watts::max)
    }

    /// Minimum aggregate draw over the retained window (the valley).
    #[must_use]
    pub fn valley_total(&self) -> Watts {
        self.history
            .iter()
            .map(|r| r.total)
            .fold(Watts::new(f64::INFINITY), Watts::min)
    }

    /// Number of retained samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// Whether no samples have been taken yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heb_units::Ratio;

    #[test]
    fn sampling_and_stats() {
        let mut cluster = Cluster::prototype(2);
        let mut ipdu = Ipdu::new(10);
        cluster.set_all_utilization(Ratio::ZERO);
        ipdu.sample(&cluster, Seconds::new(0.0)); // 60 W
        cluster.set_all_utilization(Ratio::ONE);
        ipdu.sample(&cluster, Seconds::new(1.0)); // 140 W
        assert_eq!(ipdu.len(), 2);
        assert_eq!(ipdu.mean_total().get(), 100.0);
        assert_eq!(ipdu.peak_total().get(), 140.0);
        assert_eq!(ipdu.valley_total().get(), 60.0);
        assert_eq!(ipdu.latest().unwrap().total.get(), 140.0);
    }

    #[test]
    fn window_evicts_oldest() {
        let cluster = Cluster::prototype(1);
        let mut ipdu = Ipdu::new(3);
        for t in 0..5 {
            ipdu.sample(&cluster, Seconds::new(t as f64));
        }
        assert_eq!(ipdu.len(), 3);
        let oldest = ipdu.history().next().unwrap();
        assert_eq!(oldest.at, Seconds::new(2.0));
    }

    #[test]
    fn per_server_readings_indexed_by_id() {
        let mut cluster = Cluster::prototype(3);
        cluster.set_utilization(1, Ratio::ONE);
        let mut ipdu = Ipdu::new(1);
        assert!(ipdu.channels().is_empty());
        ipdu.sample(&cluster, Seconds::zero());
        let channels: Vec<f64> = ipdu.channels().iter().map(|w| w.get()).collect();
        assert_eq!(channels, [30.0, 70.0, 30.0]);
    }

    #[test]
    fn repeat_steady_matches_sample_bitwise() {
        let mut cluster = Cluster::prototype(3);
        cluster.set_utilization(1, Ratio::ONE);
        let mut sampled = Ipdu::new(4);
        let mut repeated = Ipdu::new(4);
        // Cover both the filling phase and the recycling (window-full)
        // phase; sampling an unchanged cluster every tick and sampling
        // it once, then repeating, must agree bitwise throughout.
        for t in 0..10 {
            let at = Seconds::new(t as f64);
            let a = sampled.record_steady(&cluster, at);
            let b = if t == 0 {
                repeated.record_steady(&cluster, at)
            } else {
                repeated.repeat_steady(at)
            };
            assert_eq!(a.get().to_bits(), b.get().to_bits());
            assert_eq!(sampled.len(), repeated.len());
            for (a, b) in sampled.history().zip(repeated.history()) {
                assert_eq!(a.at.get().to_bits(), b.at.get().to_bits());
                assert_eq!(a.total.get().to_bits(), b.total.get().to_bits());
            }
        }
        assert_eq!(sampled.len(), 4);
        assert_eq!(sampled.channels(), repeated.channels());
        assert_eq!(sampled.peak_total(), repeated.peak_total());
        assert_eq!(sampled.valley_total(), repeated.valley_total());
    }

    #[test]
    #[should_panic(expected = "noiseless")]
    fn record_steady_rejects_noisy_meter() {
        let cluster = Cluster::prototype(1);
        let mut ipdu = Ipdu::new(4).with_noise(0.01, 7);
        let _ = ipdu.record_steady(&cluster, Seconds::zero());
    }

    #[test]
    #[should_panic(expected = "noiseless")]
    fn repeat_steady_rejects_noisy_meter() {
        let cluster = Cluster::prototype(1);
        let mut ipdu = Ipdu::new(4).with_noise(0.01, 7);
        ipdu.sample(&cluster, Seconds::zero());
        let _ = ipdu.repeat_steady(Seconds::new(1.0));
    }

    #[test]
    fn empty_meter_stats() {
        let ipdu = Ipdu::new(5);
        assert!(ipdu.is_empty());
        assert_eq!(ipdu.mean_total(), Watts::zero());
        assert!(ipdu.latest().is_none());
    }

    #[test]
    #[should_panic(expected = "history window")]
    fn zero_window_panics() {
        let _ = Ipdu::new(0);
    }

    #[test]
    fn noise_perturbs_but_stays_unbiased() {
        let mut cluster = Cluster::prototype(1);
        cluster.set_all_utilization(Ratio::ONE); // 70 W truth
        let mut ipdu = Ipdu::new(1).with_noise(0.02, 7);
        let mut sum = 0.0;
        let mut any_off = false;
        let n = 5000;
        for t in 0..n {
            let r = ipdu.sample(&cluster, Seconds::new(f64::from(t)));
            sum += r.total.get();
            if (r.total.get() - 70.0).abs() > 1e-9 {
                any_off = true;
            }
        }
        assert!(any_off, "noise must actually perturb readings");
        let mean = sum / f64::from(n);
        assert!((mean - 70.0).abs() < 0.5, "biased meter: mean {mean}");
    }

    #[test]
    fn noise_is_deterministic_under_seed() {
        let cluster = Cluster::prototype(2);
        let mut a = Ipdu::new(4).with_noise(0.05, 99);
        let mut b = Ipdu::new(4).with_noise(0.05, 99);
        for t in 0..50 {
            let ra = a.sample(&cluster, Seconds::new(f64::from(t)));
            let rb = b.sample(&cluster, Seconds::new(f64::from(t)));
            assert_eq!(ra.total, rb.total);
        }
    }

    #[test]
    #[should_panic(expected = "noise must be non-negative")]
    fn negative_noise_panics() {
        let _ = Ipdu::new(1).with_noise(-0.1, 1);
    }

    #[test]
    fn try_new_rejects_zero_window() {
        assert_eq!(Ipdu::try_new(0), Err(PowerSysError::EmptyMeterWindow));
        assert!(Ipdu::try_new(1).is_ok());
    }

    #[test]
    fn dropout_returns_none_and_records_nothing() {
        let cluster = Cluster::prototype(2);
        let mut ipdu = Ipdu::new(4);
        assert!(ipdu
            .try_sample(&cluster, Seconds::zero(), MeterFault::Dropout)
            .is_none());
        assert!(ipdu.is_empty());
    }

    #[test]
    fn freeze_serves_stale_reading_without_appending() {
        let mut cluster = Cluster::prototype(2);
        let mut ipdu = Ipdu::new(4);
        // No history yet: a frozen meter has nothing to serve.
        assert!(ipdu
            .try_sample(&cluster, Seconds::zero(), MeterFault::Freeze)
            .is_none());
        cluster.set_all_utilization(Ratio::ONE);
        ipdu.sample(&cluster, Seconds::new(1.0)); // 140 W truth
        cluster.set_all_utilization(Ratio::ZERO); // truth drops to 60 W
        let stale = *ipdu
            .try_sample(&cluster, Seconds::new(2.0), MeterFault::Freeze)
            .unwrap();
        assert_eq!(stale.total.get(), 140.0, "freeze must serve stale data");
        assert_eq!(stale.at, Seconds::new(1.0));
        assert_eq!(ipdu.len(), 1, "freeze must not grow history");
    }

    #[test]
    fn spike_scales_reading_and_corrupts_history() {
        let mut cluster = Cluster::prototype(2);
        cluster.set_all_utilization(Ratio::ONE); // 140 W truth
        let mut ipdu = Ipdu::new(4);
        let spiked = ipdu
            .try_sample(&cluster, Seconds::zero(), MeterFault::Spike(3.0))
            .unwrap()
            .total;
        assert_eq!(spiked.get(), 420.0);
        assert_eq!(ipdu.latest().unwrap().total.get(), 420.0);
        assert_eq!(ipdu.peak_total().get(), 420.0);
        let channels: Vec<f64> = ipdu.channels().iter().map(|w| w.get()).collect();
        assert_eq!(channels, [210.0, 210.0], "channels carry the spike too");
    }

    #[test]
    fn healthy_try_sample_matches_sample() {
        let cluster = Cluster::prototype(2);
        let mut a = Ipdu::new(4);
        let mut b = Ipdu::new(4);
        let ra = a
            .try_sample(&cluster, Seconds::zero(), MeterFault::Healthy)
            .unwrap();
        let rb = b.sample(&cluster, Seconds::zero());
        assert_eq!(ra, rb);
    }
}
