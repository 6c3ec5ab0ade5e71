//! Fixed-interval power series and the statistics the evaluation uses.

use std::sync::Arc;

use heb_units::{Joules, Seconds, Watts};

/// Whether a mismatch segment sits above or below the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentKind {
    /// Demand above budget — the buffers must discharge.
    Peak,
    /// Demand below budget — a charging opportunity.
    Valley,
}

/// One maximal run of ticks on the same side of the budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MismatchSegment {
    /// Peak or valley.
    pub kind: SegmentKind,
    /// Index of the first tick in the segment.
    pub start: usize,
    /// Number of ticks in the segment.
    pub len: usize,
    /// Mean absolute distance from the budget over the segment.
    pub mean_magnitude: Watts,
    /// Largest absolute distance from the budget in the segment.
    pub max_magnitude: Watts,
}

impl MismatchSegment {
    /// Segment duration given the trace tick length.
    #[must_use]
    pub fn duration(&self, dt: Seconds) -> Seconds {
        dt * self.len as f64
    }
}

/// A power series sampled at a fixed interval.
///
/// The samples are immutable and shared: cloning a trace bumps a
/// reference count instead of copying them, so every scenario that
/// runs from one synthesised day holds the same allocation.
///
/// # Examples
///
/// ```
/// use heb_workload::PowerTrace;
/// use heb_units::{Seconds, Watts};
///
/// let trace = PowerTrace::from_watts(vec![100.0, 300.0, 250.0, 80.0], Seconds::new(1.0));
/// assert_eq!(trace.peak().get(), 300.0);
/// assert_eq!(trace.valley().get(), 80.0);
/// // Two of four ticks meet a 250 W provisioning level:
/// assert!((trace.mppu(Watts::new(250.0)) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrace {
    samples: Arc<[Watts]>,
    dt: Seconds,
}

impl PowerTrace {
    /// Creates a trace from samples at interval `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    #[must_use]
    pub fn new(samples: Vec<Watts>, dt: Seconds) -> Self {
        Self::from_shared(samples.into(), dt)
    }

    /// Creates a trace over an already shared sample allocation.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    #[must_use]
    pub fn from_shared(samples: Arc<[Watts]>, dt: Seconds) -> Self {
        assert!(dt.get() > 0.0, "tick interval must be positive");
        Self { samples, dt }
    }

    /// The shared sample allocation, for holders that keep a handle
    /// (or a weak one) to the samples rather than the trace.
    #[must_use]
    pub fn shared_samples(&self) -> &Arc<[Watts]> {
        &self.samples
    }

    /// Creates a trace from raw watt values.
    #[must_use]
    pub fn from_watts(samples: Vec<f64>, dt: Seconds) -> Self {
        Self::new(samples.into_iter().map(Watts::new).collect(), dt)
    }

    /// The sampling interval.
    #[must_use]
    pub fn dt(&self) -> Seconds {
        self.dt
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace has no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The samples.
    #[must_use]
    pub fn samples(&self) -> &[Watts] {
        &self.samples
    }

    /// Iterator over samples.
    pub fn iter(&self) -> impl Iterator<Item = Watts> + '_ {
        self.samples.iter().copied()
    }

    /// Total trace duration.
    #[must_use]
    pub fn duration(&self) -> Seconds {
        self.dt * self.samples.len() as f64
    }

    /// Largest sample (zero for an empty trace).
    #[must_use]
    pub fn peak(&self) -> Watts {
        self.iter().fold(Watts::zero(), Watts::max)
    }

    /// Smallest sample (zero for an empty trace).
    #[must_use]
    pub fn valley(&self) -> Watts {
        if self.samples.is_empty() {
            Watts::zero()
        } else {
            self.iter().fold(Watts::new(f64::INFINITY), Watts::min)
        }
    }

    /// Mean sample (zero for an empty trace).
    #[must_use]
    pub fn mean(&self) -> Watts {
        if self.samples.is_empty() {
            Watts::zero()
        } else {
            self.iter().sum::<Watts>() / self.samples.len() as f64
        }
    }

    /// Total energy represented by the trace.
    #[must_use]
    pub fn energy(&self) -> Joules {
        self.iter().map(|p| p * self.dt).sum()
    }

    /// Maximum-provisioning-utilisation-power (Section 2.1):
    /// the fraction of time demand reaches (or exceeds) the provisioned
    /// `budget`. Zero for an empty trace.
    #[must_use]
    pub fn mppu(&self, budget: Watts) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let at_budget = self.iter().filter(|&p| p >= budget).count();
        at_budget as f64 / self.samples.len() as f64
    }

    /// Energy above the budget (what buffers must supply under perfect
    /// shaving).
    #[must_use]
    pub fn energy_above(&self, budget: Watts) -> Joules {
        self.iter()
            .map(|p| (p - budget).max(Watts::zero()) * self.dt)
            .sum()
    }

    /// Energy headroom below the budget (the total charging opportunity).
    #[must_use]
    pub fn energy_below(&self, budget: Watts) -> Joules {
        self.iter()
            .map(|p| (budget - p).max(Watts::zero()) * self.dt)
            .sum()
    }

    /// Splits the trace into maximal peak/valley segments around
    /// `budget`. Ticks exactly at the budget count as valley (no
    /// discharge needed).
    #[must_use]
    pub fn segments(&self, budget: Watts) -> Vec<MismatchSegment> {
        let mut out = Vec::new();
        let mut idx = 0;
        while idx < self.samples.len() {
            let kind = if self.samples[idx] > budget {
                SegmentKind::Peak
            } else {
                SegmentKind::Valley
            };
            let start = idx;
            let mut sum = 0.0;
            let mut max = 0.0_f64;
            while idx < self.samples.len() {
                let p = self.samples[idx];
                let above = p > budget;
                if (kind == SegmentKind::Peak) != above {
                    break;
                }
                let mag = (p - budget).abs().get();
                sum += mag;
                max = max.max(mag);
                idx += 1;
            }
            let len = idx - start;
            out.push(MismatchSegment {
                kind,
                start,
                len,
                mean_magnitude: Watts::new(sum / len as f64),
                max_magnitude: Watts::new(max),
            });
        }
        out
    }

    /// Element-wise sum of two equal-interval traces, truncated to the
    /// shorter one.
    ///
    /// # Panics
    ///
    /// Panics if the traces have different tick intervals.
    #[must_use]
    pub fn zip_add(&self, other: &PowerTrace) -> PowerTrace {
        assert_eq!(self.dt, other.dt, "tick intervals must match");
        let samples = self
            .samples
            .iter()
            .zip(other.samples.iter())
            .map(|(&a, &b)| a + b)
            .collect();
        PowerTrace::from_shared(samples, self.dt)
    }

    /// A trace scaled by a constant factor.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> PowerTrace {
        let samples = self.samples.iter().map(|&p| p * factor).collect();
        PowerTrace::from_shared(samples, self.dt)
    }
}

impl FromIterator<Watts> for PowerTrace {
    /// Collects one-second samples into a trace.
    fn from_iter<I: IntoIterator<Item = Watts>>(iter: I) -> Self {
        Self::from_shared(iter.into_iter().collect(), Seconds::new(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> PowerTrace {
        PowerTrace::from_watts(
            vec![100.0, 300.0, 320.0, 250.0, 80.0, 60.0, 280.0],
            Seconds::new(1.0),
        )
    }

    #[test]
    fn basic_stats() {
        let t = trace();
        assert_eq!(t.len(), 7);
        assert_eq!(t.peak().get(), 320.0);
        assert_eq!(t.valley().get(), 60.0);
        assert!((t.mean().get() - 1390.0 / 7.0).abs() < 1e-9);
        assert_eq!(t.duration(), Seconds::new(7.0));
        assert_eq!(t.energy().get(), 1390.0);
    }

    #[test]
    fn mppu_counts_at_or_above_budget() {
        let t = trace();
        // 300, 320, 250, 280 >= 250 -> 4/7.
        assert!((t.mppu(Watts::new(250.0)) - 4.0 / 7.0).abs() < 1e-12);
        // Over-provisioning at the peak: exactly one tick reaches it.
        assert!((t.mppu(Watts::new(320.0)) - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn energy_above_and_below() {
        let t = PowerTrace::from_watts(vec![100.0, 300.0], Seconds::new(1.0));
        assert_eq!(t.energy_above(Watts::new(200.0)).get(), 100.0);
        assert_eq!(t.energy_below(Watts::new(200.0)).get(), 100.0);
    }

    #[test]
    fn segments_alternate_and_cover() {
        let t = trace();
        let segs = t.segments(Watts::new(200.0));
        // [100] V, [300,320,250] P, [80,60] V, [280] P
        assert_eq!(segs.len(), 4);
        assert_eq!(segs[0].kind, SegmentKind::Valley);
        assert_eq!(segs[1].kind, SegmentKind::Peak);
        assert_eq!(segs[1].len, 3);
        assert_eq!(segs[1].max_magnitude.get(), 120.0);
        assert!((segs[1].mean_magnitude.get() - (100.0 + 120.0 + 50.0) / 3.0).abs() < 1e-9);
        let covered: usize = segs.iter().map(|s| s.len).sum();
        assert_eq!(covered, t.len());
        assert_eq!(segs[3].start, 6);
        assert_eq!(segs[1].duration(t.dt()), Seconds::new(3.0));
    }

    #[test]
    fn exactly_at_budget_is_valley() {
        let t = PowerTrace::from_watts(vec![200.0], Seconds::new(1.0));
        let segs = t.segments(Watts::new(200.0));
        assert_eq!(segs[0].kind, SegmentKind::Valley);
    }

    #[test]
    fn zip_add_and_scale() {
        let a = PowerTrace::from_watts(vec![1.0, 2.0], Seconds::new(1.0));
        let b = PowerTrace::from_watts(vec![10.0, 20.0, 30.0], Seconds::new(1.0));
        let sum = a.zip_add(&b);
        assert_eq!(sum.len(), 2);
        assert_eq!(sum.samples()[1].get(), 22.0);
        assert_eq!(a.scaled(3.0).samples()[1].get(), 6.0);
    }

    #[test]
    fn empty_trace_stats_are_zero() {
        let t = PowerTrace::new(Vec::new(), Seconds::new(1.0));
        assert!(t.is_empty());
        assert_eq!(t.mean(), Watts::zero());
        assert_eq!(t.valley(), Watts::zero());
        assert_eq!(t.mppu(Watts::new(1.0)), 0.0);
        assert!(t.segments(Watts::new(1.0)).is_empty());
    }

    #[test]
    fn clones_share_samples_and_compare_by_value() {
        let t = trace();
        let clone = t.clone();
        assert!(Arc::ptr_eq(t.shared_samples(), clone.shared_samples()));
        let copy = PowerTrace::new(t.samples().to_vec(), t.dt());
        assert!(!Arc::ptr_eq(t.shared_samples(), copy.shared_samples()));
        assert_eq!(t, copy);
        assert_eq!(format!("{t:?}"), format!("{copy:?}"));
        assert!(format!("{t:?}").starts_with("PowerTrace { samples: [Watts("));
    }

    #[test]
    #[should_panic(expected = "tick interval")]
    fn zero_dt_panics() {
        let _ = PowerTrace::from_watts(vec![1.0], Seconds::zero());
    }
}
