//! Counters, gauges, and histograms with a deterministic [`Snapshot`]
//! export, plus [`ScopedTimer`] for wall-clock phase timings.
//!
//! The registry is name-keyed and lazily populated; names are plain
//! strings so call sites can build `sim.scenario.<label>` style keys.
//! Export ordering is alphabetical (`BTreeMap`), so two snapshots of
//! identical state render identically.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn increment(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge {
    /// f64 stored by bit pattern; gauges are last-write-wins so a
    /// relaxed u64 swap is exactly the semantics we need.
    bits: AtomicU64,
    set: AtomicI64,
}

impl Gauge {
    /// Overwrites the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
        self.set.store(1, Ordering::Relaxed);
    }

    /// Current value (0.0 until first set).
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Running distribution summary: count, sum, min, max. Bucketless —
/// enough for phase timings and per-scenario latencies without a
/// fixed bucket layout baked into the public API.
#[derive(Debug, Default)]
pub struct Histogram {
    inner: Mutex<HistogramState>,
}

#[derive(Debug, Clone, Copy, Default)]
struct HistogramState {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let Ok(mut state) = self.inner.lock() else {
            return;
        };
        if state.count == 0 {
            state.min = value;
            state.max = value;
        } else {
            state.min = state.min.min(value);
            state.max = state.max.max(value);
        }
        state.count += 1;
        state.sum += value;
    }

    fn state(&self) -> HistogramState {
        self.inner.lock().map(|s| *s).unwrap_or_default()
    }
}

/// Immutable histogram summary inside a [`Snapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0.0 when empty).
    pub min: f64,
    /// Largest observation (0.0 when empty).
    pub max: f64,
}

impl HistogramSummary {
    /// Arithmetic mean, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A name-keyed registry of counters, gauges, and histograms.
///
/// Cheap to share (`Arc<Metrics>`); instrument lookup takes a short
/// registry lock, after which the returned handle updates lock-free
/// (counters/gauges) or under its own lock (histograms).
#[derive(Debug, Default)]
pub struct Metrics {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Metrics {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// The counter named `name`, created on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        instrument(&self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        instrument(&self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        instrument(&self.histograms, name)
    }

    /// Starts a wall-clock timer that records elapsed seconds into
    /// the histogram named `name` when dropped.
    #[must_use]
    pub fn timer(&self, name: &str) -> ScopedTimer {
        ScopedTimer {
            histogram: self.histogram(name),
            start: Instant::now(),
        }
    }

    /// A point-in-time copy of every instrument, alphabetically
    /// keyed.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .map(|c| c.iter().map(|(k, v)| (k.clone(), v.get())).collect())
            .unwrap_or_default();
        let gauges = self
            .gauges
            .lock()
            .map(|g| {
                g.iter()
                    .filter(|(_, v)| v.set.load(Ordering::Relaxed) != 0)
                    .map(|(k, v)| (k.clone(), v.get()))
                    .collect()
            })
            .unwrap_or_default();
        let histograms = self
            .histograms
            .lock()
            .map(|h| {
                h.iter()
                    .map(|(k, v)| {
                        let s = v.state();
                        (
                            k.clone(),
                            HistogramSummary {
                                count: s.count,
                                sum: s.sum,
                                min: s.min,
                                max: s.max,
                            },
                        )
                    })
                    .collect()
            })
            .unwrap_or_default();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// The instrument named `name` in `registry`, created on first use.
/// The name is copied only when the instrument is new, so a repeated
/// lookup allocates nothing. A poisoned registry hands out a detached
/// instrument rather than panicking.
fn instrument<T: Default>(registry: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let Ok(mut instruments) = registry.lock() else {
        return Arc::default();
    };
    if let Some(existing) = instruments.get(name) {
        return Arc::clone(existing);
    }
    let created = Arc::<T>::default();
    instruments.insert(name.to_string(), Arc::clone(&created));
    created
}

/// Records elapsed wall-clock seconds into a histogram on drop.
#[derive(Debug)]
pub struct ScopedTimer {
    histogram: Arc<Histogram>,
    start: Instant,
}

impl ScopedTimer {
    /// Seconds elapsed so far (the timer keeps running).
    #[must_use]
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        self.histogram.observe(self.start.elapsed().as_secs_f64());
    }
}

/// A point-in-time, deterministically ordered export of a
/// [`Metrics`] registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, HistogramSummary>,
}

impl Snapshot {
    /// Counter value by name, if it exists.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Gauge value by name, if it was ever set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram summary by name, if it exists.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        self.histograms.get(name).copied()
    }

    /// All counters, alphabetical.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All set gauges, alphabetical.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms, alphabetical.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, HistogramSummary)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Whether the snapshot holds no instruments at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the snapshot as a single JSON object with fixed field
    /// order (`counters`, `gauges`, `histograms`; keys alphabetical).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{k}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{}}}",
                h.count, h.sum, h.min, h.max
            );
        }
        out.push_str("}}");
        out
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in &self.counters {
            writeln!(f, "counter    {name:<40} {value}")?;
        }
        for (name, value) in &self.gauges {
            writeln!(f, "gauge      {name:<40} {value:.6}")?;
        }
        for (name, h) in &self.histograms {
            writeln!(
                f,
                "histogram  {name:<40} n={} mean={:.6} min={:.6} max={:.6}",
                h.count,
                h.mean(),
                h.min,
                h.max
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let metrics = Metrics::new();
        metrics.counter("a").add(3);
        metrics.counter("a").increment();
        metrics.counter("b").increment();
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("a"), Some(4));
        assert_eq!(snap.counter("b"), Some(1));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn gauges_are_last_write_wins_and_unset_until_written() {
        let metrics = Metrics::new();
        let gauge = metrics.gauge("soc");
        assert_eq!(metrics.snapshot().gauge("soc"), None);
        gauge.set(0.4);
        gauge.set(0.9);
        assert_eq!(metrics.snapshot().gauge("soc"), Some(0.9));
    }

    #[test]
    fn histograms_track_count_sum_min_max() {
        let metrics = Metrics::new();
        let hist = metrics.histogram("latency");
        hist.observe(2.0);
        hist.observe(0.5);
        hist.observe(1.5);
        let summary = metrics.snapshot().histogram("latency").unwrap();
        assert_eq!(summary.count, 3);
        assert!((summary.sum - 4.0).abs() < 1e-12);
        assert!((summary.min - 0.5).abs() < 1e-12);
        assert!((summary.max - 2.0).abs() < 1e-12);
        assert!((summary.mean() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn scoped_timer_records_on_drop() {
        let metrics = Metrics::new();
        {
            let timer = metrics.timer("phase.simulate");
            assert!(timer.elapsed_seconds() >= 0.0);
        }
        let summary = metrics.snapshot().histogram("phase.simulate").unwrap();
        assert_eq!(summary.count, 1);
        assert!(summary.sum >= 0.0);
    }

    #[test]
    fn snapshot_export_is_deterministic_and_ordered() {
        let metrics = Metrics::new();
        metrics.counter("z").increment();
        metrics.counter("a").increment();
        metrics.gauge("g").set(1.5);
        metrics.histogram("h").observe(2.0);
        let snap = metrics.snapshot();
        assert_eq!(snap.to_json(), snap.to_json());
        let names: Vec<&str> = snap.counters().map(|(k, _)| k).collect();
        assert_eq!(names, ["a", "z"]);
        assert_eq!(
            snap.to_json(),
            "{\"counters\":{\"a\":1,\"z\":1},\"gauges\":{\"g\":1.5},\
             \"histograms\":{\"h\":{\"count\":1,\"sum\":2,\"min\":2,\"max\":2}}}"
        );
        let rendered = snap.to_string();
        assert!(rendered.contains("counter    a"));
        assert!(rendered.contains("histogram  h"));
    }

    #[test]
    fn empty_snapshot_reports_empty() {
        assert!(Metrics::new().snapshot().is_empty());
    }
}
