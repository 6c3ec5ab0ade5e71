//! Predictor comparison: the motivation behind HEB-F vs HEB-S/D.
//!
//! "The purpose of comparing HEB-D with HEB-F and HEB-S is to
//! understand the impact of reduced prediction error rate on
//! performance improvement" (Section 7). This experiment quantifies
//! that error directly: slot-level peak/valley series are extracted
//! from each workload's demand trace and every predictor forecasts them
//! one slot ahead.

use crate::config::SimConfig;
use heb_forecast::{mae, mape, HoltWinters, LastValue, MovingAverage, Predictor, SeasonalNaive};
use heb_units::Watts;
use heb_workload::{Archetype, UtilizationLanes};

/// A scoring closure: runs a predictor over a series and returns the
/// aligned `(forecasts, actuals)` pair.
type Scorer = Box<dyn Fn(&[f64]) -> (Vec<f64>, Vec<f64>)>;

/// One predictor's one-step-ahead accuracy on the slot-peak series.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionPoint {
    /// Predictor name.
    pub predictor: &'static str,
    /// Mean absolute percentage error over all workloads' peak series.
    pub peak_mape: f64,
    /// Mean absolute error in watts over the peak series.
    pub peak_mae: Watts,
}

/// Builds the slot-level peak series for a workload: the per-slot
/// maximum of the rack's demand over `slots` control slots.
fn slot_peaks(config: &SimConfig, workload: Archetype, slots: usize, seed: u64) -> Vec<f64> {
    let ticks_per_slot = config.ticks_per_slot() as usize;
    let mut lanes = UtilizationLanes::round_robin(&[workload], config.servers, seed);
    let mut drive = Vec::with_capacity(lanes.len());
    let per_server_peak = 70.0;
    let per_server_idle = 30.0;
    (0..slots)
        .map(|_| {
            let mut peak = 0.0_f64;
            for _ in 0..ticks_per_slot {
                lanes.next_into(&mut drive);
                let demand: f64 = drive
                    .iter()
                    .map(|u| per_server_idle + (per_server_peak - per_server_idle) * u.get())
                    .sum();
                peak = peak.max(demand);
            }
            peak
        })
        .collect()
}

/// Scores a predictor one-step-ahead on a series, returning
/// `(forecasts, actuals)` aligned.
fn score<P: Predictor>(mut p: P, series: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut forecasts = Vec::with_capacity(series.len());
    let mut actuals = Vec::with_capacity(series.len());
    for &v in series {
        if p.observations() > 0 {
            forecasts.push(p.forecast(1));
            actuals.push(v);
        }
        p.observe(v);
    }
    (forecasts, actuals)
}

/// Runs the predictor comparison over every workload's slot-peak
/// series.
#[must_use]
pub fn predictor_comparison(config: &SimConfig, slots: usize, seed: u64) -> Vec<PredictionPoint> {
    let series: Vec<Vec<f64>> = Archetype::ALL
        .iter()
        .map(|&w| slot_peaks(config, w, slots, seed))
        .collect();

    let mut out = Vec::new();
    let period = config.forecast_period;
    let runners: Vec<(&'static str, Scorer)> = vec![
        (
            "last-value (HEB-F)",
            Box::new(|s: &[f64]| score(LastValue::new(), s)),
        ),
        (
            "moving-average(6)",
            Box::new(|s: &[f64]| score(MovingAverage::new(6), s)),
        ),
        (
            "seasonal-naive",
            Box::new(move |s: &[f64]| score(SeasonalNaive::new(period), s)),
        ),
        (
            "holt-winters (HEB-D)",
            Box::new(move |s: &[f64]| score(HoltWinters::for_power_series(period), s)),
        ),
    ];
    for (name, runner) in runners {
        let mut all_f = Vec::new();
        let mut all_a = Vec::new();
        for s in &series {
            let (f, a) = runner(s);
            all_f.extend(f);
            all_a.extend(a);
        }
        out.push(PredictionPoint {
            predictor: name,
            peak_mape: mape(&all_f, &all_a),
            peak_mae: Watts::new(mae(&all_f, &all_a)),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> Vec<PredictionPoint> {
        predictor_comparison(&SimConfig::prototype(), 48, 11)
    }

    #[test]
    fn covers_all_predictors() {
        let points = run();
        assert_eq!(points.len(), 4);
        for p in &points {
            assert!(p.peak_mape.is_finite() && p.peak_mape >= 0.0);
            assert!(p.peak_mae.get() >= 0.0);
        }
    }

    #[test]
    fn errors_are_meaningfully_bounded() {
        // Slot peaks sit in the 200-420 W band; any sane predictor's
        // MAE must be far below the band itself.
        for p in run() {
            assert!(
                p.peak_mae.get() < 120.0,
                "{} MAE {} unreasonable",
                p.predictor,
                p.peak_mae
            );
        }
    }

    #[test]
    fn smoothing_beats_raw_parroting() {
        // The structured predictors should not be (much) worse than the
        // naive last-value baseline — the premise of HEB-D over HEB-F.
        let points = run();
        let get = |name: &str| {
            points
                .iter()
                .find(|p| p.predictor.starts_with(name))
                .unwrap()
                .peak_mape
        };
        let naive = get("last-value");
        let hw = get("holt-winters");
        assert!(
            hw <= naive * 1.1,
            "Holt-Winters MAPE {hw} should not trail naive {naive}"
        );
    }
}
