//! Figures 13–14: capacity planning for the hybrid buffers.
//!
//! Figure 13 holds total capacity constant and sweeps the SC:battery
//! ratio; Figure 14 holds the ratio at 3:7 and grows the installed
//! capacity by relaxing the depth-of-discharge limit (40 % → 80 %).
//! Both run the `HEB-D` scheme on a mixed rack and report all four
//! metrics, which the bench harness normalises to the 3:7 / smallest-
//! capacity baselines as the paper's figures do.

use crate::config::SimConfig;
use crate::metrics::SimReport;
use crate::policy::PolicyKind;
use crate::scenario::{Scenario, ScenarioRunner};
use crate::sim::PowerMode;
use heb_units::{Joules, Ratio};
use heb_workload::PowerTrace;

/// One configuration's outcome in a capacity sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityPoint {
    /// Human-readable configuration label ("3:7", "DoD 60 %", …).
    pub label: String,
    /// SC share of total capacity.
    pub sc_fraction: Ratio,
    /// Total usable capacity simulated.
    pub total_capacity: Joules,
    /// The peak-shaving run's report.
    pub report: SimReport,
    /// The solar run's report (REU).
    pub solar: SimReport,
}

impl CapacityPoint {
    /// Convenience: the four paper metrics as
    /// `(efficiency, downtime_s, battery_life_years, reu)`.
    #[must_use]
    pub fn metrics(&self) -> (f64, f64, f64, f64) {
        (
            self.report.energy_efficiency().get(),
            self.report.server_downtime.get(),
            self.report
                .battery_lifetime_years()
                .unwrap_or(f64::INFINITY),
            self.solar.reu().get(),
        )
    }
}

/// The two scenarios of one capacity point: the peak-shaving run and
/// the solar (REU) run on `solar`, the sweep's shared sunrise day.
fn point_scenarios(
    label: &str,
    config: SimConfig,
    hours: f64,
    solar_hours: f64,
    solar: &PowerTrace,
    seed: u64,
) -> [Scenario; 2] {
    [
        Scenario::new(
            format!("{label}/shave"),
            config.clone(),
            &super::MIXED_RACK,
            hours,
            seed,
        ),
        Scenario::new(
            format!("{label}/solar"),
            config,
            &super::MIXED_RACK,
            solar_hours,
            seed,
        )
        .with_mode(PowerMode::Solar(solar.clone()))
        .with_initial_soc(Ratio::new_clamped(0.15)),
    ]
}

/// The sweep skeleton both figures share: per-point labels plus the
/// configured `(sc_fraction, total_capacity, config)` triples.
type PointSpec = (String, Ratio, Joules, SimConfig);

fn ratio_point_specs(base: &SimConfig, sc_tenths: &[u32]) -> Vec<PointSpec> {
    sc_tenths
        .iter()
        .map(|&tenths| {
            let sc_fraction = Ratio::new_clamped(f64::from(tenths) / 10.0);
            let config = base
                .clone()
                .with_policy(PolicyKind::HebD)
                .with_sc_fraction(sc_fraction);
            (
                format!("{tenths}:{}", 10 - tenths),
                sc_fraction,
                base.total_capacity,
                config,
            )
        })
        .collect()
}

fn growth_point_specs(base: &SimConfig, dod_percents: &[u32]) -> Vec<PointSpec> {
    // The base config's capacity is defined at its own DoD; hold the
    // *physical* size fixed and scale usable energy with DoD.
    let physical = base.total_capacity.get() / base.dod_limit.get();
    dod_percents
        .iter()
        .map(|&percent| {
            let dod = Ratio::new_clamped(f64::from(percent) / 100.0);
            let usable = Joules::new(physical * dod.get());
            let mut config = base
                .clone()
                .with_policy(PolicyKind::HebD)
                .with_total_capacity(usable);
            config.dod_limit = dod;
            (format!("DoD {percent} %"), base.sc_fraction, usable, config)
        })
        .collect()
}

fn specs_to_scenarios(
    prefix: &str,
    specs: &[PointSpec],
    hours: f64,
    solar_hours: f64,
    seed: u64,
) -> Vec<Scenario> {
    // Every point's solar run sees the same seeded day, shared with
    // every other builder's solar runs at this seed.
    let solar = super::sunrise_solar(seed);
    specs
        .iter()
        .flat_map(|(label, _, _, config)| {
            point_scenarios(
                &format!("{prefix}/{label}"),
                config.clone(),
                hours,
                solar_hours,
                &solar,
                seed,
            )
        })
        .collect()
}

fn assemble_points(specs: Vec<PointSpec>, reports: Vec<SimReport>) -> Vec<CapacityPoint> {
    assert_eq!(
        reports.len(),
        specs.len() * 2,
        "capacity batches carry two reports per point"
    );
    let mut reports = reports.into_iter();
    specs
        .into_iter()
        .map(|(label, sc_fraction, total_capacity, _)| {
            let report = super::take_report(&mut reports, "shave report");
            let solar = super::take_report(&mut reports, "solar report");
            CapacityPoint {
                label,
                sc_fraction,
                total_capacity,
                report,
                solar,
            }
        })
        .collect()
}

/// Figure 13 as a scenario batch: two scenarios (peak-shave + solar)
/// per ratio, in `sc_tenths` order. Assemble the runner's reports with
/// [`capacity_ratio_sweep`] or by zipping pairs yourself.
#[must_use]
pub fn capacity_ratio_scenarios(
    base: &SimConfig,
    sc_tenths: &[u32],
    hours: f64,
    solar_hours: f64,
    seed: u64,
) -> Vec<Scenario> {
    specs_to_scenarios(
        "capacity/ratio",
        &ratio_point_specs(base, sc_tenths),
        hours,
        solar_hours,
        seed,
    )
}

/// Figure 14 as a scenario batch: two scenarios per DoD point, in
/// `dod_percents` order.
#[must_use]
pub fn capacity_growth_scenarios(
    base: &SimConfig,
    dod_percents: &[u32],
    hours: f64,
    solar_hours: f64,
    seed: u64,
) -> Vec<Scenario> {
    specs_to_scenarios(
        "capacity/growth",
        &growth_point_specs(base, dod_percents),
        hours,
        solar_hours,
        seed,
    )
}

/// Figure 13: constant total capacity, SC:battery ratio sweep. The
/// ratios are given as SC tenths (`&[1, 2, 3, 4, 5]` = 1:9 … 5:5).
///
/// `runner` executes the batch; every runner returns the same bits.
#[must_use]
pub fn capacity_ratio_sweep(
    runner: &dyn ScenarioRunner,
    base: &SimConfig,
    sc_tenths: &[u32],
    hours: f64,
    solar_hours: f64,
    seed: u64,
) -> Vec<CapacityPoint> {
    let specs = ratio_point_specs(base, sc_tenths);
    let batch = specs_to_scenarios("capacity/ratio", &specs, hours, solar_hours, seed);
    assemble_points(specs, runner.run_batch(&batch))
}

/// Figure 14: constant 3:7 ratio, capacity grown by relaxing DoD. The
/// same physical devices are managed at each DoD in `dod_percents`
/// (e.g. `&[40, 50, 60, 70, 80]`), so usable capacity scales with DoD.
///
/// `runner` executes the batch; every runner returns the same bits.
#[must_use]
pub fn capacity_growth_sweep(
    runner: &dyn ScenarioRunner,
    base: &SimConfig,
    dod_percents: &[u32],
    hours: f64,
    solar_hours: f64,
    seed: u64,
) -> Vec<CapacityPoint> {
    let specs = growth_point_specs(base, dod_percents);
    let batch = specs_to_scenarios("capacity/growth", &specs, hours, solar_hours, seed);
    assemble_points(specs, runner.run_batch(&batch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SerialRunner;
    use heb_units::Watts;

    #[test]
    fn ratio_sweep_produces_labels_and_fractions() {
        let base = SimConfig::prototype().with_budget(Watts::new(250.0));
        let points = capacity_ratio_sweep(&SerialRunner, &base, &[1, 3, 5], 0.2, 1.0, 5);
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].label, "1:9");
        assert_eq!(points[2].label, "5:5");
        assert!((points[1].sc_fraction.get() - 0.3).abs() < 1e-12);
        for p in &points {
            let (eff, _, life, reu) = p.metrics();
            assert!(eff > 0.0 && eff <= 1.0);
            assert!(life > 0.0);
            assert!(reu > 0.0 && reu <= 1.0);
        }
    }

    #[test]
    fn more_sc_extends_battery_life() {
        // The paper's strongest Figure 13 trend: a bigger SC share means
        // less battery wear per simulated hour (short runs compare wear,
        // which the calendar-life cap cannot saturate).
        // A tight budget keeps a standing mismatch so the battery pool
        // is guaranteed to see real discharge in a short run.
        let base = SimConfig::prototype().with_budget(Watts::new(225.0));
        let points = capacity_ratio_sweep(&SerialRunner, &base, &[1, 5], 1.0, 1.0, 7);
        let wear = |p: &CapacityPoint| p.report.battery_life_used.get();
        assert!(
            wear(&points[0]) > 0.0,
            "the 1:9 battery must see some use for the comparison to mean anything"
        );
        assert!(
            wear(&points[1]) < wear(&points[0]),
            "5:5 wear {} should undercut 1:9 wear {}",
            wear(&points[1]),
            wear(&points[0])
        );
    }

    #[test]
    fn growth_sweep_scales_usable_capacity() {
        let base = SimConfig::prototype();
        let points = capacity_growth_sweep(&SerialRunner, &base, &[40, 80], 0.2, 1.0, 5);
        assert_eq!(points.len(), 2);
        assert!(
            (points[1].total_capacity.get() / points[0].total_capacity.get() - 2.0).abs() < 1e-9,
            "80 % DoD should double 40 % DoD usable energy"
        );
        assert_eq!(points[0].label, "DoD 40 %");
    }
}
