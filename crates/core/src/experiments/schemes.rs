//! Figure 12: the six-scheme comparison on all four metrics.
//!
//! For each policy of Table 2, runs the eight workloads of Table 1
//! against an under-provisioned budget (energy efficiency, downtime,
//! battery lifetime) plus one solar-powered run (renewable-energy
//! utilisation), and aggregates per peak-shape group.

use crate::config::SimConfig;
use crate::metrics::SimReport;
use crate::policy::PolicyKind;
use crate::scenario::{Scenario, ScenarioRunner};
use crate::sim::PowerMode;
use heb_units::{Ratio, Seconds};
use heb_workload::{Archetype, PeakClass};

/// One workload's run under one scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadGroupResult {
    /// The workload.
    pub workload: Archetype,
    /// Its simulation report.
    pub report: SimReport,
}

/// One scheme's results across all workloads plus the solar run.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeResult {
    /// The power-management scheme.
    pub policy: PolicyKind,
    /// Per-workload peak-shaving runs.
    pub per_workload: Vec<WorkloadGroupResult>,
    /// The renewable-powered run (Figure 12(d)).
    pub solar: SimReport,
    /// Fleet size used (for downtime normalisation).
    pub servers: usize,
}

impl SchemeResult {
    /// Mean buffer energy efficiency over workloads, optionally
    /// restricted to one peak class.
    #[must_use]
    pub fn mean_efficiency(&self, class: Option<PeakClass>) -> Ratio {
        let eff: Vec<f64> = self
            .per_workload
            .iter()
            .filter(|w| class.is_none_or(|c| w.workload.peak_class() == c))
            .map(|w| w.report.energy_efficiency().get())
            .collect();
        if eff.is_empty() {
            Ratio::ONE
        } else {
            Ratio::new_clamped(eff.iter().sum::<f64>() / eff.len() as f64)
        }
    }

    /// Total server downtime across workloads, optionally restricted to
    /// one peak class.
    #[must_use]
    pub fn total_downtime(&self, class: Option<PeakClass>) -> Seconds {
        self.per_workload
            .iter()
            .filter(|w| class.is_none_or(|c| w.workload.peak_class() == c))
            .map(|w| w.report.server_downtime)
            .sum()
    }

    /// Mean projected battery lifetime in years across workloads;
    /// `None` when the scheme has no battery pool (never the case for
    /// Table 2 schemes).
    #[must_use]
    pub fn mean_battery_lifetime_years(&self) -> Option<f64> {
        let years: Vec<f64> = self
            .per_workload
            .iter()
            .filter_map(|w| w.report.battery_lifetime_years())
            .collect();
        if years.is_empty() {
            None
        } else {
            Some(years.iter().sum::<f64>() / years.len() as f64)
        }
    }

    /// Renewable-energy utilisation from the solar run.
    #[must_use]
    pub fn reu(&self) -> Ratio {
        self.solar.reu()
    }

    /// Battery-lifetime improvement over `baseline`, computed the way
    /// the paper's "4.7×" is: per workload, the ratio of the baseline's
    /// battery wear to this scheme's, averaged across workloads. A
    /// workload where this scheme's battery saw no wear at all counts
    /// as `cap` (the calendar-life bound keeps real lifetimes finite).
    #[must_use]
    pub fn lifetime_improvement_vs(&self, baseline: &SchemeResult, cap: f64) -> f64 {
        let ratios: Vec<f64> = self
            .per_workload
            .iter()
            .zip(&baseline.per_workload)
            .map(|(ours, base)| {
                let ours_wear = ours.report.battery_life_used.get();
                let base_wear = base.report.battery_life_used.get();
                if base_wear <= 0.0 {
                    1.0
                } else if ours_wear <= 0.0 {
                    cap
                } else {
                    (base_wear / ours_wear).min(cap)
                }
            })
            .collect();
        if ratios.is_empty() {
            1.0
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        }
    }
}

/// Scenarios per scheme in the Figure 12 batch: the eight workload
/// runs plus the solar run.
const SCENARIOS_PER_SCHEME: usize = Archetype::ALL.len() + 1;

/// The Figure 12 sweep as a scenario batch: for every scheme, eight
/// workload runs plus the solar REU run, in [`PolicyKind::ALL`] ×
/// [`Archetype::ALL`] order; [`scheme_comparison`] runs and assembles
/// it.
#[must_use]
pub fn scheme_comparison_scenarios(
    base: &SimConfig,
    hours_per_workload: f64,
    solar_hours: f64,
    seed: u64,
) -> Vec<Scenario> {
    let mut batch = Vec::with_capacity(PolicyKind::ALL.len() * SCENARIOS_PER_SCHEME);
    // Every scheme's solar run sees the same seeded day, shared with
    // every other builder's solar runs at this seed.
    let solar = super::sunrise_solar(seed);
    for &policy in &PolicyKind::ALL {
        for &workload in &Archetype::ALL {
            batch.push(Scenario::new(
                format!("schemes/{}/{}", policy.name(), workload.abbreviation()),
                base.clone().with_policy(policy),
                &[workload],
                hours_per_workload,
                seed,
            ));
        }
        // Mixed rack under solar power for the REU comparison. The
        // rack ran from the buffers overnight: start the solar day
        // with nearly drained pools, as the prototype would.
        batch.push(
            Scenario::new(
                format!("schemes/{}/solar", policy.name()),
                base.clone().with_policy(policy),
                &super::MIXED_RACK,
                solar_hours,
                seed,
            )
            .with_mode(PowerMode::Solar(solar.clone()))
            .with_initial_soc(heb_units::Ratio::new_clamped(0.15)),
        );
    }
    batch
}

/// The full Figure 12 sweep: every scheme × every workload for
/// `hours_per_workload`, plus a `solar_hours` renewable run on a mixed
/// rack.
///
/// `runner` executes the batch; every runner returns the same bits.
///
/// # Panics
///
/// Panics if `runner` does not return one report per scenario.
#[must_use]
pub fn scheme_comparison(
    runner: &dyn ScenarioRunner,
    base: &SimConfig,
    hours_per_workload: f64,
    solar_hours: f64,
    seed: u64,
) -> Vec<SchemeResult> {
    let batch = scheme_comparison_scenarios(base, hours_per_workload, solar_hours, seed);
    let reports = runner.run_batch(&batch);
    assert_eq!(
        reports.len(),
        batch.len(),
        "report count must match the scheme batch shape"
    );
    let mut reports = reports.into_iter();
    PolicyKind::ALL
        .iter()
        .map(|&policy| {
            let per_workload = Archetype::ALL
                .iter()
                .map(|&workload| WorkloadGroupResult {
                    workload,
                    report: super::take_report(&mut reports, "workload report"),
                })
                .collect();
            let solar = super::take_report(&mut reports, "solar report");
            SchemeResult {
                policy,
                per_workload,
                solar,
                servers: base.servers,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SerialRunner;
    use heb_units::Watts;

    /// A trimmed sweep used by unit tests (the full-length version runs
    /// in the bench harness and integration tests).
    fn quick() -> Vec<SchemeResult> {
        let base = SimConfig::prototype().with_budget(Watts::new(250.0));
        scheme_comparison(&SerialRunner, &base, 0.5, 2.0, 17)
    }

    #[test]
    fn covers_all_schemes_and_workloads() {
        let results = quick();
        assert_eq!(results.len(), 6);
        for r in &results {
            assert_eq!(r.per_workload.len(), 8);
            assert!(r.solar.renewable_generated.get() > 0.0);
        }
    }

    #[test]
    fn hybrid_beats_battery_only_on_efficiency() {
        let results = quick();
        let eff = |p: PolicyKind| {
            results
                .iter()
                .find(|r| r.policy == p)
                .unwrap()
                .mean_efficiency(None)
                .get()
        };
        assert!(
            eff(PolicyKind::ScFirst) > eff(PolicyKind::BaOnly),
            "SCFirst {} should beat BaOnly {}",
            eff(PolicyKind::ScFirst),
            eff(PolicyKind::BaOnly)
        );
        assert!(
            eff(PolicyKind::HebD) > eff(PolicyKind::BaOnly),
            "HEB-D {} should beat BaOnly {}",
            eff(PolicyKind::HebD),
            eff(PolicyKind::BaOnly)
        );
    }

    #[test]
    fn sc_charging_schemes_win_reu() {
        let results = quick();
        let reu = |p: PolicyKind| results.iter().find(|r| r.policy == p).unwrap().reu().get();
        // Every SC-first-charging scheme should beat BaOnly on REU.
        for p in [PolicyKind::ScFirst, PolicyKind::HebD] {
            assert!(
                reu(p) > reu(PolicyKind::BaOnly),
                "{p} REU {} vs BaOnly {}",
                reu(p),
                reu(PolicyKind::BaOnly)
            );
        }
    }

    #[test]
    fn sc_preferential_schemes_extend_battery_life() {
        let results = quick();
        let life = |p: PolicyKind| {
            results
                .iter()
                .find(|r| r.policy == p)
                .unwrap()
                .mean_battery_lifetime_years()
                .unwrap()
        };
        assert!(
            life(PolicyKind::HebD) > life(PolicyKind::BaOnly),
            "HEB-D {} y vs BaOnly {} y",
            life(PolicyKind::HebD),
            life(PolicyKind::BaOnly)
        );
    }

    #[test]
    fn class_filters_partition_workloads() {
        let results = quick();
        let r = &results[0];
        let small = r
            .per_workload
            .iter()
            .filter(|w| w.workload.peak_class() == PeakClass::Small)
            .count();
        assert_eq!(small, 5);
        let _ = r.mean_efficiency(Some(PeakClass::Small));
        let _ = r.total_downtime(Some(PeakClass::Large));
    }
}
