//! Extension experiment: fault-intensity sweep (the chaos harness).
//!
//! The paper's evaluation assumes healthy infrastructure; this
//! experiment asks how each power-management scheme degrades when it is
//! not. A seeded stochastic [`FaultSchedule`] is generated per intensity
//! level — the same schedule for every policy, so schemes face identical
//! storms — and each scheme's resilience metrics (ride-through, unserved
//! energy during faults, recovery latency, downtime) are collected
//! alongside the usual efficiency headline.

use crate::config::SimConfig;
use crate::faults::{FaultLedger, FaultProfile, FaultSchedule};
use crate::metrics::SimReport;
use crate::policy::PolicyKind;
use crate::scenario::{Scenario, ScenarioRunner};
use heb_units::{Ratio, Seconds};
use heb_workload::Archetype;

/// One (policy, intensity) cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweepPoint {
    /// The scheme under test.
    pub policy: PolicyKind,
    /// Fault-rate multiplier applied to the nominal profile.
    pub intensity: f64,
    /// Events the schedule injected at this intensity.
    pub events: usize,
    /// Energy efficiency achieved under the storm.
    pub efficiency: Ratio,
    /// Aggregated server downtime.
    pub downtime: Seconds,
    /// The full fault audit trail.
    pub ledger: FaultLedger,
    /// The full report (for deeper analysis).
    pub report: SimReport,
}

/// The storm every policy faces at one intensity level.
fn storm_for(base: &SimConfig, hours: f64, intensity: f64, seed: u64) -> FaultSchedule {
    let profile =
        FaultProfile::nominal()
            .scaled(intensity)
            .sized(base.servers, base.battery_strings, 1);
    FaultSchedule::stochastic(seed, Seconds::from_hours(hours), &profile)
}

/// The fault sweep as a scenario batch: intensities in order, and for
/// each intensity one scenario per scheme in [`PolicyKind::ALL`] order,
/// all riding the same seeded storm.
#[must_use]
pub fn fault_sweep_scenarios(
    base: &SimConfig,
    hours: f64,
    intensities: &[f64],
    seed: u64,
) -> Vec<Scenario> {
    let mix = [Archetype::WebSearch, Archetype::Terasort];
    let mut batch = Vec::with_capacity(intensities.len() * PolicyKind::ALL.len());
    for &intensity in intensities {
        let schedule = storm_for(base, hours, intensity, seed);
        for &policy in &PolicyKind::ALL {
            batch.push(
                Scenario::new(
                    format!("faults/x{intensity}/{}", policy.name()),
                    base.clone().with_policy(policy),
                    &mix,
                    hours,
                    seed,
                )
                .with_faults(schedule.clone()),
            );
        }
    }
    batch
}

/// Sweeps fault intensity × policy: for each intensity, a stochastic
/// schedule is drawn once (seeded, shared across policies) from
/// [`FaultProfile::nominal`] scaled by that intensity and sized to the
/// config's plant, then every scheme rides the same storm for `hours`.
///
/// Intensity 0 is the healthy baseline; 1 is the nominal pessimistic
/// profile; higher values compress MTBFs proportionally.
///
/// `runner` executes the batch; every runner returns the same bits.
#[must_use]
pub fn fault_intensity_sweep(
    runner: &dyn ScenarioRunner,
    base: &SimConfig,
    hours: f64,
    intensities: &[f64],
    seed: u64,
) -> Vec<FaultSweepPoint> {
    let batch = fault_sweep_scenarios(base, hours, intensities, seed);
    let mut reports = runner.run_batch(&batch).into_iter();
    let mut points = Vec::with_capacity(intensities.len() * PolicyKind::ALL.len());
    for &intensity in intensities {
        let events = storm_for(base, hours, intensity, seed).len();
        for &policy in &PolicyKind::ALL {
            let report = super::take_report(&mut reports, "sweep-cell report");
            points.push(FaultSweepPoint {
                policy,
                intensity,
                events,
                efficiency: report.energy_efficiency(),
                downtime: report.server_downtime,
                ledger: report.faults.clone(),
                report,
            });
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SerialRunner;

    fn sweep(intensities: &[f64]) -> Vec<FaultSweepPoint> {
        let base = SimConfig::prototype().with_battery_strings(3);
        fault_intensity_sweep(&SerialRunner, &base, 1.0, intensities, 17)
    }

    #[test]
    fn covers_all_policies_per_intensity() {
        let points = sweep(&[0.0, 2.0]);
        assert_eq!(points.len(), 12);
        for p in &points {
            assert!(p.efficiency.get().is_finite());
            assert!(p.downtime.get().is_finite());
        }
    }

    #[test]
    fn zero_intensity_is_the_healthy_baseline() {
        let points = sweep(&[0.0]);
        for p in points {
            assert_eq!(p.events, 0);
            assert!(!p.ledger.any(), "no faults at intensity 0");
        }
    }

    #[test]
    fn storms_inject_and_are_shared_across_policies() {
        let points = sweep(&[4.0]);
        let events = points[0].events;
        assert!(events > 0, "4x nominal over an hour must inject faults");
        for p in &points {
            assert_eq!(p.events, events, "every policy must face the same schedule");
            assert!(p.ledger.events_applied > 0);
        }
    }
}
