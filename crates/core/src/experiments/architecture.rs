//! Figures 7–8: the energy-storage architecture comparison.
//!
//! The same HEB-D policy, workloads and buffers are run under each of
//! the four delivery architectures — centralized double-converting UPS,
//! distributed DC batteries, and HEB at cluster and rack level — so
//! that the only variable is *where conversion losses sit*. This backs
//! the paper's Section 4 argument for the hybrid topology and the
//! cluster-vs-rack deployment trade-off of Figure 8.

use crate::config::SimConfig;
use crate::metrics::SimReport;
use crate::scenario::{Scenario, ScenarioRunner};
use heb_powersys::Topology;
use heb_units::Joules;

/// One architecture's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchitecturePoint {
    /// Architecture name ("centralized", "heb-rack", …).
    pub name: &'static str,
    /// The run's report.
    pub report: SimReport,
}

impl ArchitecturePoint {
    /// Total utility energy consumed — the centralized design's
    /// double-conversion tax shows up here.
    #[must_use]
    pub fn utility_energy(&self) -> Joules {
        self.report.utility_supplied
    }
}

/// The four delivery architectures, in figure order.
fn topologies() -> [Topology; 4] {
    [
        Topology::centralized(),
        Topology::distributed(),
        Topology::heb_cluster_level(),
        Topology::heb_rack_level(),
    ]
}

/// Figure 7 as a scenario batch: one scenario per architecture, in
/// figure order.
#[must_use]
pub fn architecture_scenarios(base: &SimConfig, hours: f64, seed: u64) -> Vec<Scenario> {
    topologies()
        .into_iter()
        .map(|topology| {
            Scenario::new(
                format!("architecture/{}", topology.name()),
                base.clone().with_topology(topology),
                &super::MIXED_RACK,
                hours,
                seed,
            )
        })
        .collect()
}

/// Runs the same configuration under all four architectures.
///
/// `runner` executes the batch; every runner returns the same bits.
#[must_use]
pub fn architecture_comparison(
    runner: &dyn ScenarioRunner,
    base: &SimConfig,
    hours: f64,
    seed: u64,
) -> Vec<ArchitecturePoint> {
    let batch = architecture_scenarios(base, hours, seed);
    let reports = runner.run_batch(&batch);
    assert_eq!(reports.len(), 4, "one report per architecture");
    topologies()
        .into_iter()
        .zip(reports)
        .map(|(topology, report)| ArchitecturePoint {
            name: topology.name(),
            report,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SerialRunner;
    use heb_units::Watts;

    fn run() -> Vec<ArchitecturePoint> {
        let base = SimConfig::prototype().with_budget(Watts::new(255.0));
        architecture_comparison(&SerialRunner, &base, 1.0, 7)
    }

    #[test]
    fn covers_all_four_architectures() {
        let points = run();
        let names: Vec<_> = points.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            vec!["centralized", "distributed", "heb-cluster", "heb-rack"]
        );
    }

    #[test]
    fn centralized_pays_the_double_conversion_tax() {
        // With a generous budget the rack is grid-served; the
        // centralized UPS then pulls 4–10 % more grid energy for the
        // same load, while an under-provisioned run shows the tax as a
        // collapse in scheme efficiency instead.
        let generous = SimConfig::prototype().with_budget(Watts::new(420.0));
        let points = architecture_comparison(&SerialRunner, &generous, 0.5, 7);
        let utility = |n: &str| {
            points
                .iter()
                .find(|p| p.name == n)
                .unwrap()
                .utility_energy()
                .get()
        };
        let tax = utility("centralized") / utility("heb-rack");
        assert!(
            (1.03..1.15).contains(&tax),
            "centralized should draw 4-10 % more grid energy, got {tax}"
        );

        let stressed = run();
        let eff = |n: &str| {
            stressed
                .iter()
                .find(|p| p.name == n)
                .unwrap()
                .report
                .energy_efficiency()
                .get()
        };
        assert!(
            eff("centralized") + 0.1 < eff("heb-rack"),
            "double conversion must depress efficiency: {} vs {}",
            eff("centralized"),
            eff("heb-rack")
        );
    }

    #[test]
    fn rack_level_heb_beats_cluster_level_on_conversion_loss() {
        let points = run();
        let loss = |n: &str| {
            points
                .iter()
                .find(|p| p.name == n)
                .unwrap()
                .report
                .conversion_loss
                .get()
        };
        assert!(
            loss("heb-rack") < loss("heb-cluster"),
            "rack {} vs cluster {}",
            loss("heb-rack"),
            loss("heb-cluster")
        );
    }

    #[test]
    fn conversion_loss_is_tracked_for_lossy_paths() {
        let points = run();
        for p in &points {
            if p.name == "centralized" {
                assert!(p.report.conversion_loss.get() > 0.0);
            }
        }
    }
}
