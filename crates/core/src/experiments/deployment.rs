//! Figure 8(b) vs 8(c): cluster-level vs rack-level HEB deployment.
//!
//! The paper's deployment trade-off: a *cluster-level* hControl shares
//! one buffer group across all racks (energy can follow the load, but
//! the long-haul DC/AC conversion taxes the buffer path), while
//! *rack-level* hControls deliver DC directly but "each group of energy
//! buffers is independent and cannot share their energy". This
//! experiment runs an imbalanced multi-rack datacenter both ways.

use crate::config::SimConfig;
use crate::metrics::SimReport;
use crate::scenario::{Scenario, ScenarioRunner};
use heb_powersys::Topology;
use heb_units::{Joules, Seconds};
use heb_workload::Archetype;

/// Outcome of the deployment comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentResult {
    /// The cluster-level run (one shared buffer group, inverter on the
    /// buffer path).
    pub cluster_level: SimReport,
    /// The rack-level runs, aggregated (independent buffer groups, DC
    /// delivery).
    pub rack_level: SimReport,
    /// Number of racks simulated.
    pub racks: usize,
}

impl DeploymentResult {
    /// Downtime ratio rack/cluster — above 1 means sharing won.
    #[must_use]
    pub fn sharing_benefit(&self) -> f64 {
        let cluster = self.cluster_level.server_downtime.get();
        let rack = self.rack_level.server_downtime.get();
        if cluster <= 0.0 {
            if rack <= 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            rack / cluster
        }
    }
}

/// Aggregates per-rack reports into one (summing energies and downtime,
/// keeping the worst battery wear).
fn aggregate(reports: Vec<SimReport>) -> SimReport {
    let mut total = SimReport::default();
    for r in reports {
        total.sim_time = Seconds::new(total.sim_time.get().max(r.sim_time.get()));
        total.buffer_delivered += r.buffer_delivered;
        total.buffer_drained += r.buffer_drained;
        total.discharge_loss += r.discharge_loss;
        total.charge_drawn += r.charge_drawn;
        total.charge_stored += r.charge_stored;
        total.charge_loss += r.charge_loss;
        total.conversion_loss += r.conversion_loss;
        total.utility_supplied += r.utility_supplied;
        total.server_downtime += r.server_downtime;
        total.server_restarts += r.server_restarts;
        total.unserved_energy += r.unserved_energy;
        total.restart_waste += r.restart_waste;
        total.shed_events += r.shed_events;
        total.shed_times.extend(r.shed_times.iter().copied());
        total.slots = total.slots.max(r.slots);
        total.pat_entries += r.pat_entries;
        total.relay_actuations += r.relay_actuations;
        total.battery_life_used = total.battery_life_used.max(r.battery_life_used);
        total.battery_lifetime = match (total.battery_lifetime, r.battery_lifetime) {
            (Some(a), Some(b)) => Some(Seconds::new(a.get().min(b.get()))),
            (a, b) => a.or(b),
        };
    }
    // Racks shed independently; restore onset order across the fleet.
    total.shed_times.sort_by(|a, b| a.get().total_cmp(&b.get()));
    total
}

/// The deployment comparison as a scenario batch: the cluster-level
/// run first, then one rack-level run per rack.
///
/// # Panics
///
/// Panics if `racks` is zero.
#[must_use]
pub fn deployment_scenarios(
    base: &SimConfig,
    racks: usize,
    hours: f64,
    seed: u64,
) -> Vec<Scenario> {
    assert!(racks > 0, "need at least one rack");
    let hot_workloads = [Archetype::Terasort, Archetype::Dfsioe, Archetype::Hivebench];
    let cool_workloads = [Archetype::PageRank, Archetype::MediaStreaming];

    // Cluster-level: one big simulation, shared buffers, inverter on
    // the buffer path. Rack 0's servers get the hot workloads via
    // round-robin ordering: interleave so the first rack-worth of
    // servers are hot.
    let mut cluster_config = base
        .clone()
        .with_topology(Topology::heb_cluster_level())
        .with_budget(base.budget * racks as f64)
        .with_total_capacity(Joules::new(base.total_capacity.get() * racks as f64));
    cluster_config.servers = base.servers * racks;
    let mut cluster_archetypes = Vec::with_capacity(cluster_config.servers);
    for idx in 0..cluster_config.servers {
        if idx < base.servers {
            cluster_archetypes.push(hot_workloads[idx % hot_workloads.len()]);
        } else {
            cluster_archetypes.push(cool_workloads[idx % cool_workloads.len()]);
        }
    }
    let mut batch = Vec::with_capacity(racks + 1);
    batch.push(Scenario::new(
        "deployment/cluster".to_string(),
        cluster_config,
        &cluster_archetypes,
        hours,
        seed,
    ));

    // Rack-level: independent simulations with per-rack buffers and
    // budgets; rack 0 is hot, the rest cool.
    for rack in 0..racks {
        let config = base.clone().with_topology(Topology::heb_rack_level());
        let archetypes: &[Archetype] = if rack == 0 {
            &hot_workloads
        } else {
            &cool_workloads
        };
        batch.push(Scenario::new(
            format!("deployment/rack{rack}"),
            config,
            archetypes,
            hours,
            seed.wrapping_add(rack as u64 * 31),
        ));
    }
    batch
}

/// Runs `racks` racks with *imbalanced* load (rack 0 runs the large-peak
/// group, the rest run light small-peak workloads) under both
/// deployment styles, with equal total buffer capacity and equal total
/// budget.
///
/// `runner` executes the batch; every runner returns the same bits.
///
/// # Panics
///
/// Panics if `racks` is zero.
#[must_use]
pub fn deployment_comparison(
    runner: &dyn ScenarioRunner,
    base: &SimConfig,
    racks: usize,
    hours: f64,
    seed: u64,
) -> DeploymentResult {
    let batch = deployment_scenarios(base, racks, hours, seed);
    let mut reports = runner.run_batch(&batch).into_iter();
    let cluster_level = super::take_report(&mut reports, "cluster report");
    let rack_level = aggregate(reports.collect());
    DeploymentResult {
        cluster_level,
        rack_level,
        racks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SerialRunner;
    use heb_units::Watts;

    fn run() -> DeploymentResult {
        // Per-rack budget sized so the *aggregate* datacenter balances
        // (cool racks have headroom) while the hot rack alone runs a
        // structural deficit: the regime where sharing matters.
        let base = SimConfig::prototype()
            .with_budget(Watts::new(250.0))
            .with_total_capacity(Joules::from_watt_hours(50.0));
        deployment_comparison(&SerialRunner, &base, 3, 4.0, 9)
    }

    #[test]
    fn totals_scale_with_racks() {
        let r = run();
        assert_eq!(r.racks, 3);
        assert_eq!(r.cluster_level.sim_time.as_hours(), 4.0);
        assert_eq!(r.rack_level.sim_time.as_hours(), 4.0);
    }

    #[test]
    fn sharing_across_racks_reduces_downtime() {
        // The cluster-level deployment lets cool racks' buffers (and
        // budget headroom) carry the hot rack.
        let r = run();
        assert!(
            r.rack_level.server_downtime.get() > 0.0,
            "the isolated hot rack should starve"
        );
        assert!(
            r.sharing_benefit() > 1.5,
            "sharing should cut downtime: cluster {} s vs rack {} s",
            r.cluster_level.server_downtime.get(),
            r.rack_level.server_downtime.get()
        );
    }

    #[test]
    fn rack_level_conversion_losses_are_lower() {
        // What rack-level does win: the DC buffer path.
        let r = run();
        let cluster_rate =
            r.cluster_level.conversion_loss.get() / r.cluster_level.buffer_drained.get().max(1.0);
        let rack_rate =
            r.rack_level.conversion_loss.get() / r.rack_level.buffer_drained.get().max(1.0);
        assert!(
            rack_rate < cluster_rate,
            "rack-level loss rate {rack_rate} should undercut cluster-level {cluster_rate}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one rack")]
    fn zero_racks_panics() {
        let _ = deployment_comparison(&SerialRunner, &SimConfig::prototype(), 0, 1.0, 1);
    }
}
