//! A rack of servers addressed as one load.
//!
//! Since the fleet-scale rework the cluster stores its servers as
//! struct-of-arrays ([`crate::soa::ServerArrays`]) with a hierarchical
//! sum cache ([`crate::agg::AggTree`]) on top; the historical
//! object-per-server surface survives as thin views ([`Cluster::server`]
//! materialises one [`Server`]) and targeted per-index mutators. All
//! per-tick aggregate queries are O(dirty racks), not O(servers).
//!
//! The workload drive ([`Cluster::set_utilizations_with`] and its
//! slice and broadcast forms) is one fused pass: per rack, in index
//! order, it writes each utilization and its cached draw and adds the
//! draw into the rack's demand partial sum, so the demand total that
//! follows folds only the per-rack sums.
//!
//! A [`Cluster::generation`] counter moves on every mutation that can
//! change a utilization, a draw or a power state. A caller that
//! records the generation after a drive or a meter sample knows, while
//! it is unchanged, that repeating the pass would rewrite the values
//! already there.

use crate::agg::{AggTree, RACK_FANOUT};
use crate::server::{FrequencyLevel, PowerState, Server};
use crate::soa::ServerArrays;
use heb_units::{Joules, Ratio, Seconds, Watts};

/// The server rack: the unit of load the HEB controller manages.
///
/// # Examples
///
/// ```
/// use heb_powersys::Cluster;
/// use heb_units::Ratio;
///
/// let mut cluster = Cluster::prototype(6);
/// cluster.set_all_utilization(Ratio::ONE);
/// assert_eq!(cluster.total_demand().get(), 6.0 * 70.0);
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    fleet: ServerArrays,
    agg: AggTree,
    generation: u64,
}

/// Equality is over simulated state only; the aggregation tree is an
/// acceleration cache whose dirtiness depends on query history, and
/// the generation counts mutation calls, not state.
impl PartialEq for Cluster {
    fn eq(&self, other: &Self) -> bool {
        self.fleet == other.fleet
    }
}

impl Cluster {
    /// Creates a cluster from pre-built servers (ids are positional).
    #[must_use]
    pub fn new(servers: Vec<Server>) -> Self {
        Self::from_fleet(ServerArrays::from_servers(&servers))
    }

    /// A cluster of `n` prototype-spec servers with ids `0..n`.
    #[must_use]
    pub fn prototype(n: usize) -> Self {
        Self::from_fleet(ServerArrays::prototype(n))
    }

    /// Prototype-spec servers with ids `0..frequency.len()`, server `i`
    /// at governor level `frequency[i]`: the same cluster as
    /// [`Cluster::prototype`] followed by a [`Cluster::set_frequency`]
    /// per server, built in one pass.
    #[must_use]
    pub fn prototype_with_frequencies(frequency: Vec<FrequencyLevel>) -> Self {
        Self::from_fleet(ServerArrays::prototype_with_frequencies(frequency))
    }

    fn from_fleet(fleet: ServerArrays) -> Self {
        let agg = AggTree::new(fleet.len());
        Self {
            fleet,
            agg,
            generation: 0,
        }
    }

    /// The mutation counter: it moves on every call that can change a
    /// utilization, a draw or a power state (the workload drive,
    /// [`Cluster::set_utilization`], [`Cluster::set_frequency`],
    /// [`Cluster::power_off`], [`Cluster::power_on`], and so shedding
    /// and restoring), and on nothing else. Ticks and stamps leave it.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of servers (running or not).
    #[must_use]
    pub fn len(&self) -> usize {
        self.fleet.len()
    }

    /// Whether the cluster has no servers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fleet.is_empty()
    }

    /// The underlying struct-of-arrays state (read-only).
    #[must_use]
    pub fn fleet(&self) -> &ServerArrays {
        &self.fleet
    }

    /// Materialises server `idx` as an owned [`Server`] view — the
    /// object-layout window onto the parallel arrays.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn server(&self, idx: usize) -> Server {
        self.fleet.materialize(idx)
    }

    /// Number of running servers (O(1): maintained incrementally).
    #[must_use]
    pub fn running_count(&self) -> usize {
        self.fleet.running_count()
    }

    /// Whether server `idx` is running.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn is_running(&self, idx: usize) -> bool {
        self.fleet.state(idx) == PowerState::On
    }

    /// Instantaneous draw of server `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn power_draw(&self, idx: usize) -> Watts {
        self.fleet.power_draw(idx)
    }

    /// Per-server draws in index order (the metering sweep).
    pub fn power_draws(&self) -> impl Iterator<Item = Watts> + '_ {
        self.fleet.draws().iter().copied()
    }

    /// Sets every server's utilization for the next tick.
    pub fn set_all_utilization(&mut self, utilization: Ratio) {
        self.set_utilizations_with(std::iter::repeat(utilization));
    }

    /// Sets per-server utilizations; extra values are ignored, missing
    /// values leave the server unchanged.
    pub fn set_utilizations(&mut self, utilizations: &[Ratio]) {
        self.set_utilizations_with(utilizations.iter().copied());
    }

    /// Sets utilizations from a stream, applied in index order — the
    /// per-tick workload drive. One fused pass per rack writes each
    /// utilization and its draw and rebuilds the rack's demand partial
    /// sum; extra values are ignored, and servers past the stream's end
    /// keep their utilization.
    pub fn set_utilizations_with(&mut self, utilizations: impl IntoIterator<Item = Ratio>) {
        self.generation += 1;
        let mut utilizations = utilizations.into_iter();
        let n = self.fleet.len();
        for rack in 0..self.agg.racks() {
            let start = rack * RACK_FANOUT;
            let sum = self
                .fleet
                .drive_range(start..(start + RACK_FANOUT).min(n), &mut utilizations);
            self.agg.set_rack_demand(rack, sum);
        }
    }

    /// Sets server `idx`'s utilization.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set_utilization(&mut self, idx: usize, utilization: Ratio) {
        self.generation += 1;
        if self.fleet.set_utilization(idx, utilization) {
            self.agg.touch_demand(idx);
        }
    }

    /// Sets server `idx`'s frequency-governor level.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set_frequency(&mut self, idx: usize, frequency: FrequencyLevel) {
        self.generation += 1;
        if self.fleet.set_frequency(idx, frequency) {
            self.agg.touch_demand(idx);
        }
    }

    /// Splits the rack into a low-frequency group (first `low_count`
    /// servers) and a high-frequency group — the paper's method for
    /// constructing small-peak and large-peak demand shapes.
    pub fn split_frequency_groups(&mut self, low_count: usize) {
        for idx in 0..self.fleet.len() {
            self.set_frequency(
                idx,
                if idx < low_count {
                    FrequencyLevel::Low
                } else {
                    FrequencyLevel::High
                },
            );
        }
    }

    /// Aggregate instantaneous demand of all running servers, served
    /// from the hierarchical sum cache (O(dirty racks), bit-identical
    /// to the flat sum for single-rack fleets — see [`crate::agg`]).
    #[must_use]
    pub fn total_demand(&mut self) -> Watts {
        self.agg.total_demand(&self.fleet)
    }

    /// The [`Cluster::total_demand`] each of `ticks` ticks would report
    /// if the cluster were driven with
    /// [`Cluster::set_utilizations_with`] once per tick, bit for bit,
    /// appended to `totals`; the cluster itself does not change.
    /// `samples` holds every server's utilizations lane by lane:
    /// `samples[i * ticks + t]` is server `i`'s on tick `t`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` holds fewer than `len() * ticks` values.
    pub fn block_demand(&self, samples: &[Ratio], ticks: usize, totals: &mut Vec<Watts>) {
        AggTree::block_totals(&self.fleet, samples, ticks, totals);
    }

    /// Advances every server one tick, returning total energy consumed.
    pub fn tick(&mut self, now: Seconds, dt: Seconds) -> Joules {
        // Ticking restamps every running server's LRU clock but leaves
        // draws untouched (state, utilization, frequency unchanged).
        self.agg.touch_all_lru();
        self.fleet.tick_all(now, dt)
    }

    /// Whether every server is running with no pending restart
    /// surcharge. In this state a tick changes nothing but each
    /// server's last-active stamp, so the event core can fast-forward
    /// the rack across a quiet span and back-fill the stamps with
    /// [`Cluster::mark_all_active`].
    #[must_use]
    pub fn all_running_steady(&self) -> bool {
        self.fleet.all_running_steady()
    }

    /// Stamps every server as active at `now` without running a tick —
    /// the bulk form of the per-server stamp for quiet-span
    /// fast-forwarding, and for a tick of a rack that is
    /// [`Cluster::all_running_steady`]. O(racks): the stamp is held
    /// pending (see [`ServerArrays::mark_all_active`]).
    pub fn mark_all_active(&mut self, now: Seconds) {
        self.agg.touch_all_lru();
        self.fleet.mark_all_active(now);
    }

    /// Aggregate downtime across all servers (the paper's *server
    /// downtime* metric, Figure 12(b)).
    #[must_use]
    pub fn total_downtime(&self) -> Seconds {
        self.fleet.total_downtime()
    }

    /// Total off→on cycles across all servers.
    #[must_use]
    pub fn total_restarts(&self) -> u64 {
        self.fleet.total_restarts()
    }

    /// Boot energy charged across all restarts (the report's
    /// restart-waste metric), summed in index order.
    #[must_use]
    pub fn total_restart_waste(&self) -> Joules {
        self.fleet.total_restart_waste()
    }

    /// Aggregate prospective demand if every server ran (the restore
    /// check's headroom quantity), summed flat in index order.
    #[must_use]
    pub fn prospective_total(&self) -> Watts {
        self.fleet.prospective_total()
    }

    /// The id of the least-recently-used *running* server — the victim
    /// the paper shuts down first when buffers cannot cover a peak.
    /// Served from the per-rack LRU cache.
    #[must_use]
    pub fn least_recently_used_running(&mut self) -> Option<usize> {
        self.agg.least_recently_used_running(&self.fleet)
    }

    /// Powers off the `count` least-recently-used running servers,
    /// returning how many actually shut down. Each victim invalidates
    /// only its own rack, so repeated shedding is O(racks + fanout) per
    /// victim instead of a full fleet scan.
    pub fn shed_least_recently_used_count(&mut self, count: usize) -> usize {
        let mut shed = 0;
        for _ in 0..count {
            match self.least_recently_used_running() {
                Some(id) => {
                    self.power_off(id);
                    shed += 1;
                }
                None => break,
            }
        }
        shed
    }

    /// Powers off the `count` least-recently-used running servers,
    /// returning the ids actually shut down (the allocating twin of
    /// [`Cluster::shed_least_recently_used_count`], kept for tests and
    /// post-hoc analyses that need the victim list).
    pub fn shed_least_recently_used(&mut self, count: usize) -> Vec<usize> {
        let mut shed = Vec::with_capacity(count);
        for _ in 0..count {
            match self.least_recently_used_running() {
                Some(id) => {
                    self.power_off(id);
                    shed.push(id);
                }
                None => break,
            }
        }
        shed
    }

    /// Shuts server `idx` down (power capping). Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn power_off(&mut self, idx: usize) {
        if self.fleet.power_off(idx) {
            self.generation += 1;
            self.agg.touch_demand(idx);
            self.agg.touch_lru(idx);
        }
    }

    /// Powers server `idx` back on, charging the restart energy to the
    /// next tick. Idempotent for already-running servers.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn power_on(&mut self, idx: usize) {
        if self.fleet.power_on(idx) {
            self.generation += 1;
            self.agg.touch_demand(idx);
            self.agg.touch_lru(idx);
        }
    }

    /// Powers on every off server.
    pub fn restore_all(&mut self) {
        for i in 0..self.fleet.len() {
            self.power_on(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_cluster_demand_band() {
        let mut c = Cluster::prototype(6);
        assert_eq!(c.len(), 6);
        assert_eq!(c.total_demand().get(), 180.0); // all idle
        c.set_all_utilization(Ratio::ONE);
        assert_eq!(c.total_demand().get(), 420.0); // all peak
    }

    /// A block's totals are what driving a copy tick by tick reports,
    /// across three racks, both governor levels, servers that are off
    /// and utilizations outside `[0, 1]`.
    #[test]
    fn block_demand_matches_a_tick_by_tick_drive() {
        let n = 2 * RACK_FANOUT + 3;
        let frequencies = (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    FrequencyLevel::Low
                } else {
                    FrequencyLevel::High
                }
            })
            .collect();
        let mut c = Cluster::prototype_with_frequencies(frequencies);
        for idx in [1, RACK_FANOUT, n - 1] {
            c.power_off(idx);
        }
        let ticks = 7;
        let samples: Vec<Ratio> = (0..n * ticks)
            .map(|k| Ratio::new_unclamped(((k * 37) % 101) as f64 / 90.0 - 0.05))
            .collect();
        let mut totals = Vec::new();
        c.block_demand(&samples, ticks, &mut totals);
        let mut driven = c.clone();
        for (t, total) in totals.iter().enumerate() {
            driven.set_utilizations_with(samples[t..].iter().step_by(ticks).copied());
            assert_eq!(
                total.get().to_bits(),
                driven.total_demand().get().to_bits(),
                "tick {t}"
            );
        }
    }

    #[test]
    fn frequency_split_reduces_group_power() {
        let mut c = Cluster::prototype(6);
        c.set_all_utilization(Ratio::ONE);
        c.split_frequency_groups(3);
        // 3 low (54 W) + 3 high (70 W)
        assert_eq!(c.total_demand().get(), 3.0 * 54.0 + 3.0 * 70.0);
    }

    #[test]
    fn lru_victim_selection() {
        let mut c = Cluster::prototype(3);
        let _ = c.tick(Seconds::new(1.0), Seconds::new(1.0));
        // Make server 1 the least recently used by powering it off
        // before a later tick refreshes the others.
        c.power_off(1);
        let _ = c.tick(Seconds::new(2.0), Seconds::new(1.0));
        c.power_on(1);
        // Servers 0 and 2 were active at t=2; server 1 at t=1.
        assert_eq!(c.least_recently_used_running(), Some(1));
    }

    #[test]
    fn shedding_and_restoring() {
        let mut c = Cluster::prototype(4);
        let _ = c.tick(Seconds::new(1.0), Seconds::new(1.0));
        let shed = c.shed_least_recently_used(2);
        assert_eq!(shed.len(), 2);
        assert_eq!(c.running_count(), 2);
        c.restore_all();
        assert_eq!(c.running_count(), 4);
        assert_eq!(c.total_restarts(), 2);
    }

    #[test]
    fn shedding_more_than_running_stops_early() {
        let mut c = Cluster::prototype(2);
        let shed = c.shed_least_recently_used(5);
        assert_eq!(shed.len(), 2);
        assert_eq!(c.running_count(), 0);
        assert_eq!(c.least_recently_used_running(), None);
    }

    #[test]
    fn shed_count_twin_matches_victim_list() {
        let mut a = Cluster::prototype(5);
        let mut b = Cluster::prototype(5);
        let _ = a.tick(Seconds::new(1.0), Seconds::new(1.0));
        let _ = b.tick(Seconds::new(1.0), Seconds::new(1.0));
        assert_eq!(a.shed_least_recently_used(3).len(), 3);
        assert_eq!(b.shed_least_recently_used_count(3), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn downtime_aggregates() {
        let mut c = Cluster::prototype(2);
        c.power_off(0);
        let _ = c.tick(Seconds::new(0.0), Seconds::new(5.0));
        assert_eq!(c.total_downtime(), Seconds::new(5.0));
    }

    #[test]
    fn set_utilizations_partial() {
        let mut c = Cluster::prototype(3);
        c.set_utilizations(&[Ratio::ONE]);
        assert_eq!(c.server(0).utilization(), Ratio::ONE);
        assert_eq!(c.server(1).utilization(), Ratio::ZERO);
    }

    #[test]
    fn materialized_view_round_trips() {
        let mut c = Cluster::prototype(2);
        c.set_utilization(1, Ratio::HALF);
        c.set_frequency(1, FrequencyLevel::Low);
        let servers: Vec<Server> = (0..c.len()).map(|i| c.server(i)).collect();
        let mut rebuilt = Cluster::new(servers);
        assert_eq!(rebuilt, c);
        assert_eq!(
            rebuilt.total_demand().get().to_bits(),
            c.total_demand().get().to_bits()
        );
    }

    #[test]
    fn restart_waste_and_prospective_totals() {
        let mut c = Cluster::prototype(3);
        c.power_off(0);
        c.power_off(1);
        c.power_on(0);
        c.power_on(1);
        let per = ServerParams::prototype().restart_energy;
        assert_eq!(c.total_restart_waste(), per * 2.0);
        assert_eq!(c.prospective_total(), Watts::new(90.0));
    }

    use crate::server::ServerParams;
}
