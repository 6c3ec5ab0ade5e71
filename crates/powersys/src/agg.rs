//! Hierarchical power aggregation: rack → datacenter cached sums.
//!
//! `Cluster::total_demand` and the LRU shed-victim search were flat
//! O(servers) scans, re-run several times per tick. At fleet scale that
//! dominates everything. [`AggTree`] groups servers into racks of
//! [`RACK_FANOUT`] and caches, per rack, the demand sum and the
//! least-recently-used running member; mutations invalidate only the
//! touched rack, so refreshing costs O(dirty racks · fanout + racks)
//! instead of O(servers) — and with a steady workload (the megafleet
//! regime) a tick dirties nothing at all and the cached total is
//! returned as-is.
//!
//! # Bit-identity
//!
//! The cached total is the fold, in rack order, of per-rack sums taken
//! in index order. Every historical scenario (and every golden trace)
//! runs well under [`RACK_FANOUT`] servers, so it occupies exactly one
//! rack and the tree total degenerates to the legacy flat left-to-right
//! sum: `0.0 + rack₀` where `rack₀ = 0.0 + s₀ + s₁ + …`, and adding a
//! non-negative f64 to `+0.0` is exact. Scenarios larger than one rack
//! have no legacy traces to match; their tree-order total is
//! deterministic and differs from the flat sum only by summation order.
//!
//! The LRU cache reproduces `Iterator::min_by` semantics exactly: ties
//! resolve to the *first* (lowest-index) minimal running server, both
//! within a rack and across racks.

use crate::soa::ServerArrays;
use heb_units::{Ratio, Watts};

/// Servers per rack node. Must stay above the largest legacy scenario
/// (prototype experiments top out at 6–18 servers) so historical runs
/// stay single-rack and therefore bit-identical to the flat sum.
pub const RACK_FANOUT: usize = 64;

/// Cached per-rack least-recently-used running member.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RackLru {
    /// Needs recomputation.
    Stale,
    /// No running member in this rack.
    NoneRunning,
    /// First running member with the minimal last-active stamp.
    Min {
        /// The minimal last-active value, in seconds.
        last_active: f64,
        /// Index of the first server achieving it.
        index: usize,
    },
}

/// The aggregation tree over a [`ServerArrays`] fleet.
///
/// The tree is an acceleration cache, not state: two trees over equal
/// fleets may differ in which entries are dirty, so `Cluster` equality
/// deliberately ignores it.
#[derive(Debug, Clone)]
pub struct AggTree {
    /// Cached demand sum per rack, valid where `!demand_dirty`.
    rack_demand: Vec<f64>,
    demand_dirty: Vec<bool>,
    /// Cached datacenter total; valid only when `total_valid`.
    total: f64,
    total_valid: bool,
    rack_lru: Vec<RackLru>,
}

impl AggTree {
    /// A tree over `n` servers with every cache cold.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let racks = n.div_ceil(RACK_FANOUT);
        Self {
            rack_demand: vec![0.0; racks],
            demand_dirty: vec![true; racks],
            total: 0.0,
            total_valid: false,
            rack_lru: vec![RackLru::Stale; racks],
        }
    }

    /// Number of rack nodes.
    #[must_use]
    pub fn racks(&self) -> usize {
        self.rack_demand.len()
    }

    /// Invalidates the demand sum covering server `i`.
    pub fn touch_demand(&mut self, i: usize) {
        self.demand_dirty[i / RACK_FANOUT] = true;
        self.total_valid = false;
    }

    /// Records `sum` as rack `rack`'s demand — the partial sum the
    /// cluster's fused drive pass builds while it writes the rack's
    /// utilizations and draws. The caller guarantees `sum` is the rack's
    /// draws added left to right from `0.0`, exactly what a refresh
    /// would compute.
    pub(crate) fn set_rack_demand(&mut self, rack: usize, sum: f64) {
        self.rack_demand[rack] = sum;
        self.demand_dirty[rack] = false;
        self.total_valid = false;
    }

    /// Invalidates the LRU cache covering server `i`.
    pub fn touch_lru(&mut self, i: usize) {
        self.rack_lru[i / RACK_FANOUT] = RackLru::Stale;
    }

    /// Invalidates every LRU cache (a cluster tick restamps every
    /// running server).
    pub fn touch_all_lru(&mut self) {
        self.rack_lru.fill(RackLru::Stale);
    }

    /// Invalidates everything (bulk state changes).
    pub fn touch_all(&mut self) {
        self.demand_dirty.fill(true);
        self.total_valid = false;
        self.rack_lru.fill(RackLru::Stale);
    }

    /// The datacenter demand total, refreshing only dirty racks.
    pub fn total_demand(&mut self, fleet: &ServerArrays) -> Watts {
        if !self.total_valid {
            let racks = fleet.draws().chunks(RACK_FANOUT);
            for ((draws, demand), dirty) in
                racks.zip(&mut self.rack_demand).zip(&mut self.demand_dirty)
            {
                if *dirty {
                    let mut sum = 0.0_f64;
                    for draw in draws {
                        sum += draw.get();
                    }
                    *demand = sum;
                    *dirty = false;
                }
            }
            self.total = self.rack_demand.iter().sum();
            self.total_valid = true;
        }
        Watts::new(self.total)
    }

    /// The totals [`AggTree::total_demand`] would give over a block of
    /// `ticks` drives of `fleet`, one tick at a time, from `samples`
    /// laid out lane by lane (`samples[i * ticks + t]` is server `i`'s
    /// utilization on tick `t`), appended to `totals`. Each tick adds in
    /// the tree's order: every rack left to right from `0.0`, then the
    /// racks by `Iterator::sum`. The sums run tick-wise along each lane.
    pub(crate) fn block_totals(
        fleet: &ServerArrays,
        samples: &[Ratio],
        ticks: usize,
        totals: &mut Vec<Watts>,
    ) {
        let n = fleet.len();
        let mut rack_sums = vec![0.0_f64; n.div_ceil(RACK_FANOUT) * ticks];
        for (rack, sums) in rack_sums.chunks_exact_mut(ticks.max(1)).enumerate() {
            let start = rack * RACK_FANOUT;
            for i in start..(start + RACK_FANOUT).min(n) {
                let lane = &samples[i * ticks..(i + 1) * ticks];
                for (sum, &u) in sums.iter_mut().zip(lane) {
                    *sum += fleet.driven_draw(i, u).get();
                }
            }
        }
        totals.extend((0..ticks).map(|t| Watts::new(rack_sums[t..].iter().step_by(ticks).sum())));
    }

    /// The first (lowest-index) running server with the minimal
    /// last-active stamp, refreshing only dirty racks — the legacy
    /// `running().min_by(last_active)` victim with `min_by`'s
    /// first-on-tie semantics.
    pub fn least_recently_used_running(&mut self, fleet: &ServerArrays) -> Option<usize> {
        let n = fleet.len();
        let mut best: Option<(f64, usize)> = None;
        for rack in 0..self.rack_lru.len() {
            if self.rack_lru[rack] == RackLru::Stale {
                self.rack_lru[rack] = Self::scan_rack(fleet, rack, n);
            }
            if let RackLru::Min { last_active, index } = self.rack_lru[rack] {
                // Strict `<` keeps the first minimal across racks, and
                // racks are visited in index order.
                if best.is_none_or(|(b, _)| last_active < b) {
                    best = Some((last_active, index));
                }
            }
        }
        best.map(|(_, index)| index)
    }

    fn scan_rack(fleet: &ServerArrays, rack: usize, n: usize) -> RackLru {
        let start = rack * RACK_FANOUT;
        match fleet.least_recently_active(start..(start + RACK_FANOUT).min(n)) {
            None => RackLru::NoneRunning,
            Some((last_active, index)) => RackLru::Min { last_active, index },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heb_units::{Ratio, Seconds};

    #[test]
    fn single_rack_total_matches_flat_sum_bitwise() {
        let mut fleet = ServerArrays::prototype(7);
        let mut tree = AggTree::new(7);
        for i in 0..7 {
            let _ = fleet.set_utilization(i, Ratio::new_clamped(0.1 + 0.13 * i as f64));
            tree.touch_demand(i);
        }
        let flat: f64 = (0..7).map(|i| fleet.power_draw(i).get()).sum();
        assert_eq!(tree.total_demand(&fleet).get().to_bits(), flat.to_bits());
        // A cached re-read returns the same bits.
        assert_eq!(tree.total_demand(&fleet).get().to_bits(), flat.to_bits());
    }

    #[test]
    fn partial_invalidation_refreshes_only_touched_rack() {
        let n = RACK_FANOUT + 5;
        let mut fleet = ServerArrays::prototype(n);
        let mut tree = AggTree::new(n);
        assert_eq!(tree.racks(), 2);
        let before = tree.total_demand(&fleet);
        // Change one server in the second rack.
        let i = RACK_FANOUT + 2;
        let _ = fleet.set_utilization(i, Ratio::ONE);
        tree.touch_demand(i);
        let after = tree.total_demand(&fleet);
        assert!(after > before);
        // The delta equals the one changed draw (both racks re-folded).
        let expect: f64 = {
            let r0: f64 = (0..RACK_FANOUT).map(|j| fleet.power_draw(j).get()).sum();
            let r1: f64 = (RACK_FANOUT..n).map(|j| fleet.power_draw(j).get()).sum();
            r0 + r1
        };
        assert_eq!(after.get().to_bits(), expect.to_bits());
    }

    #[test]
    fn lru_matches_min_by_first_on_tie() {
        let n = RACK_FANOUT * 2;
        let mut fleet = ServerArrays::prototype(n);
        let mut tree = AggTree::new(n);
        // Everyone at stamp 5.0, two servers tied at stamp 2.0 — one in
        // each rack. min_by keeps the first.
        for i in 0..n {
            fleet.mark_active(i, Seconds::new(5.0));
        }
        fleet.mark_active(3, Seconds::new(2.0));
        fleet.mark_active(RACK_FANOUT + 1, Seconds::new(2.0));
        tree.touch_all_lru();
        assert_eq!(tree.least_recently_used_running(&fleet), Some(3));
        // Shutting the winner down and touching its rack moves the
        // victim to the other rack's minimum.
        let _ = fleet.power_off(3);
        tree.touch_lru(3);
        assert_eq!(
            tree.least_recently_used_running(&fleet),
            Some(RACK_FANOUT + 1)
        );
        // All off → no victim.
        for i in 0..n {
            let _ = fleet.power_off(i);
        }
        tree.touch_all_lru();
        assert_eq!(tree.least_recently_used_running(&fleet), None);
    }
}
