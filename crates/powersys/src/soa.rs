//! Struct-of-arrays server state — the fleet-scale hot path.
//!
//! At O(10) servers the object-per-server [`Server`] layout is fine; at
//! 100 k–1 M servers the per-tick loops (workload drive, metering,
//! energy accounting) dominate wall-clock, and walking a `Vec<Server>`
//! drags nine fields through cache for every one field touched.
//! [`ServerArrays`] stores each field in its own parallel array so the
//! sweeps (set utilizations, sum draws, tick energies) stream exactly
//! the bytes they need. The relay positions are *not* duplicated here:
//! [`crate::SwitchFabric`] already keeps them as a parallel array.
//!
//! Every per-index operation routes through the same raw kernels
//! (`prospective_draw_raw`, `tick_raw`) as [`Server`], so a
//! [`ServerArrays`] sweep is bit-for-bit the sequence of operations the
//! legacy `Vec<Server>` loop performed in the same index order.
//! [`crate::Cluster`] wraps this module (plus the
//! [`crate::agg::AggTree`] sum cache) behind the historical cluster
//! API.
//!
//! Each server's draw is cached and kept current by every mutator:
//! `set_utilization`, `set_frequency` and `power_on` recompute it
//! through `prospective_draw_raw`, `power_off` zeroes it. The per-tick
//! readers — the demand sums, the meter's channel copy, the energy
//! sweep — then load one `f64` per server instead of re-deriving the
//! draw from four arrays.
//!
//! Two bulk results are held lazily so a frozen fleet costs O(1) per
//! tick. [`ServerArrays::mark_all_active`] records one pending stamp
//! for every server instead of writing the array; every read honours
//! it, and the per-server writers (`tick_one`, `tick_all`,
//! `mark_active`) flush it first. The report totals (downtime,
//! restarts, restart waste) are memoised with the same index-order
//! sums; a tick with any server off and a `power_on` are the only
//! writes that change them, and both drop the memo.

use crate::server::{
    prospective_draw_raw, tick_raw, FrequencyLevel, PowerState, Server, ServerParams,
};
use heb_units::{Joules, Ratio, Seconds, Watts};
use std::ops::Range;
use std::sync::OnceLock;

/// The fleet totals a report reads, each summed in index order.
#[derive(Debug, Clone, Copy)]
struct ReportTotals {
    downtime: Seconds,
    restarts: u64,
    restart_waste: Joules,
}

/// Parallel per-server state arrays. Index `i` across every array is
/// server `i` — the same id the [`crate::SwitchFabric`] relay array
/// uses.
#[derive(Debug, Clone)]
pub struct ServerArrays {
    params: Vec<ServerParams>,
    state: Vec<PowerState>,
    frequency: Vec<FrequencyLevel>,
    utilization: Vec<Ratio>,
    downtime: Vec<Seconds>,
    restarts: Vec<u64>,
    /// Per-server last-active stamps; overridden for every server while
    /// `stamped_all` holds a pending bulk stamp.
    last_active: Vec<Seconds>,
    /// A bulk stamp not yet written into `last_active`.
    stamped_all: Option<Seconds>,
    pending_restart: Vec<Joules>,
    /// Cached draw of each server: its prospective draw when `On`,
    /// zero when `Off` — what `power_draw` returns.
    draw: Vec<Watts>,
    /// Count of servers currently `On`, maintained incrementally so
    /// `running_count` is O(1) instead of an O(n) scan per tick.
    on_count: usize,
    /// Count of servers with a positive pending restart surcharge,
    /// maintained incrementally so `all_running_steady` is O(1).
    pending_count: usize,
    /// The report totals, computed on first read after a change.
    totals: OnceLock<ReportTotals>,
}

/// Equality is over simulated state: stamps compare by their effective
/// value whether pending or written, and the totals memo is ignored.
impl PartialEq for ServerArrays {
    fn eq(&self, other: &Self) -> bool {
        self.params == other.params
            && self.state == other.state
            && self.frequency == other.frequency
            && self.utilization == other.utilization
            && self.downtime == other.downtime
            && self.restarts == other.restarts
            && self.pending_restart == other.pending_restart
            && self.draw == other.draw
            && self.on_count == other.on_count
            && self.pending_count == other.pending_count
            && (0..self.len()).all(|i| self.last_active(i) == other.last_active(i))
    }
}

impl ServerArrays {
    /// Decomposes pre-built servers into parallel arrays. Server ids
    /// are positional: element `i` becomes server `i`.
    #[must_use]
    pub fn from_servers(servers: &[Server]) -> Self {
        let n = servers.len();
        let mut arrays = Self {
            params: Vec::with_capacity(n),
            state: Vec::with_capacity(n),
            frequency: Vec::with_capacity(n),
            utilization: Vec::with_capacity(n),
            downtime: Vec::with_capacity(n),
            restarts: Vec::with_capacity(n),
            last_active: Vec::with_capacity(n),
            stamped_all: None,
            pending_restart: Vec::with_capacity(n),
            draw: Vec::with_capacity(n),
            on_count: 0,
            pending_count: 0,
            totals: OnceLock::new(),
        };
        for s in servers {
            arrays.params.push(*s.params());
            arrays.state.push(s.state());
            arrays.frequency.push(s.frequency());
            arrays.utilization.push(s.utilization());
            arrays.downtime.push(s.downtime());
            arrays.restarts.push(s.restarts());
            arrays.last_active.push(s.last_active());
            arrays.pending_restart.push(s.pending_restart_energy());
            arrays.draw.push(s.power_draw());
            if s.state() == PowerState::On {
                arrays.on_count += 1;
            }
            if s.has_pending_restart() {
                arrays.pending_count += 1;
            }
        }
        arrays
    }

    /// `n` running, idle prototype-spec servers.
    #[must_use]
    pub fn prototype(n: usize) -> Self {
        Self::prototype_with_frequencies(vec![FrequencyLevel::High; n])
    }

    /// Running, idle prototype-spec servers, server `i` at governor
    /// level `frequency[i]` — in one pass, with each draw from the same
    /// kernel a per-server [`ServerArrays::set_frequency`] would run.
    #[must_use]
    pub(crate) fn prototype_with_frequencies(frequency: Vec<FrequencyLevel>) -> Self {
        let n = frequency.len();
        let params = ServerParams::prototype();
        let idle = |level| prospective_draw_raw(&params, Ratio::ZERO, level);
        let (low, high) = (idle(FrequencyLevel::Low), idle(FrequencyLevel::High));
        let draw = frequency
            .iter()
            .map(|&level| match level {
                FrequencyLevel::Low => low,
                FrequencyLevel::High => high,
            })
            .collect();
        Self {
            params: vec![params; n],
            state: vec![PowerState::On; n],
            frequency,
            utilization: vec![Ratio::ZERO; n],
            downtime: vec![Seconds::zero(); n],
            restarts: vec![0; n],
            last_active: vec![Seconds::zero(); n],
            stamped_all: None,
            pending_restart: vec![Joules::zero(); n],
            draw,
            on_count: n,
            pending_count: 0,
            totals: OnceLock::new(),
        }
    }

    /// Number of servers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// Whether there are no servers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// Number of servers currently running (O(1)).
    #[must_use]
    pub fn running_count(&self) -> usize {
        self.on_count
    }

    /// Power state of server `i`.
    #[must_use]
    pub fn state(&self, i: usize) -> PowerState {
        self.state[i]
    }

    /// Frequency level of server `i`.
    #[must_use]
    pub fn frequency(&self, i: usize) -> FrequencyLevel {
        self.frequency[i]
    }

    /// Utilization of server `i`.
    #[must_use]
    pub fn utilization(&self, i: usize) -> Ratio {
        self.utilization[i]
    }

    /// Last-active stamp of server `i` (a pending bulk stamp wins).
    #[must_use]
    pub fn last_active(&self, i: usize) -> Seconds {
        self.stamped_all.unwrap_or(self.last_active[i])
    }

    /// Whether server `i` still owes boot-surcharge energy.
    #[must_use]
    pub fn has_pending_restart(&self, i: usize) -> bool {
        self.pending_restart[i].get() > 0.0
    }

    /// Instantaneous draw of server `i`: zero when off, otherwise the
    /// shared prospective-draw kernel (served from the draw cache).
    #[must_use]
    pub fn power_draw(&self, i: usize) -> Watts {
        self.draw[i]
    }

    /// Every server's instantaneous draw, indexed by server id — the
    /// draw cache the metering sweep copies.
    #[must_use]
    pub(crate) fn draws(&self) -> &[Watts] {
        &self.draw
    }

    /// What server `i` would draw if running.
    #[must_use]
    pub fn prospective_draw(&self, i: usize) -> Watts {
        prospective_draw_raw(&self.params[i], self.utilization[i], self.frequency[i])
    }

    /// Sets server `i`'s utilization (clamped to the unit interval).
    /// Returns `true` when the stored value actually changed bitwise —
    /// the aggregation tree uses this to skip invalidation for steady
    /// workloads.
    pub fn set_utilization(&mut self, i: usize, utilization: Ratio) -> bool {
        let clamped = utilization.clamp_unit();
        let changed = clamped.get().to_bits() != self.utilization[i].get().to_bits();
        self.utilization[i] = clamped;
        self.refresh_draw(i);
        changed
    }

    /// Sets the utilizations of the servers in `range`, in index order,
    /// from `utilizations` (servers past the stream's end keep theirs),
    /// and returns the sum of the range's draws taken left to right
    /// from `0.0` — in the same pass that writes each utilization and
    /// its draw. Over one rack this is the rack's demand partial sum.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past the last server.
    pub(crate) fn drive_range(
        &mut self,
        range: Range<usize>,
        utilizations: &mut impl Iterator<Item = Ratio>,
    ) -> f64 {
        let lanes = self.utilization[range.clone()]
            .iter_mut()
            .zip(&mut self.draw[range.clone()])
            .zip(&self.params[range.clone()])
            .zip(&self.state[range.clone()])
            .zip(&self.frequency[range]);
        let mut sum = 0.0_f64;
        for ((((utilization, draw), params), &state), &frequency) in lanes {
            if let Some(u) = utilizations.next() {
                *utilization = u.clamp_unit();
                if state == PowerState::On {
                    *draw = prospective_draw_raw(params, *utilization, frequency);
                }
            }
            sum += draw.get();
        }
        sum
    }

    /// Sets server `i`'s frequency level, reporting whether it changed.
    pub fn set_frequency(&mut self, i: usize, frequency: FrequencyLevel) -> bool {
        let changed = self.frequency[i] != frequency;
        self.frequency[i] = frequency;
        self.refresh_draw(i);
        changed
    }

    /// Recomputes server `i`'s cached draw from its state.
    fn refresh_draw(&mut self, i: usize) {
        self.draw[i] = match self.state[i] {
            PowerState::Off => Watts::zero(),
            PowerState::On => self.prospective_draw(i),
        };
    }

    /// Shuts server `i` down. Returns `true` if it was running.
    pub fn power_off(&mut self, i: usize) -> bool {
        if self.state[i] == PowerState::On {
            self.state[i] = PowerState::Off;
            self.on_count -= 1;
            self.draw[i] = Watts::zero();
            true
        } else {
            false
        }
    }

    /// Powers server `i` back on, charging the restart surcharge.
    /// Returns `true` if it was off.
    pub fn power_on(&mut self, i: usize) -> bool {
        if self.state[i] == PowerState::Off {
            self.state[i] = PowerState::On;
            self.on_count += 1;
            self.restarts[i] += 1;
            self.totals = OnceLock::new();
            let was_pending = self.has_pending_restart(i);
            self.pending_restart[i] = self.params[i].restart_energy;
            match (was_pending, self.has_pending_restart(i)) {
                (false, true) => self.pending_count += 1,
                (true, false) => self.pending_count -= 1,
                _ => {}
            }
            self.refresh_draw(i);
            true
        } else {
            false
        }
    }

    /// Stamps server `i` active at `now` without a tick.
    pub fn mark_active(&mut self, i: usize, now: Seconds) {
        self.flush_stamp();
        self.last_active[i] = now;
    }

    /// Stamps every server active at `now` without a tick, in O(1): the
    /// stamp is held pending until a per-server writer needs the array.
    pub fn mark_all_active(&mut self, now: Seconds) {
        self.stamped_all = Some(now);
    }

    /// Writes a pending bulk stamp into every server's slot.
    fn flush_stamp(&mut self) {
        if let Some(now) = self.stamped_all.take() {
            self.last_active.fill(now);
        }
    }

    /// Advances server `i` one tick through the shared tick kernel.
    pub fn tick_one(&mut self, i: usize, now: Seconds, dt: Seconds) -> Joules {
        self.flush_stamp();
        if self.state[i] == PowerState::Off {
            self.totals = OnceLock::new();
        }
        let was_pending = self.has_pending_restart(i);
        let energy = tick_raw(
            &self.params[i],
            self.state[i],
            self.draw[i],
            &mut self.downtime[i],
            &mut self.last_active[i],
            &mut self.pending_restart[i],
            now,
            dt,
        );
        if was_pending && !self.has_pending_restart(i) {
            self.pending_count -= 1;
        }
        energy
    }

    /// Advances every server one tick in index order, summing energies
    /// left to right from `0.0` — the exact reduction order of the
    /// historical `servers.iter_mut().map(tick).sum()`. Running servers
    /// bill their cached draw.
    pub fn tick_all(&mut self, now: Seconds, dt: Seconds) -> Joules {
        self.flush_stamp();
        if self.on_count < self.len() {
            self.totals = OnceLock::new();
        }
        let lanes = self
            .params
            .iter()
            .zip(&self.state)
            .zip(&self.draw)
            .zip(&mut self.downtime)
            .zip(&mut self.last_active)
            .zip(&mut self.pending_restart);
        let mut total = 0.0_f64;
        let mut drained = 0;
        for (((((params, &state), &draw), downtime), last_active), pending) in lanes {
            let was_pending = pending.get() > 0.0;
            total += tick_raw(params, state, draw, downtime, last_active, pending, now, dt).get();
            if was_pending && pending.get() <= 0.0 {
                drained += 1;
            }
        }
        self.pending_count -= drained;
        Joules::new(total)
    }

    /// Whether every server is running with no pending restart
    /// surcharge (the event core's quiet-span predicate). O(1): both
    /// counts are maintained incrementally.
    #[must_use]
    pub fn all_running_steady(&self) -> bool {
        self.on_count == self.len() && self.pending_count == 0
    }

    /// The three report totals, summed on the first read after a
    /// change and served from the memo after that.
    fn totals(&self) -> &ReportTotals {
        self.totals.get_or_init(|| ReportTotals {
            downtime: self.downtime.iter().sum(),
            restarts: self.restarts.iter().sum(),
            restart_waste: (0..self.len())
                .map(|i| self.params[i].restart_energy * self.restarts[i] as f64)
                .sum(),
        })
    }

    /// Aggregate downtime, summed in index order.
    #[must_use]
    pub fn total_downtime(&self) -> Seconds {
        self.totals().downtime
    }

    /// Total off→on cycles.
    #[must_use]
    pub fn total_restarts(&self) -> u64 {
        self.totals().restarts
    }

    /// Boot energy charged across every restart so far, summed in index
    /// order exactly as the legacy per-server report fold did.
    #[must_use]
    pub fn total_restart_waste(&self) -> Joules {
        self.totals().restart_waste
    }

    /// Flat prospective-demand sum in index order (the restore-check
    /// headroom quantity).
    #[must_use]
    pub fn prospective_total(&self) -> Watts {
        (0..self.len()).map(|i| self.prospective_draw(i)).sum()
    }

    /// Materialises server `i` back into the object layout (tests,
    /// debugging, thin-view accessors).
    #[must_use]
    pub fn materialize(&self, i: usize) -> Server {
        Server::from_parts(
            i,
            self.params[i],
            self.state[i],
            self.frequency[i],
            self.utilization[i],
            self.downtime[i],
            self.restarts[i],
            self.last_active(i),
            self.pending_restart[i],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive an object-layout server and the SoA layout through the
    /// same history; every observable must match bitwise.
    #[test]
    fn soa_matches_server_object_bitwise() {
        let mut obj = Server::prototype(0);
        let mut soa = ServerArrays::prototype(1);
        let dt = Seconds::new(1.0);
        let script: &[(f64, bool)] = &[
            (0.3, true),
            (0.7, true),
            (1.4, false), // clamped
            (0.0, true),
            (0.5, true),
        ];
        let mut t = 0.0;
        for &(util, on) in script {
            obj.set_utilization(Ratio::new_clamped(util));
            let _ = soa.set_utilization(0, Ratio::new_unclamped(util));
            if on {
                obj.power_on();
                let _ = soa.power_on(0);
            } else {
                obj.power_off();
                let _ = soa.power_off(0);
            }
            assert_eq!(obj.power_draw(), soa.power_draw(0));
            let ea = obj.tick(Seconds::new(t), dt);
            let eb = soa.tick_one(0, Seconds::new(t), dt);
            assert_eq!(ea.get().to_bits(), eb.get().to_bits());
            t += 1.0;
        }
        assert_eq!(obj, soa.materialize(0));
        assert_eq!(soa.total_downtime(), obj.downtime());
        assert_eq!(soa.total_restarts(), obj.restarts());
    }

    #[test]
    fn running_count_tracks_state_changes() {
        let mut soa = ServerArrays::prototype(4);
        assert_eq!(soa.running_count(), 4);
        assert!(soa.power_off(2));
        assert!(!soa.power_off(2), "double off is a no-op");
        assert_eq!(soa.running_count(), 3);
        assert!(soa.power_on(2));
        assert!(!soa.power_on(2), "double on is a no-op");
        assert_eq!(soa.running_count(), 4);
        assert_eq!(soa.total_restarts(), 1);
        assert!(soa.has_pending_restart(2));
        assert!(!soa.all_running_steady());
    }

    #[test]
    fn set_utilization_reports_bitwise_change() {
        let mut soa = ServerArrays::prototype(1);
        assert!(soa.set_utilization(0, Ratio::new_clamped(0.5)));
        assert!(!soa.set_utilization(0, Ratio::new_clamped(0.5)));
        // Out-of-range values clamp to the same stored bits: no change.
        assert!(soa.set_utilization(0, Ratio::new_unclamped(2.0)));
        assert!(!soa.set_utilization(0, Ratio::new_unclamped(3.0)));
    }

    #[test]
    fn draw_cache_follows_every_mutator() {
        let mut soa = ServerArrays::prototype(2);
        let fresh = |soa: &ServerArrays, i: usize| match soa.state(i) {
            PowerState::Off => Watts::zero(),
            PowerState::On => soa.prospective_draw(i),
        };
        let _ = soa.set_utilization(0, Ratio::new_clamped(0.4));
        assert_eq!(soa.power_draw(0), fresh(&soa, 0));
        let _ = soa.set_frequency(0, FrequencyLevel::Low);
        assert_eq!(soa.power_draw(0), fresh(&soa, 0));
        let _ = soa.power_off(0);
        assert_eq!(soa.power_draw(0), Watts::zero());
        // A utilization change while off leaves the draw at zero.
        let _ = soa.set_utilization(0, Ratio::ONE);
        assert_eq!(soa.power_draw(0), Watts::zero());
        let _ = soa.power_on(0);
        assert_eq!(soa.power_draw(0), fresh(&soa, 0));
        let mut stream = [Ratio::HALF].into_iter();
        let sum = soa.drive_range(0..2, &mut stream);
        assert_eq!(soa.utilization(0), Ratio::HALF);
        assert_eq!(
            sum.to_bits(),
            (0.0 + fresh(&soa, 0).get() + fresh(&soa, 1).get()).to_bits()
        );
        assert_eq!(soa.draws(), &[fresh(&soa, 0), fresh(&soa, 1)]);
    }

    #[test]
    fn pending_restarts_are_counted_until_drained() {
        let mut soa = ServerArrays::prototype(2);
        assert!(soa.all_running_steady());
        let _ = soa.power_off(1);
        let _ = soa.power_on(1);
        assert!(!soa.all_running_steady());
        let dt = Seconds::new(1.0);
        let mut t = 0.0;
        while soa.has_pending_restart(1) {
            assert!(!soa.all_running_steady());
            let _ = soa.tick_all(Seconds::new(t), dt);
            t += 1.0;
        }
        assert!(soa.all_running_steady());
    }

    #[test]
    fn tick_all_sums_in_index_order() {
        let mut soa = ServerArrays::prototype(3);
        let _ = soa.set_utilization(1, Ratio::ONE);
        let via_all = soa.clone().tick_all(Seconds::new(1.0), Seconds::new(1.0));
        let mut manual = 0.0;
        for i in 0..3 {
            manual += soa.tick_one(i, Seconds::new(1.0), Seconds::new(1.0)).get();
        }
        assert_eq!(via_all.get().to_bits(), manual.to_bits());
    }
}
