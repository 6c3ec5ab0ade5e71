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
//! Only state that every tick reads is fleet-sized: power state,
//! frequency, utilization and the cached draw. A fleet whose servers
//! share one [`ServerParams`] (every fleet the simulator builds) holds
//! it once, and every per-server pass picks the spec once per pass, not
//! per server. The outage bookkeeping (downtime, restarts, last-active
//! stamps, pending restart surcharges) is allocated on the first write
//! that needs it; until then every entry reads as zero, so a fleet that
//! never sheds never pages it in.
//!
//! Two bulk results are held lazily so a frozen fleet costs O(1) per
//! tick. [`ServerArrays::mark_all_active`] records one pending stamp
//! for every server instead of writing the array; every read honours
//! it, and the per-server writers (`tick_one`, `tick_all`,
//! `mark_active`, `power_off`, `power_on`) write it out first. The
//! report totals (downtime, restarts, restart waste) are memoised with
//! the same index-order sums; a tick with any server off and a
//! `power_on` are the only writes that change them, and both drop the
//! memo.

use crate::server::{
    prospective_draw_raw, tick_raw, FrequencyLevel, PowerState, Server, ServerParams,
};
use heb_units::{Joules, Ratio, Seconds, Watts};
use std::iter::repeat;
use std::ops::Range;
use std::sync::OnceLock;

/// The fleet totals a report reads, each summed in index order.
#[derive(Debug, Clone, Copy)]
struct ReportTotals {
    downtime: Seconds,
    restarts: u64,
    restart_waste: Joules,
}

/// The server specs of a fleet.
#[derive(Debug, Clone)]
enum Specs {
    /// Every server runs this spec.
    Shared(ServerParams),
    /// Server `i` runs `table[i]`: [`ServerArrays::from_servers`] of
    /// servers with different specs.
    PerServer(Vec<ServerParams>),
}

impl Specs {
    /// Server `i`'s spec.
    fn get(&self, i: usize) -> &ServerParams {
        match self {
            Specs::Shared(params) => params,
            Specs::PerServer(table) => &table[i],
        }
    }
}

/// Bitwise spec identity: servers share a spec only if every field has
/// the same bits, so materialising them gives back the same servers.
fn same_bits(a: &ServerParams, b: &ServerParams) -> bool {
    let bits = |p: &ServerParams| {
        [
            p.idle_power.get().to_bits(),
            p.peak_power.get().to_bits(),
            p.restart_energy.get().to_bits(),
        ]
    };
    bits(a) == bits(b)
}

/// Whether a surcharge is still owed (the one predicate behind
/// `has_pending_restart` and the pending count).
fn owes(pending: Joules) -> bool {
    pending.get() > 0.0
}

/// Per-server outage bookkeeping, allocated together on first need.
#[derive(Debug, Clone)]
struct Outages {
    downtime: Vec<Seconds>,
    restarts: Vec<u64>,
    /// Per-server last-active stamps; overridden for every server while
    /// the fleet holds a pending bulk stamp.
    last_active: Vec<Seconds>,
    pending_restart: Vec<Joules>,
}

impl Outages {
    /// The bookkeeping in `slot`, allocated for `n` servers with no
    /// outage history if absent, with any pending bulk stamp written
    /// into it.
    fn get_or_alloc<'a>(
        slot: &'a mut Option<Outages>,
        stamped_all: &mut Option<Seconds>,
        n: usize,
    ) -> &'a mut Outages {
        let outages = slot.get_or_insert_with(|| Outages {
            downtime: vec![Seconds::zero(); n],
            restarts: vec![0; n],
            last_active: vec![stamped_all.take().unwrap_or(Seconds::zero()); n],
            pending_restart: vec![Joules::zero(); n],
        });
        if let Some(now) = stamped_all.take() {
            outages.last_active.fill(now);
        }
        outages
    }
}

/// Parallel per-server state arrays. Index `i` across every array is
/// server `i` — the same id the [`crate::SwitchFabric`] relay array
/// uses.
#[derive(Debug, Clone)]
pub struct ServerArrays {
    specs: Specs,
    state: Vec<PowerState>,
    frequency: Vec<FrequencyLevel>,
    utilization: Vec<Ratio>,
    /// Cached draw of each server: its prospective draw when `On`,
    /// zero when `Off` — what `power_draw` returns.
    draw: Vec<Watts>,
    /// Outage bookkeeping; `None` until a write needs it, every entry
    /// reading as zero meanwhile.
    outages: Option<Outages>,
    /// A bulk stamp not yet written into the last-active stamps.
    stamped_all: Option<Seconds>,
    /// Count of servers currently `On`, maintained incrementally so
    /// `running_count` is O(1) instead of an O(n) scan per tick.
    on_count: usize,
    /// Count of servers with a positive pending restart surcharge,
    /// maintained incrementally so `all_running_steady` is O(1).
    pending_count: usize,
    /// The report totals, computed on first read after a change.
    totals: OnceLock<ReportTotals>,
}

/// Equality is over simulated state: specs compare per server whether
/// shared or tabled, outage entries and stamps by their effective value
/// (a fleet without outage bookkeeping equals one whose entries are all
/// zero), and the totals memo is ignored.
impl PartialEq for ServerArrays {
    fn eq(&self, other: &Self) -> bool {
        let n = self.len();
        let same_specs = || match (&self.specs, &other.specs) {
            (Specs::Shared(a), Specs::Shared(b)) => n == 0 || a == b,
            _ => (0..n).all(|i| self.specs.get(i) == other.specs.get(i)),
        };
        n == other.len()
            && same_specs()
            && self.state == other.state
            && self.frequency == other.frequency
            && self.utilization == other.utilization
            && self.draw == other.draw
            && self.on_count == other.on_count
            && self.pending_count == other.pending_count
            && (0..n).all(|i| {
                self.downtime(i) == other.downtime(i)
                    && self.restarts(i) == other.restarts(i)
                    && self.pending_restart(i) == other.pending_restart(i)
                    && self.last_active(i) == other.last_active(i)
            })
    }
}

impl ServerArrays {
    /// Decomposes pre-built servers into parallel arrays. Server ids
    /// are positional: element `i` becomes server `i`. Servers with one
    /// spec share it; outage bookkeeping is kept only if some server
    /// has a non-zero entry.
    #[must_use]
    pub fn from_servers(servers: &[Server]) -> Self {
        let first = servers
            .first()
            .map_or_else(ServerParams::prototype, |s| *s.params());
        let specs = if servers.iter().all(|s| same_bits(s.params(), &first)) {
            Specs::Shared(first)
        } else {
            Specs::PerServer(servers.iter().map(|s| *s.params()).collect())
        };
        let untouched = |s: &Server| {
            s.downtime().get().to_bits() == 0
                && s.restarts() == 0
                && s.last_active().get().to_bits() == 0
                && s.pending_restart_energy().get().to_bits() == 0
        };
        let outages = (!servers.iter().all(untouched)).then(|| Outages {
            downtime: servers.iter().map(Server::downtime).collect(),
            restarts: servers.iter().map(Server::restarts).collect(),
            last_active: servers.iter().map(Server::last_active).collect(),
            pending_restart: servers.iter().map(Server::pending_restart_energy).collect(),
        });
        let state: Vec<PowerState> = servers.iter().map(Server::state).collect();
        Self {
            specs,
            on_count: state.iter().filter(|&&s| s == PowerState::On).count(),
            state,
            frequency: servers.iter().map(Server::frequency).collect(),
            utilization: servers.iter().map(Server::utilization).collect(),
            draw: servers.iter().map(Server::power_draw).collect(),
            outages,
            stamped_all: None,
            pending_count: servers.iter().filter(|s| s.has_pending_restart()).count(),
            totals: OnceLock::new(),
        }
    }

    /// `n` running, idle prototype-spec servers.
    #[must_use]
    pub fn prototype(n: usize) -> Self {
        Self::prototype_with_frequencies(vec![FrequencyLevel::High; n])
    }

    /// Running, idle prototype-spec servers, server `i` at governor
    /// level `frequency[i]` — in one pass, with each draw from the same
    /// kernel a per-server [`ServerArrays::set_frequency`] would run.
    /// The fleet shares one spec and has no outage bookkeeping yet.
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
            specs: Specs::Shared(params),
            state: vec![PowerState::On; n],
            frequency,
            utilization: vec![Ratio::ZERO; n],
            draw,
            outages: None,
            stamped_all: None,
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
        match (self.stamped_all, &self.outages) {
            (Some(now), _) => now,
            (None, Some(outages)) => outages.last_active[i],
            (None, None) => Seconds::zero(),
        }
    }

    /// Downtime of server `i`.
    fn downtime(&self, i: usize) -> Seconds {
        self.outages
            .as_ref()
            .map_or(Seconds::zero(), |o| o.downtime[i])
    }

    /// Off→on cycles of server `i`.
    fn restarts(&self, i: usize) -> u64 {
        self.outages.as_ref().map_or(0, |o| o.restarts[i])
    }

    /// Undrained boot surcharge of server `i`.
    fn pending_restart(&self, i: usize) -> Joules {
        self.outages
            .as_ref()
            .map_or(Joules::zero(), |o| o.pending_restart[i])
    }

    /// Whether server `i` still owes boot-surcharge energy.
    #[must_use]
    pub fn has_pending_restart(&self, i: usize) -> bool {
        owes(self.pending_restart(i))
    }

    /// Whether the outage bookkeeping has been allocated.
    #[cfg(test)]
    fn has_outages(&self) -> bool {
        self.outages.is_some()
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

    /// Server `i`'s draw once a drive sets its utilization to
    /// `utilization`, as [`ServerArrays::drive_range`] writes it: the
    /// prospective draw at the clamped utilization when running, the
    /// present draw when off.
    #[inline]
    pub(crate) fn driven_draw(&self, i: usize, utilization: Ratio) -> Watts {
        match self.state[i] {
            PowerState::On => prospective_draw_raw(
                self.specs.get(i),
                utilization.clamp_unit(),
                self.frequency[i],
            ),
            PowerState::Off => self.draw[i],
        }
    }

    /// What server `i` would draw if running.
    #[must_use]
    pub fn prospective_draw(&self, i: usize) -> Watts {
        prospective_draw_raw(self.specs.get(i), self.utilization[i], self.frequency[i])
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
            .zip(&self.state[range.clone()])
            .zip(&self.frequency[range.clone()]);
        match &self.specs {
            Specs::Shared(params) => drive_lanes(lanes.zip(repeat(params)), utilizations),
            Specs::PerServer(table) => drive_lanes(lanes.zip(&table[range]), utilizations),
        }
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

    /// The outage bookkeeping, allocated on first need, with any
    /// pending bulk stamp written into it.
    fn outages_mut(&mut self) -> &mut Outages {
        Outages::get_or_alloc(&mut self.outages, &mut self.stamped_all, self.state.len())
    }

    /// Shuts server `i` down. Returns `true` if it was running.
    pub fn power_off(&mut self, i: usize) -> bool {
        if self.state[i] == PowerState::On {
            self.state[i] = PowerState::Off;
            self.on_count -= 1;
            self.draw[i] = Watts::zero();
            // The server now accrues downtime: bring the outage
            // bookkeeping in before any tick needs it.
            let _ = self.outages_mut();
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
            self.totals = OnceLock::new();
            let surcharge = self.specs.get(i).restart_energy;
            let outages = self.outages_mut();
            outages.restarts[i] += 1;
            let was_pending = owes(outages.pending_restart[i]);
            outages.pending_restart[i] = surcharge;
            match (was_pending, owes(surcharge)) {
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
        self.outages_mut().last_active[i] = now;
    }

    /// Stamps every server active at `now` without a tick, in O(1): the
    /// stamp is held pending until a per-server writer needs the array.
    pub fn mark_all_active(&mut self, now: Seconds) {
        self.stamped_all = Some(now);
    }

    /// Advances server `i` one tick through the shared tick kernel.
    pub fn tick_one(&mut self, i: usize, now: Seconds, dt: Seconds) -> Joules {
        if self.state[i] == PowerState::Off {
            self.totals = OnceLock::new();
        }
        let outages =
            Outages::get_or_alloc(&mut self.outages, &mut self.stamped_all, self.state.len());
        let was_pending = owes(outages.pending_restart[i]);
        let energy = tick_raw(
            self.specs.get(i),
            self.state[i],
            self.draw[i],
            &mut outages.downtime[i],
            &mut outages.last_active[i],
            &mut outages.pending_restart[i],
            now,
            dt,
        );
        if was_pending && !owes(outages.pending_restart[i]) {
            self.pending_count -= 1;
        }
        energy
    }

    /// Advances every server one tick in index order, summing energies
    /// left to right from `0.0` — the exact reduction order of the
    /// historical `servers.iter_mut().map(tick).sum()`. Running servers
    /// bill their cached draw.
    pub fn tick_all(&mut self, now: Seconds, dt: Seconds) -> Joules {
        if self.on_count < self.len() {
            self.totals = OnceLock::new();
        }
        let outages =
            Outages::get_or_alloc(&mut self.outages, &mut self.stamped_all, self.state.len());
        let lanes = self
            .state
            .iter()
            .zip(&self.draw)
            .zip(&mut outages.downtime)
            .zip(&mut outages.last_active)
            .zip(&mut outages.pending_restart);
        let (total, drained) = match &self.specs {
            Specs::Shared(params) => tick_lanes(lanes.zip(repeat(params)), now, dt),
            Specs::PerServer(table) => tick_lanes(lanes.zip(table), now, dt),
        };
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

    /// The first running server in `range` with the least last-active
    /// stamp, and that stamp: `Iterator::min_by`'s first-on-tie choice.
    /// While every server reads the same stamp (a pending bulk stamp,
    /// or no outage bookkeeping yet) that is the first running server.
    pub(crate) fn least_recently_active(&self, range: Range<usize>) -> Option<(f64, usize)> {
        let state = &self.state[range.clone()];
        let outages = match (self.stamped_all, &self.outages) {
            (None, Some(outages)) => outages,
            (stamp, _) => {
                let stamp = stamp.unwrap_or(Seconds::zero()).get();
                let first = state.iter().position(|&s| s == PowerState::On)?;
                return Some((stamp, range.start + first));
            }
        };
        let mut min: Option<(f64, usize)> = None;
        for ((&s, stamp), i) in state
            .iter()
            .zip(&outages.last_active[range.clone()])
            .zip(range)
        {
            if s != PowerState::On {
                continue;
            }
            // Strict `<` keeps the first minimal.
            if min.is_none_or(|(b, _)| stamp.get() < b) {
                min = Some((stamp.get(), i));
            }
        }
        min
    }

    /// The three report totals, summed on the first read after a
    /// change and served from the memo after that.
    fn totals(&self) -> &ReportTotals {
        self.totals.get_or_init(|| match &self.outages {
            Some(o) => ReportTotals {
                downtime: o.downtime.iter().sum(),
                restarts: o.restarts.iter().sum(),
                restart_waste: match &self.specs {
                    Specs::Shared(p) => o
                        .restarts
                        .iter()
                        .map(|&r| p.restart_energy * r as f64)
                        .sum(),
                    Specs::PerServer(table) => table
                        .iter()
                        .zip(&o.restarts)
                        .map(|(p, &r)| p.restart_energy * r as f64)
                        .sum(),
                },
            },
            // No outage recorded: every term is the same signed zero
            // (or NaN), and a sum of n >= 1 equal such terms is
            // bitwise the sum of one.
            None => {
                let once = self.len().min(1);
                ReportTotals {
                    downtime: std::iter::repeat_n(Seconds::zero(), once).sum(),
                    restarts: 0,
                    restart_waste: match &self.specs {
                        Specs::Shared(p) => std::iter::repeat_n(p.restart_energy * 0.0, once).sum(),
                        Specs::PerServer(table) => {
                            table.iter().map(|p| p.restart_energy * 0.0).sum()
                        }
                    },
                }
            }
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
        let lanes = self.utilization.iter().zip(&self.frequency);
        match &self.specs {
            Specs::Shared(p) => lanes.map(|(&u, &f)| prospective_draw_raw(p, u, f)).sum(),
            Specs::PerServer(table) => lanes
                .zip(table)
                .map(|((&u, &f), p)| prospective_draw_raw(p, u, f))
                .sum(),
        }
    }

    /// Materialises server `i` back into the object layout (tests,
    /// debugging, thin-view accessors).
    #[must_use]
    pub fn materialize(&self, i: usize) -> Server {
        Server::from_parts(
            i,
            *self.specs.get(i),
            self.state[i],
            self.frequency[i],
            self.utilization[i],
            self.downtime(i),
            self.restarts(i),
            self.last_active(i),
            self.pending_restart(i),
        )
    }
}

/// The drive kernel over one range's lanes, each with its spec (see
/// [`ServerArrays::drive_range`]).
#[inline]
fn drive_lanes<'a>(
    lanes: impl Iterator<
        Item = (
            (
                ((&'a mut Ratio, &'a mut Watts), &'a PowerState),
                &'a FrequencyLevel,
            ),
            &'a ServerParams,
        ),
    >,
    utilizations: &mut impl Iterator<Item = Ratio>,
) -> f64 {
    let mut sum = 0.0_f64;
    for ((((utilization, draw), &state), &frequency), params) in lanes {
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

/// The tick kernel over every server's lanes, each with its spec (see
/// [`ServerArrays::tick_all`]): the energy summed left to right from
/// `0.0`, and how many surcharges drained.
#[inline]
fn tick_lanes<'a>(
    lanes: impl Iterator<
        Item = (
            (
                (
                    ((&'a PowerState, &'a Watts), &'a mut Seconds),
                    &'a mut Seconds,
                ),
                &'a mut Joules,
            ),
            &'a ServerParams,
        ),
    >,
    now: Seconds,
    dt: Seconds,
) -> (f64, usize) {
    let mut total = 0.0_f64;
    let mut drained = 0;
    for (((((&state, &draw), downtime), last_active), pending), params) in lanes {
        let was_pending = owes(*pending);
        total += tick_raw(params, state, draw, downtime, last_active, pending, now, dt).get();
        if was_pending && pending.get() <= 0.0 {
            drained += 1;
        }
    }
    (total, drained)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_simulator_fleet_holds_one_spec_and_no_outage_state_until_needed() {
        let n = 100_000;
        let frequency = (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    FrequencyLevel::Low
                } else {
                    FrequencyLevel::High
                }
            })
            .collect();
        let mut fleet = ServerArrays::prototype_with_frequencies(frequency);
        assert!(matches!(fleet.specs, Specs::Shared(_)));
        assert!(!fleet.has_outages());
        // Stamps, drives and reads need no outage state; the totals are
        // exact zeros.
        fleet.mark_all_active(Seconds::new(7.0));
        let _ = fleet.drive_range(0..n, &mut std::iter::repeat(Ratio::HALF));
        assert_eq!(fleet.total_downtime().get().to_bits(), 0.0_f64.to_bits());
        assert_eq!(fleet.total_restarts(), 0);
        assert_eq!(
            fleet.total_restart_waste().get().to_bits(),
            0.0_f64.to_bits()
        );
        assert!(fleet.all_running_steady());
        assert!(!fleet.has_outages());
        // The first power-off brings the arrays in, carrying the stamp.
        assert!(fleet.power_off(3));
        assert!(fleet.has_outages());
        assert_eq!(fleet.last_active(n - 1), Seconds::new(7.0));
        assert_eq!(fleet.materialize(3).last_active(), Seconds::new(7.0));
        assert!(matches!(fleet.specs, Specs::Shared(_)));
    }

    #[test]
    fn from_servers_shares_one_spec_and_keeps_only_touched_outage_state() {
        let other = ServerParams {
            idle_power: Watts::new(45.0),
            peak_power: Watts::new(120.0),
            restart_energy: Joules::new(9_000.0),
        };
        let same = [Server::prototype(0), Server::prototype(1)];
        let fleet = ServerArrays::from_servers(&same);
        assert!(matches!(fleet.specs, Specs::Shared(_)));
        assert!(!fleet.has_outages());
        let mixed = [Server::prototype(0), Server::new(1, other)];
        let fleet = ServerArrays::from_servers(&mixed);
        assert!(matches!(fleet.specs, Specs::PerServer(_)));
        assert!(!fleet.has_outages());
        assert_eq!(fleet.materialize(1), mixed[1]);
        // Fleets of different sizes differ, whatever their spec layouts.
        let longer = ServerArrays::from_servers(&[
            Server::prototype(0),
            Server::new(1, other),
            Server::prototype(2),
        ]);
        assert_ne!(longer, fleet);
        assert_ne!(fleet, longer);
        assert_ne!(ServerArrays::prototype(3), fleet);
        let mut restarted = mixed.clone();
        restarted[1].power_off();
        restarted[1].power_on();
        let fleet = ServerArrays::from_servers(&restarted);
        assert!(fleet.has_outages());
        assert_eq!(fleet.total_restart_waste(), Joules::new(9_000.0));
        // An empty fleet's totals are the empty sums, as before.
        let empty = ServerArrays::from_servers(&[]);
        let empty_sum: f64 = std::iter::empty::<f64>().sum();
        assert_eq!(empty.total_downtime().get().to_bits(), empty_sum.to_bits());
        assert_eq!(
            empty.total_restart_waste().get().to_bits(),
            empty_sum.to_bits()
        );
        assert_eq!(empty, ServerArrays::prototype(0));
    }

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
