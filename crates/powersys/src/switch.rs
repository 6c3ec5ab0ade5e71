//! The two-way relay fabric steering servers between power sources.
//!
//! The prototype wires every server through a two-way relay so the
//! hControl can place it on utility power, the battery pool, or the SC
//! pool within one control action (Figure 8). The fabric tracks relay
//! wear (actuation counts) because mechanical relays are a real
//! maintenance item at datacenter scale.
//!
//! The controller re-issues the same bulk assignment at most slot
//! boundaries. The fabric remembers its last bulk assignment and
//! returns at once when asked for it again while no relay has moved or
//! stuck since: every relay already sits where that call would put it.

use heb_units::Ratio;

/// Where a server's relay currently points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PowerSource {
    /// The (budget-limited) utility feed — the default position.
    #[default]
    Utility,
    /// The lead-acid battery pool.
    Battery,
    /// The super-capacitor pool.
    SuperCap,
}

impl PowerSource {
    /// All source kinds, for iteration in reports.
    pub const ALL: [PowerSource; 3] = [
        PowerSource::Utility,
        PowerSource::Battery,
        PowerSource::SuperCap,
    ];
}

impl core::fmt::Display for PowerSource {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            PowerSource::Utility => "utility",
            PowerSource::Battery => "battery",
            PowerSource::SuperCap => "supercap",
        };
        f.write_str(s)
    }
}

/// The last bulk assignment, with its arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bulk {
    All(PowerSource),
    Split { sc: usize, battery: usize },
}

/// The bank of per-server relays.
///
/// # Examples
///
/// ```
/// use heb_powersys::{PowerSource, SwitchFabric};
///
/// let mut fabric = SwitchFabric::new(6);
/// // Put 30 % of servers (here: the first two) on the SC pool:
/// fabric.assign_ratio_to(PowerSource::SuperCap, 2);
/// assert_eq!(fabric.count_on(PowerSource::SuperCap), 2);
/// assert_eq!(fabric.count_on(PowerSource::Utility), 4);
/// ```
#[derive(Debug, Clone)]
pub struct SwitchFabric {
    positions: Vec<PowerSource>,
    /// Relays mechanically stuck in the open (utility) position: the
    /// server cannot be switched onto either buffer pool until the
    /// relay is repaired.
    stuck_open: Vec<bool>,
    actuations: u64,
    /// The last bulk assignment, while every relay still sits where it
    /// left it; `None` after any single assignment or stuck change.
    bulk: Option<Bulk>,
}

/// Equality is over relay state; the bulk memo is ignored.
impl PartialEq for SwitchFabric {
    fn eq(&self, other: &Self) -> bool {
        self.positions == other.positions
            && self.stuck_open == other.stuck_open
            && self.actuations == other.actuations
    }
}

impl Eq for SwitchFabric {}

impl SwitchFabric {
    /// Creates a fabric of `n` relays, all pointing at utility power.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            positions: vec![PowerSource::Utility; n],
            stuck_open: vec![false; n],
            actuations: 0,
            bulk: None,
        }
    }

    /// Number of relays.
    #[must_use]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the fabric has no relays.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Current position of relay `server`.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    #[must_use]
    pub fn source_of(&self, server: usize) -> PowerSource {
        self.positions[server]
    }

    /// Points relay `server` at `source`, counting an actuation only on
    /// actual change. A stuck-open relay refuses to move off utility:
    /// the assignment is silently dropped (the field failure mode — the
    /// coil energises, the contact never closes).
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn assign(&mut self, server: usize, source: PowerSource) {
        self.bulk = None;
        self.move_relay(server, source);
    }

    /// [`SwitchFabric::assign`] without dropping the bulk memo.
    fn move_relay(&mut self, server: usize, source: PowerSource) {
        if self.stuck_open[server] && source != PowerSource::Utility {
            return;
        }
        if self.positions[server] != source {
            self.positions[server] = source;
            self.actuations += 1;
        }
    }

    /// Marks relay `server` as stuck open (or repaired, with `false`).
    /// Sticking a relay forces its position back to utility without
    /// counting an actuation — the contact dropped out, nothing was
    /// commanded.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn set_stuck_open(&mut self, server: usize, stuck: bool) {
        self.bulk = None;
        self.stuck_open[server] = stuck;
        if stuck {
            self.positions[server] = PowerSource::Utility;
        }
    }

    /// Whether relay `server` is stuck open.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    #[must_use]
    pub fn is_stuck_open(&self, server: usize) -> bool {
        self.stuck_open[server]
    }

    /// Number of relays currently stuck open.
    #[must_use]
    pub fn stuck_open_count(&self) -> usize {
        self.stuck_open.iter().filter(|&&s| s).count()
    }

    /// Indices of relays currently stuck open, without allocating — the
    /// hot-path form used once per tick by the fault layer.
    pub fn stuck_open_iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.stuck_open
            .iter()
            .enumerate()
            .filter_map(|(idx, &s)| s.then_some(idx))
    }

    /// Indices of relays currently stuck open.
    #[must_use]
    pub fn stuck_open_servers(&self) -> Vec<usize> {
        self.stuck_open_iter().collect()
    }

    /// Points every relay at `source`; O(1) when this repeats the last
    /// bulk assignment.
    pub fn assign_all(&mut self, source: PowerSource) {
        let bulk = Bulk::All(source);
        if self.bulk == Some(bulk) {
            return;
        }
        for idx in 0..self.positions.len() {
            self.move_relay(idx, source);
        }
        self.bulk = Some(bulk);
    }

    /// Points the first `count` relays at `source` and the rest at the
    /// other buffer-or-utility default. Used to realise a coarse `R_λ`
    /// split: `count = round(R_λ · N)` servers on the SC pool.
    pub fn assign_ratio_to(&mut self, source: PowerSource, count: usize) {
        self.bulk = None;
        let count = count.min(self.positions.len());
        for idx in 0..count {
            self.move_relay(idx, source);
        }
    }

    /// Realises a full HEB split: `sc_count` relays on the SC pool, the
    /// next `battery_count` on the battery pool, the rest on utility.
    /// O(1) when this repeats the last bulk assignment.
    pub fn assign_split(&mut self, sc_count: usize, battery_count: usize) {
        let bulk = Bulk::Split {
            sc: sc_count,
            battery: battery_count,
        };
        if self.bulk == Some(bulk) {
            return;
        }
        let n = self.positions.len();
        let sc_end = sc_count.min(n);
        let ba_end = (sc_count + battery_count).min(n);
        for idx in 0..n {
            let source = if idx < sc_end {
                PowerSource::SuperCap
            } else if idx < ba_end {
                PowerSource::Battery
            } else {
                PowerSource::Utility
            };
            self.move_relay(idx, source);
        }
        self.bulk = Some(bulk);
    }

    /// Number of relays currently on `source`.
    #[must_use]
    pub fn count_on(&self, source: PowerSource) -> usize {
        self.positions.iter().filter(|&&p| p == source).count()
    }

    /// Relay indices currently on `source`, without allocating — the
    /// hot-path form for per-tick scans over a fleet-sized fabric.
    pub fn servers_on_iter(&self, source: PowerSource) -> impl Iterator<Item = usize> + '_ {
        self.positions
            .iter()
            .enumerate()
            .filter_map(move |(idx, &p)| (p == source).then_some(idx))
    }

    /// Relay indices currently on `source`.
    #[must_use]
    pub fn servers_on(&self, source: PowerSource) -> Vec<usize> {
        self.servers_on_iter(source).collect()
    }

    /// The realised SC share of servers (an `R_λ` readback).
    #[must_use]
    pub fn sc_share(&self) -> Ratio {
        if self.positions.is_empty() {
            Ratio::ZERO
        } else {
            Ratio::new_clamped(
                self.count_on(PowerSource::SuperCap) as f64 / self.positions.len() as f64,
            )
        }
    }

    /// Total relay actuations so far (a wear metric).
    #[must_use]
    pub fn actuations(&self) -> u64 {
        self.actuations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_to_utility() {
        let fabric = SwitchFabric::new(4);
        assert_eq!(fabric.count_on(PowerSource::Utility), 4);
        assert_eq!(fabric.sc_share(), Ratio::ZERO);
        assert_eq!(fabric.actuations(), 0);
    }

    #[test]
    fn assign_counts_actuations_only_on_change() {
        let mut fabric = SwitchFabric::new(2);
        fabric.assign(0, PowerSource::Battery);
        fabric.assign(0, PowerSource::Battery);
        assert_eq!(fabric.actuations(), 1);
        fabric.assign(0, PowerSource::SuperCap);
        assert_eq!(fabric.actuations(), 2);
    }

    #[test]
    fn split_assignment() {
        let mut fabric = SwitchFabric::new(6);
        fabric.assign_split(2, 4);
        assert_eq!(fabric.count_on(PowerSource::SuperCap), 2);
        assert_eq!(fabric.count_on(PowerSource::Battery), 4);
        assert_eq!(fabric.count_on(PowerSource::Utility), 0);
        assert_eq!(fabric.servers_on(PowerSource::SuperCap), vec![0, 1]);
        assert!((fabric.sc_share().get() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn split_saturates_at_fabric_size() {
        let mut fabric = SwitchFabric::new(3);
        fabric.assign_split(2, 5);
        assert_eq!(fabric.count_on(PowerSource::SuperCap), 2);
        assert_eq!(fabric.count_on(PowerSource::Battery), 1);
    }

    #[test]
    fn assign_all() {
        let mut fabric = SwitchFabric::new(3);
        fabric.assign_all(PowerSource::Battery);
        assert_eq!(fabric.count_on(PowerSource::Battery), 3);
    }

    #[test]
    fn display_names() {
        assert_eq!(PowerSource::SuperCap.to_string(), "supercap");
        assert_eq!(PowerSource::ALL.len(), 3);
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        let fabric = SwitchFabric::new(1);
        let _ = fabric.source_of(5);
    }

    #[test]
    fn stuck_open_relay_refuses_buffer_assignment() {
        let mut fabric = SwitchFabric::new(3);
        fabric.assign(1, PowerSource::Battery);
        let worn = fabric.actuations();
        fabric.set_stuck_open(1, true);
        // Sticking forced the relay back to utility without an actuation.
        assert_eq!(fabric.source_of(1), PowerSource::Utility);
        assert_eq!(fabric.actuations(), worn);
        // Buffer assignments are dropped while stuck...
        fabric.assign(1, PowerSource::SuperCap);
        assert_eq!(fabric.source_of(1), PowerSource::Utility);
        fabric.assign_all(PowerSource::Battery);
        assert_eq!(fabric.count_on(PowerSource::Battery), 2);
        assert_eq!(fabric.stuck_open_servers(), vec![1]);
        assert_eq!(fabric.stuck_open_count(), 1);
        // ...and honoured again after repair.
        fabric.set_stuck_open(1, false);
        fabric.assign(1, PowerSource::Battery);
        assert_eq!(fabric.source_of(1), PowerSource::Battery);
    }
}
