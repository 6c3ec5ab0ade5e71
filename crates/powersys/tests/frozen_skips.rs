//! The frozen-cluster skip rules are exact: a cluster, relay fabric and
//! meter driven the way the simulator drives them — skipping a steady
//! drive and re-metering while [`Cluster::generation`] is unchanged,
//! restamping a steady rack in place of ticking it, and letting the
//! fabric short-cut a repeated bulk assignment — must stay bit-equal to
//! an eagerly driven twin that runs every pass every time, under random
//! interleavings of every mutator.

use heb_powersys::{
    Cluster, FrequencyLevel, Ipdu, MeterFault, PowerSource, Server, ServerArrays, SwitchFabric,
    RACK_FANOUT,
};
use heb_units::{Ratio, Seconds};
use proptest::prelude::*;

/// One step of the random script.
#[derive(Debug, Clone)]
enum Op {
    /// The steady workload drive (every server at the run's level).
    Drive,
    /// A non-steady drive: every server at `level`.
    DriveAll {
        level: f64,
    },
    SetUtil {
        slot: usize,
        level: f64,
    },
    SetFreq {
        slot: usize,
        low: bool,
    },
    PowerOff {
        slot: usize,
    },
    PowerOn {
        slot: usize,
    },
    Shed {
        count: usize,
    },
    RestoreAll,
    /// One metering tick; the frozen side restamps a steady rack.
    Tick {
        dt: f64,
    },
    /// A bulk stamp at the current time (quiet-span fast-forward).
    MarkAllActive,
    Sample {
        fault: MeterFault,
    },
    AssignAll {
        source: PowerSource,
    },
    AssignSplit {
        sc: usize,
        battery: usize,
    },
    Assign {
        slot: usize,
        source: PowerSource,
    },
    StuckOpen {
        slot: usize,
        stuck: bool,
    },
}

fn source(pick: usize) -> PowerSource {
    PowerSource::ALL[pick % PowerSource::ALL.len()]
}

fn fault(pick: usize, factor: f64) -> MeterFault {
    match pick {
        0 => MeterFault::Dropout,
        1 => MeterFault::Freeze,
        2 => MeterFault::Spike(factor),
        _ => MeterFault::Healthy,
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Drive),
        Just(Op::Drive),
        (0.0..=1.0f64).prop_map(|level| Op::DriveAll { level }),
        (0usize..256, -0.25..1.25f64).prop_map(|(slot, level)| Op::SetUtil { slot, level }),
        (0usize..256, 0usize..2).prop_map(|(slot, low)| Op::SetFreq {
            slot,
            low: low == 1
        }),
        (0usize..256).prop_map(|slot| Op::PowerOff { slot }),
        (0usize..256).prop_map(|slot| Op::PowerOn { slot }),
        (0usize..6).prop_map(|count| Op::Shed { count }),
        Just(Op::RestoreAll),
        (0.5..120.0f64).prop_map(|dt| Op::Tick { dt }),
        (0.5..120.0f64).prop_map(|dt| Op::Tick { dt }),
        Just(Op::MarkAllActive),
        (0usize..8, 0.0..4.0f64).prop_map(|(pick, factor)| Op::Sample {
            fault: fault(pick, factor)
        }),
        (0usize..8, 0.0..4.0f64).prop_map(|(pick, factor)| Op::Sample {
            fault: fault(pick, factor)
        }),
        (0usize..3).prop_map(|pick| Op::AssignAll {
            source: source(pick)
        }),
        (0usize..200, 0usize..200).prop_map(|(sc, battery)| Op::AssignSplit { sc, battery }),
        (0usize..256, 0usize..3).prop_map(|(slot, pick)| Op::Assign {
            slot,
            source: source(pick)
        }),
        (0usize..256, 0usize..2).prop_map(|(slot, stuck)| Op::StuckOpen {
            slot,
            stuck: stuck == 1
        }),
    ]
}

/// The state both sides carry.
struct Rig {
    cluster: Cluster,
    fabric: SwitchFabric,
    ipdu: Ipdu,
    /// Generation after the last steady drive (frozen side only).
    driven_at: Option<u64>,
    /// Generation after the last healthy sample (frozen side only).
    metered_at: Option<u64>,
}

impl Rig {
    fn new(n: usize) -> Self {
        Self {
            cluster: Cluster::prototype(n),
            fabric: SwitchFabric::new(n),
            ipdu: Ipdu::new(16),
            driven_at: None,
            metered_at: None,
        }
    }

    /// Applies `op`; `frozen` selects the skip rules, otherwise every
    /// pass runs in full (bulk relay moves one `assign` per relay).
    fn apply(&mut self, op: &Op, frozen: bool, level: Ratio, now: &mut f64) {
        let n = self.cluster.len();
        match *op {
            Op::Drive => {
                if frozen && self.driven_at == Some(self.cluster.generation()) {
                    return;
                }
                self.cluster.set_all_utilization(level);
                self.driven_at = Some(self.cluster.generation());
            }
            Op::DriveAll { level } => self.cluster.set_all_utilization(Ratio::new_clamped(level)),
            Op::SetUtil { slot, level } => self
                .cluster
                .set_utilization(slot % n, Ratio::new_unclamped(level)),
            Op::SetFreq { slot, low } => self.cluster.set_frequency(
                slot % n,
                if low {
                    FrequencyLevel::Low
                } else {
                    FrequencyLevel::High
                },
            ),
            Op::PowerOff { slot } => self.cluster.power_off(slot % n),
            Op::PowerOn { slot } => self.cluster.power_on(slot % n),
            Op::Shed { count } => {
                let _ = self.cluster.shed_least_recently_used_count(count);
            }
            Op::RestoreAll => self.cluster.restore_all(),
            Op::Tick { dt } => {
                let t = Seconds::new(*now);
                if frozen && self.cluster.all_running_steady() {
                    self.cluster.mark_all_active(t);
                } else {
                    let _ = self.cluster.tick(t, Seconds::new(dt));
                }
                *now += dt;
            }
            Op::MarkAllActive => self.cluster.mark_all_active(Seconds::new(*now)),
            Op::Sample { fault } => {
                let at = Seconds::new(*now);
                let generation = self.cluster.generation();
                if frozen && fault == MeterFault::Healthy && self.metered_at == Some(generation) {
                    let _ = self.ipdu.repeat_steady(at);
                    return;
                }
                let _ = self.ipdu.try_sample(&self.cluster, at, fault);
                match fault {
                    MeterFault::Healthy => self.metered_at = Some(generation),
                    MeterFault::Spike(_) => self.metered_at = None,
                    MeterFault::Dropout | MeterFault::Freeze => {}
                }
            }
            Op::AssignAll { source } => {
                if frozen {
                    self.fabric.assign_all(source);
                } else {
                    for i in 0..n {
                        self.fabric.assign(i, source);
                    }
                }
            }
            Op::AssignSplit { sc, battery } => {
                if frozen {
                    self.fabric.assign_split(sc, battery);
                } else {
                    for i in 0..n {
                        let source = if i < sc {
                            PowerSource::SuperCap
                        } else if i < sc + battery {
                            PowerSource::Battery
                        } else {
                            PowerSource::Utility
                        };
                        self.fabric.assign(i, source);
                    }
                }
            }
            Op::Assign { slot, source } => self.fabric.assign(slot % n, source),
            Op::StuckOpen { slot, stuck } => self.fabric.set_stuck_open(slot % n, stuck),
        }
    }
}

/// The report totals summed afresh over materialised servers, in index
/// order, as bits: `(downtime, restarts, restart waste)`.
fn flat_totals(servers: &[Server]) -> (u64, u64, u64) {
    let downtime: f64 = servers.iter().map(|s| s.downtime().get()).sum();
    let restarts: u64 = servers.iter().map(Server::restarts).sum();
    let waste: f64 = servers
        .iter()
        .map(|s| (s.params().restart_energy * s.restarts() as f64).get())
        .sum();
    (downtime.to_bits(), restarts, waste.to_bits())
}

/// Every observable of the two sides, bit for bit.
fn assert_same(frozen: &mut Rig, eager: &mut Rig) {
    prop_assert_eq!(&frozen.cluster, &eager.cluster);
    let n = frozen.cluster.len();
    let servers: Vec<Server> = (0..n).map(|i| eager.cluster.server(i)).collect();
    for (i, want) in servers.iter().enumerate() {
        prop_assert_eq!(&frozen.cluster.server(i), want, "server {} diverged", i);
    }
    let (downtime, restarts, waste) = flat_totals(&servers);
    prop_assert_eq!(
        frozen.cluster.least_recently_used_running(),
        eager.cluster.least_recently_used_running()
    );
    prop_assert_eq!(
        frozen.cluster.total_demand().get().to_bits(),
        eager.cluster.total_demand().get().to_bits()
    );
    prop_assert_eq!(frozen.cluster.total_downtime().get().to_bits(), downtime);
    prop_assert_eq!(frozen.cluster.total_restarts(), restarts);
    prop_assert_eq!(frozen.cluster.total_restart_waste().get().to_bits(), waste);
    let history = |ipdu: &Ipdu| -> Vec<(u64, u64)> {
        ipdu.history()
            .map(|r| (r.at.get().to_bits(), r.total.get().to_bits()))
            .collect()
    };
    prop_assert_eq!(history(&frozen.ipdu), history(&eager.ipdu));
    prop_assert_eq!(frozen.ipdu.channels(), eager.ipdu.channels());
    prop_assert_eq!(&frozen.fabric, &eager.fabric);
    prop_assert_eq!(frozen.fabric.actuations(), eager.fabric.actuations());
}

/// One step of the stamp script over the struct-of-arrays layer.
#[derive(Debug, Clone)]
enum StampOp {
    MarkAll,
    Mark { slot: usize },
    TickOne { slot: usize, dt: f64 },
    TickAll { dt: f64 },
    PowerOff { slot: usize },
    PowerOn { slot: usize },
}

fn stamp_op_strategy() -> impl Strategy<Value = StampOp> {
    prop_oneof![
        Just(StampOp::MarkAll),
        Just(StampOp::MarkAll),
        (0usize..256).prop_map(|slot| StampOp::Mark { slot }),
        (0usize..256, 0.5..60.0f64).prop_map(|(slot, dt)| StampOp::TickOne { slot, dt }),
        (0.5..60.0f64).prop_map(|dt| StampOp::TickAll { dt }),
        (0usize..256).prop_map(|slot| StampOp::PowerOff { slot }),
        (0usize..256).prop_map(|slot| StampOp::PowerOn { slot }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random interleavings over one to three racks: the side that
    /// skips is bit-equal to the side that does everything, after
    /// every op.
    #[test]
    fn skip_rules_match_the_eager_twin(
        n in 1usize..(RACK_FANOUT * 2 + 23),
        level in 0.0..=1.0f64,
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let level = Ratio::new_clamped(level);
        let mut frozen = Rig::new(n);
        let mut eager = Rig::new(n);
        let (mut t_frozen, mut t_eager) = (1.0, 1.0);
        for op in &ops {
            frozen.apply(op, true, level, &mut t_frozen);
            eager.apply(op, false, level, &mut t_eager);
            assert_same(&mut frozen, &mut eager);
        }
    }

    /// The pending bulk stamp reads, compares and materialises exactly
    /// like a stamp written server by server, through every writer that
    /// flushes it; the totals memo follows every tick and power-on.
    #[test]
    fn pending_stamp_matches_written_stamps(
        n in 1usize..(RACK_FANOUT + 9),
        ops in proptest::collection::vec(stamp_op_strategy(), 1..60),
    ) {
        let mut lazy = ServerArrays::prototype(n);
        let mut eager = ServerArrays::prototype(n);
        let mut now = 1.0;
        for op in &ops {
            let t = Seconds::new(now);
            match *op {
                StampOp::MarkAll => {
                    lazy.mark_all_active(t);
                    for i in 0..n {
                        eager.mark_active(i, t);
                    }
                }
                StampOp::Mark { slot } => {
                    lazy.mark_active(slot % n, t);
                    eager.mark_active(slot % n, t);
                }
                StampOp::TickOne { slot, dt } => {
                    let a = lazy.tick_one(slot % n, t, Seconds::new(dt));
                    let b = eager.tick_one(slot % n, t, Seconds::new(dt));
                    prop_assert_eq!(a.get().to_bits(), b.get().to_bits());
                    now += dt;
                }
                StampOp::TickAll { dt } => {
                    let a = lazy.tick_all(t, Seconds::new(dt));
                    let b = eager.tick_all(t, Seconds::new(dt));
                    prop_assert_eq!(a.get().to_bits(), b.get().to_bits());
                    now += dt;
                }
                StampOp::PowerOff { slot } => {
                    prop_assert_eq!(lazy.power_off(slot % n), eager.power_off(slot % n));
                }
                StampOp::PowerOn { slot } => {
                    prop_assert_eq!(lazy.power_on(slot % n), eager.power_on(slot % n));
                }
            }
            prop_assert_eq!(&lazy, &eager);
            let servers: Vec<Server> = (0..n).map(|i| eager.materialize(i)).collect();
            for (i, want) in servers.iter().enumerate() {
                prop_assert_eq!(lazy.last_active(i), want.last_active());
                prop_assert_eq!(&lazy.materialize(i), want);
            }
            let (downtime, restarts, waste) = flat_totals(&servers);
            prop_assert_eq!(lazy.total_downtime().get().to_bits(), downtime);
            prop_assert_eq!(lazy.total_restarts(), restarts);
            prop_assert_eq!(lazy.total_restart_waste().get().to_bits(), waste);
        }
    }
}
