//! Outage bookkeeping on first need, one spec per fleet: a fleet keeps
//! downtime, restarts, last-active stamps and restart surcharges only
//! once a write needs them, and holds one [`ServerParams`] when its
//! servers share it. Neither may show in any observable.
//!
//! Each property drives the subject and a reference `Vec<Server>`
//! model through the same random script. The model keeps every field
//! of every server from the start, so it is the eager side. After
//! every step the subject must equal, bit for bit, an eager twin built
//! from the model's servers (`Cluster::new`, or `ServerArrays` with
//! its outage arrays forced into being): the three report totals,
//! every last-active stamp and pending surcharge, `all_running_steady`,
//! the LRU victim, and equality both ways. Fleets of 1–201 servers
//! span up to four racks, built either as the simulator builds them
//! (`Cluster::prototype`) or from servers of one or mixed specs.

use heb_powersys::{Cluster, PowerState, Server, ServerArrays, ServerParams};
use heb_units::{Ratio, Seconds, Watts};
use proptest::prelude::*;

/// Three server specs: the prototype and two others, so mixed fleets
/// differ in every field.
fn spec(pick: usize) -> ServerParams {
    match pick % 3 {
        0 => ServerParams::prototype(),
        1 => ServerParams {
            idle_power: Watts::new(45.0),
            peak_power: Watts::new(120.0),
            restart_energy: Watts::new(120.0) * Seconds::new(90.0),
        },
        _ => ServerParams {
            idle_power: Watts::new(10.5),
            peak_power: Watts::new(25.25),
            restart_energy: Watts::new(25.25) * Seconds::new(30.0),
        },
    }
}

/// The model's servers for fleet kind `kind`: prototype servers, one
/// shared non-prototype spec, or a spec per server from `picks`.
fn model_servers(kind: usize, picks: &[usize]) -> Vec<Server> {
    picks
        .iter()
        .enumerate()
        .map(|(id, &pick)| match kind {
            0 => Server::prototype(id),
            1 => Server::new(id, spec(picks[0] + 1)),
            _ => Server::new(id, spec(pick)),
        })
        .collect()
}

/// The subject cluster for fleet kind `kind`: kind 0 is built the way
/// the simulator builds fleets.
fn subject_cluster(kind: usize, model: &[Server]) -> Cluster {
    if kind == 0 {
        Cluster::prototype(model.len())
    } else {
        Cluster::new(model.to_vec())
    }
}

/// The report totals summed afresh over servers, in index order, as
/// bits: `(downtime, restarts, restart waste)`.
fn flat_totals(servers: &[Server]) -> (u64, u64, u64) {
    let downtime: f64 = servers.iter().map(|s| s.downtime().get()).sum();
    let restarts: u64 = servers.iter().map(Server::restarts).sum();
    let waste: f64 = servers
        .iter()
        .map(|s| (s.params().restart_energy * s.restarts() as f64).get())
        .sum();
    (downtime.to_bits(), restarts, waste.to_bits())
}

/// The model's LRU victim: the first running server with the least
/// stamp (`Iterator::min_by` semantics).
fn model_victim(model: &[Server]) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for (i, s) in model.iter().enumerate() {
        let stamp = s.last_active().get();
        if s.state() == PowerState::On && best.is_none_or(|(b, _)| stamp < b) {
            best = Some((stamp, i));
        }
    }
    best.map(|(_, i)| i)
}

/// Tick energy of the model, left to right from `0.0`.
fn model_tick(model: &mut [Server], now: f64, dt: f64) -> f64 {
    model.iter_mut().fold(0.0, |acc, s| {
        acc + s.tick(Seconds::new(now), Seconds::new(dt)).get()
    })
}

/// Per-server observables of `fleet` against the model, bitwise.
fn assert_servers(fleet: &ServerArrays, model: &[Server]) {
    prop_assert_eq!(fleet.len(), model.len());
    for (i, want) in model.iter().enumerate() {
        prop_assert_eq!(
            fleet.last_active(i).get().to_bits(),
            want.last_active().get().to_bits(),
            "server {} stamp",
            i
        );
        prop_assert_eq!(
            fleet.has_pending_restart(i),
            want.has_pending_restart(),
            "server {} surcharge",
            i
        );
        prop_assert_eq!(&fleet.materialize(i), want, "server {} diverged", i);
    }
}

/// The three report totals of `fleet` against `want`, bitwise.
fn assert_totals(fleet: &ServerArrays, want: (u64, u64, u64)) {
    prop_assert_eq!(fleet.total_downtime().get().to_bits(), want.0);
    prop_assert_eq!(fleet.total_restarts(), want.1);
    prop_assert_eq!(fleet.total_restart_waste().get().to_bits(), want.2);
}

/// One step of the cluster script; `Drive` drives a prefix of the
/// fleet, or all of it and more.
#[derive(Debug, Clone)]
enum ClusterOp {
    Drive { levels: Vec<f64> },
    PowerOff { slot: usize },
    PowerOn { slot: usize },
    RestoreAll,
    Shed { count: usize },
    MarkAllActive,
    Tick { dt: f64 },
}

fn cluster_op_strategy() -> impl Strategy<Value = ClusterOp> {
    prop_oneof![
        proptest::collection::vec(-0.25..1.25f64, 0..230)
            .prop_map(|levels| ClusterOp::Drive { levels }),
        (0usize..512).prop_map(|slot| ClusterOp::PowerOff { slot }),
        (0usize..512).prop_map(|slot| ClusterOp::PowerOn { slot }),
        Just(ClusterOp::RestoreAll),
        (0usize..12).prop_map(|count| ClusterOp::Shed { count }),
        Just(ClusterOp::MarkAllActive),
        Just(ClusterOp::MarkAllActive),
        (0.5..90.0f64).prop_map(|dt| ClusterOp::Tick { dt }),
        (0.5..90.0f64).prop_map(|dt| ClusterOp::Tick { dt }),
    ]
}

/// Applies `op` to the subject and the model alike, checking what the
/// op itself returns.
fn apply_cluster(op: &ClusterOp, cluster: &mut Cluster, model: &mut [Server], now: &mut f64) {
    let n = model.len();
    match op {
        ClusterOp::Drive { levels } => {
            cluster.set_utilizations_with(levels.iter().map(|&l| Ratio::new_unclamped(l)));
            for (s, &l) in model.iter_mut().zip(levels) {
                s.set_utilization(Ratio::new_unclamped(l));
            }
        }
        ClusterOp::PowerOff { slot } => {
            cluster.power_off(slot % n);
            model[slot % n].power_off();
        }
        ClusterOp::PowerOn { slot } => {
            cluster.power_on(slot % n);
            model[slot % n].power_on();
        }
        ClusterOp::RestoreAll => {
            cluster.restore_all();
            model.iter_mut().for_each(Server::power_on);
        }
        ClusterOp::Shed { count } => {
            let shed = cluster.shed_least_recently_used(*count);
            let mut want = Vec::new();
            while want.len() < *count {
                let Some(victim) = model_victim(model) else {
                    break;
                };
                model[victim].power_off();
                want.push(victim);
            }
            prop_assert_eq!(shed, want);
        }
        ClusterOp::MarkAllActive => {
            cluster.mark_all_active(Seconds::new(*now));
            for s in model.iter_mut() {
                s.mark_active(Seconds::new(*now));
            }
        }
        ClusterOp::Tick { dt } => {
            let energy = cluster.tick(Seconds::new(*now), Seconds::new(*dt));
            let want = model_tick(model, *now, *dt);
            prop_assert_eq!(energy.get().to_bits(), want.to_bits());
            *now += dt;
        }
    }
}

/// One step of the struct-of-arrays script.
#[derive(Debug, Clone)]
enum ArraysOp {
    SetUtil { slot: usize, level: f64 },
    PowerOff { slot: usize },
    PowerOn { slot: usize },
    MarkAll,
    Mark { slot: usize },
    TickOne { slot: usize, dt: f64 },
    TickAll { dt: f64 },
}

fn arrays_op_strategy() -> impl Strategy<Value = ArraysOp> {
    prop_oneof![
        (0usize..512, -0.25..1.25f64).prop_map(|(slot, level)| ArraysOp::SetUtil { slot, level }),
        (0usize..512).prop_map(|slot| ArraysOp::PowerOff { slot }),
        (0usize..512).prop_map(|slot| ArraysOp::PowerOn { slot }),
        Just(ArraysOp::MarkAll),
        Just(ArraysOp::MarkAll),
        (0usize..512).prop_map(|slot| ArraysOp::Mark { slot }),
        (0usize..512, 0.5..60.0f64).prop_map(|(slot, dt)| ArraysOp::TickOne { slot, dt }),
        (0.5..60.0f64).prop_map(|dt| ArraysOp::TickAll { dt }),
    ]
}

fn apply_arrays(op: &ArraysOp, fleet: &mut ServerArrays, model: &mut [Server], now: &mut f64) {
    let n = model.len();
    let t = Seconds::new(*now);
    match *op {
        ArraysOp::SetUtil { slot, level } => {
            let _ = fleet.set_utilization(slot % n, Ratio::new_unclamped(level));
            model[slot % n].set_utilization(Ratio::new_unclamped(level));
        }
        ArraysOp::PowerOff { slot } => {
            let was_on = model[slot % n].state() == PowerState::On;
            prop_assert_eq!(fleet.power_off(slot % n), was_on);
            model[slot % n].power_off();
        }
        ArraysOp::PowerOn { slot } => {
            let was_off = model[slot % n].state() == PowerState::Off;
            prop_assert_eq!(fleet.power_on(slot % n), was_off);
            model[slot % n].power_on();
        }
        ArraysOp::MarkAll => {
            fleet.mark_all_active(t);
            for s in model.iter_mut() {
                s.mark_active(t);
            }
        }
        ArraysOp::Mark { slot } => {
            fleet.mark_active(slot % n, t);
            model[slot % n].mark_active(t);
        }
        ArraysOp::TickOne { slot, dt } => {
            let energy = fleet.tick_one(slot % n, t, Seconds::new(dt));
            let want = model[slot % n].tick(t, Seconds::new(dt));
            prop_assert_eq!(energy.get().to_bits(), want.get().to_bits());
            *now += dt;
        }
        ArraysOp::TickAll { dt } => {
            let energy = fleet.tick_all(t, Seconds::new(dt));
            let want = model_tick(model, *now, dt);
            prop_assert_eq!(energy.get().to_bits(), want.to_bits());
            *now += dt;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cluster-level script: drives, sheds, restores, bulk stamps and
    /// ticks; after every step the subject equals `Cluster::new` of the
    /// model's servers.
    #[test]
    fn cluster_matches_its_eager_twin(
        kind in 0usize..3,
        picks in proptest::collection::vec(0usize..3, 1..202),
        ops in proptest::collection::vec(cluster_op_strategy(), 1..80),
    ) {
        let mut model = model_servers(kind, &picks);
        let mut cluster = subject_cluster(kind, &model);
        let mut now = 1.0;
        for op in &ops {
            apply_cluster(op, &mut cluster, &mut model, &mut now);
            let mut twin = Cluster::new(model.clone());
            prop_assert!(cluster == twin, "subject differs from its twin after {:?}", op);
            prop_assert!(twin == cluster, "twin differs from the subject after {:?}", op);
            assert_servers(cluster.fleet(), &model);
            let want = flat_totals(&model);
            assert_totals(cluster.fleet(), want);
            assert_totals(twin.fleet(), want);
            prop_assert_eq!(cluster.all_running_steady(), twin.all_running_steady());
            prop_assert_eq!(
                cluster.all_running_steady(),
                model
                    .iter()
                    .all(|s| s.state() == PowerState::On && !s.has_pending_restart())
            );
            let victim = cluster.least_recently_used_running();
            prop_assert_eq!(victim, twin.least_recently_used_running());
            prop_assert_eq!(victim, model_victim(&model));
        }
    }

    /// Struct-of-arrays script, with the per-server stamp and tick that
    /// the cluster does not expose; after every step the subject equals
    /// the model's arrays both as built (outage arrays only if some
    /// entry is non-zero) and with the outage arrays forced into being.
    #[test]
    fn arrays_match_their_eager_twin(
        kind in 0usize..3,
        picks in proptest::collection::vec(0usize..3, 1..202),
        ops in proptest::collection::vec(arrays_op_strategy(), 1..80),
    ) {
        let mut model = model_servers(kind, &picks);
        let mut fleet = if kind == 0 {
            ServerArrays::prototype(model.len())
        } else {
            ServerArrays::from_servers(&model)
        };
        let mut now = 1.0;
        for op in &ops {
            apply_arrays(op, &mut fleet, &mut model, &mut now);
            let built = ServerArrays::from_servers(&model);
            let mut eager = built.clone();
            // Rewriting a stamp with its own value changes no state but
            // needs the outage arrays.
            eager.mark_active(0, model[0].last_active());
            for twin in [&built, &eager] {
                prop_assert!(&fleet == twin, "subject differs from its twin after {:?}", op);
                prop_assert!(twin == &fleet, "twin differs from the subject after {:?}", op);
                prop_assert_eq!(fleet.all_running_steady(), twin.all_running_steady());
            }
            assert_servers(&fleet, &model);
            let want = flat_totals(&model);
            assert_totals(&fleet, want);
            assert_totals(&built, want);
            assert_totals(&eager, want);
        }
    }
}
