//! Draw-cache coherence: [`Cluster`] keeps every server's draw cached
//! and updates it in each mutator, and its demand sums, meter samples
//! and tick energies read that cache. After every step of a random
//! mutation script, each of them must equal a from-scratch recompute
//! over the materialised [`Server`] objects — bitwise, in the
//! documented reduction orders:
//!
//! - `total_demand`: per rack in index order from `0.0`, then the rack
//!   sums in rack order;
//! - the meter total: flat, left to right over the channels;
//! - the tick energy: left to right from `0.0`.
//!
//! Fleets span several racks so the per-rack partial sums built by the
//! fused drive pass are exercised across rack boundaries.

use heb_powersys::{Cluster, FrequencyLevel, Ipdu, Server, RACK_FANOUT};
use heb_units::{Ratio, Seconds, Watts};
use proptest::prelude::*;

/// One step of the randomized mutation script.
#[derive(Debug, Clone)]
enum Op {
    /// Set one server's utilization (value may need clamping).
    SetUtil { slot: usize, level: f64 },
    /// Drive a prefix of the fleet (or all of it, and more) in one pass.
    Drive { levels: Vec<f64> },
    /// Set one server's frequency-governor level.
    SetFreq { slot: usize, low: bool },
    /// Power one server off (idempotent).
    PowerOff { slot: usize },
    /// Power one server on (idempotent, charges restart energy).
    PowerOn { slot: usize },
    /// Power every off server back on.
    RestoreAll,
    /// Shed the `count` least-recently-used running servers.
    Shed { count: usize },
    /// Advance one metering tick.
    Tick { dt: f64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..1024, -0.25..1.25f64).prop_map(|(slot, level)| Op::SetUtil { slot, level }),
        proptest::collection::vec(-0.25..1.25f64, 0..260).prop_map(|levels| Op::Drive { levels }),
        (0usize..1024, 0usize..2).prop_map(|(slot, low)| Op::SetFreq {
            slot,
            low: low == 1
        }),
        (0usize..1024).prop_map(|slot| Op::PowerOff { slot }),
        (0usize..1024).prop_map(|slot| Op::PowerOn { slot }),
        Just(Op::RestoreAll),
        (0usize..40).prop_map(|count| Op::Shed { count }),
        (0.5..90.0f64).prop_map(|dt| Op::Tick { dt }),
    ]
}

fn apply(op: &Op, cluster: &mut Cluster, now: &mut f64) {
    let n = cluster.len();
    match op {
        Op::SetUtil { slot, level } => {
            cluster.set_utilization(slot % n, Ratio::new_unclamped(*level));
        }
        Op::Drive { levels } => {
            cluster.set_utilizations_with(levels.iter().map(|&l| Ratio::new_unclamped(l)));
        }
        Op::SetFreq { slot, low } => {
            let f = if *low {
                FrequencyLevel::Low
            } else {
                FrequencyLevel::High
            };
            cluster.set_frequency(slot % n, f);
        }
        Op::PowerOff { slot } => cluster.power_off(slot % n),
        Op::PowerOn { slot } => cluster.power_on(slot % n),
        Op::RestoreAll => cluster.restore_all(),
        Op::Shed { count } => {
            let _ = cluster.shed_least_recently_used(*count);
        }
        Op::Tick { dt } => {
            let _ = cluster.tick(Seconds::new(*now), Seconds::new(*dt));
            *now += dt;
        }
    }
}

/// Every cached quantity against its from-scratch recompute.
fn check_coherent(cluster: &mut Cluster, now: f64) {
    let servers: Vec<Server> = (0..cluster.len()).map(|i| cluster.server(i)).collect();
    // Per-server draws, and the cluster rebuilt from scratch (equality
    // covers the cached draws and the incremental counts).
    for (i, s) in servers.iter().enumerate() {
        prop_assert_eq!(
            cluster.power_draw(i).get().to_bits(),
            s.power_draw().get().to_bits(),
            "server {} draw is stale",
            i
        );
    }
    let rebuilt = Cluster::new(servers.clone());
    prop_assert!(*cluster == rebuilt, "cached state differs from a rebuild");
    prop_assert_eq!(cluster.all_running_steady(), rebuilt.all_running_steady());
    prop_assert_eq!(
        cluster.all_running_steady(),
        servers
            .iter()
            .all(|s| s.state() == heb_powersys::PowerState::On && !s.has_pending_restart())
    );

    // Demand total: rack partial sums, folded in rack order.
    let want: f64 = servers
        .chunks(RACK_FANOUT)
        .map(|rack| rack.iter().fold(0.0, |acc, s| acc + s.power_draw().get()))
        .sum();
    prop_assert_eq!(cluster.total_demand().get().to_bits(), want.to_bits());

    // Meter: channels are the draws, the total a flat left-to-right sum.
    let mut ipdu = Ipdu::new(4);
    let total = ipdu.sample(cluster, Seconds::new(now)).total;
    let flat: Watts = servers.iter().map(Server::power_draw).sum();
    prop_assert_eq!(total.get().to_bits(), flat.get().to_bits());
    prop_assert!(ipdu
        .channels()
        .iter()
        .zip(&servers)
        .all(|(c, s)| c.get().to_bits() == s.power_draw().get().to_bits()));

    // Tick: on a copy, against the object-per-server tick.
    let (t, dt) = (Seconds::new(now), Seconds::new(1.0));
    let mut ticked = cluster.clone();
    let energy = ticked.tick(t, dt);
    let mut objects = servers;
    let want = objects
        .iter_mut()
        .fold(0.0, |acc, s| acc + s.tick(t, dt).get());
    prop_assert_eq!(energy.get().to_bits(), want.to_bits());
    prop_assert!(ticked == Cluster::new(objects), "tick left a stale cache");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn cached_draws_stay_coherent_across_mutations(
        size in 1usize..(3 * RACK_FANOUT + 9),
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let mut cluster = Cluster::prototype(size);
        let mut now = 0.0;
        check_coherent(&mut cluster, now);
        for op in &ops {
            apply(op, &mut cluster, &mut now);
            check_coherent(&mut cluster, now);
        }
    }
}
