//! The simulation draws bursty workload lanes a block of ticks ahead
//! (small fleets) or one tick at a time (large ones). Either way, after
//! every step each server's utilization must be, bit for bit, the next
//! sample of a `UtilizationGenerator` seeded the way the simulator seeds
//! that server: the lanes are open loop, so drawing ahead changes
//! nothing a tick sees.

use heb_core::{Scenario, SimConfig};
use heb_workload::Archetype;

/// Steps a bursty `servers`-server scenario `ticks` times and checks
/// every server's utilization after every step against its generator.
fn check(servers: usize, ticks: usize) {
    let mix = [
        Archetype::Terasort,
        Archetype::WebSearch,
        Archetype::Hivebench,
    ];
    let seed = 1013;
    let config = SimConfig::prototype()
        .to_builder()
        .servers(servers)
        .build()
        .expect("valid server count");
    let mut sim = Scenario::new("lane-blocks", config, &mix, 1.0, seed)
        .build()
        .expect("valid scenario");
    let mut generators: Vec<_> = (0..servers)
        .map(|i| mix[i % mix.len()].generator(seed.wrapping_add(i as u64 * 7919)))
        .collect();
    for tick in 0..ticks {
        sim.step();
        let fleet = sim.cluster().fleet();
        for (i, generator) in generators.iter_mut().enumerate() {
            assert_eq!(
                fleet.utilization(i).get().to_bits(),
                generator.next_utilization().get().to_bits(),
                "{servers} servers: server {i} at tick {tick}"
            );
        }
    }
}

/// A 6-server rack draws 128-tick blocks: cross three of them.
#[test]
fn a_rack_sees_its_generators_samples_across_blocks() {
    check(6, 3 * 128 + 5);
}

/// Three racks draw 63-tick blocks.
#[test]
fn a_multi_rack_fleet_sees_its_generators_samples_across_blocks() {
    check(129, 2 * 63 + 3);
}

/// The shortest blocks, 4 ticks at 2,048 servers, and the per-tick
/// pass one server above.
#[test]
fn large_fleets_see_their_generators_samples() {
    check(2_048, 9);
    check(2_049, 3);
}
