//! Megafleet: the fleet-scale hot path exercised end-to-end.
//!
//! The paper sizes HEB for datacenters, not racks; this experiment
//! scales the simulated cluster from 1 k to 100 k servers and runs a
//! full 24 h day through the event-driven core. The regime is chosen
//! so the hot path dominates: a provably steady workload
//! ([`BurstProfile::steady`]), noiseless metering (the prototype
//! default), a comfortable utility budget, and quiescent buffers —
//! which lets [`SimDriver::Event`] leap slot-to-slot while the
//! struct-of-arrays cluster and the aggregation tree keep the per-tick
//! work O(changed servers) instead of O(fleet).
//!
//! Per-server sizing follows the prototype rack (≈43 W budget and
//! 25 Wh of buffer per server) rounded to generous constants, so the
//! steady 50 %-utilization day never sheds and the report is a pure
//! throughput measurement.
//!
//! [`BurstProfile::steady`]: heb_workload::BurstProfile::steady
//! [`SimDriver::Event`]: crate::event::SimDriver

use crate::config::SimConfig;
use crate::event::DriverMode;
use crate::scenario::Scenario;
use heb_units::{Joules, Ratio, Seconds, Watts};
use heb_workload::Archetype;

/// The committed scale trajectory, in servers.
pub const MEGAFLEET_SCALES: [usize; 3] = [1_000, 10_000, 100_000];

/// Steady per-server utilization the megafleet day runs at.
const STEADY_LEVEL: f64 = 0.5;

/// Utility budget per server. A low-frequency server at 50 %
/// utilization draws 42 W, so 50 W of budget means the utility feed
/// covers the whole fleet with headroom and the buffers stay idle.
const BUDGET_PER_SERVER: Watts = Watts::new(50.0);

/// Buffer capacity per server, matching the prototype rack's
/// 150 Wh across 6 servers.
const CAPACITY_WH_PER_SERVER: f64 = 25.0;

/// The megafleet configuration for a fleet of `servers`: prototype
/// semantics, datacenter-scale sizing, and a coarse 60 s tick inside
/// 1 h control slots (1 440 ticks per simulated day).
///
/// # Panics
///
/// Panics when `servers` is zero — a megafleet needs a fleet.
#[must_use]
pub fn megafleet_config(servers: usize) -> SimConfig {
    let n = servers as f64;
    SimConfig::prototype()
        .to_builder()
        .servers(servers)
        .tick(Seconds::new(60.0))
        .slot_length(Seconds::from_minutes(60.0))
        .budget(BUDGET_PER_SERVER * n)
        .total_capacity(Joules::from_watt_hours(CAPACITY_WH_PER_SERVER * n))
        .battery_strings((servers / 1_000).max(4))
        .build()
        // heb-analyze: allow(HEB003, constants above satisfy the builder for every positive fleet size; zero servers is a caller bug)
        .expect("megafleet sizing must validate")
}

/// One megafleet scenario: `servers` machines running the steady
/// WebSearch day for `hours` under the event driver.
#[must_use]
pub fn megafleet_scenario(servers: usize, hours: f64, seed: u64) -> Scenario {
    Scenario::new(
        format!("megafleet/{servers}"),
        megafleet_config(servers),
        &[Archetype::WebSearch],
        hours,
        seed,
    )
    .with_steady_workload(Ratio::new_clamped(STEADY_LEVEL))
    .with_driver_mode(DriverMode::Event)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heb_powersys::RACK_FANOUT;

    #[test]
    fn config_scales_with_the_fleet() {
        let cfg = megafleet_config(10_000);
        assert_eq!(cfg.servers, 10_000);
        assert_eq!(cfg.budget, Watts::new(500_000.0));
        assert_eq!(cfg.battery_strings, 10);
        assert_eq!(cfg.ticks_per_slot(), 60);
        // Small fleets still get a redundant string pool.
        assert_eq!(megafleet_config(256).battery_strings, 4);
    }

    #[test]
    fn steady_day_never_sheds_and_covers_the_horizon() {
        // Multi-rack on purpose: 256 servers span 4 aggregation racks,
        // so this exercises the tree, not the single-rack degeneracy.
        let servers = 4 * RACK_FANOUT;
        let report = megafleet_scenario(servers, 1.0, 9)
            .run()
            .expect("megafleet scenario must run");
        assert_eq!(report.shed_events, 0, "steady fleet under budget");
        assert_eq!(report.server_restarts, 0);
        assert!((report.sim_time.as_hours() - 1.0).abs() < 1e-9);
        // 42 W per steady low-frequency server, served by the utility.
        let mean_watts = report.utility_supplied.get() / report.sim_time.get() / servers as f64;
        assert!(
            (40.0..=60.0).contains(&mean_watts),
            "mean draw {mean_watts} W/server out of the steady band"
        );
    }

    #[test]
    fn event_driver_matches_the_tick_driver_bitwise() {
        let servers = 2 * RACK_FANOUT;
        let event = megafleet_scenario(servers, 1.0, 5)
            .run()
            .expect("event run");
        let tick = megafleet_scenario(servers, 1.0, 5)
            .with_driver_mode(DriverMode::Tick)
            .run()
            .expect("tick run");
        assert_eq!(event, tick);
    }

    #[test]
    fn scenario_hashes_separate_scales() {
        let a = megafleet_scenario(1_000, 24.0, 1);
        let b = megafleet_scenario(10_000, 24.0, 1);
        assert_ne!(a.content_hash(), b.content_hash());
        assert_eq!(a.servers(), 1_000);
    }
}
