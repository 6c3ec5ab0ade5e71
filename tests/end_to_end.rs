//! End-to-end integration tests across the whole HEB stack: build real
//! simulations through the facade crate and check system-level
//! invariants that no single crate can verify alone.

use heb::workload::{Archetype, SolarTraceBuilder};
use heb::{Joules, PolicyKind, PowerMode, Ratio, Scenario, SimConfig, SimReport, Watts};

fn mixed_rack() -> [Archetype; 4] {
    [
        Archetype::WebSearch,
        Archetype::Terasort,
        Archetype::PageRank,
        Archetype::Dfsioe,
    ]
}

/// `hours` of the mixed rack under `config`.
fn rack(config: SimConfig, hours: f64, seed: u64) -> Scenario {
    Scenario::new("e2e", config, &mixed_rack(), hours, seed)
}

fn run(scenario: &Scenario) -> SimReport {
    scenario.run().expect("valid scenario")
}

#[test]
fn every_policy_survives_a_simulated_day() {
    for policy in PolicyKind::ALL {
        let config = SimConfig::prototype().with_policy(policy);
        let report = run(&rack(config, 24.0, 99));
        assert_eq!(report.sim_time.as_hours(), 24.0, "{policy}");
        assert!(report.slots >= 143, "{policy} ran {} slots", report.slots);
        // Energy books must balance to numerical noise.
        assert!(
            ((report.buffer_delivered + report.discharge_loss) - report.buffer_drained)
                .get()
                .abs()
                < 10.0,
            "{policy} discharge books"
        );
        assert!(
            ((report.charge_stored + report.charge_loss) - report.charge_drawn)
                .get()
                .abs()
                < 10.0,
            "{policy} charge books"
        );
    }
}

#[test]
fn buffer_energy_is_conserved_against_flows() {
    // Initial + stored − drained must equal final available, within the
    // kinetic slack a battery keeps between its wells.
    let config = SimConfig::prototype().with_policy(PolicyKind::HebD);
    let scenario = rack(config, 6.0, 5);
    let mut driver = scenario.build_driver().expect("valid scenario");
    let initial = driver.sim().buffers().total_available();
    let report = driver.run_ticks(scenario.ticks());
    let expected = initial + report.charge_stored - report.buffer_drained;
    let actual = driver.sim().buffers().total_available();
    let drift = (expected - actual).get().abs();
    assert!(
        drift < 0.1 * initial.get().max(report.charge_stored.get()),
        "energy drift {drift} J too large (expected {expected:?}, got {actual:?})"
    );
}

#[test]
fn no_downtime_when_budget_covers_nameplate() {
    // With a budget above the rack's absolute worst case, no scheme may
    // ever shed a server.
    let config = SimConfig::prototype().with_budget(Watts::new(425.0));
    for policy in [PolicyKind::BaOnly, PolicyKind::HebD] {
        let report = run(&rack(config.clone().with_policy(policy), 4.0, 3));
        assert_eq!(report.server_downtime.get(), 0.0, "{policy}");
        assert_eq!(report.shed_events, 0, "{policy}");
    }
}

#[test]
fn deeper_underprovisioning_never_reduces_downtime() {
    // Monotonicity across the provisioning axis for the same seed.
    let mut last = -1.0;
    for budget in [250.0, 235.0, 215.0] {
        let config = SimConfig::prototype()
            .with_policy(PolicyKind::HebD)
            .with_budget(Watts::new(budget))
            .with_total_capacity(Joules::from_watt_hours(60.0));
        let down = run(&rack(config, 6.0, 8)).server_downtime.get();
        assert!(
            down >= last,
            "budget {budget}: downtime {down} fell below {last}"
        );
        last = down;
    }
}

#[test]
fn bigger_buffers_never_hurt() {
    let mut last = f64::INFINITY;
    for wh in [40.0, 80.0, 160.0] {
        let config = SimConfig::prototype()
            .with_policy(PolicyKind::HebD)
            .with_budget(Watts::new(240.0))
            .with_total_capacity(Joules::from_watt_hours(wh));
        let down = run(&rack(config, 6.0, 21)).server_downtime.get();
        assert!(
            down <= last,
            "{wh} Wh: downtime {down} above smaller buffer's {last}"
        );
        last = down;
    }
}

#[test]
fn solar_rack_reu_is_a_valid_fraction_and_hybrids_lead() {
    let trace = SolarTraceBuilder::new(Watts::new(500.0))
        .seed(31)
        .days(1.0)
        .clouds_per_day(80.0)
        .mean_cloud_secs(360.0)
        .build();
    let mut reu_ba = 0.0;
    let mut reu_heb = 0.0;
    for policy in [PolicyKind::BaOnly, PolicyKind::HebD] {
        let config = SimConfig::prototype().with_policy(policy);
        let report = run(&rack(config, 24.0, 31)
            .with_mode(PowerMode::Solar(trace.clone()))
            .with_initial_soc(Ratio::new_clamped(0.15)));
        let reu = report.reu().get();
        assert!((0.0..=1.0).contains(&reu));
        match policy {
            PolicyKind::BaOnly => reu_ba = reu,
            _ => reu_heb = reu,
        }
    }
    assert!(
        reu_heb > reu_ba,
        "hybrid REU {reu_heb} should beat battery-only {reu_ba}"
    );
}

#[test]
fn relay_fabric_reflects_policy() {
    // BaOnly must never point a relay at the (empty) SC pool.
    let config = SimConfig::prototype().with_policy(PolicyKind::BaOnly);
    let scenario = rack(config, 2.0, 12);
    let mut driver = scenario.build_driver().expect("valid scenario");
    let report = driver.run_ticks(scenario.ticks());
    assert!(driver.sim().buffers().sc_pool().is_empty());
    assert_eq!(report.pat_entries, 0);
}

#[test]
fn controller_learns_only_under_dynamic_policies() {
    let run = |policy| {
        let config = SimConfig::prototype()
            .with_policy(policy)
            .with_budget(Watts::new(245.0));
        run(&Scenario::new(
            "e2e",
            config,
            &[Archetype::Terasort],
            8.0,
            77,
        ))
        .pat_entries
    };
    assert_eq!(run(PolicyKind::ScFirst), 0);
    assert!(run(PolicyKind::HebD) > 0, "HEB-D must populate its PAT");
}

#[test]
fn identical_seeds_reproduce_identical_reports() {
    let make = || {
        let config = SimConfig::prototype().with_policy(PolicyKind::HebD);
        run(&rack(config, 3.0, 4242))
    };
    let a = make();
    let b = make();
    assert_eq!(a, b);
}

#[test]
fn buffers_cycle_rather_than_only_drain() {
    // Over a long run the buffers must both discharge and recharge —
    // the control loop is a cycle, not a one-way drain.
    let config = SimConfig::prototype().with_policy(PolicyKind::HebD);
    let scenario = rack(config, 12.0, 64);
    let mut driver = scenario.build_driver().expect("valid scenario");
    let report = driver.run_ticks(scenario.ticks());
    assert!(report.buffer_delivered.get() > 0.0, "never discharged");
    assert!(report.charge_stored.get() > 0.0, "never recharged");
    // And the pools must end somewhere inside their window.
    let buffers = driver.sim().buffers();
    let soc = buffers.total_available() / buffers.total_capacity();
    assert!((0.0..=1.0 + 1e-9).contains(&soc));
}
