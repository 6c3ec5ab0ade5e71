//! Scale-out and robustness integration tests: the simulator must hold
//! its invariants on datacenter-sized racks and under degraded
//! instrumentation.

use heb::workload::Archetype;
use heb::{Joules, PolicyKind, Scenario, SimConfig, SimReport, Watts};

/// A 48-server hall with proportionally scaled budget and buffers.
fn hall_config(policy: PolicyKind) -> SimConfig {
    let mut config = SimConfig::prototype().with_policy(policy);
    let scale = 8.0;
    config.servers = 48;
    config.budget = config.budget * scale;
    config.total_capacity = Joules::new(config.total_capacity.get() * scale);
    config
}

fn run(config: SimConfig, mix: &[Archetype], hours: f64, seed: u64) -> SimReport {
    Scenario::new("scale", config, mix, hours, seed)
        .run()
        .expect("valid scenario")
}

#[test]
fn datacenter_scale_run_holds_invariants() {
    let report = run(hall_config(PolicyKind::HebD), &Archetype::ALL, 6.0, 2024);
    assert_eq!(report.sim_time.as_hours(), 6.0);
    assert!(report.buffer_delivered.get() > 0.0);
    assert!(
        ((report.buffer_delivered + report.discharge_loss) - report.buffer_drained)
            .get()
            .abs()
            < 10.0
    );
    assert!(report.energy_efficiency().get() > 0.5);
    // Downtime bounded by fleet-time.
    assert!(report.server_downtime.get() <= 6.0 * 3600.0 * 48.0);
}

#[test]
fn scale_out_preserves_scheme_ordering() {
    // The HEB-vs-BaOnly efficiency win must survive the jump from 6 to
    // 48 servers.
    let hall = |policy| run(hall_config(policy), &Archetype::ALL, 4.0, 7);
    let heb = hall(PolicyKind::HebD);
    let ba = hall(PolicyKind::BaOnly);
    assert!(
        heb.energy_efficiency() > ba.energy_efficiency(),
        "HEB-D {} vs BaOnly {}",
        heb.energy_efficiency(),
        ba.energy_efficiency()
    );
}

#[test]
fn metering_noise_degrades_gracefully() {
    // A 3 % instrument must not break the controller: the run completes,
    // books balance, and performance stays within a sane band of the
    // ideal-instrument run.
    let metered = |noise: f64| {
        let mut config = SimConfig::prototype()
            .with_policy(PolicyKind::HebD)
            .with_budget(Watts::new(250.0));
        config.metering_noise = noise;
        run(
            config,
            &[Archetype::Terasort, Archetype::WebSearch],
            6.0,
            33,
        )
    };
    let clean = metered(0.0);
    let noisy = metered(0.03);
    assert!(
        ((noisy.buffer_delivered + noisy.discharge_loss) - noisy.buffer_drained)
            .get()
            .abs()
            < 10.0
    );
    let clean_eff = clean.energy_efficiency().get();
    let noisy_eff = noisy.energy_efficiency().get();
    assert!(
        noisy_eff > clean_eff - 0.15,
        "3 % metering noise collapsed efficiency: {clean_eff} -> {noisy_eff}"
    );
}

#[test]
fn heavy_noise_is_survivable() {
    // Even a 10 % instrument (broken, by datacenter standards) must not
    // panic or produce nonsense accounting.
    let mut config = SimConfig::prototype().with_policy(PolicyKind::HebD);
    config.metering_noise = 0.10;
    let report = run(config, &[Archetype::Dfsioe], 2.0, 1);
    assert!(report.energy_efficiency().in_unit_interval());
    assert!(report.server_downtime.get() >= 0.0);
}

#[test]
fn single_server_rack_works() {
    // Degenerate fleet size.
    let mut config = SimConfig::prototype().with_policy(PolicyKind::HebD);
    config.servers = 1;
    config.budget = Watts::new(45.0);
    config.total_capacity = Joules::from_watt_hours(25.0);
    let report = run(config, &[Archetype::WebSearch], 2.0, 3);
    assert_eq!(report.sim_time.as_hours(), 2.0);
    assert!(report.energy_efficiency().in_unit_interval());
}
