//! Chaos property tests: arbitrary fault schedules must never break
//! the simulation's invariants.
//!
//! Whatever storm the injector throws at the stack — stochastic renewal
//! processes, dense scripted event soups, solar-mode grid loss — the
//! books must still balance, downtime must stay within fleet-seconds,
//! every headline metric must stay finite, and the fault ledger must
//! account events consistently.

use heb_core::{
    FaultEvent, FaultKind, FaultProfile, FaultSchedule, PolicyKind, PowerMode, Scenario, SimConfig,
    SimReport,
};
use heb_units::{Ratio, Seconds, Watts};
use heb_workload::{Archetype, SolarTraceBuilder};
use proptest::prelude::*;

const TICKS: u64 = 1800;
const SERVERS: f64 = 6.0;

fn policy_strategy() -> impl Strategy<Value = PolicyKind> {
    proptest::sample::select(PolicyKind::ALL.to_vec())
}

/// Raw material for one scripted fault: (kind selector, start, duration,
/// permanent flag, scalar parameter). Decoded by [`decode_event`].
type RawEvent = (usize, f64, f64, usize, f64);

fn raw_event_strategy() -> impl Strategy<Value = RawEvent> {
    (
        0..10usize,
        0.0..1500.0f64,
        1.0..600.0f64,
        0..4usize,
        0.0..1.0f64,
    )
}

fn decode_event(raw: RawEvent) -> FaultEvent {
    let (selector, start, duration, permanent, param) = raw;
    let kind = match selector {
        0 => FaultKind::UtilityBrownout {
            derate: Ratio::new_clamped(param),
        },
        1 => FaultKind::UtilityBlackout,
        2 => FaultKind::SolarDropout,
        3 => FaultKind::BatteryStringFailure {
            index: (param * 8.0) as usize,
        },
        4 => FaultKind::BatteryDegradation {
            capacity_fade: Ratio::new_clamped(param * 0.3),
            resistance_growth: param,
        },
        5 => FaultKind::ScModuleFailure {
            index: (param * 4.0) as usize,
        },
        6 => FaultKind::RelayStuckOpen {
            server: (param * 8.0) as usize,
        },
        7 => FaultKind::MeterDropout,
        8 => FaultKind::MeterFreeze,
        _ => FaultKind::MeterSpike {
            factor: 0.5 + param * 3.5,
        },
    };
    // One in four scripted faults never recovers.
    if permanent == 0 {
        FaultEvent::permanent(Seconds::new(start), kind)
    } else {
        FaultEvent::lasting(Seconds::new(start), Seconds::new(duration), kind)
    }
}

/// The invariants every chaos run must uphold, regardless of schedule.
fn assert_chaos_invariants(report: &SimReport, schedule_len: usize) {
    prop_assert!(report.energy_efficiency().in_unit_interval());
    prop_assert!(report.buffer_delivered.get() >= 0.0);
    prop_assert!(report.unserved_energy.get() >= 0.0);
    prop_assert!(report.server_downtime.get() >= 0.0);
    prop_assert!(report.server_downtime.get() <= report.sim_time.get() * SERVERS + 1e-6);
    for (name, value) in [
        ("delivered", report.buffer_delivered.get()),
        ("drained", report.buffer_drained.get()),
        ("stored", report.charge_stored.get()),
        ("drawn", report.charge_drawn.get()),
        ("unserved", report.unserved_energy.get()),
        ("fault_unserved", report.faults.fault_unserved.get()),
        ("ride_through", report.faults.ride_through.get()),
        ("recovery", report.faults.recovery_latency.get()),
    ] {
        prop_assert!(value.is_finite(), "{name} must stay finite, got {value}");
    }
    // Energy conservation on both the discharge and the charge path.
    prop_assert!(
        ((report.buffer_delivered + report.discharge_loss) - report.buffer_drained)
            .get()
            .abs()
            < 1.0
    );
    prop_assert!(
        ((report.charge_stored + report.charge_loss) - report.charge_drawn)
            .get()
            .abs()
            < 1.0
    );
    // Ledger consistency: nothing recovers that never struck, and
    // nothing strikes that was never scheduled.
    prop_assert!(report.faults.events_recovered <= report.faults.events_applied);
    prop_assert!(report.faults.events_applied <= schedule_len as u64);
    prop_assert!(report.faults.strings_restored <= report.faults.strings_quarantined);
    // In debug builds, rerun the full conservation audit on the
    // final report (the per-tick/per-slot hooks already ran inside the
    // simulation itself).
    #[cfg(debug_assertions)]
    heb_core::invariants::check_report(report);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn stochastic_storms_preserve_invariants(
        policy in policy_strategy(),
        seed in proptest::num::u64::ANY,
        intensity in 0.0..6.0f64,
        strings in 1..4usize,
    ) {
        let config = SimConfig::prototype()
            .with_policy(policy)
            .with_battery_strings(strings);
        let horizon = Seconds::new(TICKS as f64);
        let profile = FaultProfile::nominal()
            .scaled(intensity)
            .sized(config.servers, strings, 1);
        let schedule = FaultSchedule::stochastic(seed, horizon, &profile);
        let report = Scenario::from_ticks("chaos/stochastic", config, &[Archetype::WebSearch], TICKS, seed)
            .with_faults(schedule.clone())
            .run()
            .unwrap();
        assert_chaos_invariants(&report, schedule.len());
    }

    #[test]
    fn scripted_event_soups_preserve_invariants(
        policy in policy_strategy(),
        seed in proptest::num::u64::ANY,
        raw_events in proptest::collection::vec(raw_event_strategy(), 0..20),
    ) {
        let schedule =
            FaultSchedule::scripted(raw_events.into_iter().map(decode_event).collect());
        let config = SimConfig::prototype()
            .with_policy(policy)
            .with_battery_strings(2);
        let report = Scenario::from_ticks("chaos/scripted", config, &[Archetype::Terasort], TICKS, seed)
            .with_faults(schedule.clone())
            .run()
            .unwrap();
        assert_chaos_invariants(&report, schedule.len());
    }

    #[test]
    fn solar_mode_chaos_preserves_invariants(
        policy in policy_strategy(),
        seed in proptest::num::u64::ANY,
        intensity in 0.0..4.0f64,
    ) {
        let config = SimConfig::prototype().with_policy(policy);
        let horizon = Seconds::new(TICKS as f64);
        let profile = FaultProfile::nominal()
            .scaled(intensity)
            .sized(config.servers, config.battery_strings, 1);
        let schedule = FaultSchedule::stochastic(seed, horizon, &profile);
        let trace = SolarTraceBuilder::new(Watts::new(400.0)).seed(seed).build();
        let report = Scenario::from_ticks("chaos/solar", config, &[Archetype::WebSearch], TICKS, seed)
            .with_mode(PowerMode::Solar(trace))
            .with_faults(schedule.clone())
            .run()
            .unwrap();
        assert_chaos_invariants(&report, schedule.len());
    }
}
