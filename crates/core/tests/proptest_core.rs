//! Property tests for the controller, PAT, and simulation engine.

use heb_core::{HebController, PolicyKind, PowerAllocationTable, Scenario, SimConfig};
use heb_units::{Joules, Ratio, Watts};
use heb_workload::Archetype;
use proptest::prelude::*;

fn policy_strategy() -> impl Strategy<Value = PolicyKind> {
    proptest::sample::select(PolicyKind::ALL.to_vec())
}

fn archetype_strategy() -> impl Strategy<Value = Archetype> {
    proptest::sample::select(Archetype::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pat_updates_keep_r_lambda_in_unit_interval(
        r0 in 0.0..=1.0f64,
        updates in proptest::collection::vec(
            (0.0..200.0f64, 0.0..200.0f64, 0.0..200.0f64, 0.0..200.0f64),
            0..100,
        ),
    ) {
        let mut pat = PowerAllocationTable::new(
            Joules::from_watt_hours(10.0),
            Watts::new(20.0),
            Ratio::new_clamped(0.01),
        );
        let key = pat.key(
            Joules::from_watt_hours(40.0),
            Joules::from_watt_hours(100.0),
            Watts::new(120.0),
        );
        pat.insert(key, Ratio::new_clamped(r0));
        for (sc0, ba0, sc1, ba1) in updates {
            pat.update(
                key,
                Joules::from_watt_hours(sc0),
                Joules::from_watt_hours(ba0),
                Joules::from_watt_hours(sc1),
                Joules::from_watt_hours(ba1),
            );
            let r = pat.lookup(key).unwrap();
            prop_assert!(r.in_unit_interval(), "R_lambda {r:?} escaped [0,1]");
        }
    }

    #[test]
    fn pat_similar_search_total_on_nonempty_tables(
        entries in proptest::collection::vec(
            (0.0..300.0f64, 0.0..300.0f64, 0.0..400.0f64, 0.0..=1.0f64),
            1..40,
        ),
        probe in (0.0..300.0f64, 0.0..300.0f64, 0.0..400.0f64),
    ) {
        let mut pat = PowerAllocationTable::new(
            Joules::from_watt_hours(10.0),
            Watts::new(20.0),
            Ratio::new_clamped(0.01),
        );
        for (sc, ba, pm, r) in entries {
            let key = pat.key(
                Joules::from_watt_hours(sc),
                Joules::from_watt_hours(ba),
                Watts::new(pm),
            );
            pat.insert(key, Ratio::new_clamped(r));
        }
        let key = pat.key(
            Joules::from_watt_hours(probe.0),
            Joules::from_watt_hours(probe.1),
            Watts::new(probe.2),
        );
        // A non-empty table must always answer.
        prop_assert!(pat.lookup_similar(key).is_some());
    }

    #[test]
    fn controller_plans_are_always_well_formed(
        policy in policy_strategy(),
        slots in proptest::collection::vec(
            (0.0..500.0f64, 0.0..300.0f64, 0.0..60.0f64, 0.0..120.0f64),
            1..50,
        ),
    ) {
        let config = SimConfig::prototype().with_policy(policy);
        let mut ctl = HebController::new(&config);
        for (peak, valley, sc_wh, ba_wh) in slots {
            let plan = ctl.begin_slot(
                Joules::from_watt_hours(sc_wh),
                Joules::from_watt_hours(ba_wh),
            );
            prop_assert!(plan.r_lambda.in_unit_interval());
            prop_assert!(plan.predicted_mismatch.get() >= 0.0);
            prop_assert!(plan.predicted_mismatch.is_finite());
            let (p, v) = if peak >= valley { (peak, valley) } else { (valley, peak) };
            ctl.end_slot(
                Watts::new(p),
                Watts::new(v),
                Joules::from_watt_hours(sc_wh),
                Joules::from_watt_hours(ba_wh),
            );
        }
    }

    #[test]
    fn short_simulations_never_panic_and_balance_books(
        policy in policy_strategy(),
        archetype in archetype_strategy(),
        seed in proptest::num::u64::ANY,
        budget in 150.0..400.0f64,
        capacity_wh in 20.0..200.0f64,
    ) {
        let config = SimConfig::prototype()
            .with_policy(policy)
            .with_budget(Watts::new(budget))
            .with_total_capacity(Joules::from_watt_hours(capacity_wh));
        let report = Scenario::from_ticks("prop/short", config, &[archetype], 900, seed)
            .run()
            .unwrap();
        prop_assert!(report.energy_efficiency().in_unit_interval());
        prop_assert!(report.buffer_delivered.get() >= 0.0);
        prop_assert!(report.server_downtime.get() >= 0.0);
        prop_assert!(
            ((report.buffer_delivered + report.discharge_loss) - report.buffer_drained)
                .get().abs() < 1.0
        );
        prop_assert!(
            ((report.charge_stored + report.charge_loss) - report.charge_drawn)
                .get().abs() < 1.0
        );
        // Downtime cannot exceed fleet-seconds.
        prop_assert!(report.server_downtime.get() <= 900.0 * 6.0 + 1e-6);
    }

    #[test]
    fn r_lambda_is_one_for_small_predicted_peaks(
        sc_wh in 1.0..60.0f64,
        ba_wh in 1.0..120.0f64,
        peak_over_valley in 0.0..79.0f64,
    ) {
        // Any HEB policy must route small peaks entirely to the SC pool.
        let config = SimConfig::prototype().with_policy(PolicyKind::HebD);
        let mut ctl = HebController::new(&config);
        // Warm predictors with the target mismatch.
        for _ in 0..3 {
            ctl.begin_slot(Joules::from_watt_hours(sc_wh), Joules::from_watt_hours(ba_wh));
            ctl.end_slot(
                Watts::new(260.0 + peak_over_valley),
                Watts::new(260.0),
                Joules::from_watt_hours(sc_wh),
                Joules::from_watt_hours(ba_wh),
            );
        }
        let plan = ctl.begin_slot(
            Joules::from_watt_hours(sc_wh),
            Joules::from_watt_hours(ba_wh),
        );
        if plan.predicted_mismatch <= config.small_peak_threshold {
            prop_assert_eq!(plan.r_lambda, Ratio::ONE);
        }
    }
}
