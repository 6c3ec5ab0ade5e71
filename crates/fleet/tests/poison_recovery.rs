//! Panic / failure isolation, end to end: one broken scenario in a
//! batch must not poison its siblings, the engine, or the cache — and
//! the plain `run` entry point must still re-raise with the exact
//! message `Scenario::run_expect` would have produced serially.

use std::fs;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::Arc;

use heb_core::experiments::outage_scenarios;
use heb_core::{Scenario, ScenarioRunner, SerialRunner, SimConfig};
use heb_fleet::{
    FleetEngine, HardenPolicy, ResultCache, RunPolicy, ScenarioFailure, ScenarioState,
};
use heb_telemetry::{Event, FleetEvent, RingRecorder};
use heb_units::Watts;

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("heb-fleet-poison-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

fn good_batch() -> Vec<Scenario> {
    let base = SimConfig::prototype().with_budget(Watts::new(250.0));
    outage_scenarios(&base, 1.0, 4.0, 23)
}

/// A scenario whose `run` fails with `SimError::NoWorkloads` — the
/// stand-in for any mid-batch worker failure.
fn broken(label: &str) -> Scenario {
    Scenario::new(label, SimConfig::prototype(), &[], 0.05, 23)
}

#[test]
fn broken_scenario_does_not_poison_siblings_at_any_jobs() {
    let good = good_batch();
    let serial = SerialRunner.run_batch(&good);
    for jobs in [1, 4] {
        let mut batch = good.clone();
        batch.insert(batch.len() / 2, broken("poison/mid-batch"));
        let engine = FleetEngine::new(jobs);
        let outcome = engine.run(&batch, &RunPolicy::new());
        let counts = outcome.counts();
        assert_eq!(counts.done, good.len(), "jobs={jobs}: all siblings finish");
        assert_eq!(counts.quarantined, 1);
        // Sibling reports are bit-identical to the serial run.
        let survivors: Vec<_> = outcome
            .outcomes
            .iter()
            .filter_map(|o| o.report.clone())
            .collect();
        assert_eq!(survivors, serial, "jobs={jobs}");
        // The engine is not poisoned: it runs the clean batch fine.
        assert_eq!(
            engine.run(&good, &RunPolicy::new()).counts().done,
            good.len()
        );
    }
}

#[test]
fn run_re_raises_but_sibling_cache_writes_land_first() {
    let root = temp_root("cache-lands");
    let good = good_batch();
    let mut batch = good.clone();
    batch.push(broken("poison/last"));
    let engine = FleetEngine::new(2).with_cache(ResultCache::new(&root));
    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
        engine.run(&batch, &RunPolicy::new()).expect_reports()
    }));
    assert!(caught.is_err(), "run must re-raise the failure");
    let stats = engine.stats();
    assert_eq!(
        stats.cache_writes,
        good.len(),
        "every sibling's result must be persisted despite the failure"
    );
    // A fresh engine replays the siblings from cache: zero simulations.
    let warm = FleetEngine::new(2).with_cache(ResultCache::new(&root));
    let replayed = warm.run(&good, &RunPolicy::new()).expect_reports();
    assert_eq!(replayed, SerialRunner.run_batch(&good));
    assert_eq!(warm.stats().simulated, 0);
}

#[test]
fn re_raised_message_matches_run_expect() {
    let engine = FleetEngine::new(1);
    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
        engine
            .run(&[broken("poison/message")], &RunPolicy::new())
            .expect_reports()
    }));
    let payload = caught.expect_err("must re-raise");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .expect("payload is a String");
    let serial =
        std::panic::catch_unwind(AssertUnwindSafe(|| broken("poison/message").run_expect()))
            .expect_err("run_expect panics");
    let serial_message = serial
        .downcast_ref::<String>()
        .cloned()
        .expect("serial payload is a String");
    assert_eq!(message, serial_message);
}

#[test]
fn quarantine_emits_typed_events_after_retries() {
    let ring = Arc::new(RingRecorder::new(64));
    let engine = FleetEngine::new(1)
        .with_policy(HardenPolicy {
            max_retries: 2,
            ..HardenPolicy::default()
        })
        .with_recorder(ring.clone());
    let outcome = engine.run(&[broken("poison/events")], &RunPolicy::new());
    assert_eq!(outcome.outcomes[0].state, ScenarioState::Quarantined);
    assert!(matches!(
        outcome.outcomes[0].failure,
        Some(ScenarioFailure::Error { .. })
    ));
    let kinds: Vec<&str> = ring.events().iter().map(Event::kind).collect();
    assert_eq!(
        kinds,
        [
            "fleet.retry_scheduled",
            "fleet.retry_scheduled",
            "fleet.scenario_quarantined"
        ]
    );
    let quarantine = ring.events().into_iter().find_map(|e| match e {
        Event::Fleet(FleetEvent::ScenarioQuarantined {
            scenario, attempts, ..
        }) => Some((scenario, attempts)),
        _ => None,
    });
    assert_eq!(quarantine, Some(("poison/events".to_string(), 3)));
    assert_eq!(engine.stats().retries, 2);
    assert_eq!(engine.stats().quarantined, 1);
}

#[test]
fn nan_config_fields_quarantine_as_typed_errors_not_panics() {
    let nan_tick = {
        let mut c = SimConfig::prototype();
        c.tick = heb_units::Seconds::new(f64::NAN);
        c
    };
    let nan_budget = SimConfig::prototype().with_budget(Watts::new(f64::NAN));
    let nan_noise = {
        let mut c = SimConfig::prototype();
        c.metering_noise = f64::NAN;
        c
    };
    let batch: Vec<Scenario> = [nan_tick, nan_budget, nan_noise]
        .into_iter()
        .map(|config| {
            Scenario::from_ticks(
                "poison/nan",
                config,
                &[heb_workload::Archetype::WebSearch],
                30,
                23,
            )
        })
        .collect();
    let outcome = FleetEngine::new(1)
        .with_policy(HardenPolicy {
            max_retries: 0,
            ..HardenPolicy::default()
        })
        .run(&batch, &RunPolicy::new());
    for o in &outcome.outcomes {
        assert_eq!(o.state, ScenarioState::Quarantined);
        assert!(
            matches!(&o.failure, Some(ScenarioFailure::Error { message }) if message.contains("NaN")),
            "{:?}",
            o.failure
        );
    }
}
