//! Event-core parity at the fleet level: the redesigned `SimDriver`
//! must be invisible to every consumer of the seed tick loop.
//!
//! Three contracts, property-tested across seeds, workloads, and
//! worker counts:
//!
//! * the tick-compatibility adapter (`DriverMode::Tick`, the default)
//!   is byte-identical to the raw `Simulation::step` loop — reports
//!   *and* JSONL traces;
//! * event mode (`DriverMode::Event`) produces the same reports and
//!   the same trace apart from its purely-additive `driver.leaped`
//!   telemetry lines;
//! * content hashes are tick-transparent: every `ResultCache` entry
//!   minted before the event core existed replays verbatim for
//!   tick-mode scenarios, while event-mode scenarios address a
//!   distinct cache identity.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use heb_core::{DriverMode, FaultSchedule, PolicyKind, Scenario, SimConfig};
use heb_fleet::{FleetEngine, ReportSource, ResultCache, RunPolicy};
use heb_telemetry::{RecorderHandle, RingRecorder};
use heb_workload::Archetype;
use proptest::prelude::*;

/// Short horizon (15 simulated minutes) keeping the property cases
/// cheap while still crossing a slot boundary.
const HOURS: f64 = 0.25;

fn archetype_strategy() -> impl Strategy<Value = Archetype> {
    proptest::sample::select(Archetype::ALL.to_vec())
}

fn config() -> SimConfig {
    SimConfig::prototype().with_policy(PolicyKind::HebD)
}

/// One parity scenario; `faulted` folds in a blackout + brownout storm
/// so the comparison also covers the fault-handling paths.
fn scenario(label: &str, workload: Archetype, seed: u64, faulted: bool) -> Scenario {
    let scenario = Scenario::new(label, config(), &[workload], HOURS, seed);
    if faulted {
        scenario.with_faults(
            FaultSchedule::parse("blackout@120~90;brownout(0.85)@420~120").expect("fault spec"),
        )
    } else {
        scenario
    }
}

/// Trace lines with the event driver's additive leap telemetry
/// removed.
fn without_leaps(jsonl: &str) -> Vec<String> {
    jsonl
        .lines()
        .filter(|line| !line.contains("\"type\":\"driver.leaped\""))
        .map(str::to_string)
        .collect()
}

fn lines(jsonl: &str) -> Vec<String> {
    jsonl.lines().map(str::to_string).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn tick_adapter_is_byte_identical_to_the_raw_step_loop(
        seed in 0u64..10_000,
        workload in archetype_strategy(),
        jobs in 1usize..5,
    ) {
        let ring = Arc::new(RingRecorder::new(8192));
        let traced = scenario("parity/adapter", workload, seed, false)
            .with_recorder(Arc::clone(&ring) as RecorderHandle);
        let ticks = traced.ticks();
        let reports = FleetEngine::new(jobs)
            .run(std::slice::from_ref(&traced), &RunPolicy::new())
            .expect_reports();

        // The seed's tick loop: a raw Simulation stepped by hand.
        let raw_ring = Arc::new(RingRecorder::new(8192));
        let mut sim = Scenario::new("parity/raw", config(), &[workload], HOURS, seed)
            .with_recorder(Arc::clone(&raw_ring) as RecorderHandle)
            .build()
            .expect("valid scenario");
        for _ in 0..ticks {
            sim.step();
        }
        prop_assert_eq!(&reports[0], &sim.snapshot());
        prop_assert_eq!(ring.to_jsonl(), raw_ring.to_jsonl());
    }

    #[test]
    fn event_mode_reports_and_traces_match_tick_mode(
        seed in 0u64..10_000,
        workload in archetype_strategy(),
        faulted in proptest::sample::select(vec![false, true]),
        jobs in 1usize..5,
    ) {
        let tick_ring = Arc::new(RingRecorder::new(8192));
        let event_ring = Arc::new(RingRecorder::new(8192));
        let tick = scenario("parity/mode", workload, seed, faulted)
            .with_recorder(Arc::clone(&tick_ring) as RecorderHandle);
        let event = scenario("parity/mode", workload, seed, faulted)
            .with_driver_mode(DriverMode::Event)
            .with_recorder(Arc::clone(&event_ring) as RecorderHandle);

        // Hash discipline: the default (tick) identity is exactly the
        // seed's; event mode addresses a distinct cache entry.
        prop_assert_eq!(
            tick.content_hash(),
            scenario("parity/mode", workload, seed, faulted).content_hash(),
            "recorder and the default driver mode must stay hash-blind"
        );
        prop_assert_ne!(event.content_hash(), tick.content_hash());

        let batch = vec![tick, event];
        let reports = FleetEngine::new(jobs)
            .run(&batch, &RunPolicy::new())
            .expect_reports();
        prop_assert_eq!(&reports[0], &reports[1], "event mode must match tick mode");
        prop_assert_eq!(
            without_leaps(&event_ring.to_jsonl()),
            lines(&tick_ring.to_jsonl()),
            "leap telemetry must be purely additive"
        );
    }
}

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("heb-fleet-parity-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

#[test]
fn tick_cache_entries_replay_while_event_mode_addresses_its_own() {
    let root = temp_root("cache");
    let batch: Vec<Scenario> = (0..3u64)
        .map(|i| {
            scenario(
                &format!("parity/cache/{i}"),
                Archetype::Terasort,
                31 + i,
                i == 1,
            )
        })
        .collect();

    // A seed-era engine fills the cache through the default path.
    let writer = FleetEngine::new(2).with_cache(ResultCache::new(&root));
    let first = writer.run(&batch, &RunPolicy::new());
    assert!(first
        .outcomes
        .iter()
        .all(|o| o.source == ReportSource::Simulated));

    // Explicit tick mode hashes identically, so a fresh engine replays
    // every scenario from the cache without simulating.
    let explicit: Vec<Scenario> = batch
        .iter()
        .map(|s| s.clone().with_driver_mode(DriverMode::Tick))
        .collect();
    for (legacy, tick) in batch.iter().zip(&explicit) {
        assert_eq!(legacy.content_hash(), tick.content_hash());
    }
    let warm = FleetEngine::new(2).with_cache(ResultCache::new(&root));
    let replayed = warm.run(&explicit, &RunPolicy::new());
    assert!(replayed
        .outcomes
        .iter()
        .all(|o| o.source == ReportSource::Cache));
    assert_eq!(replayed.reports(), first.reports());

    // Event mode misses the tick-era entries (distinct identity) but
    // computes the same physics.
    let event: Vec<Scenario> = batch
        .iter()
        .map(|s| s.clone().with_driver_mode(DriverMode::Event))
        .collect();
    let fresh = warm.run(&event, &RunPolicy::new());
    assert!(fresh
        .outcomes
        .iter()
        .all(|o| o.source == ReportSource::Simulated));
    assert_eq!(fresh.reports(), first.reports());

    let _ = fs::remove_dir_all(&root);
}
