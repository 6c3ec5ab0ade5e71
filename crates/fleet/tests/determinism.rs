//! The engine's determinism contract, end to end: the same batch run
//! serially, run at `--jobs 8`, and replayed from a warm cache must be
//! bit-identical — and the warm replay must perform zero simulations.

use std::fs;
use std::path::PathBuf;

use heb_core::experiments::{
    capacity_ratio_sweep, outage_ride_through, outage_scenarios, scheme_comparison_scenarios,
    valley_scenarios,
};
use heb_core::{Scenario, ScenarioRunner, SerialRunner, SimConfig};
use heb_fleet::{FleetEngine, ResultCache, RunPolicy};
use heb_units::Watts;

/// A fresh cache root unique to this test run.
fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("heb-fleet-det-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

/// A mixed batch drawn from three real experiments: workload sweeps,
/// solar runs with preset SoC, explicit-trace runs with explicit tick
/// horizons — every scenario feature the engine must preserve.
fn mixed_batch() -> Vec<Scenario> {
    let base = SimConfig::prototype().with_budget(Watts::new(250.0));
    let mut batch = scheme_comparison_scenarios(&base, 0.05, 0.2, 23);
    batch.truncate(12);
    batch.extend(valley_scenarios(&base, Watts::new(230.0), 3.0, 23));
    batch.extend(outage_scenarios(&base, 1.0, 4.0, 23));
    batch
}

#[test]
fn serial_parallel_and_cached_replay_are_bit_identical() {
    let batch = mixed_batch();
    let serial = SerialRunner.run_batch(&batch);

    // Parallel, cold cache.
    let root = temp_root("tri");
    let engine = FleetEngine::new(8).with_cache(ResultCache::new(&root));
    let parallel = engine.run(&batch, &RunPolicy::new()).expect_reports();
    assert_eq!(parallel, serial, "--jobs 8 must be bit-identical to serial");
    let cold = engine.stats();
    assert_eq!(
        cold.simulated,
        batch.len(),
        "cold cache simulates everything"
    );
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(cold.cache_writes, batch.len());

    // Warm replay through a fresh engine on the same cache directory.
    let replay_engine = FleetEngine::new(8).with_cache(ResultCache::new(&root));
    let replayed = replay_engine
        .run(&batch, &RunPolicy::new())
        .expect_reports();
    assert_eq!(replayed, serial, "cache replay must be bit-identical");
    let warm = replay_engine.stats();
    assert_eq!(
        warm.simulated, 0,
        "warm cache must perform zero simulations"
    );
    assert_eq!(warm.cache_hits, batch.len());

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn worker_count_does_not_leak_into_results() {
    let batch = mixed_batch();
    let one = FleetEngine::new(1)
        .run(&batch, &RunPolicy::new())
        .expect_reports();
    for jobs in [2, 3, 8] {
        assert_eq!(
            FleetEngine::new(jobs)
                .run(&batch, &RunPolicy::new())
                .expect_reports(),
            one,
            "jobs={jobs} diverged from jobs=1"
        );
    }
}

#[test]
fn batch_order_is_submission_order() {
    let mut batch = mixed_batch();
    let forward = FleetEngine::new(4)
        .run(&batch, &RunPolicy::new())
        .expect_reports();
    batch.reverse();
    let mut backward = FleetEngine::new(4)
        .run(&batch, &RunPolicy::new())
        .expect_reports();
    backward.reverse();
    assert_eq!(forward, backward, "results must track submission order");
}

/// The figure binaries run experiments through the fleet engine: the
/// assembled results must equal the serial runner's.
#[test]
fn experiments_assemble_identically_through_the_engine() {
    let base = SimConfig::prototype().with_budget(Watts::new(250.0));
    let engine = FleetEngine::new(2);
    assert_eq!(
        capacity_ratio_sweep(&engine, &base, &[1, 3, 5], 0.1, 0.2, 5),
        capacity_ratio_sweep(&SerialRunner, &base, &[1, 3, 5], 0.1, 0.2, 5),
    );
    assert_eq!(
        outage_ride_through(&engine, &base, 1.0, 4.0, 13),
        outage_ride_through(&SerialRunner, &base, 1.0, 4.0, 13),
    );
}
