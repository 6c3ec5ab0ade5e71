//! Checkpoint/resume, end to end: an interrupted journaled run,
//! resumed, must produce results bit-identical to the uninterrupted
//! run — without re-simulating what the first session completed.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use heb_core::experiments::{outage_scenarios, valley_scenarios};
use heb_core::{Scenario, ScenarioRunner, SerialRunner, SimConfig};
use heb_fleet::{
    FleetEngine, FsyncPolicy, ReportSource, ResultCache, RunJournal, RunPolicy, MANIFEST_FILE,
};
use heb_telemetry::{Event, FleetEvent, RingRecorder};
use heb_units::Watts;

fn temp_runs(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("heb-fleet-resume-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

fn mixed_batch() -> Vec<Scenario> {
    let base = SimConfig::prototype().with_budget(Watts::new(250.0));
    let mut batch = outage_scenarios(&base, 1.0, 4.0, 23);
    batch.extend(valley_scenarios(&base, Watts::new(230.0), 3.0, 23));
    batch
}

#[test]
fn interrupted_run_resumes_bit_identically_at_any_jobs() {
    let batch = mixed_batch();
    let serial = SerialRunner.run_batch(&batch);
    for jobs in [1, 4] {
        let runs = temp_runs(&format!("interrupt-j{jobs}"));

        // Session one: runs only a prefix of the batch (the shape an
        // interrupted process leaves — some done, the rest untouched),
        // then "dies" (journal dropped).
        {
            let journal = RunJournal::create(&runs, "r", FsyncPolicy::Never).unwrap();
            let engine = FleetEngine::new(jobs);
            let partial = engine.run(
                &batch[..batch.len() / 2],
                &RunPolicy::new().journal(&journal),
            );
            assert!(partial.all_done());
        }

        // Session two: resumes the same run id with the full batch.
        let journal = RunJournal::resume(&runs, "r", FsyncPolicy::Never).unwrap();
        let ring = Arc::new(RingRecorder::new(16));
        let engine = FleetEngine::new(jobs).with_recorder(ring.clone());
        let outcome = engine.run(&batch, &RunPolicy::new().journal(&journal));
        assert!(outcome.all_done(), "jobs={jobs}");
        assert_eq!(
            outcome.reports(),
            Some(serial.clone()),
            "jobs={jobs}: resumed run must be bit-identical to uninterrupted"
        );

        // The completed prefix was settled from the journal store, not
        // re-simulated.
        let resumed = outcome
            .outcomes
            .iter()
            .filter(|o| o.source == ReportSource::Resumed)
            .count();
        assert_eq!(resumed, batch.len() / 2, "jobs={jobs}");
        assert_eq!(engine.stats().simulated, batch.len() - batch.len() / 2);
        assert_eq!(engine.stats().resumed, batch.len() / 2);

        // And the resume announced itself with a typed event.
        let announced = ring.events().into_iter().find_map(|e| match e {
            Event::Fleet(FleetEvent::RunResumed {
                run_id,
                completed,
                remaining,
            }) => Some((run_id, completed, remaining)),
            _ => None,
        });
        assert_eq!(
            announced,
            Some((
                "r".to_string(),
                batch.len() / 2,
                batch.len() - batch.len() / 2
            ))
        );
    }
}

#[test]
fn resuming_a_finished_run_simulates_nothing() {
    let batch = mixed_batch();
    let runs = temp_runs("finished");
    {
        let journal = RunJournal::create(&runs, "r", FsyncPolicy::Batch).unwrap();
        let outcome = FleetEngine::new(4).run(&batch, &RunPolicy::new().journal(&journal));
        assert!(outcome.all_done());
        assert!(journal.healthy());
    }
    let journal = RunJournal::resume(&runs, "r", FsyncPolicy::Batch).unwrap();
    let engine = FleetEngine::new(4);
    let outcome = engine.run(&batch, &RunPolicy::new().journal(&journal));
    assert!(outcome.all_done());
    assert_eq!(outcome.reports(), Some(SerialRunner.run_batch(&batch)));
    assert_eq!(engine.stats().simulated, 0, "nothing left to simulate");
    assert_eq!(engine.stats().resumed, batch.len());
}

#[test]
fn journal_and_cache_compose_without_double_counting() {
    let batch = mixed_batch();
    let runs = temp_runs("with-cache");
    let cache_root = temp_runs("with-cache-cache");
    {
        let journal = RunJournal::create(&runs, "r", FsyncPolicy::Never).unwrap();
        let engine = FleetEngine::new(2).with_cache(heb_fleet::ResultCache::new(&cache_root));
        assert!(engine
            .run(&batch, &RunPolicy::new().journal(&journal))
            .all_done());
    }
    // Resume wins over the cache: journal-settled scenarios count as
    // resumed, not as cache hits.
    let journal = RunJournal::resume(&runs, "r", FsyncPolicy::Never).unwrap();
    let engine = FleetEngine::new(2).with_cache(heb_fleet::ResultCache::new(&cache_root));
    let outcome = engine.run(&batch, &RunPolicy::new().journal(&journal));
    assert!(outcome.all_done());
    assert_eq!(engine.stats().resumed, batch.len());
    assert_eq!(engine.stats().cache_hits, 0);
    assert_eq!(outcome.reports(), Some(SerialRunner.run_batch(&batch)));
}

/// The run store of run `id` under `runs`, read through the cache API
/// (it uses the cache's entry layout).
fn run_store(runs: &std::path::Path, id: &str) -> ResultCache {
    ResultCache::new(runs.join(id).join("reports"))
}

/// Whether any temp file is left in `dir`.
fn has_tmp_files(dir: &std::path::Path) -> bool {
    fs::read_dir(dir)
        .unwrap()
        .flatten()
        .any(|e| e.file_name().to_string_lossy().contains(".tmp."))
}

fn manifest(runs: &std::path::Path, id: &str) -> String {
    fs::read_to_string(runs.join(id).join(MANIFEST_FILE)).unwrap()
}

#[test]
fn warm_run_resumes_from_its_store_after_the_cache_is_deleted() {
    let batch = mixed_batch();
    let runs = temp_runs("warm-linked");
    let cache_root = temp_runs("warm-linked-cache");
    let cold = FleetEngine::new(2).with_cache(ResultCache::new(&cache_root));
    let cold_reports = cold.run(&batch, &RunPolicy::new()).expect_reports();
    {
        let journal = RunJournal::create(&runs, "warm", FsyncPolicy::Batch).unwrap();
        let warm = FleetEngine::new(2).with_cache(ResultCache::new(&cache_root));
        let outcome = warm.run(&batch, &RunPolicy::new().journal(&journal));
        assert!(journal.healthy());
        assert_eq!(warm.stats().cache_hits, batch.len());
        assert_eq!(outcome.reports(), Some(cold_reports.clone()));
        // Every hit was mirrored by hard link, not rewritten.
        #[cfg(unix)]
        for scenario in &batch {
            use std::os::unix::fs::MetadataExt;
            let entry = run_store(&runs, "warm").entry_path(scenario);
            assert_eq!(
                fs::metadata(entry).unwrap().nlink(),
                2,
                "{}",
                scenario.label()
            );
        }
    }
    fs::remove_dir_all(&cache_root).unwrap();

    let journal = RunJournal::resume(&runs, "warm", FsyncPolicy::Batch).unwrap();
    let engine = FleetEngine::new(2).with_cache(ResultCache::new(&cache_root));
    let outcome = engine.run(&batch, &RunPolicy::new().journal(&journal));
    assert_eq!(
        engine.stats().resumed,
        batch.len(),
        "every hit settles from the store"
    );
    assert_eq!(engine.stats().simulated, 0);
    assert_eq!(engine.stats().cache_hits, 0);
    assert_eq!(outcome.reports(), Some(cold_reports));
    assert_eq!(outcome.reports(), Some(SerialRunner.run_batch(&batch)));
}

#[test]
fn a_repeated_scenario_is_mirrored_once_and_leaves_no_temp_files() {
    let mut batch = mixed_batch();
    batch.truncate(3);
    let repeat = batch[0].clone().relabeled("repeat/0");
    batch.push(repeat);
    batch.push(batch[1].clone());
    let runs = temp_runs("repeat");
    let cache_root = temp_runs("repeat-cache");
    let cold = FleetEngine::new(2).with_cache(ResultCache::new(&cache_root));
    assert!(cold.run(&batch, &RunPolicy::new()).all_done());
    // The same run id twice: the second session links over the entries
    // the first one linked, and a repeat within a batch links over its
    // own earlier link.
    for session in 0..2 {
        let journal = RunJournal::create(&runs, "r", FsyncPolicy::Never).unwrap();
        let warm = FleetEngine::new(2).with_cache(ResultCache::new(&cache_root));
        let outcome = warm.run(&batch, &RunPolicy::new().journal(&journal));
        assert!(journal.healthy(), "session {session}");
        assert_eq!(warm.stats().cache_hits, batch.len(), "session {session}");
        assert_eq!(outcome.reports(), Some(SerialRunner.run_batch(&batch)));
    }
    let store = run_store(&runs, "r");
    assert_eq!(store.len(), 3, "one entry per distinct scenario");
    assert!(
        !has_tmp_files(store.dir()),
        "no temp link may outlive its commit"
    );
    let journal = RunJournal::resume(&runs, "r", FsyncPolicy::Never).unwrap();
    let engine = FleetEngine::new(1);
    let outcome = engine.run(&batch, &RunPolicy::new().journal(&journal));
    assert_eq!(engine.stats().resumed, batch.len());
    assert_eq!(outcome.reports(), Some(SerialRunner.run_batch(&batch)));
}

#[test]
fn an_evicted_link_source_falls_back_to_writing_the_report() {
    let scenario = mixed_batch().remove(0);
    let report = scenario.run_expect();
    let runs = temp_runs("evicted");
    let cache = ResultCache::new(temp_runs("evicted-cache"));
    cache.store(&scenario, &report).unwrap();
    let reference = fs::read(cache.entry_path(&scenario)).unwrap();
    // Evicted between the probe's load and the journal's link.
    cache.evict(&scenario);
    {
        let journal = RunJournal::create(&runs, "r", FsyncPolicy::Never).unwrap();
        journal.record_cache_hit(&scenario, &report, &cache);
        assert!(journal.healthy());
    }
    assert!(manifest(&runs, "r").contains("\"state\":\"done\""));
    let store = run_store(&runs, "r");
    assert_eq!(fs::read(store.entry_path(&scenario)).unwrap(), reference);
    assert!(!has_tmp_files(store.dir()));
    let journal = RunJournal::resume(&runs, "r", FsyncPolicy::Never).unwrap();
    assert_eq!(journal.completed_report(&scenario), Some(report));
}

#[test]
fn run_store_bytes_equal_what_the_cache_writes() {
    let batch = mixed_batch();
    let runs = temp_runs("store-bytes");
    let cache_root = temp_runs("store-bytes-cache");
    let reference = ResultCache::new(temp_runs("store-bytes-reference"));
    let reports = SerialRunner.run_batch(&batch);
    for (scenario, report) in batch.iter().zip(&reports) {
        reference.store(scenario, report).unwrap();
    }
    // "cold" commits simulated reports, "warm" mirrors cache hits.
    for id in ["cold", "warm"] {
        let journal = RunJournal::create(&runs, id, FsyncPolicy::Never).unwrap();
        let engine = FleetEngine::new(2).with_cache(ResultCache::new(&cache_root));
        assert!(engine
            .run(&batch, &RunPolicy::new().journal(&journal))
            .all_done());
        for scenario in &batch {
            assert_eq!(
                fs::read(run_store(&runs, id).entry_path(scenario)).unwrap(),
                fs::read(reference.entry_path(scenario)).unwrap(),
                "{id}: {}",
                scenario.label()
            );
        }
    }
}

#[test]
fn a_failed_report_commit_writes_no_done_line() {
    let batch = mixed_batch();
    let cache_root = temp_runs("commit-fails-cache");
    // "cold" fails the simulated path's store, "warm" the cache-hit
    // mirror (link and write fallback both).
    for id in ["cold", "warm"] {
        let runs = temp_runs(&format!("commit-fails-{id}"));
        let journal = RunJournal::create(&runs, id, FsyncPolicy::Never).unwrap();
        fs::write(runs.join(id).join("reports"), "not a directory").unwrap();
        let engine = FleetEngine::new(2).with_cache(ResultCache::new(&cache_root));
        let outcome = engine.run(&batch, &RunPolicy::new().journal(&journal));
        assert!(
            outcome.all_done(),
            "{id}: the journal must not fail the run"
        );
        if id == "warm" {
            assert_eq!(engine.stats().cache_hits, batch.len());
        }
        assert!(
            !journal.healthy(),
            "{id}: a failed commit marks the journal unhealthy"
        );
        assert!(
            !manifest(&runs, id).contains("\"state\":\"done\""),
            "{id}: no done line without a committed report"
        );
    }
}
