//! The deterministically-parallel, hardened scenario executor.
//!
//! Determinism argument: each [`Scenario`] is a pure function of its
//! own fields — the simulation it builds seeds its own RNGs and shares
//! no state with any other run — so executing scenarios on worker
//! threads changes *when* each report is produced but not *what* it
//! contains. Results are collected into a vector indexed by the
//! scenario's position in the submitted batch, so the returned order
//! is the submission order regardless of which worker finished first.
//! `run` with any worker count is therefore bit-identical to
//! [`heb_core::SerialRunner`].
//!
//! Robustness (DESIGN §9): every attempt runs under `catch_unwind`, so
//! one scenario panicking cannot poison its siblings or the engine.
//! Failures are classified ([`ScenarioFailure`]), retried on a
//! seed-deterministic backoff schedule ([`HardenPolicy`]), and finally
//! quarantined.
//!
//! There is one entry point: [`FleetEngine::run`] takes a
//! [`RunPolicy`] (the optional crash-safe [`RunJournal`]) and returns a
//! [`RunOutcome`] accounting for every scenario; the robustness knobs
//! are set once, by [`FleetEngine::with_policy`]. The historical
//! reports-or-panic contract is an explicit opt-in via
//! [`RunOutcome::expect_reports`]. The attached cache degrades
//! (read-write → read-only → disabled) instead of erroring.
//!
//! Every count the engine keeps lives in its metrics registry, counted
//! once where the event happens; [`EngineStats`] is a view over it.

// heb-analyze: allow(HEB003, imports the unwind-isolation primitives; the import itself panics nothing)
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;

use heb_core::{Scenario, ScenarioRunner, SimReport};
use heb_telemetry::{Event, FleetEvent, Metrics, RecorderHandle};

use crate::cache::ResultCache;
use crate::degrade::{CacheMode, DegradableCache};
use crate::failpoint::site;
#[cfg(feature = "failpoints")]
use crate::failpoint::Failpoints;
use crate::harden::{
    HardenPolicy, ReportSource, RunOutcome, RunPolicy, ScenarioFailure, ScenarioOutcome,
    ScenarioState,
};
use crate::journal::RunJournal;

/// How long an injected `worker.stall` failpoint sleeps, generously
/// above the watchdog limits the chaos suite configures.
const STALL_MS: u64 = 50;

/// Counters describing what the engine has done so far: a read-only
/// view over the engine's metrics registry (each count is the
/// `fleet.<field>` counter of the same name), plus the attached cache's
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Scenarios simulated (cache misses plus uncached runs).
    pub simulated: usize,
    /// Servers across every simulated scenario — the fleet-scale
    /// denominator behind the wall-clock numbers (a cached megafleet
    /// replay costs nothing, so cache hits do not count here).
    pub servers_simulated: usize,
    /// Scenarios replayed from the result cache.
    pub cache_hits: usize,
    /// Fresh results persisted to the cache.
    pub cache_writes: usize,
    /// Retry attempts scheduled after failed attempts.
    pub retries: usize,
    /// Scenarios quarantined after exhausting every attempt.
    pub quarantined: usize,
    /// Scenarios settled from a resumed run's journal store.
    pub resumed: usize,
    /// Stale temp files reclaimed when the cache was attached.
    pub tmp_reclaimed: usize,
    /// The attached cache's current service level (`ReadWrite` when no
    /// cache is attached — nothing has degraded).
    pub cache_mode: CacheMode,
}

// The registry counters behind `EngineStats`, one per count.
const SIMULATED: &str = "fleet.simulated";
const SERVERS_SIMULATED: &str = "fleet.servers_simulated";
const CACHE_HITS: &str = "fleet.cache_hits";
const CACHE_WRITES: &str = "fleet.cache_writes";
const RETRIES: &str = "fleet.retries";
const QUARANTINED: &str = "fleet.quarantined";
const RESUMED: &str = "fleet.resumed";

/// What one worker recorded for one claimed scenario.
#[derive(Debug)]
struct SlotOutcome {
    attempts: u32,
    result: Result<SimReport, ScenarioFailure>,
}

/// A fixed-width worker pool executing scenario batches, with an
/// optional content-addressed result cache in front of the simulator.
#[derive(Debug)]
pub struct FleetEngine {
    jobs: usize,
    cache: Option<DegradableCache>,
    /// The metrics registry holding every count (`fleet.*` counters),
    /// per-phase wall-clock timings (`fleet.phase.*`) and per-scenario
    /// simulation latency (`fleet.scenario_seconds`). Instruments are
    /// created on their first event, so a fresh engine answering one
    /// cache hit registers only what that run touches.
    metrics: Arc<Metrics>,
    /// Panic-isolation / retry / watchdog knobs (default: all off).
    policy: HardenPolicy,
    /// Optional recorder for typed robustness events (`fleet.*`).
    recorder: Option<RecorderHandle>,
    /// Failpoint set; only attachable under the `failpoints` feature.
    failpoints: Option<Arc<crate::failpoint::Failpoints>>,
}

impl FleetEngine {
    /// Creates an engine running at most `jobs` scenarios concurrently
    /// (clamped to at least one), with no cache and a fresh metrics
    /// registry.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self {
            jobs: jobs.max(1),
            cache: None,
            metrics: Arc::new(Metrics::new()),
            policy: HardenPolicy::default(),
            recorder: None,
            failpoints: None,
        }
    }

    /// Attaches a result cache consulted before, and written after,
    /// every simulation. The cache is wrapped for graceful degradation
    /// and stale temp files from crashed runs are swept immediately.
    #[must_use]
    pub fn with_cache(mut self, cache: ResultCache) -> Self {
        #[allow(unused_mut)]
        let mut wrapped = DegradableCache::open(cache);
        #[cfg(feature = "failpoints")]
        if let Some(fp) = &self.failpoints {
            wrapped = wrapped.with_failpoints(Arc::clone(fp));
        }
        self.cache = Some(wrapped);
        self.publish_tmp_reclaimed();
        self
    }

    /// Replaces the engine's metrics registry with `metrics` (shared
    /// with the caller, who can snapshot it): every count, the phase
    /// timings and the per-scenario latency are recorded there.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = metrics;
        self.publish_tmp_reclaimed();
        self
    }

    /// Sets the execution-robustness policy (retries, backoff,
    /// watchdog, fail-fast) every `run` follows.
    #[must_use]
    pub fn with_policy(mut self, policy: HardenPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches a recorder receiving the typed robustness events:
    /// `RetryScheduled`, `ScenarioQuarantined`, `CacheDegraded`,
    /// `RunResumed`.
    #[must_use]
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Attaches a deterministic failpoint set (chaos testing only).
    /// Also threads the set into an already-attached cache.
    #[cfg(feature = "failpoints")]
    #[must_use]
    pub fn with_failpoints(mut self, failpoints: Arc<Failpoints>) -> Self {
        if let Some(cache) = self.cache.take() {
            self.cache = Some(cache.with_failpoints(Arc::clone(&failpoints)));
        }
        self.failpoints = Some(failpoints);
        self
    }

    /// The engine's metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The configured worker count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The attached cache, if any.
    #[must_use]
    pub fn cache(&self) -> Option<&ResultCache> {
        self.cache.as_ref().map(DegradableCache::inner)
    }

    /// The robustness policy in force.
    #[must_use]
    pub fn policy(&self) -> &HardenPolicy {
        &self.policy
    }

    /// Cumulative counters across every `run` call so far, read from
    /// the registry (which lists each of them from then on, zero or
    /// not).
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let count = |name: &str| self.metrics.counter(name).get() as usize;
        EngineStats {
            simulated: count(SIMULATED),
            servers_simulated: count(SERVERS_SIMULATED),
            cache_hits: count(CACHE_HITS),
            cache_writes: count(CACHE_WRITES),
            retries: count(RETRIES),
            quarantined: count(QUARANTINED),
            resumed: count(RESUMED),
            tmp_reclaimed: self
                .cache
                .as_ref()
                .map_or(0, DegradableCache::tmp_reclaimed),
            cache_mode: self
                .cache
                .as_ref()
                .map_or_else(CacheMode::default, DegradableCache::mode),
        }
    }

    /// Executes `batch` under the engine's [`HardenPolicy`] — the
    /// engine's single entry point.
    ///
    /// Cached scenarios are replayed without simulating; the rest are
    /// spread across the worker pool in submission order, bit-identical
    /// to serial execution at any worker count. Panics are isolated per
    /// attempt, failures retried then quarantined, and — when `run`
    /// attaches a journal — progress is persisted so an interrupted run
    /// resumes bit-identically.
    ///
    /// The returned [`RunOutcome`] accounts for every scenario; call
    /// [`RunOutcome::expect_reports`] for the historical
    /// reports-or-panic contract.
    #[must_use]
    pub fn run(&self, batch: &[Scenario], run: &RunPolicy) -> RunOutcome {
        let journal = run.journal_ref();
        self.metrics
            .counter("fleet.scenarios")
            .add(batch.len() as u64);
        if let Some(journal) = journal {
            journal.record_batch_open(batch);
        }

        // Probe pass: settle resumed and cached scenarios up front,
        // queue the rest.
        let probe_timer = self.metrics.timer("fleet.phase.probe");
        let cache_hits = self.metrics.counter(CACHE_HITS);
        let mut settled: Vec<Option<(SimReport, ReportSource)>> = Vec::with_capacity(batch.len());
        let mut pending: Vec<usize> = Vec::new();
        let mut resumed = 0usize;
        for (index, scenario) in batch.iter().enumerate() {
            if let Some(report) = journal.and_then(|j| j.completed_report(scenario)) {
                self.metrics.counter(RESUMED).increment();
                resumed += 1;
                settled.push(Some((report, ReportSource::Resumed)));
                continue;
            }
            if let Some(cache) = &self.cache {
                if let Some(report) = cache.load(scenario) {
                    cache_hits.increment();
                    // Mirror the hit into the run store so a later
                    // resume does not depend on the shared cache
                    // staying healthy.
                    if let Some(journal) = journal {
                        journal.record_cache_hit(scenario, &report, cache.inner());
                    }
                    settled.push(Some((report, ReportSource::Cache)));
                    continue;
                }
            }
            pending.push(index);
            settled.push(None);
        }
        drop(probe_timer);
        if resumed > 0 {
            if let Some(journal) = journal {
                self.emit(|| FleetEvent::RunResumed {
                    run_id: journal.run_id().to_string(),
                    completed: resumed,
                    remaining: batch.len() - resumed,
                });
            }
        }

        // Simulation pass: workers pull pending scenarios off a shared
        // cursor; each result lands in the slot of its batch index, so
        // scheduling order cannot leak into the output.
        let simulate_timer = self.metrics.timer("fleet.phase.simulate");
        let slots: Vec<Mutex<Option<SlotOutcome>>> =
            pending.iter().map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let worker = || loop {
            if abort.load(Ordering::Relaxed) {
                break;
            }
            if let Some(fp) = &self.failpoints {
                if fp.fires(site::RUN_ABORT) {
                    // Emulated kill: stop scheduling; in-flight journal
                    // state stays dangling exactly as SIGKILL leaves it.
                    abort.store(true, Ordering::Relaxed);
                    break;
                }
            }
            let next = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&index) = pending.get(next) else {
                break;
            };
            let outcome = self.run_scenario(&batch[index], journal);
            if outcome.result.is_err() && self.policy.fail_fast {
                abort.store(true, Ordering::Relaxed);
            }
            // A poisoned slot means another worker panicked through the
            // isolation layer somehow; recovering the lock is safe —
            // the slot value is only written once.
            *slots[next].lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
        };
        let workers = self.jobs.min(pending.len());
        if workers > 1 {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(worker);
                }
            });
        } else if workers == 1 {
            worker();
        }
        drop(simulate_timer);

        // Merge pass: persist fresh results, account for every
        // scenario, and drain cache-degradation transitions.
        let merge_timer = self.metrics.timer("fleet.phase.merge");
        let aborted = abort.load(Ordering::Relaxed);
        let mut slot_results = slots
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner));
        let mut outcomes = Vec::with_capacity(batch.len());
        for (index, scenario) in batch.iter().enumerate() {
            let mut outcome = ScenarioOutcome {
                index,
                label: scenario.label().to_string(),
                hash: scenario.hash_hex(),
                state: ScenarioState::Pending,
                attempts: 0,
                source: ReportSource::None,
                report: None,
                failure: None,
            };
            if let Some((report, source)) = settled[index].take() {
                outcome.state = ScenarioState::Done;
                outcome.source = source;
                outcome.report = Some(report);
                outcomes.push(outcome);
                continue;
            }
            match slot_results.next().flatten() {
                Some(SlotOutcome {
                    attempts,
                    result: Ok(report),
                }) => {
                    if let Some(cache) = &self.cache {
                        if cache.store(scenario, &report) {
                            self.metrics.counter(CACHE_WRITES).increment();
                        }
                    }
                    outcome.state = ScenarioState::Done;
                    outcome.attempts = attempts;
                    outcome.source = ReportSource::Simulated;
                    outcome.report = Some(report);
                }
                Some(SlotOutcome {
                    attempts,
                    result: Err(failure),
                }) => {
                    outcome.state = ScenarioState::Quarantined;
                    outcome.attempts = attempts;
                    outcome.failure = Some(failure);
                }
                // Never claimed: the run stopped first.
                None => {
                    outcome.failure = aborted.then_some(ScenarioFailure::Aborted);
                }
            }
            outcomes.push(outcome);
        }
        if let Some(cache) = &self.cache {
            for degradation in cache.drain_transitions() {
                self.emit(|| FleetEvent::CacheDegraded {
                    mode: degradation.to.name(),
                    reason: degradation.reason,
                });
            }
        }
        drop(merge_timer);

        let run = RunOutcome { outcomes, aborted };
        let counts = run.counts();
        if let Some(journal) = journal {
            journal.record_batch_close(
                counts.done,
                counts.failed,
                counts.quarantined,
                counts.pending,
                aborted,
            );
        }
        run
    }

    /// Runs one scenario to a terminal per-scenario result: attempts
    /// under `catch_unwind`, deterministic backoff between retries,
    /// quarantine when the budget is exhausted.
    fn run_scenario(&self, scenario: &Scenario, journal: Option<&RunJournal>) -> SlotOutcome {
        let policy = &self.policy;
        self.metrics.counter(SIMULATED).increment();
        self.metrics
            .counter(SERVERS_SIMULATED)
            .add(scenario.servers() as u64);
        let hash = scenario.hash_hex();
        let hash128 = scenario.content_hash();
        let mut attempt = 1u32;
        loop {
            if let Some(journal) = journal {
                journal.record_state(&hash, ScenarioState::Running, attempt, None);
            }
            // Keyed failpoints decide from the scenario hash, so the
            // injected set is independent of worker scheduling.
            let (inject_panic, stall) = match &self.failpoints {
                Some(fp) => (
                    fp.fires_keyed(site::WORKER_PANIC, hash128 as u64),
                    fp.fires_keyed(site::WORKER_STALL, hash128 as u64),
                ),
                None => (false, false),
            };
            let attempt_timer = self.metrics.timer("fleet.scenario_seconds");
            let result = run_attempt(scenario, inject_panic, stall, policy.timeout_ms);
            drop(attempt_timer);
            match result {
                Ok(report) => {
                    if let Some(journal) = journal {
                        journal.record_done(scenario, &report, attempt);
                    }
                    return SlotOutcome {
                        attempts: attempt,
                        result: Ok(report),
                    };
                }
                Err(failure) => {
                    let reason = failure.to_string();
                    if let Some(journal) = journal {
                        journal.record_state(&hash, ScenarioState::Failed, attempt, Some(&reason));
                    }
                    if attempt < policy.max_attempts() {
                        let backoff = policy.backoff_ms(hash128, attempt);
                        self.metrics.counter(RETRIES).increment();
                        self.emit(|| FleetEvent::RetryScheduled {
                            scenario: scenario.label().to_string(),
                            attempt: attempt + 1,
                            backoff_ms: backoff,
                            reason: reason.clone(),
                        });
                        if backoff > 0 {
                            std::thread::sleep(Duration::from_millis(backoff));
                        }
                        attempt += 1;
                        continue;
                    }
                    if let Some(journal) = journal {
                        journal.record_state(
                            &hash,
                            ScenarioState::Quarantined,
                            attempt,
                            Some(&reason),
                        );
                    }
                    self.metrics.counter(QUARANTINED).increment();
                    self.emit(|| FleetEvent::ScenarioQuarantined {
                        scenario: scenario.label().to_string(),
                        attempts: attempt,
                        reason,
                    });
                    return SlotOutcome {
                        attempts: attempt,
                        result: Err(failure),
                    };
                }
            }
        }
    }

    /// Records a robustness event if a recorder is attached and on.
    fn emit(&self, event: impl FnOnce() -> FleetEvent) {
        if let Some(recorder) = &self.recorder {
            if recorder.is_enabled() {
                recorder.record(&Event::Fleet(event()));
            }
        }
    }

    /// Sets the `fleet.cache.tmp_reclaimed` gauge from the attached
    /// cache's attach-time sweep. Idempotent, so it reads the same
    /// whichever of `with_cache` and `with_metrics` came last.
    fn publish_tmp_reclaimed(&self) {
        if let Some(cache) = &self.cache {
            self.metrics
                .gauge("fleet.cache.tmp_reclaimed")
                .set(cache.tmp_reclaimed() as f64);
        }
    }
}

/// Executes one attempt, classifying panics, typed errors, and — when
/// a watchdog limit is set — timeouts.
fn run_attempt(
    scenario: &Scenario,
    inject_panic: bool,
    stall: bool,
    timeout_ms: Option<u64>,
) -> Result<SimReport, ScenarioFailure> {
    let body = move |scenario: &Scenario| {
        if inject_panic {
            // heb-analyze: allow(HEB003, deliberate injected panic exercising the real catch_unwind isolation path)
            panic!("injected failpoint {}", site::WORKER_PANIC);
        }
        if stall {
            std::thread::sleep(Duration::from_millis(STALL_MS));
        }
        scenario.run()
    };
    let Some(limit_ms) = timeout_ms else {
        return classify(catch_unwind(AssertUnwindSafe(|| body(scenario))));
    };
    // Watchdog: the attempt runs on its own thread so the worker can
    // give up on it. A timed-out thread is abandoned, not killed — it
    // finishes (or panics) into a dropped channel. That leak is the
    // price of a watchdog without unsafe cancellation; bounded by
    // attempts, and absent entirely when no timeout is configured.
    let (sender, receiver) = mpsc::channel();
    let clone = scenario.clone();
    let spawned = std::thread::Builder::new()
        .name("heb-fleet-attempt".to_string())
        .spawn(move || {
            let _ = sender.send(catch_unwind(AssertUnwindSafe(|| body(&clone))));
        });
    if spawned.is_err() {
        // Cannot spawn (resource exhaustion): degrade to an unwatched
        // inline attempt rather than failing the scenario outright.
        return classify(catch_unwind(AssertUnwindSafe(|| body(scenario))));
    }
    match receiver.recv_timeout(Duration::from_millis(limit_ms)) {
        Ok(result) => classify(result),
        Err(_) => Err(ScenarioFailure::Timeout { limit_ms }),
    }
}

/// Folds a caught attempt into the failure taxonomy.
fn classify(
    caught: std::thread::Result<Result<SimReport, heb_core::SimError>>,
) -> Result<SimReport, ScenarioFailure> {
    match caught {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(err)) => Err(ScenarioFailure::Error {
            message: err.to_string(),
        }),
        Err(payload) => Err(ScenarioFailure::Panic {
            message: panic_message(payload.as_ref()),
        }),
    }
}

/// Stringifies a panic payload (panics carry `&str` or `String` in
/// practice; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl ScenarioRunner for FleetEngine {
    fn run_batch(&self, batch: &[Scenario]) -> Vec<SimReport> {
        self.run(batch, &RunPolicy::new()).expect_reports()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heb_core::{SerialRunner, SimConfig};
    use heb_workload::Archetype;

    fn batch() -> Vec<Scenario> {
        Archetype::ALL
            .iter()
            .map(|&w| {
                Scenario::new(
                    format!("engine-test/{}", w.abbreviation()),
                    SimConfig::prototype(),
                    &[w],
                    0.05,
                    11,
                )
            })
            .collect()
    }

    /// A scenario whose `run` fails with a typed `SimError`
    /// (`NoWorkloads`) — the cheap way to exercise the failure paths.
    fn failing_scenario(label: &str) -> Scenario {
        Scenario::new(label, SimConfig::prototype(), &[], 0.05, 11)
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let batch = batch();
        let serial = SerialRunner.run_batch(&batch);
        let engine = FleetEngine::new(4);
        let parallel = engine.run(&batch, &RunPolicy::new()).expect_reports();
        assert_eq!(parallel, serial);
        let stats = engine.stats();
        assert_eq!(stats.simulated, batch.len());
        assert_eq!(
            stats.servers_simulated,
            batch.len() * SimConfig::prototype().servers,
            "every simulated scenario contributes its fleet size"
        );
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_writes, 0, "no cache attached");
        assert_eq!(stats.cache_mode, CacheMode::ReadWrite);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let engine = FleetEngine::new(4);
        assert!(engine
            .run(&[], &RunPolicy::new())
            .expect_reports()
            .is_empty());
        assert_eq!(engine.stats(), EngineStats::default());
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        assert_eq!(FleetEngine::new(0).jobs(), 1);
    }

    #[test]
    fn metrics_capture_phases_and_per_scenario_latency() {
        let metrics = Arc::new(Metrics::new());
        let engine = FleetEngine::new(2).with_metrics(Arc::clone(&metrics));
        let batch = batch();
        let reports = engine.run(&batch, &RunPolicy::new()).expect_reports();
        assert_eq!(reports.len(), batch.len());
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("fleet.scenarios"), Some(batch.len() as u64));
        assert_eq!(snap.counter("fleet.simulated"), Some(batch.len() as u64));
        assert_eq!(snap.counter("fleet.cache_hits"), Some(0));
        for phase in [
            "fleet.phase.probe",
            "fleet.phase.simulate",
            "fleet.phase.merge",
        ] {
            let h = snap.histogram(phase).expect(phase);
            assert_eq!(h.count, 1, "{phase} must time each run() once");
        }
        let per_scenario = snap.histogram("fleet.scenario_seconds").unwrap();
        assert_eq!(per_scenario.count, batch.len() as u64);
    }

    #[test]
    fn metrics_do_not_perturb_results() {
        let batch = batch();
        let plain = FleetEngine::new(3).run(&batch, &RunPolicy::new());
        let instrumented = FleetEngine::new(3)
            .with_metrics(Arc::new(Metrics::new()))
            .run(&batch, &RunPolicy::new());
        assert_eq!(plain, instrumented);
    }

    #[test]
    fn run_quarantines_failures_without_poisoning_siblings() {
        let mut batch = batch();
        batch.insert(1, failing_scenario("engine-test/broken"));
        let engine = FleetEngine::new(3);
        let outcome = engine.run(&batch, &RunPolicy::new());
        assert!(!outcome.aborted);
        let counts = outcome.counts();
        assert_eq!(counts.done, batch.len() - 1, "siblings must all finish");
        assert_eq!(counts.quarantined, 1);
        let broken = &outcome.outcomes[1];
        assert_eq!(broken.state, ScenarioState::Quarantined);
        assert_eq!(broken.attempts, 1, "no retries under the default policy");
        assert!(matches!(
            broken.failure,
            Some(ScenarioFailure::Error { .. })
        ));
        assert!(outcome.reports().is_none());
        assert_eq!(engine.stats().quarantined, 1);
        // The engine is still usable after a quarantine.
        assert_eq!(engine.run(&batch[..1], &RunPolicy::new()).counts().done, 1);
    }

    #[test]
    fn retries_are_counted_and_bounded() {
        let engine = FleetEngine::new(1).with_policy(HardenPolicy {
            max_retries: 2,
            ..HardenPolicy::default()
        });
        let outcome = engine.run(&[failing_scenario("engine-test/retry")], &RunPolicy::new());
        assert_eq!(outcome.outcomes[0].attempts, 3, "1 attempt + 2 retries");
        assert_eq!(outcome.outcomes[0].state, ScenarioState::Quarantined);
        assert_eq!(engine.stats().retries, 2);
    }

    #[test]
    fn fail_fast_stops_scheduling_after_a_quarantine() {
        let mut scenarios = vec![failing_scenario("engine-test/ff-broken")];
        scenarios.extend(batch());
        let engine = FleetEngine::new(1).with_policy(HardenPolicy {
            fail_fast: true,
            ..HardenPolicy::default()
        });
        let outcome = engine.run(&scenarios, &RunPolicy::new());
        assert!(outcome.aborted);
        let counts = outcome.counts();
        assert_eq!(counts.quarantined, 1);
        assert_eq!(counts.pending, scenarios.len() - 1, "rest never scheduled");
        assert!(outcome.outcomes[1..]
            .iter()
            .all(|o| o.failure == Some(ScenarioFailure::Aborted)));
    }

    #[test]
    fn run_re_raises_the_first_failure_with_the_scenario_label() {
        let engine = FleetEngine::new(2);
        let mut scenarios = batch();
        scenarios.push(failing_scenario("engine-test/raise"));
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            engine.run(&scenarios, &RunPolicy::new()).expect_reports()
        }));
        let payload = caught.expect_err("expect_reports must re-raise the failure");
        let message = panic_message(payload.as_ref());
        assert_eq!(
            message, "scenario \"engine-test/raise\": need at least one workload",
            "message must match Scenario::run_expect's format"
        );
    }

    #[test]
    fn watchdog_flags_overlong_scenarios_as_timeouts() {
        // A 20-hour horizon cannot simulate in 1 ms even on absurd
        // hardware, so the watchdog must fire.
        let slow = Scenario::new(
            "engine-test/slow",
            SimConfig::prototype(),
            &[Archetype::WebSearch],
            20.0,
            11,
        );
        let engine = FleetEngine::new(1).with_policy(HardenPolicy {
            timeout_ms: Some(1),
            ..HardenPolicy::default()
        });
        let outcome = engine.run(std::slice::from_ref(&slow), &RunPolicy::new());
        assert_eq!(
            outcome.outcomes[0].failure,
            Some(ScenarioFailure::Timeout { limit_ms: 1 })
        );
        assert_eq!(outcome.outcomes[0].state, ScenarioState::Quarantined);
    }

    #[test]
    fn hardened_path_is_bit_identical_to_serial() {
        let batch = batch();
        let serial = SerialRunner.run_batch(&batch);
        let outcome = FleetEngine::new(4).run(&batch, &RunPolicy::new());
        assert!(outcome.all_done());
        assert_eq!(outcome.reports(), Some(serial));
        assert!(outcome
            .outcomes
            .iter()
            .all(|o| o.source == ReportSource::Simulated && o.attempts == 1));
    }

    fn temp_root(tag: &str) -> std::path::PathBuf {
        let root =
            std::env::temp_dir().join(format!("heb-fleet-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn stats_are_a_view_over_the_registry() {
        use crate::journal::{FsyncPolicy, RunJournal};
        let root = temp_root("stats-view");
        let runs = root.join("runs");
        let engine = FleetEngine::new(1)
            .with_policy(HardenPolicy {
                max_retries: 1,
                ..HardenPolicy::default()
            })
            .with_cache(ResultCache::new(root.join("cache")));
        let batch = batch();
        // A journaled run simulates and writes the first scenario...
        {
            let journal = RunJournal::create(&runs, "view", FsyncPolicy::Never).unwrap();
            let first = engine.run(&batch[..1], &RunPolicy::new().journal(&journal));
            assert!(first.all_done());
        }
        // ...its resume settles it from the journal, simulates and
        // writes the second, and retries then quarantines a failure...
        let journal = RunJournal::resume(&runs, "view", FsyncPolicy::Never).unwrap();
        let mixed = [
            batch[0].clone(),
            batch[1].clone(),
            failing_scenario("engine-test/view"),
        ];
        let resumed = engine.run(&mixed, &RunPolicy::new().journal(&journal));
        assert_eq!(resumed.counts().quarantined, 1);
        // ...and a plain run replays the second from the cache.
        assert!(engine.run(&batch[1..2], &RunPolicy::new()).all_done());

        let stats = engine.stats();
        let snap = engine.metrics().snapshot();
        for (name, count) in [
            ("fleet.simulated", stats.simulated),
            ("fleet.servers_simulated", stats.servers_simulated),
            ("fleet.cache_hits", stats.cache_hits),
            ("fleet.cache_writes", stats.cache_writes),
            ("fleet.retries", stats.retries),
            ("fleet.quarantined", stats.quarantined),
            ("fleet.resumed", stats.resumed),
        ] {
            assert!(count > 0, "{name} must have been exercised");
            assert_eq!(snap.counter(name), Some(count as u64), "{name}");
        }
        assert_eq!(
            (stats.simulated, stats.cache_writes, stats.cache_hits),
            (3, 2, 1)
        );
        assert_eq!((stats.retries, stats.quarantined, stats.resumed), (1, 1, 1));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn tmp_reclaimed_is_reported_whichever_was_attached_first() {
        let root = temp_root("tmp-order");
        for metrics_first in [false, true] {
            let cache = ResultCache::new(&root);
            std::fs::create_dir_all(cache.dir()).unwrap();
            for n in 0..2 {
                std::fs::write(cache.dir().join(format!("deadbeef.tmp.999999.{n}")), "x").unwrap();
            }
            let metrics = Arc::new(Metrics::new());
            let engine = if metrics_first {
                FleetEngine::new(1)
                    .with_metrics(Arc::clone(&metrics))
                    .with_cache(cache)
            } else {
                FleetEngine::new(1)
                    .with_cache(cache)
                    .with_metrics(Arc::clone(&metrics))
            };
            assert_eq!(engine.stats().tmp_reclaimed, 2, "{metrics_first}");
            // Set, not added: runs leave the attach-time count alone.
            let _ = engine.run(&[], &RunPolicy::new());
            let _ = engine.run(&[], &RunPolicy::new());
            assert_eq!(
                metrics.snapshot().gauge("fleet.cache.tmp_reclaimed"),
                Some(2.0),
                "metrics first: {metrics_first}"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
