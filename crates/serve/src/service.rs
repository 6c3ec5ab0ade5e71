//! The capacity advisor: query parsing, validation, dispatch, and
//! deterministic answer rendering.
//!
//! A request flows: JSON body → [`WhatIfQuery`] (validated through
//! `SimConfig::builder`) → [`Scenario`] → content hash → singleflight
//! → bounded worker pool → a single-scenario [`FleetEngine::run`]
//! (cache probe, retries, quarantine) → MPPU (memoised per scenario)
//! → answer. The answer body is built purely from the query, the report
//! and the scenario's MPPU, with Rust's shortest-round-trip float
//! formatting, so a warm (cache) answer is **byte-identical** to the
//! cold (simulated) answer it replays.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use heb_core::{scenario_mppu, PolicyKind, Scenario, SimConfig, SimReport, WhatIfQuery};
use heb_fleet::{FleetEngine, HardenPolicy, ReportSource, ResultCache, RunPolicy, ScenarioState};
use heb_tco::{bill_run, Tariff};
use heb_telemetry::{null_recorder, Event, Metrics, RecorderHandle, ServeEvent};
use heb_units::{Joules, Watts};
use heb_workload::Archetype;

use crate::json::{self, Json};
use crate::singleflight::{FlightRole, Singleflight};

/// An HTTP-level answer: status code plus JSON body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// HTTP status code.
    pub status: u16,
    /// JSON body (no trailing newline).
    pub body: String,
}

impl Answer {
    fn ok(body: String) -> Self {
        Self { status: 200, body }
    }

    fn error(status: u16, message: &str) -> Self {
        let mut body = String::from("{\"error\":\"");
        json::write_escaped(&mut body, message);
        body.push_str("\"}");
        Self { status, body }
    }
}

/// Construction knobs for [`Advisor`].
#[derive(Debug, Clone)]
pub struct AdvisorConfig {
    /// Maximum simulations in flight at once (≥ 1).
    pub workers: usize,
    /// Result-cache root; `None` disables caching (every query
    /// simulates).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Robustness policy for each simulation (timeout/retry/quarantine).
    pub policy: HardenPolicy,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            cache_dir: None,
            policy: HardenPolicy::default(),
        }
    }
}

/// Counting semaphore bounding concurrent simulations.
struct WorkerPool {
    permits: Mutex<usize>,
    freed: Condvar,
    waiting: AtomicUsize,
}

impl WorkerPool {
    fn new(permits: usize) -> Self {
        Self {
            permits: Mutex::new(permits.max(1)),
            freed: Condvar::new(),
            waiting: AtomicUsize::new(0),
        }
    }

    /// Blocks until a permit frees, tracking queue depth in `gauge`.
    fn run<T>(&self, gauge: &heb_telemetry::Gauge, work: impl FnOnce() -> T) -> T {
        gauge.set(self.waiting.fetch_add(1, Ordering::SeqCst) as f64 + 1.0);
        let mut permits = self.permits.lock().unwrap_or_else(PoisonError::into_inner);
        while *permits == 0 {
            permits = self
                .freed
                .wait(permits)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *permits -= 1;
        drop(permits);
        gauge.set(self.waiting.fetch_sub(1, Ordering::SeqCst) as f64 - 1.0);
        let result = work();
        let mut permits = self.permits.lock().unwrap_or_else(PoisonError::into_inner);
        *permits += 1;
        drop(permits);
        self.freed.notify_one();
        result
    }
}

/// Entries the MPPU memo holds before it is cleared: far above the
/// distinct scenarios a warm working set repeats (a few hundred), and
/// at most about 1 MB of `(u128, f64)` entries.
const MPPU_MEMO_CAPACITY: usize = 16_384;

/// MPPU by scenario content hash. MPPU is a pure function of the
/// scenario, but synthesising its demand trace costs milliseconds (an
/// 8 h query is 28,800 ticks), so each scenario pays it once per
/// process. Cleared when full, so it stays bounded.
struct MppuMemo {
    entries: Mutex<BTreeMap<u128, f64>>,
    capacity: usize,
}

impl MppuMemo {
    fn new(capacity: usize) -> Self {
        Self {
            entries: Mutex::new(BTreeMap::new()),
            capacity,
        }
    }

    fn get(&self, id: u128) -> Option<f64> {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&id)
            .copied()
    }

    fn insert(&self, id: u128, mppu: f64) {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if entries.len() >= self.capacity {
            entries.clear();
        }
        entries.insert(id, mppu);
    }
}

/// What a flight yields: the report, the scenario's MPPU, and whether
/// the report came from the result cache — or why the run failed.
type FlightOutcome = Result<(SimReport, f64, bool), String>;

/// The long-lived service state shared by every connection.
pub struct Advisor {
    engine: FleetEngine,
    recorder: RecorderHandle,
    flights: Singleflight<FlightOutcome>,
    pool: WorkerPool,
    mppu: MppuMemo,
    draining: AtomicBool,
}

impl Advisor {
    /// Builds the advisor: one [`FleetEngine`] (single-scenario batches,
    /// so the worker pool — not the engine — governs parallelism) with
    /// the configured cache and robustness policy. The engine's metrics
    /// registry is the advisor's: `serve.*` and `fleet.*` share it.
    #[must_use]
    pub fn new(config: &AdvisorConfig) -> Self {
        let mut engine = FleetEngine::new(1).with_policy(config.policy);
        if let Some(dir) = &config.cache_dir {
            engine = engine.with_cache(ResultCache::new(dir.clone()));
        }
        // Reading the stats registers every `fleet.*` count, so the
        // first `/metrics` scrape already lists them, zero or not.
        let _ = engine.stats();
        Self {
            engine,
            recorder: null_recorder(),
            flights: Singleflight::new(),
            pool: WorkerPool::new(config.workers),
            mppu: MppuMemo::new(MPPU_MEMO_CAPACITY),
            draining: AtomicBool::new(false),
        }
    }

    /// Attaches a telemetry recorder (default: null sink).
    #[must_use]
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.recorder = recorder;
        self
    }

    /// The engine's metrics registry, shared by the advisor's own
    /// `serve.*` instruments (`/metrics` renders its snapshot).
    #[must_use]
    pub fn metrics(&self) -> &Arc<Metrics> {
        self.engine.metrics()
    }

    /// The underlying engine (tests read its [`EngineStats`]).
    ///
    /// [`EngineStats`]: heb_fleet::EngineStats
    #[must_use]
    pub fn engine(&self) -> &FleetEngine {
        &self.engine
    }

    /// Marks the service as draining: `/healthz` flips to `draining`
    /// and the accept loop stops taking new connections.
    pub fn begin_drain(&self, in_flight: usize) {
        self.draining.store(true, Ordering::SeqCst);
        self.emit(|| ServeEvent::Draining { in_flight });
    }

    /// Whether draining has begun.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Flushes the attached recorder. The server calls this after the
    /// drain completes: a buffered recorder (e.g. `JsonlRecorder`)
    /// otherwise only flushes on drop, and a detached connection
    /// thread may still hold an `Arc` to the advisor when the process
    /// exits — its buffered events would be lost.
    pub fn flush_recorder(&self) {
        self.recorder.flush();
    }

    fn emit(&self, event: impl FnOnce() -> ServeEvent) {
        if self.recorder.is_enabled() {
            self.recorder.record(&Event::Serve(event()));
        }
    }

    /// Renders `/healthz`.
    #[must_use]
    pub fn healthz(&self) -> Answer {
        let status = if self.is_draining() { "draining" } else { "ok" };
        Answer::ok(format!("{{\"status\":\"{status}\"}}"))
    }

    /// Renders `/metrics` — the registry snapshot, with the in-flight
    /// singleflight count folded in as a gauge first.
    #[must_use]
    pub fn metrics_snapshot(&self) -> Answer {
        self.metrics()
            .gauge("serve.flights.open")
            .set(self.flights.in_flight() as f64);
        Answer::ok(self.metrics().snapshot().to_json())
    }

    /// Whether answering `body` will simulate: it parses into a
    /// scenario with no entry in the result cache. A cheap guess (one
    /// parse and one `stat`), not a promise: an entry can land or turn
    /// out corrupt in between. The server gives such a query a thread of
    /// its own (DESIGN §10).
    pub(crate) fn will_simulate(&self, body: &str) -> bool {
        let Ok(request) = parse_request(body) else {
            return false;
        };
        let Ok(scenario) = request.query.scenario() else {
            return false;
        };
        self.engine
            .cache()
            .is_none_or(|cache| !cache.entry_path(&scenario).exists())
    }

    /// Answers a `/query` body end to end. Never panics: parse and
    /// validation failures come back 400, quarantined simulations 500,
    /// all with JSON `error` bodies.
    #[must_use]
    pub fn query(&self, body: &str) -> Answer {
        let started = Instant::now();
        self.metrics().counter("serve.query.requests").increment();
        let request = match parse_request(body) {
            Ok(request) => request,
            Err(message) => return self.reject(&message),
        };
        let scenario = match request.query.scenario() {
            Ok(scenario) => scenario,
            Err(err) => return self.reject(&err.to_string()),
        };
        let id = scenario.content_hash();
        let hash = scenario.hash_hex();
        self.emit(|| ServeEvent::QueryReceived {
            scenario: hash.clone(),
        });

        let queue_gauge = self.metrics().gauge("serve.queue.depth");
        let (outcome, role) = self.flights.run(&hash, || {
            self.pool.run(&queue_gauge, || {
                let mut run = self
                    .engine
                    .run(std::slice::from_ref(&scenario), &RunPolicy::new());
                match run.outcomes.pop() {
                    Some(outcome) => match (outcome.state, outcome.report) {
                        (ScenarioState::Done, Some(report)) => Ok((
                            report,
                            self.memoised_mppu(id, &scenario),
                            outcome.source == ReportSource::Cache,
                        )),
                        (_, _) => Err(outcome.failure.map_or_else(
                            || "scenario did not complete".to_string(),
                            |f| f.to_string(),
                        )),
                    },
                    None => Err("scenario did not complete".to_string()),
                }
            })
        });

        let source = match (&outcome, role) {
            (_, FlightRole::Follower) => "coalesced",
            (Ok((_, _, true)), FlightRole::Leader) => "cache",
            (_, FlightRole::Leader) => "simulated",
        };
        let (report, mppu, _) = match outcome {
            Ok(result) => result,
            Err(message) => {
                self.metrics().counter("serve.query.failed").increment();
                self.emit(|| ServeEvent::QueryServed {
                    scenario: hash.clone(),
                    source,
                });
                return Answer::error(500, &format!("simulation failed: {message}"));
            }
        };

        self.metrics().counter("serve.query.answered").increment();
        match source {
            "cache" => self.metrics().counter("serve.query.cache_hits").increment(),
            "coalesced" => self.metrics().counter("serve.query.coalesced").increment(),
            _ => self.metrics().counter("serve.query.simulated").increment(),
        }
        let answered = self.metrics().counter("serve.query.answered").get();
        let hits = self.metrics().counter("serve.query.cache_hits").get();
        if answered > 0 {
            self.metrics()
                .gauge("serve.query.hit_ratio")
                .set(hits as f64 / answered as f64);
        }
        let elapsed = started.elapsed().as_secs_f64();
        self.metrics()
            .histogram("serve.latency.query_seconds")
            .observe(elapsed);
        let bucket = if source == "simulated" {
            "serve.latency.cold_seconds"
        } else {
            "serve.latency.warm_seconds"
        };
        self.metrics().histogram(bucket).observe(elapsed);
        self.emit(|| ServeEvent::QueryServed {
            scenario: hash.clone(),
            source,
        });

        Answer::ok(render_answer(&request, &scenario, &hash, mppu, &report))
    }

    /// The scenario's MPPU from the memo, synthesised on a miss. Runs
    /// inside the flight leader's worker-pool permit, so concurrent
    /// cold queries never synthesise outside the pool and coalesced
    /// followers share the leader's value.
    fn memoised_mppu(&self, id: u128, scenario: &Scenario) -> f64 {
        if let Some(mppu) = self.mppu.get(id) {
            self.metrics().counter("serve.mppu.memo_hits").increment();
            return mppu;
        }
        let mppu = scenario_mppu(scenario);
        self.metrics().counter("serve.mppu.synthesized").increment();
        self.mppu.insert(id, mppu);
        mppu
    }

    fn reject(&self, message: &str) -> Answer {
        self.metrics().counter("serve.query.rejected").increment();
        self.emit(|| ServeEvent::QueryRejected {
            reason: message.to_string(),
        });
        Answer::error(400, message)
    }
}

/// A fully-parsed request: the what-if plus the billing tariff.
struct Request {
    query: WhatIfQuery,
    tariff: Tariff,
}

/// Parses and validates a `/query` JSON body.
fn parse_request(body: &str) -> Result<Request, String> {
    let parsed = json::parse(body).map_err(|err| format!("invalid JSON: {err}"))?;
    let Json::Obj(map) = &parsed else {
        return Err("request body must be a JSON object".to_string());
    };
    const KNOWN: &[&str] = &[
        "workloads",
        "hours",
        "seed",
        "servers",
        "budget_w",
        "capacity_wh",
        "sc_fraction",
        "dod_limit",
        "policy",
        "tariff",
    ];
    for key in map.keys() {
        if !KNOWN.contains(&key.as_str()) {
            return Err(format!("unknown field {key:?}"));
        }
    }

    let workloads = parsed
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("missing required field \"workloads\" (array of abbreviations)")?;
    let mut mix = Vec::with_capacity(workloads.len());
    for item in workloads {
        let name = item.as_str().ok_or("workloads must be strings")?;
        let archetype =
            Archetype::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        mix.push(archetype);
    }
    let hours = parsed
        .get("hours")
        .and_then(Json::as_f64)
        .ok_or("missing required field \"hours\" (number)")?;
    let seed = match parsed.get("seed") {
        None => 7,
        Some(value) => value
            .as_u64()
            .ok_or("seed must be a non-negative integer")?,
    };

    let mut query = WhatIfQuery::new(mix, hours, seed);
    if let Some(value) = parsed.get("servers") {
        let servers = value
            .as_u64()
            .ok_or("servers must be a non-negative integer")?;
        query.servers = Some(servers as usize);
    }
    if let Some(value) = parsed.get("budget_w") {
        query.budget = Some(Watts::new(
            value.as_f64().ok_or("budget_w must be a number")?,
        ));
    }
    if let Some(value) = parsed.get("capacity_wh") {
        query.capacity = Some(Joules::from_watt_hours(
            value.as_f64().ok_or("capacity_wh must be a number")?,
        ));
    }
    if let Some(value) = parsed.get("sc_fraction") {
        query.sc_fraction = Some(value.as_f64().ok_or("sc_fraction must be a number")?);
    }
    if let Some(value) = parsed.get("dod_limit") {
        query.dod_limit = Some(value.as_f64().ok_or("dod_limit must be a number")?);
    }
    if let Some(value) = parsed.get("policy") {
        let name = value.as_str().ok_or("policy must be a string")?;
        query.policy =
            Some(PolicyKind::parse(name).ok_or_else(|| format!("unknown policy {name:?}"))?);
    }
    let tariff = parse_tariff(parsed.get("tariff"))?;
    Ok(Request { query, tariff })
}

fn parse_tariff(value: Option<&Json>) -> Result<Tariff, String> {
    let mut tariff = Tariff::paper_defaults();
    let Some(value) = value else {
        return Ok(tariff);
    };
    let Json::Obj(map) = value else {
        return Err("tariff must be an object".to_string());
    };
    for (key, field) in map {
        let number = field
            .as_f64()
            .ok_or_else(|| format!("tariff.{key} must be a number"))?;
        if !(0.0..=1e9).contains(&number) {
            return Err(format!("tariff.{key} out of range"));
        }
        match key.as_str() {
            "energy_per_kwh" => tariff.energy_per_kwh = heb_units::Dollars::new(number),
            "demand_per_kw_month" => tariff.demand_per_kw_month = heb_units::Dollars::new(number),
            "downtime_per_server_hour" => {
                tariff.downtime_per_server_hour = heb_units::Dollars::new(number);
            }
            other => return Err(format!("unknown tariff field {other:?}")),
        }
    }
    Ok(tariff)
}

/// Builds the deterministic answer body. Every value derives from the
/// query and the (bit-exactly cached) report — no timestamps, no
/// latencies, no source markers — so cache replays are byte-identical
/// to fresh simulations.
fn render_answer(
    request: &Request,
    scenario: &Scenario,
    hash: &str,
    mppu: f64,
    report: &SimReport,
) -> String {
    use std::fmt::Write;
    let config: &SimConfig = scenario.config();
    let bill = bill_run(
        &request.tariff,
        report.utility_supplied,
        report.utility_peak,
        report.server_downtime,
        report.sim_time,
    );
    let mut out = String::with_capacity(640);
    let _ = write!(out, "{{\"query\":{{\"hash\":\"{hash}\"");
    let _ = write!(out, ",\"workloads\":[");
    for (idx, workload) in scenario.workloads().iter().enumerate() {
        if idx > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", workload.abbreviation());
    }
    let _ = write!(
        out,
        "],\"hours\":{},\"seed\":{},\"servers\":{},\"policy\":\"{}\"",
        request.query.hours,
        scenario.seed(),
        config.servers,
        config.policy.name()
    );
    let _ = write!(
        out,
        ",\"budget_w\":{},\"capacity_wh\":{},\"sc_fraction\":{},\"dod_limit\":{}}}",
        config.budget.get(),
        config.total_capacity.as_watt_hours().get(),
        config.sc_fraction.get(),
        config.dod_limit.get()
    );
    let _ = write!(
        out,
        ",\"mppu\":{mppu},\"reu\":{},\"energy_efficiency\":{}",
        report.reu().get(),
        report.energy_efficiency().get()
    );
    let _ = write!(
        out,
        ",\"tco\":{{\"energy_usd\":{},\"demand_usd\":{},\"downtime_usd\":{},\"total_usd\":{}}}",
        bill.energy_cost.get(),
        bill.demand_cost.get(),
        bill.downtime_cost.get(),
        bill.total().get()
    );
    let _ = write!(
        out,
        ",\"report\":{{\"sim_time_s\":{},\"utility_supplied_wh\":{},\"utility_peak_w\":{},\
         \"buffer_delivered_wh\":{},\"server_downtime_s\":{},\"server_restarts\":{},\
         \"shed_events\":{},\"slots\":{}",
        report.sim_time.get(),
        report.utility_supplied.as_watt_hours().get(),
        report.utility_peak.get(),
        report.buffer_delivered.as_watt_hours().get(),
        report.server_downtime.get(),
        report.server_restarts,
        report.shed_events,
        report.slots
    );
    match report.battery_lifetime_years() {
        Some(years) => {
            let _ = write!(out, ",\"battery_lifetime_years\":{years}}}}}");
        }
        None => out.push_str(",\"battery_lifetime_years\":null}}"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_root(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("heb-serve-advisor-{tag}-{}", std::process::id()))
    }

    /// An advisor on an existing (or absent) cache directory.
    fn advisor_on(root: std::path::PathBuf) -> Advisor {
        Advisor::new(&AdvisorConfig {
            workers: 2,
            cache_dir: Some(root),
            policy: HardenPolicy::default(),
        })
    }

    fn advisor(tag: &str) -> Advisor {
        let root = cache_root(tag);
        let _ = std::fs::remove_dir_all(&root);
        advisor_on(root)
    }

    fn mppu_counts(advisor: &Advisor) -> (u64, u64) {
        let snapshot = advisor.metrics().snapshot();
        (
            snapshot.counter("serve.mppu.synthesized").unwrap_or(0),
            snapshot.counter("serve.mppu.memo_hits").unwrap_or(0),
        )
    }

    /// An answer body with its `tco` object cut out: what a re-priced
    /// answer must share byte for byte with the original.
    fn without_tco(body: &str) -> String {
        let start = body.find(",\"tco\":{").expect("tco section");
        let end = start + body[start..].find('}').expect("tco closes") + 1;
        format!("{}{}", &body[..start], &body[end..])
    }

    const QUICK: &str = r#"{"workloads":["WS","TS"],"hours":0.05,"seed":7}"#;

    #[test]
    fn will_simulate_until_the_answer_is_cached() {
        let advisor = advisor("will-simulate");
        assert!(advisor.will_simulate(QUICK));
        assert_eq!(advisor.query(QUICK).status, 200);
        assert!(!advisor.will_simulate(QUICK), "the answer is now cached");
        // A re-priced query shares the cached report.
        let repriced =
            r#"{"workloads":["WS","TS"],"hours":0.05,"seed":7,"tariff":{"energy_per_kwh":0.2}}"#;
        assert!(!advisor.will_simulate(repriced));
        // Bodies the advisor refuses never simulate.
        assert!(!advisor.will_simulate("not json"));
        assert!(!advisor.will_simulate(r#"{"workloads":["??"],"hours":1}"#));
    }

    #[test]
    fn recorder_sees_query_lifecycle_and_drain() {
        let ring = std::sync::Arc::new(heb_telemetry::RingRecorder::new(64));
        let advisor = advisor("recorder")
            .with_recorder(std::sync::Arc::clone(&ring) as heb_telemetry::RecorderHandle);
        assert_eq!(advisor.query(QUICK).status, 200);
        assert_eq!(advisor.query(QUICK).status, 200);
        let rejected = advisor.query(r#"{"workloads":["XX"],"hours":1}"#);
        assert_eq!(rejected.status, 400);
        advisor.begin_drain(0);
        advisor.flush_recorder();
        let kinds: Vec<&'static str> = ring.events().iter().map(Event::kind).collect();
        assert_eq!(
            kinds,
            [
                "serve.query_received",
                "serve.query_served",
                "serve.query_received",
                "serve.query_served",
                "serve.query_rejected",
                "serve.draining",
            ]
        );
    }

    #[test]
    fn warm_answer_is_byte_identical_to_cold() {
        let advisor = advisor("warm-cold");
        let cold = advisor.query(QUICK);
        assert_eq!(cold.status, 200, "{}", cold.body);
        let warm = advisor.query(QUICK);
        assert_eq!(cold.body, warm.body, "cache replay must be byte-identical");
        let stats = advisor.engine().stats();
        assert_eq!(stats.simulated, 1, "second answer must come from cache");
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(mppu_counts(&advisor), (1, 1), "warm MPPU is a memo hit");
        let snapshot = advisor.metrics().snapshot();
        assert_eq!(snapshot.counter("serve.query.answered"), Some(2));
        assert_eq!(snapshot.counter("serve.query.cache_hits"), Some(1));
        assert_eq!(snapshot.gauge("serve.query.hit_ratio"), Some(0.5));
    }

    #[test]
    fn answer_body_is_well_formed_json_with_the_headline_metrics() {
        let advisor = advisor("shape");
        let answer = advisor.query(QUICK);
        let parsed = crate::json::parse(&answer.body).expect("answer must be valid JSON");
        let query = parsed.get("query").expect("query section");
        assert_eq!(
            query.get("hash").and_then(Json::as_str).map(str::len),
            Some(32)
        );
        assert_eq!(query.get("policy").and_then(Json::as_str), Some("HEB-D"));
        let mppu = parsed.get("mppu").and_then(Json::as_f64).expect("mppu");
        assert!((0.0..=1.0).contains(&mppu));
        assert!(parsed.get("reu").and_then(Json::as_f64).is_some());
        let tco = parsed.get("tco").expect("tco section");
        let total = tco.get("total_usd").and_then(Json::as_f64).expect("total");
        assert!(total >= 0.0);
        assert!(parsed
            .get("report")
            .and_then(|r| r.get("sim_time_s"))
            .is_some());
    }

    #[test]
    fn rejects_are_typed_and_counted() {
        let advisor = advisor("rejects");
        for (body, needle) in [
            ("not json", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            ("{\"hours\":1}", "workloads"),
            (r#"{"workloads":["XX"],"hours":1}"#, "unknown workload"),
            (r#"{"workloads":["WS"],"hours":-1}"#, "finite and positive"),
            (
                r#"{"workloads":["WS"],"hours":1,"bogus":1}"#,
                "unknown field",
            ),
            (
                r#"{"workloads":["WS"],"hours":1,"policy":"nope"}"#,
                "unknown policy",
            ),
            (
                r#"{"workloads":["WS"],"hours":1,"sc_fraction":2.0}"#,
                "config rejected",
            ),
            (
                r#"{"workloads":["WS"],"hours":1,"tariff":{"nope":1}}"#,
                "unknown tariff field",
            ),
        ] {
            let answer = advisor.query(body);
            assert_eq!(answer.status, 400, "{body}");
            assert!(answer.body.contains(needle), "{body} → {}", answer.body);
        }
        let snapshot = advisor.metrics().snapshot();
        assert_eq!(snapshot.counter("serve.query.rejected"), Some(9));
        assert_eq!(advisor.engine().stats().simulated, 0);
    }

    #[test]
    fn tariff_overrides_change_tco_but_not_the_cache_key() {
        let advisor = advisor("tariff");
        let base = advisor.query(QUICK);
        let pricey = advisor.query(
            r#"{"workloads":["WS","TS"],"hours":0.05,"seed":7,"tariff":{"energy_per_kwh":0.5}}"#,
        );
        assert_eq!(pricey.status, 200, "{}", pricey.body);
        assert_ne!(base.body, pricey.body, "tariff must change the bill");
        assert_eq!(
            advisor.engine().stats().simulated,
            1,
            "same scenario: the tariff is billing-only, so the second query is a cache hit"
        );
        let hash = |body: &str| {
            crate::json::parse(body)
                .ok()
                .and_then(|p| p.get("query").and_then(|q| q.get("hash")).cloned())
        };
        assert_eq!(hash(&base.body), hash(&pricey.body));
        assert_eq!(
            without_tco(&base.body),
            without_tco(&pricey.body),
            "a re-priced answer differs from the original only in its tco"
        );
        let repeat = advisor.query(QUICK);
        assert_eq!(base.body, repeat.body);
        assert_eq!(
            mppu_counts(&advisor),
            (1, 2),
            "a re-price and a verbatim repeat both read MPPU from the memo"
        );
    }

    #[test]
    fn fresh_advisor_on_a_warm_cache_answers_byte_identically() {
        let root = cache_root("restart");
        let _ = std::fs::remove_dir_all(&root);
        let cold = advisor_on(root.clone()).query(QUICK);
        assert_eq!(cold.status, 200, "{}", cold.body);
        let restarted = advisor_on(root);
        let warm = restarted.query(QUICK);
        assert_eq!(cold.body, warm.body, "memo miss + cache hit must match");
        assert_eq!(restarted.engine().stats().simulated, 0);
        assert_eq!(restarted.engine().stats().cache_hits, 1);
        assert_eq!(mppu_counts(&restarted), (1, 0));
    }

    #[test]
    fn mppu_memo_is_cleared_when_full() {
        let memo = MppuMemo::new(2);
        memo.insert(1, 0.25);
        memo.insert(2, 0.5);
        assert_eq!((memo.get(1), memo.get(2)), (Some(0.25), Some(0.5)));
        memo.insert(3, 0.75);
        assert_eq!(memo.get(1), None, "a full memo is cleared");
        assert_eq!(memo.get(2), None);
        assert_eq!(memo.get(3), Some(0.75));
        memo.insert(3, 0.75);
        assert_eq!(memo.get(3), Some(0.75), "the cleared memo refills");
    }

    #[test]
    fn answers_survive_a_memo_clear() {
        let mut advisor = advisor("memo-clear");
        advisor.mppu = MppuMemo::new(1);
        let other = r#"{"workloads":["PR"],"hours":0.05,"seed":7}"#;
        let first = advisor.query(QUICK);
        let evictor = advisor.query(other);
        assert_eq!(evictor.status, 200, "{}", evictor.body);
        let again = advisor.query(QUICK);
        assert_eq!(
            first.body, again.body,
            "re-synthesised MPPU keeps the bytes"
        );
        assert_eq!(advisor.engine().stats().simulated, 2);
        assert_eq!(mppu_counts(&advisor), (3, 0));
    }

    #[test]
    fn healthz_flips_when_draining() {
        let advisor = advisor("drain");
        assert_eq!(advisor.healthz().body, "{\"status\":\"ok\"}");
        advisor.begin_drain(3);
        assert!(advisor.is_draining());
        assert_eq!(advisor.healthz().body, "{\"status\":\"draining\"}");
    }

    #[test]
    fn concurrent_identical_queries_simulate_once() {
        let advisor = Arc::new(advisor("singleflight"));
        // A horizon long enough that the leader is still simulating
        // when the followers arrive; correctness does not depend on
        // it (latecomers hit the cache), only follower coverage does.
        let body = r#"{"workloads":["WS","TS","PR"],"hours":0.5,"seed":11}"#;
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let advisor = Arc::clone(&advisor);
                std::thread::spawn(move || advisor.query(body))
            })
            .collect();
        let answers: Vec<Answer> = handles
            .into_iter()
            .map(|h| h.join().expect("thread"))
            .collect();
        for answer in &answers {
            assert_eq!(answer.status, 200, "{}", answer.body);
            assert_eq!(answer.body, answers[0].body, "all answers identical");
        }
        assert_eq!(
            advisor.engine().stats().simulated,
            1,
            "N identical concurrent queries must run exactly one simulation"
        );
        let snapshot = advisor.metrics().snapshot();
        assert_eq!(snapshot.counter("serve.query.answered"), Some(6));
        let coalesced = snapshot.counter("serve.query.coalesced").unwrap_or(0);
        let hits = snapshot.counter("serve.query.cache_hits").unwrap_or(0);
        assert_eq!(coalesced + hits, 5, "five answers shared the one run");
        assert!(snapshot.gauge("serve.query.hit_ratio").is_some());
        assert_eq!(
            snapshot.counter("serve.mppu.synthesized"),
            Some(1),
            "six identical queries must synthesise MPPU exactly once"
        );
        assert_eq!(
            snapshot.counter("serve.mppu.memo_hits").unwrap_or(0),
            hits,
            "only later leaders (cache hits) read the memo; followers share"
        );
    }
}
