//! `serve_mix`: an in-process `heb_serve::Server` on loopback under a
//! closed loop of two clients, each waiting for its reply before
//! sending the next what-if query.
//!
//! Queries have the shape of the advisor query the repository's README
//! documents: an 8 h horizon with `workloads`, `seed`, `policy`,
//! `sc_fraction` and `tariff`. Each client draws from its own seeded
//! stream: a fresh query (cold: it must simulate) with probability
//! [`COLD_SHARE`], otherwise one of its first [`POOL`] answered fresh
//! queries again (warm: a cache read), either verbatim, when the body
//! must be byte-identical to the cold answer, or with another tariff
//! with probability [`REPRICE_SHARE`], when the cached report is
//! re-priced without simulating and only the bill may differ.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use heb_core::{PolicyKind, Scenario, SimReport, WhatIfQuery};
use heb_fleet::HardenPolicy;
use heb_rng::Rng;
use heb_serve::{http, json, Advisor, AdvisorConfig, Json, Server, ShutdownSignal};
use heb_tco::{bill_run, Tariff};
use heb_units::{Joules, Seconds, Watts};
use heb_workload::Archetype;

use crate::layers;
use crate::outcome::{peak_rss_mb, Outcome};
use crate::span::{trace_overhead, Span, Tracer};
use crate::stats::{beyond, median, percentile};
use crate::{fleet, Args};

/// Concurrent clients (the host has two cores).
pub const CLIENTS: u64 = 2;
/// Share of queries that are fresh (an assumption: see README.md).
pub const COLD_SHARE: f64 = 0.25;
/// Share of the warm queries sent with another tariff (an assumption:
/// see README.md).
pub const REPRICE_SHARE: f64 = 1.0 / 3.0;
/// Simulated hours per query, as in the README's documented query.
pub const QUERY_HOURS: f64 = 8.0;
/// The README's documented query fixes `sc_fraction` at 0.2 and the
/// policy at HEB-D; fresh queries draw around them.
const SC_FRACTIONS: [f64; 4] = [0.1, 0.2, 0.3, 0.4];
/// Tariffs as (`energy_per_kwh`, `demand_per_kw_month`): the first is
/// the README's documented one, which every fresh query uses; a
/// re-priced warm query uses one of the others.
const TARIFFS: [(f64, f64); 9] = [
    (0.12, 14.0),
    (0.08, 10.0),
    (0.08, 14.0),
    (0.08, 18.0),
    (0.12, 10.0),
    (0.12, 18.0),
    (0.16, 10.0),
    (0.16, 14.0),
    (0.16, 18.0),
];
/// Rounds of set-ups and load per run.
const ROUNDS: usize = 5;
/// Server set-ups timed per round.
const SETUPS: usize = 20;

/// A bound server running on its own thread.
struct Running {
    advisor: Arc<Advisor>,
    addr: String,
    signal: ShutdownSignal,
    thread: JoinHandle<std::io::Result<()>>,
}

fn start(cache_dir: &Path) -> std::io::Result<Running> {
    let _ = std::fs::remove_dir_all(cache_dir);
    let advisor = Arc::new(Advisor::new(&AdvisorConfig {
        workers: 2,
        cache_dir: Some(cache_dir.to_path_buf()),
        policy: HardenPolicy::default(),
    }));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&advisor))?;
    let addr = server.addr()?.to_string();
    let signal = server.shutdown_signal()?;
    let thread = std::thread::spawn(move || server.run());
    Ok(Running {
        advisor,
        addr,
        signal,
        thread,
    })
}

fn stop(running: Running) -> bool {
    running.signal.trigger();
    matches!(running.thread.join(), Ok(Ok(())))
}

/// Fresh queries each client keeps for repeats: a fixed working set,
/// so the benchmark's own memory does not grow with throughput.
const POOL: usize = 256;
/// Log entries each client reserves and touches up front, so the log
/// never reallocates and its pages count the same in `peak_rss_mb`
/// whatever the throughput.
const LOG_RESERVE: usize = 200_000;
/// `Sample::repeat` of a fresh query.
const FRESH: u32 = u32::MAX;

/// A fresh query and the answers the server gave it.
#[derive(Debug)]
struct Query {
    query: WhatIfQuery,
    /// The body as sent, with the documented tariff.
    body: String,
    answer: String,
    /// Hashes of the first answer to each re-priced variant (index into
    /// [`TARIFFS`]; 0 for none yet), so a later answer to the same
    /// variant is checked byte for byte without keeping its text.
    repriced: [u64; TARIFFS.len()],
}

/// One answered query, kept to 16 bytes for the same reason as
/// [`LOG_RESERVE`].
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    /// Send time, ns since the loop's origin.
    start: u64,
    /// Round trip, ns.
    nanos: u32,
    /// Pool index of the query a warm query replayed, plus its tariff
    /// index times 2^16; [`FRESH`] for a fresh query.
    repeat: u32,
}

impl Sample {
    fn cold(self) -> bool {
        self.repeat == FRESH
    }

    /// Pool index of a warm query.
    fn pool_index(self) -> usize {
        (self.repeat & 0xFFFF) as usize
    }

    /// Whether a warm query was re-priced with another tariff.
    fn repriced(self) -> bool {
        !self.cold() && self.repeat >> 16 != 0
    }

    fn ms(self) -> f64 {
        f64::from(self.nanos) / 1e6
    }
}

/// An empty log whose [`LOG_RESERVE`] entries are already resident.
fn touched_log() -> Vec<Sample> {
    let mut log = vec![Sample::default(); LOG_RESERVE];
    log.clear();
    log
}

/// A client's seeded query stream and what it saw.
struct Source {
    rng: Rng,
    mix: Option<Vec<Archetype>>,
    client: u64,
    base: u64,
    issued: u64,
    /// This client's first [`POOL`] answered fresh queries.
    pool: Vec<Query>,
    /// Every answered query, in order.
    log: Vec<Sample>,
    /// Simulated server-ticks the answered fresh queries asked for.
    fresh_ticks: f64,
    /// Queries that failed or replayed a different body.
    failed: u64,
    first_error: Option<String>,
}

/// What a client sends next.
enum Pick {
    Fresh(String, WhatIfQuery),
    /// Pool index and tariff index (0: verbatim).
    Repeat(usize, usize),
}

impl Source {
    fn new(seed: u64, client: u64, mix: Option<&[Archetype]>) -> Self {
        Self {
            rng: Rng::seed_from_u64(seed ^ (client + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            mix: mix.map(<[Archetype]>::to_vec),
            client,
            // Query seeds stay below 2^53 so they survive JSON numbers.
            base: (seed % 1_000_000) * 10_000_000,
            issued: 0,
            pool: Vec::with_capacity(POOL),
            log: touched_log(),
            fresh_ticks: 0.0,
            failed: 0,
            first_error: None,
        }
    }

    fn fresh(&mut self) -> (String, WhatIfQuery) {
        let mix = match &self.mix {
            Some(mix) => mix.clone(),
            None => {
                let mut all = Archetype::ALL.to_vec();
                (0..2)
                    .map(|_| all.remove(self.rng.range_usize(0, all.len())))
                    .collect()
            }
        };
        self.issued += 1;
        let seed = self.base + self.client * 1_000_000 + self.issued;
        let mut query = WhatIfQuery::new(mix, QUERY_HOURS, seed);
        query.policy = Some(PolicyKind::ALL[self.rng.range_usize(0, PolicyKind::ALL.len())]);
        query.sc_fraction = Some(SC_FRACTIONS[self.rng.range_usize(0, SC_FRACTIONS.len())]);
        (body(&query, 0), query)
    }

    fn pick(&mut self) -> Pick {
        if self.pool.is_empty() || self.rng.gen_bool(COLD_SHARE) {
            let (body, query) = self.fresh();
            Pick::Fresh(body, query)
        } else {
            let i = self.rng.range_usize(0, self.pool.len());
            let tariff = if self.rng.gen_bool(REPRICE_SHARE) {
                self.rng.range_usize(1, TARIFFS.len())
            } else {
                0
            };
            Pick::Repeat(i, tariff)
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }

    /// The span id of log entry `index`.
    fn id(&self, index: usize) -> u64 {
        (self.client << 32) | index as u64
    }
}

/// The request body for `query` priced with `TARIFFS[tariff]`.
fn body(query: &WhatIfQuery, tariff: usize) -> String {
    let names: Vec<String> = query
        .workloads
        .iter()
        .map(|a| format!("\"{}\"", a.abbreviation()))
        .collect();
    let (energy, demand) = TARIFFS[tariff];
    format!(
        "{{\"workloads\":[{}],\"hours\":{},\"seed\":{},\"policy\":\"{}\",\"sc_fraction\":{},\
         \"tariff\":{{\"energy_per_kwh\":{energy},\"demand_per_kw_month\":{demand}}}}}",
        names.join(","),
        query.hours,
        query.seed,
        query.policy.unwrap_or_default().name(),
        query.sc_fraction.unwrap_or_default(),
    )
}

/// An answer with its `tco` object cut out: what a re-priced answer
/// shares with the answer it re-prices.
fn without_bill(answer: &str) -> Option<(&str, &str, &str)> {
    let start = answer.find(",\"tco\":")?;
    let end = start + answer[start..].find(",\"report\":")?;
    Some((&answer[..start], &answer[start..end], &answer[end..]))
}

/// Checks a re-priced answer against the verbatim answer it re-prices:
/// everything but the bill is the same, and the bill differs.
fn repriced_matches(original: &str, repriced: &str) -> bool {
    match (without_bill(original), without_bill(repriced)) {
        (Some((head, bill, tail)), Some((head2, bill2, tail2))) => {
            head == head2 && tail == tail2 && bill != bill2
        }
        _ => false,
    }
}

fn hash(text: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    text.hash(&mut h);
    h.finish().max(1)
}

/// Runs one client's closed loop until `deadline`.
fn client(addr: &str, source: &mut Source, deadline: Instant, origin: Instant) {
    while Instant::now() < deadline {
        let pick = source.pick();
        let sent = match &pick {
            Pick::Fresh(body, _) => body.clone(),
            Pick::Repeat(i, 0) => source.pool[*i].body.clone(),
            Pick::Repeat(i, t) => body(&source.pool[*i].query, *t),
        };
        let started = Instant::now();
        let reply = http::request(addr, "POST", "/query", &sent);
        let nanos = u32::try_from(started.elapsed().as_nanos()).unwrap_or(u32::MAX);
        let answer = match reply {
            Ok((200, answer)) => answer,
            Ok((status, answer)) => {
                let what = format!("{sent} -> {status}: {answer}");
                source.fail(what);
                continue;
            }
            Err(err) => {
                let what = format!("{sent} -> {err}");
                source.fail(what);
                continue;
            }
        };
        let repeat = match pick {
            Pick::Fresh(body, query) => {
                source.fresh_ticks += query
                    .scenario()
                    .map_or(0.0, |s| s.servers() as f64 * s.ticks() as f64);
                if source.pool.len() < POOL {
                    source.pool.push(Query {
                        query,
                        body,
                        answer,
                        repriced: [0; TARIFFS.len()],
                    });
                }
                FRESH
            }
            Pick::Repeat(i, t) => {
                let entry = &mut source.pool[i];
                let holds = if t == 0 {
                    entry.answer == answer
                } else {
                    let first = entry.repriced[t];
                    entry.repriced[t] = hash(&answer);
                    repriced_matches(&entry.answer, &answer)
                        && (first == 0 || first == entry.repriced[t])
                };
                if !holds {
                    let what = format!("{sent} -> an answer that does not match: {answer}");
                    source.fail(what);
                    continue;
                }
                u32::try_from(i | t << 16).unwrap_or(FRESH)
            }
        };
        source.log.push(Sample {
            start: u64::try_from(started.duration_since(origin).as_nanos()).unwrap_or(u64::MAX),
            nanos,
            repeat,
        });
    }
}

/// One seeded query stream per client.
fn sources(seed: u64, mix: Option<&[Archetype]>) -> Vec<Source> {
    (0..CLIENTS).map(|c| Source::new(seed, c, mix)).collect()
}

/// The clients' closed loops against `running` for `seconds`, appending
/// to each client's log; returns the loop's wall time.
fn closed_loop(running: &Running, clients: &mut [Source], seconds: f64, origin: Instant) -> f64 {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let addr = running.addr.as_str();
    std::thread::scope(|scope| {
        for source in clients.iter_mut() {
            scope.spawn(move || client(addr, source, deadline, origin));
        }
    });
    started.elapsed().as_secs_f64()
}

/// Counts the clients' queries into `out`; returns how many there were.
fn count(out: &mut Outcome, clients: &[Source]) -> u64 {
    let answered: usize = clients.iter().map(|c| c.log.len()).sum();
    let failed: u64 = clients.iter().map(|c| c.failed).sum();
    out.attempted += answered as u64 + failed;
    out.failed += failed;
    if let Some(first) = clients.iter().find_map(|c| c.first_error.as_deref()) {
        out.check(false, || {
            format!("{failed} query(ies) failed or replayed a different body; first: {first}")
        });
    }
    answered as u64 + failed
}

fn latencies(clients: &[Source], cold: bool) -> Vec<f64> {
    clients
        .iter()
        .flat_map(|c| &c.log)
        .filter(|s| s.cold() == cold)
        .map(|s| s.ms())
        .collect()
}

/// The untraced run: [`ROUNDS`] rounds, each timing [`SETUPS`]
/// throwaway server start-ups on fresh caches and then running the
/// clients against the one serving server, so set-up and load both
/// sample the whole run.
pub fn run(args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let running = match start(&work.join("serve-cache")) {
        Ok(r) => r,
        Err(err) => {
            out.check(false, || format!("server set-up failed: {err}"));
            return out;
        }
    };
    let mut clients = sources(args.seed, None);
    let (mut setups, mut wall) = (Vec::new(), 0.0);
    let origin = Instant::now();
    for round in 0..ROUNDS {
        for i in 0..SETUPS {
            let started = Instant::now();
            match start(&work.join(format!("setup-{round}-{i}"))) {
                Ok(r) => {
                    setups.push(started.elapsed().as_secs_f64());
                    out.check(stop(r), || "a server did not shut down cleanly".into());
                }
                Err(err) => out.check(false, || format!("server set-up failed: {err}")),
            }
        }
        wall += closed_loop(&running, &mut clients, args.seconds / ROUNDS as f64, origin);
    }
    out.check(stop(running), || {
        "the server did not shut down cleanly".into()
    });
    // Read before the latencies are collected and sorted, which is the
    // benchmark's memory, not the server's.
    let rss = peak_rss_mb();
    let queries = count(&mut out, &clients);
    let (cold, warm) = (latencies(&clients, true), latencies(&clients, false));
    // Every fresh query asks for the same servers x ticks.
    let ticks_per_query =
        clients.iter().map(|c| c.fresh_ticks).sum::<f64>() / cold.len().max(1) as f64;
    let repriced = clients
        .iter()
        .flat_map(|c| &c.log)
        .filter(|s| s.repriced())
        .count();
    out.note(format!(
        "serve_mix: seed {}, closed loop of {CLIENTS} client(s), {:.0}% fresh queries of {QUERY_HOURS} h; \
         {} fresh, {} verbatim repeat(s), {repriced} re-priced with another tariff",
        args.seed,
        COLD_SHARE * 100.0,
        cold.len(),
        warm.len() - repriced,
    ));
    out.note(format!(
        "cold_p50_ms {:.4} (n={}), cold_p90_ms {:.4} ({} beyond), warm_p50_ms {:.4} (n={}), warm_p99_ms {:.4} ({} beyond), queries_per_s {:.1}",
        median(&cold),
        cold.len(),
        percentile(&cold, 0.9),
        beyond(cold.len(), 0.9),
        median(&warm),
        warm.len(),
        percentile(&warm, 0.99),
        beyond(warm.len(), 0.99),
        queries as f64 / wall
    ));
    out.metric("setup_s", median(&setups), "s");
    out.metric(
        "server_ticks_per_s",
        ticks_per_query / (median(&cold) / 1e3),
        "1/s",
    );
    out.metric("cold_p50_ms", median(&cold), "ms");
    out.metric("warm_p50_ms", median(&warm), "ms");
    out.metric("peak_rss_mb", rss, "MB");
    out
}

/// `heb_tco::bill_run` on `reports`, one `tco.bill_run` span per call
/// (cycled to at least 200 calls).
pub fn bill_calls(reports: &[SimReport], tracer: &mut Tracer) {
    let inputs: Vec<(Joules, Watts, Seconds, Seconds)> = reports
        .iter()
        .map(|r| {
            (
                r.utility_supplied,
                r.utility_peak,
                r.server_downtime,
                r.sim_time,
            )
        })
        .collect();
    bill_inputs(&inputs, tracer);
}

fn bill_inputs(inputs: &[(Joules, Watts, Seconds, Seconds)], tracer: &mut Tracer) {
    let tariff = Tariff::paper_defaults();
    let positive: Vec<_> = inputs.iter().filter(|i| i.3.get() > 0.0).collect();
    for (k, input) in positive
        .iter()
        .cycle()
        .take(200.max(positive.len()))
        .enumerate()
    {
        tracer.span("tco.bill_run", k as u64, None, || {
            std::hint::black_box(bill_run(&tariff, input.0, input.1, input.2, input.3))
        });
    }
}

/// Bill inputs read back from an answer body's `report` object.
fn answer_bill_input(answer: &str) -> Option<(Joules, Watts, Seconds, Seconds)> {
    let parsed = json::parse(answer).ok()?;
    let report = parsed.get("report")?;
    let num = |key: &str| report.get(key).and_then(Json::as_f64);
    Some((
        Joules::from_watt_hours(num("utility_supplied_wh")?),
        Watts::new(num("utility_peak_w")?),
        Seconds::new(num("server_downtime_s")?),
        Seconds::new(num("sim_time_s")?),
    ))
}

/// Polls the advisor's `serve.queue.depth` gauge until stopped and
/// returns the largest depth seen.
fn queue_sampler(advisor: Arc<Advisor>, stop: Arc<AtomicBool>) -> JoinHandle<f64> {
    std::thread::spawn(move || {
        let gauge = advisor.metrics().gauge("serve.queue.depth");
        let mut max: f64 = 0.0;
        while !stop.load(Ordering::Relaxed) {
            max = max.max(gauge.get());
            std::thread::sleep(Duration::from_micros(250));
        }
        max
    })
}

/// What [`probe`] leaves for the caller.
pub struct Probe {
    /// The probed advisor (its engine and metrics stay readable).
    pub advisor: Arc<Advisor>,
    /// Wall time of the traced loop per query, per client.
    pub per_query: f64,
    /// The fresh queries answered.
    pub fresh: Vec<WhatIfQuery>,
}

/// The advisor under a traced closed loop of `seconds`, then its layers
/// in process: `Advisor::query` on warm repeats (each a child of the
/// round trip it repeats, so the round trip's self time is transport)
/// and on fresh queries, the JSON parser on every request, and
/// `bill_run` on every answer. `mix` fixes the workloads (a probe of
/// another workload's mix); `None` draws them. Returns the advisor, the
/// traced loop's wall time per query, and the cold queries sent.
pub fn probe(
    mix: Option<&[Archetype]>,
    seed: u64,
    seconds: f64,
    work: &Path,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Option<Probe> {
    let running = match start(&work.join("probe-cache")) {
        Ok(r) => r,
        Err(err) => {
            out.check(false, || format!("probe server set-up failed: {err}"));
            return None;
        }
    };
    let advisor = Arc::clone(&running.advisor);
    let stop_sampler = Arc::new(AtomicBool::new(false));
    let sampler = queue_sampler(Arc::clone(&advisor), Arc::clone(&stop_sampler));
    let origin = tracer.origin();
    let mut clients = sources(seed, mix);
    let wall = closed_loop(&running, &mut clients, seconds, origin);
    stop_sampler.store(true, Ordering::Relaxed);
    let queue_max = sampler.join().unwrap_or(f64::NAN);
    let snapshot = advisor.metrics().snapshot();
    out.check(stop(running), || {
        "the probe server did not shut down cleanly".into()
    });
    let queries = count(out, &clients);

    // Round-trip spans, then an in-process advisor call under each of
    // (up to) 200 warm ones.
    let mut warm_parents = Vec::new();
    for c in &clients {
        for (k, s) in c.log.iter().enumerate() {
            let index = tracer.push(Span {
                name: "serve.round_trip",
                id: c.id(k),
                parent: None,
                start: s.start,
                end: s.start + u64::from(s.nanos),
            });
            if !s.cold() && !s.repriced() && warm_parents.len() < 200 {
                warm_parents.push((index, c.id(k), &c.pool[s.pool_index()]));
            }
        }
    }
    for (parent, id, query) in &warm_parents {
        let answer = tracer.span("serve.advisor", *id, Some(*parent), || {
            advisor.query(&query.body)
        });
        out.attempted += 1;
        out.check(answer.status == 200 && answer.body == query.answer, || {
            "an in-process warm answer differs from the served one".to_string()
        });
    }
    let floor = crate::span::empty_span_ns();
    let transport: Vec<f64> = warm_parents
        .iter()
        .map(|(parent, ..)| tracer.self_time(*parent, floor) as f64)
        .collect();
    let pool: Vec<&Query> = clients.iter().flat_map(|c| &c.pool).collect();

    // Fresh queries in process.
    let mut source = Source::new(seed ^ 0xC01D, CLIENTS + 1, mix);
    for k in 0..20 {
        let (body, ..) = source.fresh();
        let answer = tracer.span("serve.advisor_cold", k, None, || advisor.query(&body));
        out.attempted += 1;
        if answer.status != 200 {
            out.failed += 1;
        }
    }
    for (k, query) in pool.iter().enumerate() {
        tracer.span("serve.json_parse", k as u64, None, || {
            json::parse(&query.body).is_ok()
        });
    }
    let bills: Vec<_> = pool
        .iter()
        .filter_map(|query| answer_bill_input(&query.answer))
        .collect();
    bill_inputs(&bills, tracer);

    out.metric(
        "serve.advisor_warm_us",
        median(&tracer.durations("serve.advisor")) / 1e3,
        "us",
    );
    out.metric(
        "serve.advisor_cold_ms",
        median(&tracer.durations("serve.advisor_cold")) / 1e6,
        "ms",
    );
    out.metric("serve.transport_us", median(&transport) / 1e3, "us");
    out.metric(
        "serve.json_parse_us",
        median(&tracer.durations("serve.json_parse")) / 1e3,
        "us",
    );
    out.metric(
        "tco.bill_run_us",
        median(&tracer.durations("tco.bill_run")) / 1e3,
        "us",
    );
    out.metric(
        "serve.hit_ratio",
        snapshot.gauge("serve.query.hit_ratio").unwrap_or(0.0),
        "ratio",
    );
    out.metric(
        "serve.singleflight_coalesced",
        snapshot.counter("serve.query.coalesced").unwrap_or(0) as f64,
        "count",
    );
    out.metric("serve.queue_depth_max", queue_max, "count");
    out.note(format!(
        "advisor probe: {queries} round trip(s) in {wall:.3} s, {} warm repeat(s) replayed in process",
        warm_parents.len()
    ));
    let per_query = wall * CLIENTS as f64 / queries.max(1) as f64;
    let fresh = pool.iter().map(|q| q.query.clone()).collect();
    Some(Probe {
        advisor,
        per_query,
        fresh,
    })
}

/// The traced pass: an untraced closed loop for reference, the traced
/// probe, the fleet engine inside the advisor, and the simulator
/// layers on the query scenarios.
pub fn trace(args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let half = args.seconds / 2.0;
    let untraced = match start(&work.join("serve-cache-0")) {
        Ok(running) => {
            let mut clients = sources(args.seed, None);
            let wall = closed_loop(&running, &mut clients, half, Instant::now());
            out.check(stop(running), || {
                "the server did not shut down cleanly".into()
            });
            let queries = count(&mut out, &clients);
            wall * CLIENTS as f64 / queries.max(1) as f64
        }
        Err(err) => {
            out.check(false, || format!("server set-up failed: {err}"));
            f64::NAN
        }
    };
    let Some(probed) = probe(None, args.seed, half, work, &mut tracer, &mut out) else {
        return out;
    };
    let advisor = &probed.advisor;
    fleet::report_engine(advisor.engine(), &advisor.metrics().snapshot(), &mut out);

    let scenarios: Vec<Scenario> = probed
        .fresh
        .iter()
        .take(50)
        .filter_map(|query| query.scenario().ok())
        .collect();
    let leaps = Arc::new(layers::LeapCounter::default());
    let mut reports = Vec::new();
    for s in &scenarios {
        let build = tracer.begin("core.scenario_build", 0, None);
        let driver = s.clone().with_recorder(leaps.clone()).build_driver();
        tracer.end(build);
        match driver {
            Ok(mut d) => reports.push(d.run_ticks(s.ticks())),
            Err(_) => out.failed += 1,
        }
    }
    out.attempted += scenarios.len() as u64;
    let ticks: f64 = scenarios.iter().map(|s| s.ticks() as f64).sum();
    out.metric("core.ticks_leaped", leaps.ticks() as f64, "count");
    out.metric(
        "core.leap_share",
        leaps.ticks() as f64 / ticks.max(1.0),
        "ratio",
    );
    out.metric(
        "core.scenario_build_ms",
        median(&tracer.durations("core.scenario_build")) / 1e6,
        "ms",
    );
    if reports.len() == scenarios.len() && !scenarios.is_empty() {
        fleet::cache_calls(&scenarios, &reports, work, &mut tracer, &mut out);
        // A longer horizon of the first query gives the step
        // percentiles enough samples.
        let first = scenarios[0].clone().with_ticks(2_000);
        if let Ok(mut sim) = first.build() {
            let parents = layers::step_spans(&mut sim, first.ticks(), &mut tracer);
            layers::replay(&first, &parents, &mut tracer);
        }
        layers::report(&tracer, first.servers(), &mut out);
    } else {
        out.check(false, || "no fresh query completed to replay".to_string());
    }
    out.metric(
        "telemetry.trace_overhead",
        trace_overhead(probed.per_query, untraced),
        "ratio",
    );
    crate::write_spans(&tracer, work, "serve_mix", args.seed);
    out
}
