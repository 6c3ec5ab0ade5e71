//! End-to-end HTTP tests: a real server on an ephemeral port, real
//! sockets, and the acceptance criteria of the serve subsystem —
//! byte-identical warm answers, singleflight under concurrency with
//! the hit ratio visible at `/metrics`, and graceful drain.

use std::sync::Arc;

use heb_fleet::HardenPolicy;
use heb_serve::{http, Advisor, AdvisorConfig, Server};

fn start(tag: &str, workers: usize) -> (Arc<Advisor>, String, std::thread::JoinHandle<()>) {
    let root = std::env::temp_dir().join(format!("heb-serve-http-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let advisor = Arc::new(Advisor::new(&AdvisorConfig {
        workers,
        cache_dir: Some(root),
        policy: HardenPolicy::default(),
    }));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&advisor)).expect("bind");
    let addr = server.addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    (advisor, addr, handle)
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<()>) {
    let (status, body) = http::request(addr, "POST", "/shutdown", "").expect("shutdown");
    assert_eq!(status, 200);
    assert_eq!(body, "{\"draining\":true}");
    handle.join().expect("server thread must drain and exit");
}

const QUICK: &str = r#"{"workloads":["WS","TS"],"hours":0.05,"seed":7}"#;

#[test]
fn cold_then_warm_bodies_are_byte_identical_over_http() {
    let (advisor, addr, handle) = start("warm", 2);
    let (status, cold) = http::request(&addr, "POST", "/query", QUICK).expect("cold");
    assert_eq!(status, 200, "{cold}");
    let (status, warm) = http::request(&addr, "POST", "/query", QUICK).expect("warm");
    assert_eq!(status, 200);
    assert_eq!(
        cold, warm,
        "cache replay must be byte-identical on the wire"
    );
    let stats = advisor.engine().stats();
    assert_eq!((stats.simulated, stats.cache_hits), (1, 1));
    shutdown(&addr, handle);
}

#[test]
fn concurrent_identical_requests_simulate_once_and_metrics_show_it() {
    let (advisor, addr, handle) = start("singleflight", 4);
    let body = r#"{"workloads":["WS","TS","PR"],"hours":0.5,"seed":11}"#;
    let clients: Vec<_> = (0..6)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || http::request(&addr, "POST", "/query", body).expect("query"))
        })
        .collect();
    let answers: Vec<(u16, String)> = clients
        .into_iter()
        .map(|c| c.join().expect("client"))
        .collect();
    for (status, answer) in &answers {
        assert_eq!(*status, 200, "{answer}");
        assert_eq!(*answer, answers[0].1, "every client gets the same bytes");
    }
    assert_eq!(
        advisor.engine().stats().simulated,
        1,
        "six identical concurrent requests must trigger exactly one simulation"
    );

    let (status, metrics) = http::request(&addr, "GET", "/metrics", "").expect("metrics");
    assert_eq!(status, 200);
    let snapshot = heb_serve::json::parse(&metrics).expect("metrics body is JSON");
    let gauge = snapshot
        .get("gauges")
        .and_then(|g| g.get("serve.query.hit_ratio"))
        .and_then(heb_serve::Json::as_f64)
        .expect("/metrics must report the cache hit ratio");
    assert!((0.0..=1.0).contains(&gauge));
    let answered = snapshot
        .get("counters")
        .and_then(|c| c.get("serve.query.answered"))
        .and_then(heb_serve::Json::as_u64)
        .expect("answered counter");
    assert_eq!(answered, 6);
    // The advisor renders its engine's registry: the fleet counts sit
    // beside the serve ones, and agree with the engine's stats.
    let fleet = |name: &str| {
        snapshot
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(heb_serve::Json::as_u64)
            .unwrap_or_else(|| panic!("/metrics must list {name}"))
    };
    assert_eq!(fleet("fleet.simulated"), 1);
    assert_eq!(fleet("fleet.retries"), 0);
    assert_eq!(
        fleet("fleet.cache_writes"),
        advisor.engine().stats().cache_writes as u64
    );
    assert!(fleet("fleet.servers_simulated") > 0);
    shutdown(&addr, handle);
}

#[test]
fn healthz_metrics_and_errors_speak_http() {
    let (_advisor, addr, handle) = start("endpoints", 2);
    let (status, body) = http::request(&addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}"));

    let (status, body) = http::request(&addr, "POST", "/query", "not json").expect("bad");
    assert_eq!(status, 400);
    assert!(body.contains("invalid JSON"), "{body}");

    let (status, body) = http::request(&addr, "GET", "/nope", "").expect("404");
    assert_eq!(status, 404);
    assert!(body.contains("no such endpoint"));

    let (status, _) = http::request(&addr, "DELETE", "/query", "").expect("405");
    assert_eq!(status, 405);
    shutdown(&addr, handle);
}

#[test]
fn shutdown_drains_in_flight_queries() {
    let (advisor, addr, handle) = start("drain", 2);
    // A query slow enough to still be running when shutdown arrives.
    let slow = r#"{"workloads":["HB","DFS"],"hours":0.5,"seed":3}"#;
    let client = {
        let addr = addr.clone();
        std::thread::spawn(move || http::request(&addr, "POST", "/query", slow).expect("slow"))
    };
    // Give the slow query time to get accepted before shutting down.
    std::thread::sleep(std::time::Duration::from_millis(100));
    shutdown(&addr, handle);
    let (status, body) = client.join().expect("client");
    assert_eq!(
        status, 200,
        "in-flight query must complete through the drain: {body}"
    );
    assert_eq!(advisor.engine().stats().simulated, 1);
    assert!(advisor.is_draining());
}

/// One raw exchange on an open connection: reads the whole response
/// and splits it into status, head and body.
fn read_response(stream: &mut std::net::TcpStream) -> (u16, String, String) {
    use std::io::Read;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .expect("a complete response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("a header break");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .expect("a status code");
    (status, head.to_string(), body.to_string())
}

fn counter(advisor: &Advisor, name: &str) -> u64 {
    advisor.metrics().snapshot().counter(name).unwrap_or(0)
}

fn gauge(advisor: &Advisor, name: &str) -> f64 {
    advisor
        .metrics()
        .snapshot()
        .gauge(name)
        .unwrap_or_else(|| panic!("{name} must be set"))
}

#[test]
fn sequential_requests_reuse_a_few_handlers() {
    let (advisor, addr, handle) = start("reuse", 2);
    for _ in 0..50 {
        let (status, _) = http::request(&addr, "GET", "/healthz", "").expect("healthz");
        assert_eq!(status, 200);
    }
    let spawned = counter(&advisor, "serve.handlers.spawned");
    assert!(
        (1..10).contains(&spawned),
        "50 sequential requests spawned {spawned} handlers"
    );
    let (_, metrics) = http::request(&addr, "GET", "/metrics", "").expect("metrics");
    for name in [
        "serve.handlers.spawned",
        "serve.handlers.live",
        "serve.handlers.idle",
        "serve.connections.shed",
    ] {
        assert!(metrics.contains(name), "/metrics must list {name}");
    }
    assert_eq!(counter(&advisor, "serve.connections.shed"), 0);
    shutdown(&addr, handle);
}

#[test]
fn overload_beyond_the_bound_answers_200_or_503_and_counts_the_shed() {
    use std::io::Write;
    use std::net::TcpStream;

    let (advisor, addr, handle) = start("overload", 2);
    let body = r#"{"workloads":["HB","DFS"],"hours":0.5,"seed":5}"#;
    let head = format!(
        "POST /query HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let (first, rest) = body.split_at(body.len() / 2);
    // Every handler the bound allows takes one of these identical
    // queries and waits for the rest of its body: the pool is full.
    let mut pinned: Vec<TcpStream> = (0..heb_serve::MAX_HANDLERS)
        .map(|_| {
            let mut stream = TcpStream::connect(&addr).expect("connect");
            stream
                .write_all(format!("{head}{first}").as_bytes())
                .expect("partial request");
            stream
        })
        .collect();
    // The accept loop admits connections in order, so each of these
    // arrives with every handler busy.
    const EXTRA: usize = 12;
    let barrier = Arc::new(std::sync::Barrier::new(EXTRA));
    let extra: Vec<_> = (0..EXTRA)
        .map(|_| {
            let (addr, request) = (addr.clone(), format!("{head}{body}"));
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut stream = TcpStream::connect(&addr).expect("connect");
                stream.write_all(request.as_bytes()).expect("request");
                read_response(&mut stream)
            })
        })
        .collect();
    let mut answers: Vec<(u16, String, String)> = extra
        .into_iter()
        .map(|c| c.join().expect("client"))
        .collect();
    for stream in &mut pinned {
        stream.write_all(rest.as_bytes()).expect("rest of the body");
    }
    answers.extend(pinned.iter_mut().map(read_response));

    let mut ok = Vec::new();
    let mut shed = 0;
    for (status, head, body) in answers {
        match status {
            200 => ok.push(body),
            503 => {
                assert!(head.contains("\r\nRetry-After: "), "{head}");
                shed += 1;
            }
            other => panic!("only 200 or 503 may answer, got {other}: {body}"),
        }
    }
    assert_eq!(shed, EXTRA, "every connection past the bound is shed");
    assert_eq!(ok.len(), heb_serve::MAX_HANDLERS);
    assert!(ok.iter().all(|b| *b == ok[0]), "one answer, byte for byte");
    assert_eq!(counter(&advisor, "serve.connections.shed"), shed as u64);
    assert_eq!(
        counter(&advisor, "serve.handlers.spawned"),
        heb_serve::MAX_HANDLERS as u64
    );
    assert_eq!(advisor.engine().stats().simulated, 1);
    shutdown(&addr, handle);
}

#[test]
fn run_returns_only_after_every_handler_is_joined() {
    use std::io::Write;
    use std::net::TcpStream;

    let (advisor, addr, handle) = start("joined", 2);
    for _ in 0..3 {
        http::request(&addr, "GET", "/healthz", "").expect("healthz");
    }
    // A request still arriving when shutdown begins holds its handler
    // through the drain; the others sit idle.
    let mut slow = TcpStream::connect(&addr).expect("connect");
    slow.write_all(b"GET /healthz HTTP/1.1\r\n")
        .expect("partial head");
    let (status, _) = http::request(&addr, "POST", "/shutdown", "").expect("shutdown");
    assert_eq!(status, 200);
    while !advisor.is_draining() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    slow.write_all(b"\r\n").expect("rest of the head");
    let (status, _, body) = read_response(&mut slow);
    assert_eq!((status, body.as_str()), (200, "{\"status\":\"draining\"}"));
    handle.join().expect("server thread must drain and exit");

    assert!(counter(&advisor, "serve.handlers.spawned") >= 2);
    assert_eq!(gauge(&advisor, "serve.handlers.live"), 0.0);
    assert_eq!(gauge(&advisor, "serve.handlers.idle"), 0.0);
    // Every handler thread held the advisor; none still does.
    assert_eq!(Arc::strong_count(&advisor), 1);
}

#[test]
fn an_endless_header_line_is_refused_promptly() {
    use std::io::Write;

    let (advisor, addr, handle) = start("endless-header", 2);
    let started = std::time::Instant::now();
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut request = b"GET /healthz HTTP/1.1\r\nX-Filler: ".to_vec();
    request.resize(request.len() + 64 * 1024, b'a');
    stream.write_all(&request).expect("64 KiB header line");
    let (status, _, body) = read_response(&mut stream);
    assert_eq!(status, 400);
    assert!(body.contains("headers too large"), "{body}");
    assert!(
        started.elapsed() < http::READ_TIMEOUT / 4,
        "refused after {:?}",
        started.elapsed()
    );
    assert_eq!(counter(&advisor, "serve.connections.shed"), 0);
    shutdown(&addr, handle);
}
