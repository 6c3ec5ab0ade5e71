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
