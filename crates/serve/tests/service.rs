//! End-to-end service semantics: byte-identity against the local search,
//! response caching, single-flight deduplication, admission control and
//! deadlines.

use std::sync::Arc;

use tofu_core::recursive::{partition_cached, PartitionOptions};
use tofu_core::SearchCaches;
use tofu_models::{mlp, MlpConfig};
use tofu_serve::client::{ClientError, PlanClient};
use tofu_serve::protocol::{plan_to_json, ErrorCode};
use tofu_serve::server::{PlanServer, ServeConfig};

fn model(batch: usize) -> tofu_graph::Graph {
    mlp(&MlpConfig { batch, dims: vec![48, 24], classes: 24, with_updates: true })
        .expect("model")
        .graph
}

#[test]
fn served_plans_are_byte_identical_to_local_search() {
    let server = PlanServer::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut client = PlanClient::connect(server.addr()).expect("connect");

    let local_caches = SearchCaches::new();
    for (batch, workers) in [(24usize, 4usize), (24, 8), (48, 6)] {
        let g = model(batch);
        let opts = PartitionOptions { workers, ..Default::default() };
        let served = client.partition("tenant-a", &g, &opts, None).expect("served plan");
        assert!(!served.cached, "first request for this fingerprint must be cold");

        let local = partition_cached(&g, &opts, &local_caches, None).expect("local plan");
        assert_eq!(
            served.plan.to_json(),
            plan_to_json(&local).to_json(),
            "served plan differs from single-threaded partition_cached \
             (batch {batch}, {workers} workers)"
        );

        // Second identical request answers from the response cache with the
        // exact same bytes.
        let again = client.partition("tenant-b", &g, &opts, None).expect("cached plan");
        assert!(again.cached, "identical repeat must be a response-cache hit");
        assert_eq!(again.plan.to_json(), served.plan.to_json());
        assert_eq!(again.fingerprint, served.fingerprint);
    }
    server.shutdown();
}

#[test]
fn concurrent_identical_requests_single_flight() {
    let server = PlanServer::bind(
        "127.0.0.1:0",
        ServeConfig { solver_threads: 2, queue_cap: 64, ..Default::default() },
    )
    .expect("bind");
    let addr = server.addr();
    let g = Arc::new(model(24));
    let opts = PartitionOptions { workers: 8, ..Default::default() };

    let handles: Vec<_> = (0..8)
        .map(|i| {
            let g = Arc::clone(&g);
            std::thread::spawn(move || {
                let mut client = PlanClient::connect(addr).expect("connect");
                client
                    .partition(&format!("tenant-{}", i % 3), &g, &opts, None)
                    .expect("partition")
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().expect("client thread")).collect();

    // All eight answers carry identical plan bytes.
    let first = results[0].plan.to_json();
    for r in &results {
        assert_eq!(r.plan.to_json(), first);
    }

    // Exactly one request computed; the rest joined the flight or hit the
    // response cache (depending on arrival timing).
    let c = server.counters();
    let load = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(load(&c.requests), 8);
    assert_eq!(load(&c.misses), 1, "single-flight must admit exactly one solver run");
    assert_eq!(load(&c.hits) + load(&c.joined), 7);
    assert_eq!(load(&c.rejected), 0);
    server.shutdown();
}

#[test]
fn zero_queue_cap_rejects_cold_requests_as_overloaded() {
    let server = PlanServer::bind(
        "127.0.0.1:0",
        ServeConfig { solver_threads: 1, queue_cap: 0, ..Default::default() },
    )
    .expect("bind");
    let mut client = PlanClient::connect(server.addr()).expect("connect");
    let g = model(24);
    let opts = PartitionOptions { workers: 4, ..Default::default() };
    match client.partition("t", &g, &opts, None) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Overloaded),
        other => panic!("expected overloaded, got {other:?}"),
    }
    // The rejected fingerprint left no stuck in-flight entry: a later
    // request on a server with capacity... here same server, still cap 0,
    // so it must reject again (not hang on a poisoned Pending entry).
    match client.partition("t", &g, &opts, None) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Overloaded),
        other => panic!("expected overloaded again, got {other:?}"),
    }
    let c = server.counters();
    assert_eq!(c.rejected.load(std::sync::atomic::Ordering::Relaxed), 2);
    server.shutdown();
}

#[test]
fn zero_deadline_is_deadline_missed() {
    let server = PlanServer::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut client = PlanClient::connect(server.addr()).expect("connect");
    let g = model(24);
    let opts = PartitionOptions { workers: 4, ..Default::default() };
    match client.partition("t", &g, &opts, Some(0)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::DeadlineMissed),
        other => panic!("expected deadline_missed, got {other:?}"),
    }
    // Without a deadline the same request then succeeds — the missed
    // deadline left no permanent damage.
    client.partition("t", &g, &opts, None).expect("no-deadline request succeeds");
    server.shutdown();
}

#[test]
fn stats_document_reports_serve_and_cache_layers() {
    let server = PlanServer::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut client = PlanClient::connect(server.addr()).expect("connect");
    let g = model(24);
    let opts = PartitionOptions { workers: 4, ..Default::default() };
    client.partition("t", &g, &opts, None).expect("cold");
    client.partition("t", &g, &opts, None).expect("warm");

    let stats = client.stats().expect("stats");
    let serve = stats.get("serve").expect("serve section");
    let num = |sec: &tofu_obs::json::Json, k: &str| {
        sec.get(k).and_then(tofu_obs::json::Json::as_f64).unwrap_or(-1.0)
    };
    assert_eq!(num(serve, "requests"), 2.0);
    assert_eq!(num(serve, "hits"), 1.0);
    assert_eq!(num(serve, "misses"), 1.0);

    let cache = stats.get("cache").expect("cache section");
    assert!(num(cache, "plan_misses") >= 1.0, "underlying plan cache saw the search");
    assert!(num(cache, "plan_entries") >= 1.0);
    assert!(num(cache, "strategy_entries") >= 1.0);
    // The snapshot is non-draining: asking twice must not zero anything.
    let stats2 = client.stats().expect("stats again");
    let cache2 = stats2.get("cache").expect("cache section");
    assert_eq!(num(cache2, "plan_misses"), num(cache, "plan_misses"));
    server.shutdown();
}

#[test]
fn drain_answers_every_queued_request_and_turns_late_arrivals_away() {
    // One solver thread so distinct cold requests pile up in the queue.
    let server = PlanServer::bind(
        "127.0.0.1:0",
        ServeConfig { solver_threads: 1, queue_cap: 64, ..Default::default() },
    )
    .expect("bind");
    let addr = server.addr();
    let g = Arc::new(model(24));

    // Six distinct fingerprints (same graph, different widths), each on its
    // own connection, all in flight at once.
    let handles: Vec<_> = [2usize, 3, 4, 6, 8, 12]
        .into_iter()
        .map(|workers| {
            let g = Arc::clone(&g);
            std::thread::spawn(move || {
                let mut client = PlanClient::connect(addr).expect("connect");
                let opts = PartitionOptions { workers, ..Default::default() };
                client.partition("tenant-drain", &g, &opts, None)
            })
        })
        .collect();

    // Wait until all six were *admitted* (miss counter bumps only after a
    // successful queue push), so none can race the drain latch below.
    let load = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
    while load(&server.counters().misses) < 6 {
        std::thread::yield_now();
    }
    server.begin_drain();

    // A request arriving after the drain began gets the typed answer, on a
    // still-open connection.
    let mut late = PlanClient::connect(addr).expect("late connect");
    let opts = PartitionOptions { workers: 24, ..Default::default() };
    match late.partition("tenant-late", &g, &opts, None) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::ShuttingDown),
        other => panic!("expected shutting_down, got {other:?}"),
    }

    // Every admitted request still gets its plan: nothing is dropped.
    for h in handles {
        let served = h.join().expect("client thread").expect("queued request must be answered");
        assert!(!served.plan.to_json().is_empty());
    }

    // Stats still serve while draining, and say so.
    let stats = late.stats().expect("stats during drain");
    let serve = stats.get("serve").expect("serve section");
    assert_eq!(serve.get("draining").and_then(tofu_obs::json::Json::as_bool), Some(true));
    let num = |k: &str| serve.get(k).and_then(tofu_obs::json::Json::as_f64).unwrap_or(-1.0);
    assert_eq!(num("shutting_down"), 1.0);
    assert_eq!(num("requests"), 6.0, "the late arrival was never counted as admitted work");
    assert_eq!(num("misses"), 6.0);
    assert_eq!(num("rejected"), 0.0);

    // Completing the drain joins the (now idle) solver pool and closes up.
    server.drain();
}
