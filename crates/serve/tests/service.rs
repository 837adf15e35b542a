//! End-to-end service semantics: byte-identity against the local search,
//! response caching (plans and provable rejections), the fingerprint-first
//! exchange, single-flight deduplication, admission control and deadlines.

use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use tofu_core::recursive::{partition, PartitionOptions};
use tofu_core::request_fingerprint;
use tofu_models::{decoder_block, mlp, DecoderConfig, MlpConfig};
use tofu_obs::json::Json;
use tofu_serve::client::{ClientError, PlanClient};
use tofu_serve::protocol::{
    encode_partition, encode_plan_response, fingerprint_hex, plan_to_json, read_frame, write_frame,
    ErrorCode, Request, Response,
};
use tofu_serve::server::{PlanServer, ServeConfig};

fn model(batch: usize) -> tofu_graph::Graph {
    mlp(&MlpConfig { batch, dims: vec![48, 24], classes: 24, with_updates: true })
        .expect("model")
        .graph
}

/// A model whose search is long enough (~0.1 s optimized, ~1 s unoptimized)
/// to probe while it runs.
fn slow_model() -> tofu_graph::Graph {
    decoder_block(&DecoderConfig {
        seq: 128,
        d_model: 256,
        heads: 8,
        d_ff: 1024,
        classes: 64,
        with_updates: true,
    })
    .expect("decoder")
    .graph
}

/// `[requests, hits, misses, joined, rejected]` of a server with no request
/// in the middle of admission, checked against the accounting identity.
fn counters(server: &PlanServer) -> [u64; 5] {
    let c = server.counters();
    let read = [&c.requests, &c.hits, &c.misses, &c.joined, &c.rejected]
        .map(|a| a.load(Ordering::Relaxed));
    assert_eq!(read[1] + read[2] + read[3] + read[4], read[0], "counters do not add up: {read:?}");
    read
}

/// One raw exchange: what any client, not just [`PlanClient`], can send.
fn ask(stream: &mut TcpStream, payload: &[u8]) -> Response {
    write_frame(stream, payload).expect("send");
    let answer = read_frame(stream, 8 << 20).expect("read").expect("an answer frame");
    Response::from_bytes(&answer).expect("parse answer")
}

fn lookup(id: u64, fingerprint: u128, deadline_ms: Option<u64>) -> Vec<u8> {
    Request::Lookup { id, fingerprint, deadline_ms }.to_bytes()
}

fn error_code(response: Response) -> ErrorCode {
    match response {
        Response::Error { code, .. } => code,
        other => panic!("expected a typed error, got {other:?}"),
    }
}

#[test]
fn served_plans_are_byte_identical_to_local_search() {
    let server = PlanServer::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut client = PlanClient::connect(server.addr()).expect("connect");

    for (batch, workers) in [(24usize, 4usize), (24, 8), (48, 6)] {
        let g = model(batch);
        let opts = PartitionOptions { workers, ..Default::default() };
        let served = client.partition("tenant-a", &g, &opts, None).expect("served plan");
        assert!(!served.cached, "first request for this fingerprint must be cold");
        // The client's local hash (its lookup key) is the server's key.
        assert_eq!(served.fingerprint, request_fingerprint(&g, &opts));

        let local = partition(&g, &opts).expect("local plan");
        assert_eq!(
            served.plan.to_json(),
            plan_to_json(&local).to_json(),
            "served plan differs from single-threaded partition \
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

/// `clients` threads each send `rounds` passes over `mix`, rotated so that
/// at any instant clients collide on *different* requests, through a server
/// with two solver threads. Every answer must byte-equal a single-threaded
/// `partition` of its request, and each unique request must be solved once:
/// every other arrival joins its flight or hits the filed plan.
fn hammer(mix: Vec<(tofu_graph::Graph, PartitionOptions)>, clients: usize, rounds: usize) {
    let server = PlanServer::bind(
        "127.0.0.1:0",
        ServeConfig { solver_threads: 2, queue_cap: 64, ..Default::default() },
    )
    .expect("bind");
    let addr = server.addr();
    let expected: Vec<String> =
        mix.iter().map(|(g, o)| plan_to_json(&partition(g, o).expect("local")).to_json()).collect();
    let (mix, expected) = (Arc::new(mix), Arc::new(expected));

    let handles: Vec<_> = (0..clients)
        .map(|t| {
            let (mix, expected) = (Arc::clone(&mix), Arc::clone(&expected));
            std::thread::spawn(move || {
                let mut client = PlanClient::connect(addr).expect("connect");
                for round in 0..rounds {
                    for i in 0..mix.len() {
                        let idx = (i + t + round) % mix.len();
                        let (g, opts) = &mix[idx];
                        let served = client
                            .partition(&format!("tenant-{}", t % 3), g, opts, None)
                            .expect("partition");
                        assert_eq!(
                            served.plan.to_json(),
                            expected[idx],
                            "client {t} round {round}: request {idx} differs from local search"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let [requests, hits, misses, joined, rejected] = counters(&server);
    assert_eq!(requests, (clients * rounds * mix.len()) as u64);
    assert_eq!(misses, mix.len() as u64, "single flight: one solve per unique request");
    assert_eq!(hits + joined, requests - misses);
    assert_eq!(rejected, 0);
    server.shutdown();
}

#[test]
fn concurrent_requests_single_flight_to_the_local_plan() {
    // Eight clients asking for one request at once.
    hammer(vec![(model(24), PartitionOptions { workers: 8, ..Default::default() })], 8, 1);

    // Four clients over two models × three widths, all divisible by both
    // the 2·2·2 and the 3·2 step sequences.
    let model_b =
        mlp(&MlpConfig { batch: 48, dims: vec![72, 48], classes: 24, with_updates: false })
            .expect("model b")
            .graph;
    let mut mix = Vec::new();
    for g in [model(24), model_b] {
        for workers in [4usize, 6, 8] {
            mix.push((g.clone(), PartitionOptions { workers, ..Default::default() }));
        }
    }
    hammer(mix, 4, 2);
}

#[test]
fn a_repeated_infeasible_request_is_answered_without_a_second_search() {
    let obs = tofu_obs::Collector::new();
    let server = PlanServer::bind(
        "127.0.0.1:0",
        ServeConfig { collector: Some(obs.clone()), ..Default::default() },
    )
    .expect("bind");
    let mut client = PlanClient::connect(server.addr()).expect("connect");
    // Batch 36 has no split into five equal parts.
    let g = mlp(&MlpConfig { batch: 36, dims: vec![72, 36], classes: 36, with_updates: true })
        .expect("model")
        .graph;
    let opts = PartitionOptions { workers: 5, ..Default::default() };
    for attempt in 0..2 {
        match client.partition("t", &g, &opts, None) {
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::SearchFailed, "attempt {attempt}");
            }
            other => panic!("attempt {attempt}: expected search_failed, got {other:?}"),
        }
    }
    let c = server.counters();
    assert_eq!(counters(&server), [2, 1, 1, 0, 0], "the repeat is a response-cache hit");
    assert_eq!(c.search_failed.load(Ordering::Relaxed), 2);
    let solves = obs.events().iter().filter(|e| e.name.starts_with("solve ")).count();
    assert_eq!(solves, 1, "the solver ran once");
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
    assert_eq!(num(cache, "entries"), 1.0, "one plan is filed");

    // A provable rejection is filed beside the plan.
    let infeasible = PartitionOptions { workers: 5, ..Default::default() };
    assert!(client.partition("t", &g, &infeasible, None).is_err());
    let stats2 = client.stats().expect("stats again");
    let cache2 = stats2.get("cache").expect("cache section");
    assert_eq!(num(cache2, "entries"), 2.0);
    // The stats are non-draining: asking again zeroes nothing.
    let serve2 = stats2.get("serve").expect("serve section");
    assert_eq!(num(serve2, "hits"), 1.0);
    assert_eq!(num(serve2, "misses"), 2.0);
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

#[test]
fn a_probe_that_finds_nothing_is_not_a_request() {
    let server = PlanServer::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    let mut client = PlanClient::connect(server.addr()).expect("connect");
    let g = model(24);
    let opts = PartitionOptions { workers: 4, ..Default::default() };
    let fp = request_fingerprint(&g, &opts);
    let local = plan_to_json(&partition(&g, &opts).unwrap());

    // Nothing filed yet: a typed "upload it", and not one counter moves.
    assert_eq!(error_code(ask(&mut raw, &lookup(1, fp, None))), ErrorCode::NotCached);
    assert_eq!(counters(&server), [0, 0, 0, 0, 0]);

    // The client's probe finds nothing either, so the upload that follows is
    // the one request, a miss, and the first answer is not a cached one.
    let first = client.partition("t", &g, &opts, None).expect("cold");
    assert!(!first.cached);
    assert_eq!(counters(&server), [1, 0, 1, 0, 0]);

    // A probe that finds the plan is a request and a hit, answered with the
    // usual plan response. The client keeps the plan as the text the server
    // filed (`local`'s canonical serialization), byte for byte.
    write_frame(&mut raw, &lookup(2, fp, None)).expect("send");
    let frame = read_frame(&mut raw, 8 << 20).expect("read").expect("an answer frame");
    match Response::from_bytes(&frame).expect("parse answer") {
        Response::Plan { id, cached, fingerprint, plan } => {
            assert_eq!((id, cached), (2, true));
            assert_eq!(fingerprint, fp);
            assert_eq!(plan.as_str(), local.to_json());
            assert_eq!(encode_plan_response(2, true, &fingerprint_hex(fp), plan.as_str()), frame);
        }
        other => panic!("expected the plan, got {other:?}"),
    }
    assert_eq!(counters(&server), [2, 1, 1, 0, 0]);

    // So a warm `partition` sends the fingerprint and nothing else.
    let sent = server.counters().request_bytes.load(Ordering::Relaxed);
    let warm = client.partition("t", &g, &opts, None).expect("warm");
    let sent = server.counters().request_bytes.load(Ordering::Relaxed) - sent;
    assert!(warm.cached);
    assert_eq!(warm.plan.as_str(), local.to_json());
    assert!(sent < 256, "a warm hit sent {sent} request bytes");
    let upload = encode_partition(1, "t", &g, &opts, None).len() as u64;
    assert!(10 * sent < upload, "the graph ({upload} B) is what a {sent} B probe saves");
    assert_eq!(counters(&server), [3, 2, 1, 0, 0]);
    server.shutdown();
}

#[test]
fn a_probe_joins_a_flight_and_is_answered_when_the_leader_lands() {
    let server = PlanServer::bind(
        "127.0.0.1:0",
        ServeConfig { solver_threads: 1, ..Default::default() },
    )
    .expect("bind");
    let addr = server.addr();
    let g = Arc::new(slow_model());
    let mut raw = TcpStream::connect(addr).expect("connect");

    // The entry is `Pending` from the leader's admission (which is when
    // `misses` moves) until its search ends. Nothing a test can hold keeps
    // the solver from finishing, so a probe that arrives after the search
    // ended — a hit, not a join — repeats the round on a fresh fingerprint;
    // each round is a full miss of the same cost (`state_bound` is hashed,
    // never binding).
    let joined = (0..8).any(|round| {
        let opts = PartitionOptions {
            workers: 8,
            state_bound: PartitionOptions::default().state_bound + round,
            ..Default::default()
        };
        let before = counters(&server);
        let leader = {
            let g = Arc::clone(&g);
            std::thread::spawn(move || {
                PlanClient::connect(addr).expect("connect").partition("leader", &g, &opts, None)
            })
        };
        // Read alone: mid-admission the counters do not add up yet.
        while server.counters().misses.load(Ordering::Relaxed) == before[2] {
            std::thread::yield_now();
        }
        let answer = ask(&mut raw, &lookup(round as u64, request_fingerprint(&g, &opts), None));
        let led = leader.join().expect("leader thread").expect("leader's plan");
        let after = counters(&server);
        let Response::Plan { cached, fingerprint, plan, .. } = answer else {
            panic!("round {round}: expected a plan, got {answer:?}");
        };
        assert_eq!(fingerprint, led.fingerprint);
        assert_eq!(plan.to_json(), led.plan.to_json());
        assert!(!led.cached);
        if cached {
            assert_eq!(after, [before[0] + 2, before[1] + 1, before[2] + 1, before[3], 0]);
            return false;
        }
        // Joined: a request, not a hit, not a second search.
        assert_eq!(after, [before[0] + 2, before[1], before[2] + 1, before[3] + 1, 0]);
        true
    });
    assert!(joined, "eight probes in a row arrived after a search that had just been admitted");
    server.shutdown();
}

#[test]
fn a_joined_waiter_is_answered_by_its_own_deadline_not_the_leaders() {
    let server = PlanServer::bind(
        "127.0.0.1:0",
        ServeConfig { solver_threads: 1, ..Default::default() },
    )
    .expect("bind");
    let addr = server.addr();
    let slow = Arc::new(slow_model());
    let g = model(24);
    let mut up = TcpStream::connect(addr).expect("connect");
    let mut raw = TcpStream::connect(addr).expect("connect");

    // The one solver is busy with a slow search while an upload whose
    // deadline has already elapsed queues behind it, and a deadline-free
    // probe of the same fingerprint joins that upload's flight. A probe that
    // arrives after the solver dropped the expired flight finds nothing and
    // repeats the round on fresh fingerprints (as in the test above).
    let joined = (0..8).any(|round| {
        let fresh = |workers| PartitionOptions {
            workers,
            state_bound: PartitionOptions::default().state_bound + round,
            ..Default::default()
        };
        let (slow_opts, opts) = (fresh(8), fresh(4));
        let fp = request_fingerprint(&g, &opts);
        let before = counters(&server);
        let busy = {
            let slow = Arc::clone(&slow);
            std::thread::spawn(move || {
                PlanClient::connect(addr).expect("connect").partition("busy", &slow, &slow_opts, None)
            })
        };
        // Read alone: mid-admission the counters do not add up yet.
        let misses = || server.counters().misses.load(Ordering::Relaxed);
        while misses() == before[2] {
            std::thread::yield_now();
        }
        write_frame(&mut up, &encode_partition(1, "late", &g, &opts, Some(0))).expect("send");
        while misses() == before[2] + 1 {
            std::thread::yield_now();
        }
        let answer = ask(&mut raw, &lookup(round as u64, fp, None));
        let led = read_frame(&mut up, 8 << 20).expect("read").expect("the leader's answer");
        busy.join().expect("busy thread").expect("the slow plan");
        let after = counters(&server);
        if after[3] == before[3] {
            assert_eq!(error_code(answer), ErrorCode::NotCached);
            assert_eq!(after, [before[0] + 2, before[1], before[2] + 2, before[3], 0]);
            return false;
        }
        // Joined: the leader is told its deadline passed, the waiter gets
        // the plan, and the plan is filed for the next identical request.
        assert_eq!(error_code(Response::from_bytes(&led).expect("parse")), ErrorCode::DeadlineMissed);
        let Response::Plan { cached, plan, .. } = answer else {
            panic!("round {round}: the waiter set no deadline, yet got {answer:?}");
        };
        assert!(!cached);
        assert_eq!(after, [before[0] + 3, before[1], before[2] + 2, before[3] + 1, 0]);
        match ask(&mut raw, &lookup(99, fp, None)) {
            Response::Plan { cached: true, plan: again, .. } => {
                assert_eq!(again.to_json(), plan.to_json());
            }
            other => panic!("expected the filed plan, got {other:?}"),
        }
        true
    });
    assert!(joined, "eight probes in a row arrived after the solver dropped the expired upload");
    server.shutdown();
}

#[test]
fn deadlines_and_drains_answer_both_message_kinds() {
    let server = PlanServer::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    let mut client = PlanClient::connect(server.addr()).expect("connect");
    let g = model(24);
    let opts = PartitionOptions { workers: 4, ..Default::default() };
    let fp = request_fingerprint(&g, &opts);
    client.partition("t", &g, &opts, None).expect("prime");

    // An elapsed deadline is `deadline_missed` however the plan was asked
    // for, found or not (`zero_deadline_is_deadline_missed` is the cold case).
    let upload = |id, deadline| encode_partition(id, "t", &g, &opts, deadline);
    assert_eq!(error_code(ask(&mut raw, &lookup(1, fp, Some(0)))), ErrorCode::DeadlineMissed);
    assert_eq!(error_code(ask(&mut raw, &upload(2, Some(0)))), ErrorCode::DeadlineMissed);
    match client.partition("t", &g, &opts, Some(0)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::DeadlineMissed),
        other => panic!("expected deadline_missed, got {other:?}"),
    }
    assert_eq!(server.counters().deadline_missed.load(Ordering::Relaxed), 3);
    // Each found the plan and was told too late: a request, and a hit.
    assert_eq!(counters(&server), [4, 3, 1, 0, 0]);

    // A draining server turns both kinds away, cached plan or not, and
    // counts neither as a request.
    server.begin_drain();
    assert_eq!(error_code(ask(&mut raw, &lookup(3, fp, None))), ErrorCode::ShuttingDown);
    assert_eq!(error_code(ask(&mut raw, &lookup(4, fp ^ 1, None))), ErrorCode::ShuttingDown);
    assert_eq!(error_code(ask(&mut raw, &upload(5, None))), ErrorCode::ShuttingDown);
    match client.partition("t", &g, &opts, None) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::ShuttingDown),
        other => panic!("expected shutting_down, got {other:?}"),
    }
    assert_eq!(server.counters().shutting_down.load(Ordering::Relaxed), 4);
    assert_eq!(counters(&server), [4, 3, 1, 0, 0]);
    server.drain();
}

#[test]
fn an_upload_is_keyed_by_the_servers_own_hash() {
    let server = PlanServer::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    let g = model(24);
    let opts = PartitionOptions { workers: 4, ..Default::default() };
    let honest = request_fingerprint(&g, &opts);
    // Another request's key: if the server filed this plan under it, that
    // request's owner would be served the wrong plan from then on.
    let victim = request_fingerprint(&model(48), &opts);
    assert_ne!(honest, victim);

    let text = String::from_utf8(encode_partition(1, "mallory", &g, &opts, None)).unwrap();
    let Json::Obj(mut fields) = tofu_obs::json::parse(&text).expect("own payload") else {
        panic!("a request is an object");
    };
    fields.insert(0, ("fingerprint".to_string(), Json::from(fingerprint_hex(victim))));
    match ask(&mut raw, Json::Obj(fields).to_json().as_bytes()) {
        Response::Plan { cached, fingerprint, .. } => {
            assert!(!cached);
            assert_eq!(fingerprint, honest, "keyed by the claimed fingerprint");
        }
        other => panic!("expected a plan, got {other:?}"),
    }
    assert_eq!(error_code(ask(&mut raw, &lookup(2, victim, None))), ErrorCode::NotCached);
    assert!(matches!(ask(&mut raw, &lookup(3, honest, None)), Response::Plan { cached: true, .. }));
    assert_eq!(counters(&server), [2, 1, 1, 0, 0]);
    server.shutdown();
}
