//! Plan-service ledger: the cache and single-flight accounting of
//! `tofu-serve` answering a multi-tenant request mix from its shared
//! response cache, written to `BENCH_serve.json`. Latency and
//! throughput are measured by `benchmark/` (`serve_hit` / `serve_miss`,
//! `serve.*_s`), not here.
//!
//! This is a correctness gate, run by `scripts/check.sh`:
//!
//! * every served plan must be **byte-identical** to a local
//!   single-threaded `partition_cached` run for the same request;
//! * the warm phase must be answered from the response cache (a zero warm
//!   hit-rate means the fingerprint or cache layer broke);
//! * the server's single-flight accounting must add up (hits + misses +
//!   joined + rejected == requests);
//! * a warm hit must cost the client fewer than 256 request bytes on the
//!   wire — the fingerprint travels, the graph does not. The count is read
//!   from the server's own `request_bytes` tally and repeats exactly.
//!
//! The ledger also records what a warm hit moves back,
//! `response_bytes_per_warm_hit`, from the server's `response_bytes` tally:
//! the request mix is fixed, so it repeats exactly too.
//!
//! The process exits nonzero when any gate fails.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use tofu_bench::{bench_report, write_report, Json};
use tofu_core::recursive::{partition_cached, PartitionOptions};
use tofu_core::SearchCaches;
use tofu_graph::Graph;
use tofu_models::{mlp, MlpConfig};
use tofu_obs::Collector;
use tofu_serve::client::PlanClient;
use tofu_serve::protocol::plan_to_json;
use tofu_serve::server::{PlanServer, ServeConfig};

const CLIENT_THREADS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 500;
const TENANTS: [&str; 3] = ["team-vision", "team-nlp", "team-ads"];
/// Gate: request bytes (frame headers included) one warm hit may cost.
const MAX_REQUEST_BYTES_PER_WARM_HIT: f64 = 256.0;

/// Request mix: four MLP variants × two worker counts. Widths are multiples
/// of 24 so the 6- and 8-worker factorizations stay divisible.
fn request_mix() -> Vec<(Graph, PartitionOptions)> {
    let variants = [
        MlpConfig { batch: 24, dims: vec![48, 24], classes: 24, with_updates: true },
        MlpConfig { batch: 24, dims: vec![96, 48], classes: 24, with_updates: true },
        MlpConfig { batch: 48, dims: vec![72, 48], classes: 24, with_updates: false },
        MlpConfig { batch: 48, dims: vec![48, 48, 24], classes: 24, with_updates: true },
    ];
    let mut mix = Vec::new();
    for cfg in &variants {
        let g = mlp(cfg).expect("mlp variant").graph;
        for workers in [4usize, 8] {
            mix.push((g.clone(), PartitionOptions { workers, ..Default::default() }));
        }
    }
    mix
}

fn main() {
    let collector = Collector::new();
    let server = PlanServer::bind(
        "127.0.0.1:0",
        ServeConfig {
            solver_threads: 2,
            queue_cap: 64,
            collector: Some(collector.clone()),
            ..Default::default()
        },
    )
    .expect("bind bench server");
    let addr = server.addr();
    let mix = Arc::new(request_mix());
    let mut failed = false;

    // ---- Cold phase: populate the cache, gate byte-identity. -------------
    println!("plan_serve — warming {} unique requests", mix.len());
    let mut local_caches = SearchCaches::new();
    let mut client = PlanClient::connect(addr).expect("connect warm client");
    for (i, (g, opts)) in mix.iter().enumerate() {
        let served = client
            .partition(TENANTS[i % TENANTS.len()], g, opts, None)
            .expect("warm partition");
        let local = partition_cached(g, opts, &mut local_caches, None).expect("local partition");
        let local_json = plan_to_json(&local).to_json();
        if served.plan.to_json() != local_json {
            eprintln!(
                "FAIL: request {i} ({} workers): served plan differs from local partition_cached",
                opts.workers
            );
            failed = true;
        }
    }

    // ---- Warm phase: multi-tenant hammering. ------------------------------
    let total_requests = CLIENT_THREADS * REQUESTS_PER_CLIENT;
    println!(
        "hammering with {CLIENT_THREADS} clients × {REQUESTS_PER_CLIENT} requests \
         over {} tenants",
        TENANTS.len()
    );
    let request_bytes_before = server.counters().request_bytes.load(Ordering::Relaxed);
    let response_bytes_before = server.counters().response_bytes.load(Ordering::Relaxed);
    let handles: Vec<_> = (0..CLIENT_THREADS)
        .map(|t| {
            let mix = Arc::clone(&mix);
            std::thread::spawn(move || {
                let mut client = PlanClient::connect(addr).expect("connect bench client");
                // Deterministic per-thread LCG request stream.
                let mut state = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t as u64 + 1);
                let mut mismatched = 0usize;
                let mut fingerprints: Vec<Option<u128>> = vec![None; mix.len()];
                for _ in 0..REQUESTS_PER_CLIENT {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let idx = (state >> 33) as usize % mix.len();
                    let tenant = TENANTS[(state >> 21) as usize % TENANTS.len()];
                    let (g, opts) = &mix[idx];
                    let served = client.partition(tenant, g, opts, None).expect("bench partition");
                    // Warm answers must be stable per request index.
                    if *fingerprints[idx].get_or_insert(served.fingerprint) != served.fingerprint {
                        mismatched += 1;
                    }
                }
                mismatched
            })
        })
        .collect();
    for h in handles {
        let mismatched = h.join().expect("bench client thread");
        if mismatched > 0 {
            eprintln!("FAIL: {mismatched} responses changed fingerprint for a fixed request");
            failed = true;
        }
    }

    // ---- Counters and gates. ---------------------------------------------
    let c = server.counters();
    let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed) as f64;
    let requests = load(&c.requests);
    let hits = load(&c.hits);
    let misses = load(&c.misses);
    let joined = load(&c.joined);
    let rejected = load(&c.rejected);
    let warm_hit_rate = hits / (requests - mix.len() as f64).max(1.0);
    let bytes_per_hit =
        (load(&c.request_bytes) - request_bytes_before as f64) / total_requests as f64;
    let response_bytes_per_hit =
        (load(&c.response_bytes) - response_bytes_before as f64) / total_requests as f64;

    println!("\n{:>24}: {requests:.0}", "requests");
    println!("{:>24}: {hits:.0} ({:.1}% of warm phase)", "response-cache hits", warm_hit_rate * 100.0);
    println!("{:>24}: {misses:.0} (+{joined:.0} joined, {rejected:.0} rejected)", "solver runs");
    println!("{:>24}: {bytes_per_hit:.1} B", "request bytes / warm hit");
    println!("{:>24}: {response_bytes_per_hit:.1} B", "reply bytes / warm hit");

    if hits + misses + joined + rejected != requests {
        eprintln!("FAIL: serve counters do not add up");
        failed = true;
    }
    if misses > mix.len() as f64 {
        eprintln!(
            "FAIL: {misses} solver runs for {} unique requests — response cache leaked misses",
            mix.len()
        );
        failed = true;
    }
    if hits <= 0.0 {
        eprintln!("FAIL: zero warm hit-rate — every warm request should hit the cache");
        failed = true;
    }
    if bytes_per_hit > MAX_REQUEST_BYTES_PER_WARM_HIT {
        eprintln!(
            "FAIL: a warm hit cost {bytes_per_hit:.1} request bytes (limit \
             {MAX_REQUEST_BYTES_PER_WARM_HIT}) — is the graph being uploaded on hits?"
        );
        failed = true;
    }

    let results = vec![Json::obj(vec![
        ("unique_requests", Json::from(mix.len())),
        ("tenants", Json::from(TENANTS.len())),
        ("client_threads", Json::from(CLIENT_THREADS)),
        ("timed_requests", Json::from(total_requests)),
        ("warm_hit_rate", Json::from(warm_hit_rate)),
        ("request_bytes_per_warm_hit", Json::from(bytes_per_hit)),
        ("response_bytes_per_warm_hit", Json::from(response_bytes_per_hit)),
        ("serve_hits", Json::from(hits)),
        ("serve_misses", Json::from(misses)),
        ("serve_joined", Json::from(joined)),
        ("serve_rejected", Json::from(rejected)),
        ("byte_identical", Json::Bool(!failed)),
    ])];
    let doc = bench_report(
        "plan_serve",
        vec![
            ("solver_threads", Json::from(2u64)),
            ("queue_cap", Json::from(64u64)),
        ],
        results,
    );
    write_report("BENCH_serve.json", &doc);
    server.shutdown();

    if failed {
        eprintln!("plan_serve: service violated its contract (see FAIL lines)");
        std::process::exit(1);
    }
}
