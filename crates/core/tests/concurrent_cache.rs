//! Concurrency stress for the shared [`SearchCaches`].
//!
//! Eight threads hammer one cache with a rotating mix of models and worker
//! counts. The contract under test is the one the plan service depends on:
//!
//! 1. no deadlock or panic under contention (the test finishing is the
//!    assertion; `scripts/check.sh` runs it under a timeout);
//! 2. every concurrently produced plan is **bit-identical** to the plan a
//!    cold single-threaded search produces for the same request, and the
//!    request memo records **exactly one miss per unique request** (every
//!    duplicate — concurrent or later — joins the leader's flight or hits
//!    its memoized outcome).

use std::sync::Arc;

use tofu_core::recursive::{partition_cached, PartitionOptions, PartitionPlan};
use tofu_core::SearchCaches;
use tofu_graph::Graph;
use tofu_models::{mlp, MlpConfig};

const THREADS: usize = 8;
const ROUNDS: usize = 3;

/// The plan's identity, excluding wall-clock `search_time`. `Debug` on the
/// step plans and tiling prints exact values (f64 via shortest round-trip),
/// so equal strings ⇔ bit-identical plans.
fn canonical(plan: &PartitionPlan) -> String {
    format!("workers={} steps={:?} tiling={:?}", plan.workers, plan.steps, plan.tiling)
}

fn request_mix() -> Vec<(Graph, PartitionOptions)> {
    // All widths are multiples of 24 so both the 8-worker (2·2·2) and the
    // 6-worker (3·2) step sequences stay divisible.
    let model_a = mlp(&MlpConfig {
        batch: 24,
        dims: vec![48, 24],
        classes: 24,
        with_updates: true,
    })
    .expect("model a");
    let model_b = mlp(&MlpConfig {
        batch: 48,
        dims: vec![72, 48],
        classes: 24,
        with_updates: false,
    })
    .expect("model b");
    let mut mix = Vec::new();
    for g in [&model_a.graph, &model_b.graph] {
        for workers in [4usize, 6, 8] {
            mix.push((g.clone(), PartitionOptions { workers, ..Default::default() }));
        }
    }
    mix
}

#[test]
fn shared_cache_is_deadlock_free_exact_and_bit_identical() {
    let mix = request_mix();

    // Cold single-threaded baseline over one fresh cache: records the
    // expected plans and the per-pass miss tally.
    let baseline_caches = SearchCaches::new();
    let mut expected: Vec<String> = Vec::new();
    for (g, opts) in &mix {
        let plan = partition_cached(g, opts, &baseline_caches, None).expect("baseline");
        expected.push(canonical(&plan));
    }
    assert_eq!(
        baseline_caches.stats().request_misses,
        mix.len() as u64,
        "each unique request misses the request memo once"
    );

    // Concurrent pass: 8 threads × 3 rounds over rotated request orders.
    let shared = Arc::new(SearchCaches::new());
    let mix = Arc::new(mix);
    let expected = Arc::new(expected);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let shared = Arc::clone(&shared);
            let mix = Arc::clone(&mix);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    for i in 0..mix.len() {
                        // Rotate so threads collide on *different* requests
                        // at any instant, maximizing interleavings.
                        let idx = (i + t + round) % mix.len();
                        let (g, opts) = &mix[idx];
                        let plan =
                            partition_cached(g, opts, &shared, None).expect("concurrent search");
                        assert_eq!(
                            canonical(&plan),
                            expected[idx],
                            "thread {t} round {round} produced a different plan for request {idx}"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("stress thread panicked");
    }

    // Single-flight exactness: one request-memo miss per unique request,
    // ever — every duplicate call (concurrent or later) is a hit.
    let stats = shared.stats();
    let total_requests = (THREADS * ROUNDS * mix.len()) as u64;
    assert_eq!(
        stats.request_misses,
        mix.len() as u64,
        "concurrent run must miss the request memo exactly once per unique request"
    );
    assert_eq!(
        stats.request_hits,
        total_requests - mix.len() as u64,
        "all non-leader request lookups must be hits"
    );
    assert_eq!(stats.request_entries, mix.len());
    assert!(stats.request_hit_rate() > 0.9, "warm hit rate was {}", stats.request_hit_rate());
}
