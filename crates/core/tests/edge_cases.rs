//! Edge-case coverage for `factorize` and the recursive splitter: degenerate
//! worker counts, primes, and worker counts exceeding every tensor
//! dimension must produce *typed* errors (or well-defined trivial plans) —
//! never panics.

mod common;

use tofu_core::recursive::{
    factorize, partition, partition_cached, unoptimized_partition, PartitionOptions,
};
use tofu_core::{CoreError, SearchCaches};
use tofu_graph::{Attrs, Graph};
use tofu_tensor::Shape;

fn tiny_matmul(batch: usize, inner: usize, out: usize) -> Graph {
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new(vec![batch, inner]));
    let w = g.add_weight("w", Shape::new(vec![inner, out]));
    g.add_op("matmul", "fc", &[x, w], Attrs::new()).unwrap();
    g
}

#[test]
fn factorize_rejects_zero_workers() {
    assert!(matches!(factorize(0), Err(CoreError::BadWorkerCount(0))));
}

#[test]
fn factorize_one_is_the_empty_product() {
    assert_eq!(factorize(1).unwrap(), Vec::<usize>::new());
}

#[test]
fn factorize_primes_are_single_steps() {
    for p in [2usize, 3, 5, 7, 11, 13, 31] {
        assert_eq!(factorize(p).unwrap(), vec![p]);
    }
}

#[test]
fn factorize_orders_largest_first_and_preserves_product() {
    assert_eq!(factorize(12).unwrap(), vec![3, 2, 2]);
    assert_eq!(factorize(60).unwrap(), vec![5, 3, 2, 2]);
    for workers in 2usize..=64 {
        let f = factorize(workers).unwrap();
        assert_eq!(f.iter().product::<usize>(), workers, "product broken for {workers}");
        assert!(f.windows(2).all(|w| w[0] >= w[1]), "not sorted descending for {workers}");
    }
}

#[test]
fn one_worker_partition_is_the_trivial_plan() {
    let g = tiny_matmul(4, 4, 4);
    let plan = partition(&g, &PartitionOptions { workers: 1, ..Default::default() }).unwrap();
    assert!(plan.steps.is_empty());
    assert_eq!(plan.total_comm_bytes(), 0.0);
    // No step ⇒ every tensor stays whole.
    for t in 0..3 {
        let shape = Shape::new(vec![4, 4]);
        assert_eq!(plan.shard_shape(&shape, tofu_graph::TensorId(t)).dims(), &[4, 4]);
    }
}

#[test]
fn zero_workers_is_a_typed_error() {
    let g = tiny_matmul(4, 4, 4);
    let err = partition(&g, &PartitionOptions { workers: 0, ..Default::default() }).unwrap_err();
    assert!(matches!(err, CoreError::BadWorkerCount(0)));
}

#[test]
fn workers_exceeding_every_dimension_fail_with_no_strategy() {
    // 2×2 tensors across 64 workers: the recursion runs out of splittable
    // extents after the first step or two and must surface NoStrategy, not
    // panic or loop.
    let g = tiny_matmul(2, 2, 2);
    let opts = PartitionOptions { workers: 64, ..Default::default() };
    for err in [partition(&g, &opts), unoptimized_partition(&g, &opts, None)].map(Result::unwrap_err) {
        assert!(matches!(err, CoreError::NoStrategy { .. }), "unexpected error {err:?}");
    }
}

#[test]
fn prime_worker_count_with_no_divisible_dimension_is_typed() {
    // Every dimension is a power of two; 7 divides none of them.
    let g = tiny_matmul(8, 16, 4);
    let opts = PartitionOptions { workers: 7, ..Default::default() };
    for err in [partition(&g, &opts), unoptimized_partition(&g, &opts, None)].map(Result::unwrap_err) {
        assert!(matches!(err, CoreError::NoStrategy { .. }), "unexpected error {err:?}");
    }
}

#[test]
fn empty_beam_is_a_bound_error_and_is_never_memoised() {
    // `beam: 0` keeps no state, so the *next* cut used to find an empty
    // frontier and report the graph as unsplittable (`NoStrategy`) — which
    // `partition_cached` remembers as a proven-infeasible width and an
    // elastic width ladder steps past. It is a mis-set bound: fail hard, at
    // the cut where it happens, like `state_bound: 0`. Both engines agree;
    // the memo only ever fronts the optimized one.
    let g = common::random_training_mlp(1);
    let opts = PartitionOptions { workers: 4, beam: 0, ..Default::default() };
    let same_cut = PartitionOptions { state_bound: 0, beam: 512, ..opts };
    for engine in [|g, o| partition(g, o), |g, o| unoptimized_partition(g, o, None)] {
        let err = engine(&g, &opts).unwrap_err();
        assert!(
            matches!(err, CoreError::SearchSpaceExceeded { states, bound: 0 } if states > 0),
            "unexpected error {err:?}"
        );
        let same = engine(&g, &same_cut);
        assert_eq!(format!("{:?}", same.unwrap_err()), format!("{err:?}"));
    }

    let mut caches = SearchCaches::new();
    for _ in 0..2 {
        let again = partition_cached(&g, &opts, &mut caches, None).unwrap_err();
        assert!(matches!(again, CoreError::SearchSpaceExceeded { bound: 0, .. }));
    }
    let stats = caches.stats();
    assert_eq!((stats.request_misses, stats.request_hits), (2, 0), "outcome was memoised");
    assert_eq!(stats.request_entries, 0);
}

#[test]
fn prime_worker_count_with_divisible_dimensions_partitions() {
    let g = tiny_matmul(14, 21, 7);
    let plan = partition(&g, &PartitionOptions { workers: 7, ..Default::default() }).unwrap();
    assert_eq!(plan.steps.len(), 1);
    assert_eq!(plan.steps[0].ways, 7);
}

#[test]
fn non_power_of_two_worker_count_runs_mixed_factor_steps() {
    // 12 = 3 · 2 · 2: first step is 3-way, then two 2-way steps.
    let g = tiny_matmul(24, 24, 24);
    let plan = partition(&g, &PartitionOptions { workers: 12, ..Default::default() }).unwrap();
    let ways: Vec<usize> = plan.steps.iter().map(|s| s.ways).collect();
    assert_eq!(ways, vec![3, 2, 2]);
}

#[test]
fn degenerate_worker_counts_never_panic_on_random_graphs() {
    for seed in 0..10u64 {
        let g = common::random_dag(seed, 6);
        for workers in [0usize, 1, 7, 13, 64] {
            // Any outcome is fine — Ok or a typed CoreError — as long as it
            // returns instead of panicking.
            let _ = partition(&g, &PartitionOptions { workers, ..Default::default() });
        }
    }
}
