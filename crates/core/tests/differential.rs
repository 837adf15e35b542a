//! Differential fuzz harness: the optimized search engine (factored,
//! memoized, strategies analysed once per request) against the reference
//! `unoptimized_search`, which rediscovers them at every step, on random
//! graphs.
//!
//! The contract (see DESIGN.md "Search performance"): both engines walk the
//! same states in the same order, sum costs along the same paths, rank by
//! the same `(cost, key)` and truncate at the same beam, so at every option
//! setting the optimized engine's cost must be **bit-identical** to the
//! reference's — not merely close — its plan the same down to every node's
//! strategy, and its failures the same typed errors. Most cases widen every
//! bound past use (an exhaustive search); the `…_where_the_bounds_bind`
//! cases tighten them until the beam truncates, bounded enumeration fires
//! and `state_bound` aborts. Worker counts deliberately include primes and
//! non-powers-of-two.

mod common;

use proptest::prelude::*;

use tofu_core::coarsen::coarsen;
use tofu_core::dp::{search, unoptimized_search, ExtraInputs};
use tofu_core::recursive::{partition, unoptimized_partition, PartitionOptions, PartitionPlan};
use tofu_core::strategies::ShapeView;
use tofu_core::CoreError;
use tofu_graph::{Attrs, Graph};
use tofu_obs::Collector;
use tofu_tensor::Shape;

/// Exact-search options: the beam and both bounds are far above anything a
/// fuzz-sized graph reaches, so the search is exhaustive.
fn exact_opts(workers: usize, fetch_buffer_floor: u64) -> PartitionOptions {
    PartitionOptions {
        workers,
        state_bound: 50_000_000,
        internal_bound: 1 << 22,
        beam: 50_000_000,
        fetch_buffer_floor,
        ..Default::default()
    }
}

/// Error-parity contract: the engines succeed together or fail with the
/// same error value (same variant, same `states` / `bound` / node). Returns
/// whether both succeeded.
fn check_error_parity(
    opt: &Result<impl std::fmt::Debug, CoreError>,
    reference: &Result<impl std::fmt::Debug, CoreError>,
) -> bool {
    match (opt, reference) {
        (Ok(_), Ok(_)) => true,
        (Err(a), Err(b)) => {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "engines failed differently");
            false
        }
        (a, b) => panic!("engine outcome mismatch: optimized {a:?} vs reference {b:?}"),
    }
}

/// Runs one `ways`-way basic step through both engines and asserts the
/// contract. Returns whether both succeeded.
fn check_step(g: &Graph, ways: usize, opts: &PartitionOptions) -> bool {
    let view = ShapeView::from_graph(g);
    let cg = coarsen(g);
    let extra = ExtraInputs::new();
    let optimized = search(g, &view, &cg, &extra, ways, opts, None);
    let reference = unoptimized_search(g, &view, &cg, &extra, ways, opts, None);
    if !check_error_parity(&optimized, &reference) {
        return false;
    }
    let optimized = optimized.unwrap();
    let reference = reference.unwrap();
    assert_eq!(
        optimized.comm_bytes.to_bits(),
        reference.comm_bytes.to_bits(),
        "step cost mismatch at ways {ways}: optimized {} vs reference {}",
        optimized.comm_bytes,
        reference.comm_bytes
    );
    assert_eq!(optimized.tensor_spec, reference.tensor_spec, "plan specs diverged at ways {ways}");
    assert_eq!(optimized.node_choice, reference.node_choice, "node choices diverged at ways {ways}");
    true
}

/// Runs a full recursive partition through both engines and asserts the
/// contract step-by-step. Returns the plan when both engines found one. With
/// a `fetch_buffer_floor` below the graph's tensor sizes, steps after the
/// first search with non-empty `ExtraInputs`.
fn check_partition(g: &Graph, opts: &PartitionOptions) -> Option<PartitionPlan> {
    let workers = opts.workers;
    let optimized = partition(g, opts);
    let reference = unoptimized_partition(g, opts, None);
    if !check_error_parity(&optimized, &reference) {
        return None;
    }
    let optimized = optimized.unwrap();
    let reference = reference.unwrap();
    assert_eq!(
        optimized.total_comm_bytes().to_bits(),
        reference.total_comm_bytes().to_bits(),
        "total cost mismatch at {workers} workers: optimized {} vs reference {}",
        optimized.total_comm_bytes(),
        reference.total_comm_bytes()
    );
    assert_eq!(optimized.steps.len(), reference.steps.len());
    for (a, b) in optimized.steps.iter().zip(reference.steps.iter()) {
        assert_eq!(a.ways, b.ways);
        assert_eq!(
            a.plan.comm_bytes.to_bits(),
            b.plan.comm_bytes.to_bits(),
            "per-step cost mismatch at {workers} workers"
        );
        assert_eq!(a.plan.tensor_spec, b.plan.tensor_spec, "plan diverged at {workers} workers");
        assert_eq!(
            a.plan.node_choice, b.plan.node_choice,
            "node choices diverged at {workers} workers"
        );
    }
    Some(optimized)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Basic-step differential on layered random DAGs.
    #[test]
    fn step_matches_reference_on_random_dags(
        seed in 0u64..1_000_000,
        ops in 4usize..14,
        ways in prop::sample::select(vec![2usize, 3, 5, 7]),
    ) {
        let g = common::random_dag(seed, ops);
        check_step(&g, ways, &exact_opts(ways, 0));
    }

    /// Basic-step differential on conv towers (3-D shapes, halo costs).
    #[test]
    fn step_matches_reference_on_conv_towers(
        seed in 0u64..1_000_000,
        layers in 1usize..4,
        ways in prop::sample::select(vec![2usize, 3, 4]),
    ) {
        let g = common::conv_tower(seed, layers);
        check_step(&g, ways, &exact_opts(ways, 0));
    }

    /// Full recursive partition differential on trainable MLPs, including
    /// prime and non-power-of-two worker counts (k = k1·…·km recursion with
    /// mixed factors).
    #[test]
    fn partition_matches_reference_on_training_graphs(
        seed in 0u64..1_000_000,
        workers in prop::sample::select(vec![2usize, 3, 4, 5, 6, 7, 8, 12]),
    ) {
        let g = common::random_training_mlp(seed);
        let floor = PartitionOptions::default().fetch_buffer_floor;
        check_partition(&g, &exact_opts(workers, floor));
    }
}

/// Fetch-buffer floor for the residual towers: below their activations'
/// fetch buffers, which therefore become extra inputs of later steps, and
/// above most weight buffers, which would multiply the reference's
/// enumeration for nothing new.
const RESIDUAL_FLOOR: u64 = 64;

proptest! {
    // Few cases and at most two blocks: the reference pays the full
    // `states × combos` product in a debug build, a two-block case about a
    // second of it.
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Full recursive partition differential on residual towers: frontiers
    /// that carry bundles the current group never reads (what the factored
    /// transition projects away), halo costs, fractional 3-way costs, and
    /// non-empty `ExtraInputs` from the second step on.
    #[test]
    fn partition_matches_reference_on_residual_towers(
        seed in 0u64..1_000_000,
        blocks in 1usize..3,
        workers in prop::sample::select(vec![2usize, 3, 4, 6, 8]),
    ) {
        let g = common::residual_tower(seed, blocks);
        check_partition(&g, &exact_opts(workers, RESIDUAL_FLOOR));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Basic-step differential with every bound tight enough to bind: the
    /// beam truncates, bounded enumeration replaces the exhaustive product
    /// and `state_bound` aborts some searches, and the engines must still
    /// return the same plan or the same typed error.
    #[test]
    fn step_matches_reference_where_the_bounds_bind(
        seed in 0u64..1_000_000,
        family in 0usize..3,
        ways in prop::sample::select(vec![2usize, 3, 4]),
        beam in prop::sample::select(vec![1usize, 2, 3, 8]),
        internal_bound in prop::sample::select(vec![2usize, 4, 8, 16]),
        state_bound in 4usize..13,
    ) {
        let g = match family {
            0 => common::random_dag(seed, 4 + (seed % 10) as usize),
            1 => common::conv_tower(seed, 1 + (seed % 3) as usize),
            _ => common::residual_tower(seed, 1 + (seed % 2) as usize),
        };
        let opts = PartitionOptions { beam, internal_bound, state_bound, ..Default::default() };
        check_step(&g, ways, &opts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The same through the recursion, so later steps bind with non-empty
    /// `ExtraInputs`.
    #[test]
    fn partition_matches_reference_where_the_bounds_bind(
        seed in 0u64..1_000_000,
        family in 0usize..2,
        workers in prop::sample::select(vec![2usize, 4, 6, 8]),
        beam in prop::sample::select(vec![1usize, 2, 3, 8]),
        internal_bound in prop::sample::select(vec![2usize, 4, 8, 16]),
        state_bound in 4usize..13,
    ) {
        let g = if family == 0 {
            common::residual_tower(seed, 1 + (seed % 2) as usize)
        } else {
            common::random_training_mlp(seed)
        };
        check_partition(&g, &PartitionOptions {
            workers,
            beam,
            internal_bound,
            state_bound,
            fetch_buffer_floor: RESIDUAL_FLOOR,
            ..Default::default()
        });
    }
}

/// A conv tower whose batch, channel and image extents are all `n`: every
/// dimension of an activation splits at the same price, so plans tie, and
/// the 3×3 halos and 3-way steps make the tied costs fractional.
fn equal_extent_conv_tower(n: usize, layers: usize) -> Graph {
    let mut g = Graph::new();
    let mut weights = Vec::new();
    let mut cur = g.add_input("x", Shape::new(vec![n, n, n, n]));
    for i in 0..layers {
        let w = g.add_weight(&format!("c{i}/w"), Shape::new(vec![n, n, 3, 3]));
        weights.push(w);
        let attrs = Attrs::new().with_int("stride", 1).with_int("pad", 1);
        cur = g.add_op("conv2d", &format!("c{i}"), &[cur, w], attrs).unwrap();
        cur = g.add_op("relu", &format!("r{i}"), &[cur], Attrs::new()).unwrap();
    }
    common::train_on_pooled_features(&mut g, cur, n, weights);
    g
}

/// Tie-breaking under fractional costs: 3-way and 6-way (3·2) steps and
/// partitions of equal-extent conv towers must pick the reference's plan
/// among the many that cost the same, down to every node's strategy —
/// searched exhaustively, and with a beam of 1–3, which binds on these
/// towers: so many candidates of a cut tie on cost that the key alone
/// decides which survive it.
#[test]
fn fractional_cost_ties_break_like_the_reference() {
    for (n, layers) in [(6usize, 2usize), (12, 2)] {
        let g = equal_extent_conv_tower(n, layers);
        let (view, cg, extra) = (ShapeView::from_graph(&g), coarsen(&g), ExtraInputs::new());
        for ways in [3usize, 6] {
            let exact = exact_opts(ways, 0);
            for beam in [exact.beam, 1, 2, 3] {
                let opts = PartitionOptions { beam, ..exact };
                assert!(check_step(&g, ways, &opts), "n={n} fails {ways} ways at beam {beam}");
                assert!(
                    check_partition(&g, &opts).is_some(),
                    "n={n} does not partition {ways} ways at beam {beam}"
                );
                let obs = Collector::new();
                search(&g, &view, &cg, &extra, ways, &opts, Some(&obs)).unwrap();
                let pruned = obs.totals().get("dp/prune_beam").copied().unwrap_or(0.0);
                assert_eq!(pruned > 0.0, beam <= 3, "n={n}, {ways} ways, beam {beam}: {pruned}");
            }
        }
    }
}

/// A fixed-seed smoke check that the harness rejects nothing silently: at
/// least some fuzz cases must reach the Ok/Ok branch end-to-end.
#[test]
fn differential_harness_exercises_success_paths() {
    let mut ok = 0usize;
    for seed in 0..20u64 {
        let g = common::random_dag(seed, 8);
        let view = ShapeView::from_graph(&g);
        let cg = coarsen(&g);
        let extra = ExtraInputs::new();
        if search(&g, &view, &cg, &extra, 2, &exact_opts(2, 0), None).is_ok() {
            ok += 1;
        }
    }
    assert!(ok >= 10, "random DAGs almost never partition: {ok}/20");

    let mut ok = 0usize;
    let mut with_extras = 0usize;
    for seed in 0..8u64 {
        let g = common::residual_tower(seed, 1);
        if let Some(plan) = check_partition(&g, &exact_opts(4, RESIDUAL_FLOOR)) {
            ok += 1;
            with_extras += usize::from(plan.steps[1].plan.tensor_spec.len() > g.num_tensors());
        }
    }
    assert!(ok >= 4, "residual towers almost never partition: {ok}/8");
    assert_eq!(with_extras, ok, "a second step searched without extra inputs");
}
