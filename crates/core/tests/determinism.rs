//! Determinism: two searches over the same graph under the same
//! configuration (and the same `TOFU_SEED`, which only perturbs tensor
//! *value* sampling — the search never consumes randomness) must produce
//! byte-identical plans and identical `coarsen/*` and `dp/*` counter totals.

mod common;

use std::collections::BTreeMap;

use tofu_core::recursive::{
    partition_with_obs, unoptimized_partition, PartitionOptions, PartitionPlan,
};
use tofu_core::Result;
use tofu_graph::Graph;
use tofu_models::{mlp, wresnet, MlpConfig, WResNetConfig};
use tofu_obs::Collector;

fn search_counters(c: &Collector) -> BTreeMap<String, f64> {
    c.totals()
        .into_iter()
        .filter(|(k, _)| k.starts_with("dp/") || k.starts_with("coarsen/"))
        .collect()
}

/// A whole search: [`partition_with_obs`] or [`unoptimized_partition`].
type Engine = fn(&Graph, &PartitionOptions, Option<&Collector>) -> Result<PartitionPlan>;

fn run(g: &Graph, opts: &PartitionOptions, engine: Engine) -> (PartitionPlan, BTreeMap<String, f64>) {
    let obs = Collector::new();
    let plan = engine(g, opts, Some(&obs)).unwrap();
    (plan, search_counters(&obs))
}

/// Two runs of `engine` agree on the plan and on every counter; returns the
/// counters.
fn assert_identical_runs(
    g: &Graph,
    opts: &PartitionOptions,
    engine: Engine,
) -> BTreeMap<String, f64> {
    let (plan_a, counters_a) = run(g, opts, engine);
    let (plan_b, counters_b) = run(g, opts, engine);

    assert_eq!(
        plan_a.total_comm_bytes().to_bits(),
        plan_b.total_comm_bytes().to_bits(),
        "total cost differs across identical runs"
    );
    assert_eq!(plan_a.steps.len(), plan_b.steps.len());
    for (a, b) in plan_a.steps.iter().zip(plan_b.steps.iter()) {
        assert_eq!(a.ways, b.ways);
        assert_eq!(a.plan.comm_bytes.to_bits(), b.plan.comm_bytes.to_bits());
        // Byte-identical plan: same spec for every tensor, same execution
        // choice for every node.
        assert_eq!(a.plan.tensor_spec, b.plan.tensor_spec);
        assert_eq!(a.plan.node_choice, b.plan.node_choice);
    }
    assert_eq!(plan_a.tiling, plan_b.tiling, "tiling assignment differs across runs");
    assert_eq!(counters_a, counters_b, "coarsen/dp counter totals differ across identical runs");
    counters_a
}

/// [`assert_identical_runs`] on the optimized engine, which must actually
/// have reported its counters — otherwise the test vacuously compares empty
/// maps.
fn assert_identical_optimized_runs(g: &Graph, opts: &PartitionOptions) {
    let counters = assert_identical_runs(g, opts, partition_with_obs);
    for key in [
        "dp/states_explored",
        "dp/relaxations",
        "dp/strategies_feasible",
        "coarsen/strategy_analyses",
    ] {
        assert!(counters.contains_key(key), "missing expected counter {key}");
    }
}

#[test]
fn mlp_partition_is_deterministic() {
    let model = mlp(&MlpConfig { batch: 24, dims: vec![48, 24], classes: 12, with_updates: true })
        .unwrap();
    for workers in [2usize, 6, 8] {
        assert_identical_optimized_runs(
            &model.graph,
            &PartitionOptions { workers, ..Default::default() },
        );
    }
}

#[test]
fn wresnet_partition_is_deterministic() {
    let model = wresnet(&WResNetConfig {
        layers: 50,
        width: 1,
        batch: 8,
        image: 16,
        classes: 8,
        with_updates: true,
    })
    .unwrap();
    assert_identical_optimized_runs(
        &model.graph,
        &PartitionOptions { workers: 4, ..Default::default() },
    );
}

#[test]
fn reference_engine_is_deterministic_too() {
    let model = mlp(&MlpConfig { batch: 16, dims: vec![32, 32], classes: 8, with_updates: true })
        .unwrap();
    assert_identical_runs(
        &model.graph,
        &PartitionOptions { workers: 4, ..Default::default() },
        unoptimized_partition,
    );
}

#[test]
fn random_dags_are_deterministic() {
    for seed in [3u64, 17, 99] {
        let g = common::random_training_mlp(seed);
        assert_identical_optimized_runs(&g, &PartitionOptions { workers: 4, ..Default::default() });
    }
}
