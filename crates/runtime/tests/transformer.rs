//! Differential runtime test for the transformer decoder workload: a full
//! training step (forward, backward, SGD update) of `decoder_block`, sharded
//! across 1/2/4 workers, must reproduce the single-device `Executor::run`.
//!
//! Tolerances: a partitioned reduction (`reduce:*` strategies and `multi_fetch`
//! gathers) re-associates f32 sums, so multi-worker results are compared at
//! 1e-4; one worker performs the identical op sequence and is held to 1e-6.

use std::collections::BTreeMap;

use tofu_core::{generate, partition, GenOptions, PartitionOptions, ShardedGraph};
use tofu_graph::{Executor, Graph, TensorId, TensorKind};
use tofu_models::{decoder_block, DecoderConfig};
use tofu_runtime::run;
use tofu_tensor::Tensor;

fn small_cfg() -> DecoderConfig {
    DecoderConfig { seq: 16, d_model: 32, heads: 4, d_ff: 64, classes: 8, with_updates: true }
}

fn feeds(g: &Graph) -> Vec<(TensorId, Tensor)> {
    let mut out = Vec::new();
    for t in g.tensor_ids() {
        let meta = g.tensor(t);
        if meta.kind == TensorKind::Intermediate {
            continue;
        }
        let v = if meta.name.starts_with("labels") {
            let b = meta.shape.dim(0);
            Tensor::from_vec(meta.shape.clone(), (0..b).map(|i| (i % 3) as f32).collect())
                .unwrap()
        } else {
            Tensor::random(meta.shape.clone(), t.0 as u64 + 1, 0.5)
        };
        out.push((t, v));
    }
    out
}

fn shard(
    g: &Graph,
    workers: usize,
) -> (ShardedGraph, Vec<(TensorId, Tensor)>, BTreeMap<TensorId, Tensor>) {
    let plan = partition(g, &PartitionOptions { workers, ..Default::default() }).unwrap();
    let sharded = generate(g, &plan, &GenOptions::default()).unwrap();
    assert!(sharded.exact);
    let original = feeds(g);
    let mut base = Executor::new();
    let mut shard_feeds = Vec::new();
    for (t, v) in &original {
        base.feed(*t, v.clone());
        shard_feeds.extend(sharded.scatter(*t, v).unwrap());
    }
    let base_vals = base.run(g).unwrap();
    (sharded, shard_feeds, base_vals)
}

fn check_outputs(
    g: &Graph,
    sharded: &ShardedGraph,
    got: &BTreeMap<TensorId, Tensor>,
    base: &BTreeMap<TensorId, Tensor>,
    tensors: &[TensorId],
    tol: f32,
) {
    for &t in tensors {
        let expect = &base[&t];
        let gathered = sharded.gather(t, expect.shape(), got).unwrap();
        assert!(gathered.allclose(expect, tol), "tensor {} diverged", g.tensor(t).name);
    }
}

#[test]
fn decoder_single_worker_matches_executor() {
    let m = decoder_block(&small_cfg()).unwrap();
    let (sharded, shard_feeds, base) = shard(&m.graph, 1);
    let out = run(&sharded, &shard_feeds).unwrap();
    let check: Vec<TensorId> =
        std::iter::once(m.loss).chain(m.grads.iter().map(|&(_, gw)| gw)).collect();
    check_outputs(&m.graph, &sharded, &out.values, &base, &check, 1e-6);
    assert_eq!(out.trace.workers.len(), 1);
    assert_eq!(out.trace.comm_bytes(), 0, "one worker must not communicate");
}

#[test]
fn decoder_multi_worker_matches_executor() {
    let m = decoder_block(&small_cfg()).unwrap();
    let check: Vec<TensorId> =
        std::iter::once(m.loss).chain(m.grads.iter().map(|&(_, gw)| gw)).collect();
    for workers in [2, 4] {
        let (sharded, shard_feeds, base) = shard(&m.graph, workers);
        let out = run(&sharded, &shard_feeds).unwrap();
        check_outputs(&m.graph, &sharded, &out.values, &base, &check, 1e-4);
        assert_eq!(out.trace.workers.len(), workers);
        assert!(out.trace.comm_bytes() > 0, "{workers} workers must communicate");
    }
}
