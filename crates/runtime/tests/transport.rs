//! Zero-copy transport accounting.
//!
//! The data plane's contract: a fault-free run moves every cross-worker
//! piece by refcount — the only payload copy is the one block extraction at
//! send, so the per-worker `transport_copy_bytes` counter must read zero —
//! and the integrity level gates verification, never the data path.

use std::collections::BTreeMap;

use tofu_core::{generate, partition, GenOptions, PartitionOptions, ShardedGraph};
use tofu_graph::{Graph, TensorId, TensorKind};
use tofu_models::{mlp, MlpConfig};
use tofu_runtime::{run_with_options, IntegrityLevel, RunOptions};
use tofu_tensor::Tensor;

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

fn shard(workers: usize) -> (ShardedGraph, Vec<(TensorId, Tensor)>) {
    let m = mlp(&MlpConfig { batch: 8, dims: vec![16, 16], classes: 8, with_updates: true })
        .unwrap();
    let plan = partition(&m.graph, &PartitionOptions { workers, ..Default::default() }).unwrap();
    let sharded = generate(&m.graph, &plan, &GenOptions::default()).unwrap();
    let mut shard_feeds = Vec::new();
    for (t, v) in feeds(&m.graph) {
        shard_feeds.extend(sharded.scatter(t, &v).unwrap());
    }
    (sharded, shard_feeds)
}

/// The fault-free transport performs zero payload copies between producer
/// send and consumer stash, at both integrity levels — integrity checks
/// read the payload, they never copy it.
#[test]
fn fault_free_transport_copies_zero_bytes() {
    for workers in [2, 4] {
        let (sharded, shard_feeds) = shard(workers);
        for integrity in [IntegrityLevel::Fast, IntegrityLevel::Full] {
            let opts = RunOptions { integrity, ..Default::default() };
            let out = run_with_options(&sharded, &shard_feeds, &opts).expect("run");
            let messages: u64 = out.trace.links.iter().map(|l| l.messages).sum();
            let copied: u64 = out.trace.workers.iter().map(|w| w.transport_copy_bytes).sum();
            assert!(messages > 0, "w={workers}: expected cross-worker traffic");
            assert!(out.trace.comm_bytes() > 0, "w={workers}: expected comm bytes");
            assert_eq!(
                copied, 0,
                "w={workers} {integrity:?}: transport copied {copied} payload bytes"
            );
        }
    }
}

/// Skipping the integrity checks must not change a single output bit — the
/// levels gate verification, never the data path.
#[test]
fn fast_integrity_output_matches_full_bit_identically() {
    let (sharded, shard_feeds) = shard(4);
    let full = run_with_options(
        &sharded,
        &shard_feeds,
        &RunOptions { integrity: IntegrityLevel::Full, ..Default::default() },
    )
    .expect("full run");
    let fast = run_with_options(
        &sharded,
        &shard_feeds,
        &RunOptions { integrity: IntegrityLevel::Fast, ..Default::default() },
    )
    .expect("fast run");
    let bits = |m: &BTreeMap<TensorId, Tensor>| -> Vec<(TensorId, Vec<u32>)> {
        m.iter().map(|(t, v)| (*t, v.data().iter().map(|x| x.to_bits()).collect())).collect()
    };
    assert_eq!(bits(&full.values), bits(&fast.values), "integrity level changed outputs");
}
