//! Transparency check (§2): the same training program, run on one device and
//! as a Tofu-partitioned 8-worker graph, computes identical losses and
//! gradients.
//!
//! Run with: `cargo run --release --example partition_and_validate`

use std::collections::BTreeMap;

use tofu::core::{generate, partition, GenOptions, PartitionOptions};
use tofu::graph::{Executor, TensorKind};
use tofu::models::{mlp, MlpConfig};
use tofu::tensor::Tensor;

fn main() {
    let model = mlp(&MlpConfig {
        batch: 32,
        dims: vec![64, 128, 128],
        classes: 16,
        with_updates: false,
    })
    .expect("model builds");
    let g = &model.graph;

    let plan = partition(g, &PartitionOptions { workers: 8, ..Default::default() })
        .expect("partition succeeds");
    let sharded = generate(g, &plan, &GenOptions::default()).expect("generation succeeds");
    println!(
        "original graph: {} nodes; 8-worker graph: {} nodes ({} of them remote fetches)",
        g.num_nodes(),
        sharded.graph.num_nodes(),
        sharded
            .graph
            .node_ids()
            .filter(|&n| sharded.graph.node(n).op == "multi_fetch")
            .count()
    );

    // Feed both executions identically: the sharded one gets each tensor
    // scattered into per-worker shards.
    let mut base = Executor::new();
    let mut part = Executor::new();
    for t in g.tensor_ids() {
        let meta = g.tensor(t);
        if meta.kind == TensorKind::Intermediate {
            continue;
        }
        let v = if meta.name.starts_with("labels") {
            Tensor::from_vec(meta.shape.clone(), (0..32).map(|i| (i % 16) as f32).collect())
                .unwrap()
        } else {
            Tensor::random(meta.shape.clone(), t.0 as u64 + 7, 0.5)
        };
        base.feed(t, v.clone());
        for (shard, piece) in sharded.scatter(t, &v).expect("scatter") {
            part.feed(shard, piece);
        }
    }

    let base_vals = base.run(g).expect("single-device run");
    let part_vals: BTreeMap<_, _> = part.run(&sharded.graph).expect("partitioned run");

    // Compare the loss and every weight gradient.
    let mut checked = 0;
    for (fw, grad) in model
        .grads
        .iter()
        .copied()
        .chain(std::iter::once((model.loss, model.loss)))
    {
        let _ = fw;
        let expect = &base_vals[&grad];
        let got = sharded
            .gather(grad, expect.shape(), &part_vals)
            .expect("gather");
        assert!(
            got.allclose(expect, 1e-4),
            "divergence on {}",
            g.tensor(grad).name
        );
        checked += 1;
    }
    println!(
        "loss and {} weight gradients match across 1-device and 8-device execution",
        checked - 1
    );
    println!(
        "single-device loss = {:.6}, 8-worker loss = {:.6}",
        base_vals[&model.loss].data()[0],
        sharded
            .gather(model.loss, base_vals[&model.loss].shape(), &part_vals)
            .unwrap()
            .data()[0]
    );
}
