//! Quickstart: build a training graph, let Tofu partition it for 8 GPUs,
//! and inspect the plan.
//!
//! Run with: `cargo run --release --example quickstart`

use std::time::Instant;

use tofu::core::{partition, PartitionOptions, TensorSpec};
use tofu::models::{mlp, MlpConfig};

fn main() {
    // A 3-layer MLP training graph: forward, backward and SGD updates.
    let model = mlp(&MlpConfig {
        batch: 256,
        dims: vec![1024, 4096, 4096],
        classes: 64,
        with_updates: true,
    })
    .expect("model builds");
    println!(
        "training graph: {} operators, {} tensors, {:.1} MB of weights",
        model.graph.num_nodes(),
        model.graph.num_tensors(),
        model.weight_bytes() as f64 / 1e6
    );

    // Partition across 8 workers. The recursive search halves every tensor
    // three times (8 = 2 x 2 x 2), each step choosing one dimension per
    // tensor and one parallelization strategy per operator.
    let started = Instant::now();
    let plan = partition(&model.graph, &PartitionOptions { workers: 8, ..Default::default() })
        .expect("partition succeeds");
    println!(
        "\nplan: {} recursive steps, searched in {:?}",
        plan.steps.len(),
        started.elapsed()
    );
    println!(
        "communication per iteration: {:.1} MB (per-step deltas: {:?} MB)",
        plan.total_comm_bytes() / 1e6,
        plan.step_costs().iter().map(|c| (c / 1e6).round()).collect::<Vec<_>>()
    );

    // How did each weight end up tiled?
    for &w in &model.weights {
        let meta = model.graph.tensor(w);
        if meta.shape.rank() < 2 {
            continue;
        }
        let shard = plan.shard_shape(&meta.shape, w);
        let steps: Vec<String> = plan.tiling[w.0]
            .iter()
            .map(|d| match d {
                Some(d) => format!("dim{d}"),
                None => "repl".to_string(),
            })
            .collect();
        println!(
            "  {:<6} {} -> shard {} (split {})",
            meta.name,
            meta.shape,
            shard,
            steps.join(" then ")
        );
    }

    // Every tensor's per-worker footprint is 1/8th when fully split — the
    // paper's core memory claim (§2).
    let fully_split = model
        .graph
        .tensor_ids()
        .filter(|&t| (plan.shard_fraction(t) - 0.125).abs() < 1e-9)
        .count();
    println!(
        "\n{} of {} tensors are stored at 1/8 of their original size per GPU",
        fully_split,
        model.graph.num_tensors()
    );
    let _ = TensorSpec::Replicated; // (re-exported for plan inspection)
}
