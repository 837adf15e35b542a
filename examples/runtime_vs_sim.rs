//! Runtime vs. simulator: execute a Tofu-partitioned MLP on real worker
//! threads, then print the measured `RunTrace` summary next to the
//! discrete-event simulator's prediction for the same sharded graph.
//!
//! Run with: `cargo run --release --example runtime_vs_sim`

use tofu::core::{generate, partition, GenOptions, PartitionOptions};
use tofu::graph::{Graph, TensorId, TensorKind};
use tofu::models::{mlp, MlpConfig};
use tofu::runtime::run;
use tofu::sim::{compare_trace, Machine};
use tofu::tensor::Tensor;

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
            Tensor::random(meta.shape.clone(), t.0 as u64 + 1, 0.1)
        };
        out.push((t, v));
    }
    out
}

fn main() {
    let workers = 4;
    let model = mlp(&MlpConfig {
        batch: 64,
        dims: vec![256, 256],
        classes: 64,
        with_updates: true,
    })
    .expect("model builds");

    let plan = partition(&model.graph, &PartitionOptions { workers, ..Default::default() })
        .expect("partition succeeds");
    let sharded =
        generate(&model.graph, &plan, &GenOptions::default()).expect("generation succeeds");
    println!(
        "partitioned {}-node graph into {} nodes across {workers} workers (exact: {})",
        model.graph.num_nodes(),
        sharded.graph.num_nodes(),
        sharded.exact
    );

    let mut shard_feeds = Vec::new();
    for (t, v) in feeds(&model.graph) {
        shard_feeds.extend(sharded.scatter(t, &v).expect("scatter"));
    }
    let out = run(&sharded, &shard_feeds).expect("runtime run");

    println!("\n=== measured (tofu-runtime, {workers} threads) ===");
    print!("{}", out.trace.summary());

    println!("\n=== predicted vs. measured (tofu-sim::compare_trace) ===");
    let report = compare_trace(&sharded, &Machine::p2_8xlarge(), &out.trace);
    print!("{}", report.summary());
    println!(
        "\ncomm bytes {} | every device's memory equals per_device_memory: {}",
        if report.comm_bytes_match() { "match exactly" } else { "DIVERGED" },
        report.devices.iter().all(|d| d.measured_memory_bytes == d.predicted_memory_bytes)
    );
}
