//! Runtime vs. simulator: execute a Tofu-partitioned MLP on real worker
//! threads, then print the measured `RunTrace` summary next to the
//! discrete-event simulator's prediction for the same sharded graph, and
//! check the two columns that must agree exactly (comm bytes, per-device
//! memory).
//!
//! Run with: `cargo run --release --example runtime_vs_sim`

use tofu::core::{generate, partition, GenOptions, PartitionOptions};
use tofu::graph::{Graph, TensorId, TensorKind};
use tofu::models::{mlp, MlpConfig};
use tofu::runtime::{run_with_options, RunOptions};
use tofu::sim::{per_device_memory, simulate_with_leaf_devices, Machine};
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
    let out =
        run_with_options(&sharded, &shard_feeds, &RunOptions::default()).expect("runtime run");

    println!("\n=== measured (tofu-runtime, {workers} threads) ===");
    print!("{}", out.trace.summary());

    // Two columns are exactly checkable: both sides count the same
    // `multi_fetch` piece bytes, and the runtime's pool replays the static
    // memory plan the simulator consults (with buffer reuse, no optimizer
    // copies). Times are not comparable: the simulator models K80s, the
    // runtime runs CPU kernels.
    println!("\n=== predicted (tofu-sim, K80 model) vs. measured ===");
    let sim = simulate_with_leaf_devices(
        &sharded.graph,
        &sharded.device_of_node,
        &sharded.device_of_tensor,
        &Machine::p2_8xlarge(),
        false,
    );
    let mems =
        per_device_memory(&sharded.graph, &sharded.device_of_node, sharded.workers, true, 0.0);
    let measured = out.trace.comm_bytes();
    println!(
        "makespan: simulated {:.3} ms | measured {:?}",
        sim.makespan * 1e3,
        out.trace.wall
    );
    println!(
        "comm:     simulated {} B | measured {measured} B | {}",
        sim.comm_bytes as u64,
        if sim.comm_bytes == measured as f64 { "exact match" } else { "MISMATCH" }
    );
    let mut memory_match = true;
    for w in &out.trace.workers {
        let predicted = mems[w.device].peak_bytes;
        memory_match &= w.peak_memory_bytes() == predicted;
        println!(
            "device {}: memory predicted {predicted} B, measured {} B | busy sim {:.3} ms, measured {:?}",
            w.device,
            w.peak_memory_bytes(),
            sim.compute_busy[w.device] * 1e3,
            w.busy
        );
    }
    println!("\nevery device's memory equals per_device_memory: {memory_match}");
}
