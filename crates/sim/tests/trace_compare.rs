//! Acceptance tests for the runtime-vs-simulator comparison: measured
//! channel traffic must equal the simulator's comm-bytes prediction exactly,
//! and each worker's measured footprint must equal `per_device_memory` to
//! the byte.

use std::collections::BTreeMap;

use tofu_core::{generate, partition, GenOptions, PartitionOptions, ShardedGraph};
use tofu_graph::{Attrs, Executor, Graph, NodeId, TensorId, TensorKind};
use tofu_models::{decoder_block, mlp, wresnet, DecoderConfig, MlpConfig, WResNetConfig};
use tofu_runtime::{
    run, run_with_options, Fault, FaultPlan, IntegrityLevel, RunOptions, RuntimeError,
};
use tofu_sim::{compare_trace, simulate_with_leaf_devices, Machine};
use tofu_tensor::{Shape, Tensor};

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
            // Variance-scaled init: uniform 0.5-scale weights explode through
            // a 50-layer stack, and f32 gradients at magnitude 1e9 lose all
            // relative precision to summation reordering.
            let fan_in = (meta.shape.volume() / meta.shape.dim(0).max(1)).max(1);
            let scale = (3.0f32 / fan_in as f32).sqrt().min(0.5);
            Tensor::random(meta.shape.clone(), t.0 as u64 + 1, scale)
        };
        out.push((t, v));
    }
    out
}

fn shard(g: &Graph, workers: usize) -> (ShardedGraph, Vec<(TensorId, Tensor)>) {
    let plan = partition(g, &PartitionOptions { workers, ..Default::default() }).unwrap();
    let sharded = generate(g, &plan, &GenOptions::default()).unwrap();
    assert!(sharded.exact);
    let mut shard_feeds = Vec::new();
    for (t, v) in feeds(g) {
        shard_feeds.extend(sharded.scatter(t, &v).unwrap());
    }
    (sharded, shard_feeds)
}

fn assert_report(sharded: &ShardedGraph, shard_feeds: &[(TensorId, Tensor)], label: &str) {
    let out = run(sharded, shard_feeds).unwrap();
    let report = compare_trace(sharded, &Machine::p2_8xlarge(), &out.trace);
    assert!(
        report.comm_bytes_match(),
        "{label}: measured {} B over channels, simulator predicted {} B",
        report.measured_comm_bytes,
        report.predicted_comm_bytes
    );
    assert_eq!(report.devices.len(), sharded.workers);
    for d in &report.devices {
        assert!(d.ops > 0, "{label}: device {} executed nothing", d.device);
        assert!(d.predicted_memory_bytes > 0);
        // The pool fails any run whose peak differs from the plan's, and the
        // resident bytes are the plan's own persistent tensors.
        assert_eq!(
            d.measured_memory_bytes,
            d.predicted_memory_bytes,
            "{label}: device {} footprint differs from per_device_memory:\n{}",
            d.device,
            report.summary()
        );
    }
    let s = report.summary();
    assert!(s.contains("exact match"), "summary should flag the comm match:\n{s}");
}

#[test]
fn partial_trace_from_aborted_run_is_reportable() {
    let m = mlp(&MlpConfig { batch: 8, dims: vec![16, 16], classes: 8, with_updates: true })
        .unwrap();
    let (sharded, shard_feeds) = shard(&m.graph, 4);
    let mid = sharded.worker_schedule(1).len() / 2;
    let opts = RunOptions {
        faults: FaultPlan::single(Fault::Kill { worker: 1, pos: mid }),
        ..Default::default()
    };
    let failure = match run_with_options(&sharded, &shard_feeds, &opts) {
        Err(RuntimeError::Failed(f)) => *f,
        other => panic!("expected a failed run, got {other:?}"),
    };
    // The post-mortem's partial trace still lines up against the simulator:
    // the report renders, flags itself partial, and does not pretend the
    // exact-match columns hold.
    let report = compare_trace(&sharded, &Machine::p2_8xlarge(), &failure.trace);
    assert!(report.is_partial(), "aborted run must yield a partial report");
    assert!(report.devices.iter().any(|d| !d.completed));
    let s = report.summary();
    assert!(s.contains("[ABORTED]"), "summary must mark aborted devices:\n{s}");
    assert!(!s.contains("MISMATCH"), "partial traces are not comm-compared:\n{s}");
}

#[test]
fn mlp_trace_matches_sim_predictions() {
    let m = mlp(&MlpConfig { batch: 8, dims: vec![16, 16], classes: 8, with_updates: true })
        .unwrap();
    for workers in [2usize, 4] {
        let (sharded, shard_feeds) = shard(&m.graph, workers);
        assert_report(&sharded, &shard_feeds, &format!("mlp w={workers}"));
    }
}

#[test]
fn decoder_trace_matches_sim_predictions() {
    // The transformer decoder exercises strategies the other models never
    // pick — head splits on rank-3 weights and reduction splits on the
    // attention output projection — so its measured channel traffic pinning
    // down the simulator's prediction exactly is a strong regression gate.
    let cfg = DecoderConfig {
        seq: 16,
        d_model: 32,
        heads: 4,
        d_ff: 64,
        classes: 8,
        with_updates: true,
    };
    let m = decoder_block(&cfg).unwrap();
    for workers in [2usize, 4] {
        let (sharded, shard_feeds) = shard(&m.graph, workers);
        assert_report(&sharded, &shard_feeds, &format!("decoder w={workers}"));
    }
}

#[test]
fn wresnet_trace_matches_sim_predictions_and_executor() {
    let cfg =
        WResNetConfig { layers: 50, width: 1, batch: 4, image: 16, classes: 8, with_updates: true };
    let m = wresnet(&cfg).unwrap();
    let (sharded, shard_feeds) = shard(&m.graph, 2);

    // Numeric ground truth: the 2-worker runtime must reproduce the
    // single-device executor's loss and gradients.
    let mut base = Executor::new();
    for (t, v) in feeds(&m.graph) {
        base.feed(t, v);
    }
    let base_vals = base.run(&m.graph).unwrap();
    let out = run(&sharded, &shard_feeds).unwrap();
    for &t in std::iter::once(&m.loss).chain(m.grads.iter().map(|(_, gw)| gw)) {
        let expect = &base_vals[&t];
        let got = sharded.gather(t, expect.shape(), &out.values).unwrap();
        assert!(got.allclose(expect, 1e-3), "tensor {} diverged", m.graph.tensor(t).name);
    }

    assert_report(&sharded, &shard_feeds, "wresnet w=2");
}

/// Two devices: a producer on device 0, read on device 1 by two
/// `multi_fetch` nodes fetching its top half (landing at different offsets)
/// and by a third fetching its bottom half.
fn shared_block() -> ShardedGraph {
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new(vec![4, 8]));
    let p = g.add_op("relu", "p", &[x], Attrs::new()).unwrap();
    for (name, pieces) in [
        ("top", vec![0, 0, 0, 0, 2, 8]),
        ("top again", vec![0, 0, 1, 0, 2, 8]),
        ("bottom", vec![2, 0, 0, 0, 2, 8]),
    ] {
        let attrs = Attrs::new().with_ints("out_dims", vec![3, 8]).with_ints("pieces", pieces);
        g.add_op("multi_fetch", name, &[p], attrs).unwrap();
    }
    ShardedGraph {
        workers: 2,
        shards: BTreeMap::new(),
        regions: BTreeMap::new(),
        device_of_node: vec![0, 1, 1, 1],
        device_of_tensor: vec![Some(0), Some(0), Some(1), Some(1), Some(1)],
        origin_of_node: g.node_ids().collect(),
        exact: true,
        graph: g,
    }
}

/// A block two fetches read crosses the link once, in every layer that
/// moves or counts bytes: the simulator, `comm_edges()` and the runtime.
#[test]
fn a_block_two_fetches_read_crosses_once() {
    let sharded = shared_block();
    let g = &sharded.graph;
    let block = 2 * 8 * 4;
    let sim = simulate_with_leaf_devices(
        g,
        &sharded.device_of_node,
        &sharded.device_of_tensor,
        &Machine::p2_8xlarge(),
        false,
    );
    assert_eq!(sim.comm_bytes, 2.0 * block as f64);
    let edges = sharded.comm_edges();
    let readers: Vec<_> = edges.iter().map(|e| e.readers.clone()).collect();
    assert_eq!(readers, vec![vec![(NodeId(1), 0), (NodeId(2), 0)], vec![(NodeId(3), 0)]]);

    let x = TensorId(0);
    let value = Tensor::random(g.tensor(x).shape.clone(), 7, 1.0);
    let mut exec = Executor::new();
    exec.feed(x, value.clone());
    let want = exec.run(g).unwrap();
    for integrity in [IntegrityLevel::Full, IntegrityLevel::Fast] {
        let opts = RunOptions { integrity, ..Default::default() };
        let out = run_with_options(&sharded, &[(x, value.clone())], &opts).unwrap();
        let links: Vec<_> =
            out.trace.links.iter().map(|l| (l.src, l.dst, l.bytes, l.messages)).collect();
        assert_eq!(links, vec![(0, 1, 2 * block, 2)], "{integrity:?}");
        assert_eq!(out.trace.workers[1].bytes_received, 2 * block);
        for t in g.tensor_ids() {
            let bits = |v: &Tensor| v.data().iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out.values[&t]), bits(&want[&t]), "{integrity:?} {t:?}");
        }
    }
}
