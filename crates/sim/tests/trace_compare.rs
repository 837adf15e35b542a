//! The simulator's predictions against the threaded runtime's measurements:
//! measured channel traffic must equal `simulate_with_leaf_devices`'s
//! comm-bytes prediction exactly, and each worker's measured footprint must
//! equal `per_device_memory` to the byte.

use tofu_core::{generate, partition, GenOptions, PartitionOptions, ShardedGraph};
use tofu_graph::{Attrs, Executor, Graph, NodeId, TensorId, TensorKind};
use tofu_models::{decoder_block, mlp, wresnet, DecoderConfig, MlpConfig, WResNetConfig};
use tofu_runtime::{run_with_options, IntegrityLevel, RunOptions};
use tofu_sim::{per_device_memory, simulate_with_leaf_devices, Machine};
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
    let out = run_with_options(sharded, shard_feeds, &RunOptions::default()).unwrap();
    let sim = simulate_with_leaf_devices(
        &sharded.graph,
        &sharded.device_of_node,
        &sharded.device_of_tensor,
        &Machine::p2_8xlarge(),
        false,
    );
    assert_eq!(
        sim.comm_bytes,
        out.trace.comm_bytes() as f64,
        "{label}: channel bytes differ from the simulator's prediction"
    );
    // The runtime plans with buffer reuse and holds no optimizer copies.
    let mems =
        per_device_memory(&sharded.graph, &sharded.device_of_node, sharded.workers, true, 0.0);
    assert_eq!(out.trace.workers.len(), sharded.workers);
    for w in &out.trace.workers {
        assert!(w.ops > 0, "{label}: device {} executed nothing", w.device);
        assert!(mems[w.device].peak_bytes > 0);
        // The pool fails any run whose peak differs from the plan's, and the
        // resident bytes are the plan's own persistent tensors.
        assert_eq!(
            w.peak_memory_bytes(),
            mems[w.device].peak_bytes,
            "{label}: device {} footprint differs from per_device_memory:\n{}",
            w.device,
            out.trace.summary()
        );
    }
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
    let out = run_with_options(&sharded, &shard_feeds, &RunOptions::default()).unwrap();
    for &t in std::iter::once(&m.loss).chain(m.grads.iter().map(|(_, gw)| gw)) {
        let expect = &base_vals[&t];
        let got = sharded.gather(t, expect.shape(), &out.values).unwrap();
        assert!(got.allclose(expect, 1e-3), "tensor {} diverged", m.graph.tensor(t).name);
    }

    assert_report(&sharded, &shard_feeds, "wresnet w=2");
}

/// Two devices: a producer of an `[rows, 8]` tensor on device 0, read on
/// device 1 by one `multi_fetch` per `(name, output dims, pieces)`.
fn fetched_on_device_one(rows: i64, fetches: &[(&str, [i64; 2], [i64; 6])]) -> ShardedGraph {
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new(vec![rows as usize, 8]));
    let p = g.add_op("relu", "p", &[x], Attrs::new()).unwrap();
    for (name, out_dims, pieces) in fetches {
        let attrs = Attrs::new()
            .with_ints("out_dims", out_dims.to_vec())
            .with_ints("pieces", pieces.to_vec());
        g.add_op("multi_fetch", name, &[p], attrs).unwrap();
    }
    let mut sharded = ShardedGraph::default();
    sharded.workers = 2;
    sharded.device_of_node = vec![0, 1, 1, 1];
    sharded.device_of_tensor = vec![Some(0), Some(0), Some(1), Some(1), Some(1)];
    sharded.origin_of_node = g.node_ids().collect();
    sharded.exact = true;
    sharded.graph = g;
    sharded
}

/// Device 1 receives `bytes` in `messages` in every layer that moves or
/// counts bytes — the simulator, `comm_edges()` and the runtime, at both
/// integrity levels — and the runtime's values are bit-identical to
/// `Executor::run`'s.
fn assert_crosses_once(sharded: &ShardedGraph, bytes: u64, messages: u64) {
    let g = &sharded.graph;
    let sim = simulate_with_leaf_devices(
        g,
        &sharded.device_of_node,
        &sharded.device_of_tensor,
        &Machine::p2_8xlarge(),
        false,
    );
    assert_eq!(sim.comm_bytes, bytes as f64);
    let edges = sharded.comm_edges();
    let edge_bytes: u64 = edges.iter().map(|e| e.bytes()).sum();
    assert_eq!((edge_bytes, edges.len() as u64), (bytes, messages));

    let x = TensorId(0);
    let value = Tensor::random(g.tensor(x).shape.clone(), 7, 1.0);
    let mut exec = Executor::new();
    exec.feed(x, value.clone());
    let want = exec.run(g).unwrap();
    for integrity in [IntegrityLevel::Full, IntegrityLevel::Fast] {
        let opts = RunOptions { integrity, ..Default::default() };
        let out = run_with_options(sharded, &[(x, value.clone())], &opts).unwrap();
        let links: Vec<_> =
            out.trace.links.iter().map(|l| (l.src, l.dst, l.bytes, l.messages)).collect();
        assert_eq!(links, vec![(0, 1, bytes, messages)], "{integrity:?}");
        assert_eq!(out.trace.workers[1].bytes_received, bytes);
        for t in g.tensor_ids() {
            let bits = |v: &Tensor| v.data().iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out.values[&t]), bits(&want[&t]), "{integrity:?} {t:?}");
        }
    }
}

/// A block two fetches read crosses the link once, in every layer that
/// moves or counts bytes: the simulator, `comm_edges()` and the runtime.
/// The producer's top half is read twice (landing at different offsets),
/// its bottom half once.
#[test]
fn a_block_two_fetches_read_crosses_once() {
    let sharded = fetched_on_device_one(
        4,
        &[
            ("top", [3, 8], [0, 0, 0, 0, 2, 8]),
            ("top again", [3, 8], [0, 0, 1, 0, 2, 8]),
            ("bottom", [3, 8], [2, 0, 0, 0, 2, 8]),
        ],
    );
    let readers: Vec<_> = sharded.comm_edges().iter().map(|e| e.readers.clone()).collect();
    assert_eq!(readers, vec![vec![(NodeId(1), 0), (NodeId(2), 0)], vec![(NodeId(3), 0)]]);
    assert_crosses_once(&sharded, 2 * 2 * 8 * 4, 2);
}

/// Overlapping blocks cross once per element: the top half, then a middle
/// block (rows 2..5, columns 2..6) that moves only its rows below the half,
/// then the whole tensor, which moves the three boxes still missing. Five
/// messages carry the tensor's 192 B, and every fetch assembles its block
/// from the parts of each.
#[test]
fn overlapping_blocks_cross_once_per_element() {
    let sharded = fetched_on_device_one(
        6,
        &[
            ("half", [3, 8], [0, 0, 0, 0, 3, 8]),
            ("middle", [3, 4], [2, 2, 0, 0, 3, 4]),
            ("whole", [6, 8], [0, 0, 0, 0, 6, 8]),
        ],
    );
    let readers: Vec<_> = sharded.comm_edges().iter().map(|e| e.readers.clone()).collect();
    let (half, middle, whole) = ((NodeId(1), 0), (NodeId(2), 0), (NodeId(3), 0));
    assert_eq!(
        readers,
        vec![vec![half, middle, whole], vec![middle, whole], vec![whole], vec![whole], vec![whole]]
    );
    assert_crosses_once(&sharded, 6 * 8 * 4, 5);
}

/// A spread reduction seen from every layer: a K-split matmul (`[4, 512] ×
/// [512, 4]`, so the plan cuts only the contraction) reduces its output
/// with one folding `multi_fetch` per worker, whose inputs are one piece per
/// reduce-peer class — 2 at w=2, 4 at w=4. The runtime's values are
/// bit-identical to `Executor::run` of the same graph at both integrity
/// levels, the simulator's bytes equal `comm_edges()` and the channel
/// bytes, and every worker's pool peak equals `per_device_memory`.
#[test]
fn a_k_split_matmul_reduces_in_one_fused_fetch() {
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new(vec![4, 512]));
    let w = g.add_weight("w", Shape::new(vec![512, 4]));
    g.add_op("matmul", "y", &[x, w], Attrs::new()).unwrap();
    for workers in [2usize, 4] {
        let (sharded, shard_feeds) = shard(&g, workers);
        let out = &sharded.graph;
        let reduces: Vec<NodeId> =
            out.node_ids().filter(|&id| out.node(id).name.contains("/reduce/")).collect();
        assert_eq!(reduces.len(), workers, "w={workers}: one reduction per worker");
        for &id in &reduces {
            let node = out.node(id);
            assert_eq!(node.op, "multi_fetch");
            assert_eq!((node.inputs.len(), node.attrs.int("combine")), (workers, Some(1)));
        }

        let mut exec = Executor::new();
        for (t, v) in &shard_feeds {
            exec.feed(*t, v.clone());
        }
        let want = exec.run(out).unwrap();
        let bits = |v: &Tensor| v.data().iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for integrity in [IntegrityLevel::Full, IntegrityLevel::Fast] {
            let opts = RunOptions { integrity, ..Default::default() };
            let run = run_with_options(&sharded, &shard_feeds, &opts).unwrap();
            for t in out.tensor_ids() {
                assert_eq!(bits(&run.values[&t]), bits(&want[&t]), "w={workers} {integrity:?}");
            }
        }
        let edge_bytes: u64 = sharded.comm_edges().iter().map(|e| e.bytes()).sum();
        let sim = simulate_with_leaf_devices(
            out,
            &sharded.device_of_node,
            &sharded.device_of_tensor,
            &Machine::p2_8xlarge(),
            false,
        );
        assert!(edge_bytes > 0);
        assert_eq!(sim.comm_bytes, edge_bytes as f64, "w={workers}");
        assert_report(&sharded, &shard_feeds, &format!("k-split matmul w={workers}"));
    }
}
