//! End-to-end runtime tests: scatter → multi-worker execution → gather must
//! reproduce the single-device executor, and the measured trace must be
//! internally consistent.

use std::collections::BTreeMap;

use tofu_core::{generate, partition, GenOptions, PartitionOptions, ShardedGraph};
use tofu_graph::{Executor, Graph, TensorId, TensorKind};
use tofu_models::{mlp, rnn, wresnet, MlpConfig, RnnConfig, WResNetConfig};
use tofu_obs::{Collector, Phase, Track};
use tofu_runtime::{run, run_with_options, RunOptions, RuntimeError};
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

fn shard(g: &Graph, workers: usize) -> (ShardedGraph, Vec<(TensorId, Tensor)>, BTreeMap<TensorId, Tensor>) {
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
        assert!(
            gathered.allclose(expect, tol),
            "tensor {} diverged",
            g.tensor(t).name
        );
    }
}

#[test]
fn single_worker_matches_executor() {
    let m = mlp(&MlpConfig { batch: 8, dims: vec![16, 16], classes: 8, with_updates: true })
        .unwrap();
    let (sharded, shard_feeds, base) = shard(&m.graph, 1);
    let out = run(&sharded, &shard_feeds).unwrap();
    let check: Vec<TensorId> =
        std::iter::once(m.loss).chain(m.grads.iter().map(|&(_, gw)| gw)).collect();
    check_outputs(&m.graph, &sharded, &out.values, &base, &check, 1e-6);
    assert_eq!(out.trace.workers.len(), 1);
    assert_eq!(out.trace.comm_bytes(), 0, "one worker must not communicate");
}

#[test]
fn multi_worker_matches_executor() {
    let m = mlp(&MlpConfig { batch: 8, dims: vec![16, 16], classes: 8, with_updates: true })
        .unwrap();
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

/// Every node runs once on its own worker, and every byte is conserved:
/// per link, the runtime's (bytes, messages) are `comm_edges()` grouped by
/// (src, dst) — one message per transfer, however many fetches read it —
/// and each worker's received bytes count arrivals, so they sum to the bytes
/// sent.
#[test]
fn trace_is_internally_consistent() {
    let mlp = mlp(&MlpConfig { batch: 8, dims: vec![16, 16], classes: 8, with_updates: true });
    let lstm = rnn(&RnnConfig {
        layers: 2,
        hidden: 16,
        batch: 4,
        steps: 4,
        embed: 8,
        vocab: 8,
        with_updates: true,
    });
    let wres = wresnet(&WResNetConfig {
        layers: 50,
        width: 1,
        batch: 4,
        image: 16,
        classes: 8,
        with_updates: true,
    });
    for (name, m) in [("mlp", mlp), ("lstm", lstm), ("wresnet", wres)] {
        let g = &m.unwrap().graph;
        for workers in [2, 4] {
            let label = format!("{name} w={workers}");
            let plan = partition(g, &PartitionOptions { workers, ..Default::default() }).unwrap();
            let sharded = generate(g, &plan, &GenOptions::default()).unwrap();
            let shard_feeds: Vec<_> =
                feeds(g).iter().flat_map(|(t, v)| sharded.scatter(*t, v).unwrap()).collect();
            let trace = run(&sharded, &shard_feeds).unwrap().trace;
            assert_eq!(trace.ops_executed(), sharded.graph.num_nodes(), "{label}");
            for w in &trace.workers {
                let schedule = sharded.worker_schedule(w.device);
                assert_eq!(w.ops.len(), schedule.len());
                for (ev, id) in w.ops.iter().zip(&schedule) {
                    assert_eq!(ev.node, *id);
                    assert!(ev.start <= ev.end);
                    assert!(ev.end <= trace.wall);
                }
                assert!(w.pool_peak_bytes > 0);
                assert!(w.persistent_bytes > 0);
            }
            let sent: u64 = trace.workers.iter().map(|w| w.bytes_sent).sum();
            let received: u64 = trace.workers.iter().map(|w| w.bytes_received).sum();
            assert_eq!((sent, received), (trace.comm_bytes(), trace.comm_bytes()), "{label}");
            let mut planned: BTreeMap<(usize, usize), (u64, u64)> = BTreeMap::new();
            for e in sharded.comm_edges() {
                let link = planned.entry((e.src, e.dst)).or_default();
                *link = (link.0 + e.bytes(), link.1 + 1);
            }
            let measured: BTreeMap<(usize, usize), (u64, u64)> =
                trace.links.iter().map(|l| ((l.src, l.dst), (l.bytes, l.messages))).collect();
            assert_eq!(measured, planned, "{label}: per-link (bytes, messages)");
        }
    }
}

#[test]
fn missing_feed_is_reported() {
    let m = mlp(&MlpConfig { batch: 4, dims: vec![8], classes: 4, with_updates: false }).unwrap();
    let (sharded, shard_feeds, _) = shard(&m.graph, 2);
    let partial: Vec<_> = shard_feeds.into_iter().skip(1).collect();
    let err = run(&sharded, &partial).unwrap_err();
    // A failed run reports a post-mortem naming the worker whose feed was
    // missing; the root cause is the typed MissingFeed error.
    match err {
        tofu_runtime::RuntimeError::Failed(failure) => {
            assert!(
                matches!(*failure.cause, tofu_runtime::RuntimeError::MissingFeed { .. }),
                "got {}",
                failure.cause
            );
            assert!(failure.trace.is_partial());
        }
        other => panic!("expected Failed post-mortem, got {other}"),
    }
}

#[test]
fn malformed_sharded_graph_is_a_typed_error_not_a_panic() {
    // `ShardedGraph`'s fields are public, so a caller can hand the runtime a
    // plan `generate` would never produce. Both edits below used to panic on
    // the caller's thread while the routes were being resolved.
    let m = mlp(&MlpConfig { batch: 8, dims: vec![16, 16], classes: 8, with_updates: true })
        .unwrap();
    let (sharded, _, _) = shard(&m.graph, 2);
    let g = &sharded.graph;
    let compute = g
        .node_ids()
        .find(|&id| g.node(id).op != "multi_fetch" && !g.node(id).inputs.is_empty())
        .unwrap();
    let home = sharded.device_of(compute);
    let node = format!("{compute:?}");
    let run_on = |device: usize| {
        let (mut bad, shard_feeds, _) = shard(&m.graph, 2);
        bad.device_of_node[compute.0] = device;
        match run_with_options(&bad, &shard_feeds, &RunOptions::default()) {
            Err(RuntimeError::InvalidOptions(m)) => m,
            other => panic!("device {device}: expected InvalidOptions, got {other:?}"),
        }
    };
    // A compute node moved to the other worker reads its inputs remotely.
    let away = 1 - home;
    let moved = run_on(away);
    assert!(moved.contains(&node) && moved.contains("only multi_fetch"), "{moved}");
    assert!(moved.contains(&format!("device {away}")), "{moved}");
    assert!(moved.contains(&format!("device {home}")), "{moved}");
    // A node on a device the fleet does not have.
    let absent = run_on(7);
    assert!(absent.contains(&node) && absent.contains("device 7 of 2"), "{absent}");
}

#[test]
fn planning_is_a_span_before_the_first_op() {
    let m = mlp(&MlpConfig { batch: 8, dims: vec![16, 16], classes: 8, with_updates: true })
        .unwrap();
    let (sharded, shard_feeds, _) = shard(&m.graph, 2);
    let obs = Collector::new();
    let opts = RunOptions { collector: Some(obs.clone()), ..Default::default() };
    run_with_options(&sharded, &shard_feeds, &opts).unwrap();
    let spans = |track: Track, name: &str| -> Vec<(f64, f64)> {
        obs.events()
            .into_iter()
            .filter(|e| e.track == track && e.name == name)
            .filter_map(|e| match e.phase {
                Phase::Complete { dur_us } => Some((e.ts_us, e.ts_us + dur_us)),
                _ => None,
            })
            .collect()
    };
    // One routing table per attempt, built before the attempt starts.
    let routes = spans(Track::control(), "plan routes");
    let attempt = spans(Track::control(), "attempt");
    assert_eq!((routes.len(), attempt.len()), (1, 1));
    assert!(routes[0].1 <= attempt[0].0);
    // One buffer plan per worker, finished before its first op starts.
    for w in 0..2 {
        let plan = spans(Track::runtime(w), "plan buffers");
        assert_eq!(plan.len(), 1, "worker {w}");
        let first_op = obs
            .events()
            .into_iter()
            .filter(|e| e.track == Track::runtime(w) && (e.cat == "op" || e.cat == "fetch"))
            .map(|e| e.ts_us)
            .fold(f64::INFINITY, f64::min);
        assert!(plan[0].1 <= first_op, "worker {w}");
    }
}
