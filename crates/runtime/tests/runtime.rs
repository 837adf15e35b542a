//! End-to-end runtime tests: scatter → multi-worker execution → gather must
//! reproduce the single-device executor, and the measured trace must be
//! internally consistent.

use std::collections::BTreeMap;
use std::time::Duration;

use tofu_core::{generate, partition, GenOptions, PartitionOptions, ShardedGraph};
use tofu_graph::{Attrs, Executor, Graph, TensorId, TensorKind};
use tofu_models::{mlp, rnn, wresnet, MlpConfig, RnnConfig, WResNetConfig};
use tofu_obs::{Collector, Phase, Track};
use tofu_runtime::{
    run_with_options, run_with_recovery, CheckpointPolicy, Fault, FaultPlan, RecoveryOptions,
    RunOptions, RuntimeError,
};
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
    let out = run_with_options(&sharded, &shard_feeds, &RunOptions::default()).unwrap();
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
        let out = run_with_options(&sharded, &shard_feeds, &RunOptions::default()).unwrap();
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
            let trace = run_with_options(&sharded, &shard_feeds, &RunOptions::default()).unwrap().trace;
            assert_eq!(trace.ops_executed(), sharded.graph.num_nodes(), "{label}");
            for w in &trace.workers {
                let schedule = sharded.worker_schedule(w.device);
                assert_eq!(w.ops, schedule.len());
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
    let err = run_with_options(&sharded, &partial, &RunOptions::default()).unwrap_err();
    // A failed run reports a post-mortem naming the worker whose feed was
    // missing; the root cause is the typed MissingFeed error.
    match err {
        tofu_runtime::RuntimeError::Failed(failure) => {
            assert!(
                matches!(*failure.cause, tofu_runtime::RuntimeError::MissingFeed { .. }),
                "got {}",
                failure.cause
            );
            assert!(failure.trace.workers.iter().any(|w| !w.completed));
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
    let home = sharded.device_of_node[compute.0];
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

/// A run after an edit to the graph's public fields replans it: the two
/// edits above give the same typed error after a successful run as on a
/// fresh graph, and a node appended after a run is neither run stale nor a
/// panic.
#[test]
fn an_edited_sharded_graph_is_replanned_never_run_stale() {
    let m =
        mlp(&MlpConfig { batch: 8, dims: vec![16, 16], classes: 8, with_updates: true }).unwrap();
    let (sharded, _, _) = shard(&m.graph, 2);
    let g = &sharded.graph;
    let compute = g
        .node_ids()
        .find(|&id| g.node(id).op != "multi_fetch" && !g.node(id).inputs.is_empty())
        .unwrap();
    let home = sharded.device_of_node[compute.0];
    let error = |sharded: &ShardedGraph, feeds: &[(TensorId, Tensor)]| {
        let run = run_with_options(sharded, feeds, &RunOptions::default());
        match run {
            Err(RuntimeError::InvalidOptions(m)) => m,
            other => panic!("expected InvalidOptions, got {other:?}"),
        }
    };
    for device in [1 - home, 7] {
        let (mut fresh, shard_feeds, _) = shard(&m.graph, 2);
        fresh.device_of_node[compute.0] = device;
        let want = error(&fresh, &shard_feeds);
        let (mut ran, shard_feeds, _) = shard(&m.graph, 2);
        run_with_options(&ran, &shard_feeds, &RunOptions::default()).unwrap();
        ran.device_of_node[compute.0] = device;
        assert_eq!(error(&ran, &shard_feeds), want, "device {device}");
        // Undoing the edit runs again.
        ran.device_of_node[compute.0] = home;
        run_with_options(&ran, &shard_feeds, &RunOptions::default()).unwrap();
    }

    // A node appended after a run: its device tables are checked, and once
    // they cover it, it runs.
    let (mut grown, shard_feeds, _) = shard(&m.graph, 2);
    let before = run_with_options(&grown, &shard_feeds, &RunOptions::default()).unwrap();
    let last = *grown.worker_schedule(0).last().unwrap();
    let t = grown.graph.node(last).output;
    let extra = grown.graph.add_op("relu", "extra", &[t], Attrs::new()).unwrap();
    let msg = error(&grown, &shard_feeds);
    assert!(msg.contains("device tables cover"), "{msg}");
    grown.device_of_node.push(0);
    grown.device_of_tensor.push(Some(0));
    let after = run_with_options(&grown, &shard_feeds, &RunOptions::default()).unwrap();
    assert_eq!(after.values.len(), before.values.len() + 1);
    assert_eq!(after.values[&extra].data(), before.values[&t].relu().data());
}

/// A feed naming a tensor the sharded graph does not have is a typed
/// error, not a silently skipped value.
#[test]
fn a_feed_for_an_unknown_tensor_is_a_typed_error() {
    let m = mlp(&MlpConfig { batch: 4, dims: vec![8], classes: 4, with_updates: false }).unwrap();
    let (sharded, mut shard_feeds, _) = shard(&m.graph, 2);
    let unknown = TensorId(sharded.graph.num_tensors() + 3);
    shard_feeds.push((unknown, Tensor::zeros(Shape::new(vec![1]))));
    match run_with_options(&sharded, &shard_feeds, &RunOptions::default()) {
        Err(RuntimeError::InvalidOptions(msg)) => {
            assert!(msg.contains(&format!("{unknown:?}")), "{msg}")
        }
        other => panic!("expected InvalidOptions, got {other:?}"),
    }
}

/// Spans of `name` on `track`, as `(start, end)` in µs.
fn spans(obs: &Collector, track: Track, name: &str) -> Vec<(f64, f64)> {
    obs.events()
        .into_iter()
        .filter(|e| e.track == track && e.name == name)
        .filter_map(|e| match e.phase {
            Phase::Complete { dur_us } => Some((e.ts_us, e.ts_us + dur_us)),
            _ => None,
        })
        .collect()
}

/// Three steps of one sharded graph: execution is planned once, in the first
/// step, before its attempt; every step's attempt is followed by its merge.
#[test]
fn planning_is_a_span_before_the_first_op() {
    let m =
        mlp(&MlpConfig { batch: 8, dims: vec![16, 16], classes: 8, with_updates: true }).unwrap();
    let (sharded, shard_feeds, _) = shard(&m.graph, 2);
    let obs = Collector::new();
    let opts = RunOptions { collector: Some(obs.clone()), ..Default::default() };
    let first = run_with_options(&sharded, &shard_feeds, &opts).unwrap();
    for _ in 0..2 {
        let again = run_with_options(&sharded, &shard_feeds, &opts).unwrap();
        assert_bit_identical(&again.values, &first.values);
    }
    let planning: Vec<_> = obs.events().into_iter().filter(|e| e.cat == "plan").collect();
    assert_eq!(planning.len(), 1, "{planning:?}");
    let plan = spans(&obs, Track::control(), "plan exec");
    let attempts = spans(&obs, Track::control(), "attempt");
    let merges = spans(&obs, Track::control(), "merge");
    assert_eq!((plan.len(), attempts.len(), merges.len()), (1, 3, 3));
    assert!(plan[0].1 <= attempts[0].0);
    for (attempt, merge) in attempts.iter().zip(&merges) {
        assert!(attempt.1 <= merge.0, "{attempt:?} {merge:?}");
    }
    // Planning is over before any worker's first op.
    for w in 0..2 {
        let first_op = obs
            .events()
            .into_iter()
            .filter(|e| e.track == Track::runtime(w) && (e.cat == "op" || e.cat == "fetch"))
            .map(|e| e.ts_us)
            .fold(f64::INFINITY, f64::min);
        assert!(plan[0].1 <= first_op, "worker {w}");
    }
}

/// A killed attempt resumes from its checkpoint on the plan the graph
/// already holds, and the recovered step is bit-identical.
#[test]
fn a_resumed_attempt_reuses_the_cached_plan() {
    let m =
        mlp(&MlpConfig { batch: 8, dims: vec![16, 16], classes: 8, with_updates: true }).unwrap();
    let (sharded, shard_feeds, _) = shard(&m.graph, 2);
    let clean = run_with_options(&sharded, &shard_feeds, &RunOptions::default()).unwrap();
    let obs = Collector::new();
    let opts = RunOptions {
        faults: FaultPlan::single(Fault::Kill {
            worker: 1,
            pos: sharded.worker_schedule(1).len() * 3 / 4,
        }),
        checkpoint: Some(CheckpointPolicy::every(sharded.graph.num_nodes() / 4)),
        collector: Some(obs.clone()),
        ..Default::default()
    };
    let recovery = RecoveryOptions { backoff: Duration::ZERO, ..Default::default() };
    let report = run_with_recovery(&sharded, &shard_feeds, &opts, &recovery).unwrap();
    let resumed: Vec<_> = report.history.iter().map(|a| a.resumed_from).collect();
    assert_eq!(resumed.len(), 2);
    assert!(resumed[1].is_some(), "{resumed:?}");
    assert!(spans(&obs, Track::control(), "plan exec").is_empty());
    assert_eq!(spans(&obs, Track::control(), "merge").len(), 2);
    assert_bit_identical(&report.output.values, &clean.values);
}

fn assert_bit_identical(a: &BTreeMap<TensorId, Tensor>, b: &BTreeMap<TensorId, Tensor>) {
    assert_eq!(a.len(), b.len());
    for ((ta, va), (tb, vb)) in a.iter().zip(b) {
        assert_eq!(ta, tb);
        let bits = |v: &Tensor| v.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(va), bits(vb), "{ta:?}");
    }
}
