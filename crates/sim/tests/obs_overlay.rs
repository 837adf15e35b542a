//! Overlay acceptance test: for one sharded model, the simulator's predicted
//! trace and the runtime's measured trace must use the *same* span names on
//! the matching device lanes, so the two process groups line up event for
//! event when loaded into chrome://tracing together.

use std::collections::BTreeSet;

use tofu_core::{generate, partition, GenOptions, PartitionOptions, ShardedGraph};
use tofu_graph::{Graph, TensorId, TensorKind};
use tofu_models::{mlp, MlpConfig};
use tofu_obs::{Collector, Phase, Track, PID_SIM_BASE};
use tofu_runtime::{run_with_options, RunOptions};
use tofu_sim::{simulate_traced, Machine};
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
            Tensor::random(meta.shape.clone(), t.0 as u64 + 1, 0.25)
        };
        out.push((t, v));
    }
    out
}

fn shard(g: &Graph, workers: usize) -> (ShardedGraph, Vec<(TensorId, Tensor)>) {
    let plan = partition(g, &PartitionOptions { workers, ..Default::default() }).unwrap();
    let sharded = generate(g, &plan, &GenOptions::default()).unwrap();
    let mut shard_feeds = Vec::new();
    for (t, v) in feeds(g) {
        shard_feeds.extend(sharded.scatter(t, &v).unwrap());
    }
    (sharded, shard_feeds)
}

/// Names of the op/fetch spans recorded on the given track.
fn op_names(obs: &Collector, track: Track) -> BTreeSet<String> {
    obs.events()
        .into_iter()
        .filter(|e| {
            e.track == track
                && matches!(e.phase, Phase::Complete { .. })
                && (e.cat == "op" || e.cat == "fetch")
        })
        .map(|e| e.name)
        .collect()
}

/// Names of the cumulative link-byte counters seen anywhere in the trace for
/// lanes belonging to the given process group.
fn link_counter_names(obs: &Collector, sim: bool) -> BTreeSet<String> {
    obs.events()
        .into_iter()
        .filter(|e| {
            matches!(e.phase, Phase::Counter { .. })
                && e.name.starts_with("link ")
                && e.track.device().is_some()
                && (e.track.pid >= PID_SIM_BASE) == sim
        })
        .map(|e| e.name)
        .collect()
}

#[test]
fn sim_and_runtime_lanes_share_op_names() {
    let workers = 2;
    let m = mlp(&MlpConfig { batch: 16, dims: vec![32, 32], classes: 16, with_updates: true })
        .unwrap();
    let (sharded, shard_feeds) = shard(&m.graph, workers);

    let obs = Collector::new();
    simulate_traced(
        &sharded.graph,
        &sharded.device_of_node,
        &sharded.device_of_tensor,
        &Machine::p2_8xlarge(),
        Some(&obs),
    );
    let opts = RunOptions { collector: Some(obs.clone()), ..Default::default() };
    run_with_options(&sharded, &shard_feeds, &opts).unwrap();

    for d in 0..workers {
        let measured = op_names(&obs, Track::runtime(d));
        let predicted = op_names(&obs, Track::sim(d));
        assert!(!measured.is_empty(), "device {d}: runtime lane recorded no op spans");
        assert_eq!(
            measured, predicted,
            "device {d}: measured and predicted lanes must use identical op names"
        );
    }

    // Both sides report traffic with the same per-link counter names, so the
    // byte timelines overlay too.
    let measured_links = link_counter_names(&obs, false);
    let predicted_links = link_counter_names(&obs, true);
    assert!(!measured_links.is_empty(), "multi-worker run must report link bytes");
    assert_eq!(measured_links, predicted_links);
}
