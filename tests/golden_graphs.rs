//! Golden *structure* hashes of the generated multi-worker graph.
//!
//! `golden_numerics` pins the values a sharded graph computes and the
//! ledgers pin its counts; this file pins the graph `generate` emits. Each
//! value is `fnv1a64` over a canonical text of the whole `ShardedGraph`:
//! every node (op, name, attributes, inputs, output, control dependencies,
//! tags) with its device and origin, every tensor (name, shape, kind,
//! gradient link) with its owner, then `shards`, `regions` and `exact`.
//! `Debug` prints every `f64` attribute exactly, so a hash moves with any
//! emitted byte: a change here is a change to generation, not a refactor.
//! Hashes recorded when each spread reduction became one fused
//! `multi_fetch`, the LSTM's and WResNet's again when a worker began to read
//! the gate slices and padded convolutions of its own shard in place; the
//! whole file takes ≈6 s unoptimised.

use std::fmt::Write;

use tofu::core::{generate, partition, GenOptions, PartitionOptions, ShardedGraph};
use tofu::durable::fnv1a64;
use tofu::graph::Graph;
use tofu::models::{
    decoder_block, mlp, rnn, wresnet, DecoderConfig, MlpConfig, RnnConfig, WResNetConfig,
};

fn structure_hash(s: &ShardedGraph) -> u64 {
    let g = &s.graph;
    let mut text = String::new();
    for id in g.node_ids() {
        let (device, origin) = (s.device_of_node[id.0], s.origin_of_node[id.0]);
        writeln!(text, "{:?} @{device} <{origin:?}", g.node(id)).unwrap();
    }
    for t in g.tensor_ids() {
        writeln!(text, "{:?} @{:?}", g.tensor(t), s.device_of_tensor[t.0]).unwrap();
    }
    writeln!(text, "{:?}\n{:?}\n{}", s.shards, s.regions, s.exact).unwrap();
    fnv1a64(text.as_bytes())
}

/// Partitions `g` once per width and checks the graph generated with
/// control dependencies on and off against `(workers, on, off)`.
fn assert_graphs(g: &Graph, expect: &[(usize, u64, u64)]) {
    for &(workers, on, off) in expect {
        let plan = partition(g, &PartitionOptions { workers, ..Default::default() }).unwrap();
        for (control_deps, hash) in [(true, on), (false, off)] {
            let sharded = generate(g, &plan, &GenOptions { control_deps }).unwrap();
            let got = structure_hash(&sharded);
            assert_eq!(
                got, hash,
                "graph changed at w={workers}, control_deps={control_deps}: got {got:#018x}"
            );
        }
    }
}

/// The MLP of these tests.
fn mlp_graph() -> Graph {
    mlp(&MlpConfig { batch: 32, dims: vec![64, 128, 96], classes: 16, with_updates: true })
        .unwrap()
        .graph
}

/// The benchmark's `step_comm` LSTM.
fn lstm_graph() -> Graph {
    rnn(&RnnConfig {
        layers: 2,
        hidden: 64,
        batch: 8,
        steps: 20,
        embed: 32,
        vocab: 32,
        with_updates: true,
    })
    .unwrap()
    .graph
}

/// A decoder block (sequence 128).
fn decoder_graph() -> Graph {
    decoder_block(&DecoderConfig {
        seq: 128,
        d_model: 256,
        heads: 8,
        d_ff: 1024,
        classes: 64,
        with_updates: true,
    })
    .unwrap()
    .graph
}

/// WResNet-50-1 as `plan_cold` builds it.
fn wresnet_graph() -> Graph {
    wresnet(&WResNetConfig {
        layers: 50,
        width: 1,
        batch: 8,
        image: 16,
        classes: 8,
        with_updates: true,
    })
    .unwrap()
    .graph
}

#[test]
fn mlp_graphs_are_identical_to_the_recorded_ones() {
    assert_graphs(
        &mlp_graph(),
        &[
            (2, 0xa0953bb67aa9a458, 0x752aed590011a292),
            (8, 0x3011686cb3eb5ec5, 0xc4f28a1b7c87e3d4),
        ],
    );
}

#[test]
fn lstm_graphs_are_identical_to_the_recorded_ones() {
    assert_graphs(
        &lstm_graph(),
        &[
            (2, 0x4b28b4c0ca9f4b43, 0xd01bd34c70d15b76),
            (8, 0x2f7469f4488fef29, 0xc3ae28d9ef23ece8),
        ],
    );
}

#[test]
fn decoder_graphs_are_identical_to_the_recorded_ones() {
    assert_graphs(
        &decoder_graph(),
        &[
            (2, 0x4ad2145384f54c5c, 0xf9f77d7ca6ba1cb0),
            (8, 0x832c4f99a2e57b13, 0x046fdf4d124cfa5e),
        ],
    );
}

#[test]
fn wresnet_graphs_are_identical_to_the_recorded_ones() {
    assert_graphs(
        &wresnet_graph(),
        &[
            (2, 0x36f6c08e560515dc, 0x598afb2466b2d583),
            (8, 0x6223f006a4897849, 0x5e53acb1dc487631),
        ],
    );
}

/// `generate` copies only what a worker cannot read in place. At w=1 it
/// emits the original nodes and nothing else, except WResNet-50-1's three
/// `conv2d_bwd_filter` prefix reads (left as copies: the simulator rates
/// reading the whole shard slower); at w=2 and w=8 the `multi_fetch` nodes
/// that read no remote input are pinned per model.
#[test]
fn a_worker_copies_only_what_it_cannot_read_in_place() {
    for (model, g, at_1, local) in [
        ("mlp", mlp_graph(), 0, [0, 0]),
        ("lstm", lstm_graph(), 0, [0, 0]),
        ("decoder", decoder_graph(), 0, [0, 0]),
        ("wresnet", wresnet_graph(), 3, [6, 24]),
    ] {
        for (workers, expect) in [(1, at_1), (2, local[0]), (8, local[1])] {
            let plan = partition(&g, &PartitionOptions { workers, ..Default::default() }).unwrap();
            let s = generate(&g, &plan, &GenOptions::default()).unwrap();
            let local: Vec<_> = s
                .graph
                .node_ids()
                .filter(|&n| s.graph.node(n).op == "multi_fetch")
                .filter(|&n| {
                    let on = Some(s.device_of_node[n.0]);
                    s.graph.node(n).inputs.iter().all(|t| s.device_of_tensor[t.0] == on)
                })
                .collect();
            if workers == 1 {
                assert_eq!(s.graph.num_nodes(), g.num_nodes() + expect, "{model}");
                for n in &local {
                    assert_eq!(g.node(s.origin_of_node[n.0]).op, "conv2d_bwd_filter", "{model}");
                }
            }
            assert_eq!(local.len(), expect, "{model} at w={workers}");
        }
    }
}
