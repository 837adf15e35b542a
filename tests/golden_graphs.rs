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
//! `multi_fetch`; the whole file takes ≈4 s unoptimised.

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

#[test]
fn mlp_graphs_are_identical_to_the_recorded_ones() {
    let g = mlp(&MlpConfig { batch: 32, dims: vec![64, 128, 96], classes: 16, with_updates: true })
        .unwrap()
        .graph;
    assert_graphs(
        &g,
        &[
            (2, 0xa0953bb67aa9a458, 0x752aed590011a292),
            (8, 0x3011686cb3eb5ec5, 0xc4f28a1b7c87e3d4),
        ],
    );
}

#[test]
fn lstm_graphs_are_identical_to_the_recorded_ones() {
    let g = rnn(&RnnConfig {
        layers: 2,
        hidden: 64,
        batch: 8,
        steps: 20,
        embed: 32,
        vocab: 32,
        with_updates: true,
    })
    .unwrap()
    .graph;
    assert_graphs(
        &g,
        &[
            (2, 0xe5dfa657dafc12b5, 0x3e04a10a8b295b82),
            (8, 0x8d2d43ccad5b07e9, 0x84955b6cda3e8c38),
        ],
    );
}

#[test]
fn decoder_graphs_are_identical_to_the_recorded_ones() {
    let g = decoder_block(&DecoderConfig {
        seq: 128,
        d_model: 256,
        heads: 8,
        d_ff: 1024,
        classes: 64,
        with_updates: true,
    })
    .unwrap()
    .graph;
    assert_graphs(
        &g,
        &[
            (2, 0x4ad2145384f54c5c, 0xf9f77d7ca6ba1cb0),
            (8, 0x832c4f99a2e57b13, 0x046fdf4d124cfa5e),
        ],
    );
}

#[test]
fn wresnet_graphs_are_identical_to_the_recorded_ones() {
    let g = wresnet(&WResNetConfig {
        layers: 50,
        width: 1,
        batch: 8,
        image: 16,
        classes: 8,
        with_updates: true,
    })
    .unwrap()
    .graph;
    assert_graphs(
        &g,
        &[
            (2, 0xb03f5c1976b691c1, 0x3e26af57e5b8191a),
            (8, 0xac85c8e4d5e7bca8, 0x368595eb589ab5f2),
        ],
    );
}
