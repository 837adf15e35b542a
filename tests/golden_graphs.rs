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
//! Hashes recorded before `generate` read its regions from
//! `tofu_tdl::access_regions`; the whole file takes ≈4 s unoptimised.

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
            (2, 0xa44d74d08eba1551, 0x977b52c818951310),
            (8, 0xf495561a3f7b5236, 0x85d9e22532626e70),
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
            (2, 0x87a49d260cf822f7, 0x51ad911856519200),
            (8, 0xd0ae5f86e94a5087, 0x89ccebbaba4ea82d),
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
            (2, 0x05bb210a65fee3d3, 0xd6bd0caf0fa66872),
            (8, 0x454f6ba51ddd3931, 0xa59a304c9171eac8),
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
            (2, 0xc2998c15f9fc0a46, 0x52b6f703b953b638),
            (8, 0x86297908ff4f16f0, 0x14a497d95b6f6ccc),
        ],
    );
}
