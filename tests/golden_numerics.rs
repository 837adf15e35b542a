//! Golden *value* hashes: every tensor `Executor::run` returns, bit for bit.
//!
//! The other suites compare a sharded run to the single-device run with a
//! tolerance, and steps to each other, so nothing there would notice every
//! kernel drifting together. Each value below is `fnv1a64` over the
//! little-endian `to_bits()` of every returned tensor in `TensorId` order,
//! recorded with the `i-p-j` axpy matmul loops that preceded the tiled GEMM
//! (PR 21): a change to any of them is a change to some kernel's f32
//! operation order, not a refactor. Sharded graphs cover `genplan`'s
//! fetch → slice → concat chains and the runtime's operand shapes.
//!
//! The two full-size models take 33 s and 79 s unoptimised, so a debug
//! `cargo test` ignores them and `scripts/check.sh` runs this file with
//! `--release` (7 s); the small ones run in both profiles, which also pins
//! that optimisation level does not change a bit.

use tofu::core::{generate, partition, GenOptions, PartitionOptions};
use tofu::durable::fnv1a64;
use tofu::graph::{Executor, Graph, TensorId, TensorKind};
use tofu::models::{
    decoder_block, mlp, rnn, wresnet, DecoderConfig, MlpConfig, RnnConfig, WResNetConfig,
};
use tofu::tensor::Tensor;

fn feeds(g: &Graph) -> Vec<(TensorId, Tensor)> {
    g.tensor_ids()
        .filter(|&t| g.tensor(t).kind != TensorKind::Intermediate)
        .map(|t| {
            let meta = g.tensor(t);
            let v = if meta.name.starts_with("labels") {
                let data = (0..meta.shape.volume()).map(|i| (i % 3) as f32).collect();
                Tensor::from_vec(meta.shape.clone(), data).unwrap()
            } else {
                Tensor::random(meta.shape.clone(), t.0 as u64 + 11, 0.05)
            };
            (t, v)
        })
        .collect()
}

fn run_hash(g: &Graph, feeds: impl IntoIterator<Item = (TensorId, Tensor)>) -> u64 {
    let mut exec = Executor::new();
    for (t, v) in feeds {
        exec.feed(t, v);
    }
    let values = exec.run(g).expect("run");
    // Sized up front: WResNet's values are ≈300 MB and a growing Vec would
    // briefly hold them twice over.
    let mut bytes = Vec::with_capacity(values.values().map(|t| 4 * t.data().len()).sum());
    for t in values.values() {
        bytes.extend(t.data().iter().flat_map(|v| v.to_bits().to_le_bytes()));
    }
    fnv1a64(&bytes)
}

/// Hashes the single-device run (`workers == 1`) or the generated graph's.
fn assert_values(g: &Graph, workers: usize, hash: u64) {
    if std::env::var_os("TOFU_SEED").is_some() {
        return; // the recorded streams are the unshifted ones
    }
    let got = if workers == 1 {
        run_hash(g, feeds(g))
    } else {
        let plan = partition(g, &PartitionOptions { workers, ..Default::default() }).unwrap();
        let sharded = generate(g, &plan, &GenOptions::default()).unwrap();
        let shard_feeds =
            feeds(g).into_iter().flat_map(|(t, v)| sharded.scatter(t, &v).expect("scatter"));
        run_hash(&sharded.graph, shard_feeds.collect::<Vec<_>>())
    };
    assert_eq!(got, hash, "values changed at w={workers}: got {got:016x}");
}

fn decoder(seq: usize, d_model: usize, heads: usize, d_ff: usize, classes: usize) -> Graph {
    decoder_block(&DecoderConfig { seq, d_model, heads, d_ff, classes, with_updates: true })
        .unwrap()
        .graph
}

#[test]
#[cfg_attr(debug_assertions, ignore = "33 s unoptimised; scripts/check.sh runs it with --release")]
fn decoder_values_are_bit_identical_to_the_recorded_ones() {
    let g = decoder(256, 256, 8, 1024, 64);
    for (workers, hash) in
        [(1, 0xbc187a3a2f431f31), (2, 0xd722b5a420fc6c68), (8, 0x4dfd0c38f430c67a)]
    {
        assert_values(&g, workers, hash);
    }
}

#[test]
fn decoder_with_no_extent_a_multiple_of_four() {
    assert_values(&decoder(37, 66, 6, 130, 7), 1, 0x3b6018d733465496);
}

#[test]
fn lstm_values_are_bit_identical_to_the_recorded_ones() {
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
    assert_values(&g, 1, 0x4a2bda41a298e11a);
    assert_values(&g, 2, 0xca4cc23f425e384c);
}

#[test]
fn mlp_with_odd_extents() {
    let g = mlp(&MlpConfig { batch: 17, dims: vec![33, 65, 31], classes: 9, with_updates: true })
        .unwrap()
        .graph;
    assert_values(&g, 1, 0x4f1dbc7d8954bb33);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "79 s unoptimised; scripts/check.sh runs it with --release")]
fn wresnet_values_are_bit_identical_to_the_recorded_ones() {
    let g = wresnet(&WResNetConfig {
        layers: 50,
        width: 1,
        batch: 4,
        image: 16,
        classes: 8,
        with_updates: true,
    })
    .unwrap()
    .graph;
    assert_values(&g, 1, 0xebc190c3370a75c1);
    assert_values(&g, 2, 0xcf1a21e6998b895e);
}
