//! Golden *value* hashes: every tensor `Executor::run` returns, bit for bit.
//!
//! The other suites compare a sharded run to the single-device run with a
//! tolerance, and steps to each other, so nothing there would notice every
//! kernel drifting together. Each value below is `fnv1a64` over the
//! little-endian `to_bits()` of every returned tensor in `TensorId` order,
//! recorded with the `i-p-j` axpy matmul loops that preceded the tiled GEMM
//! (PR 21): a change to any of them is a change to some kernel's f32
//! operation order, not a refactor. Sharded graphs cover `genplan`'s
//! `multi_fetch` assemblies and fused spread reductions, and the runtime's
//! operand shapes. A sharded row pins two hashes: every tensor of the
//! generated graph, which moves whenever `generate` adds or drops a node,
//! and every original tensor gathered from its shards, which moves only
//! with a value of the original step. The gathered hashes were recorded
//! while each spread reduction was still a gather per reduce-peer class
//! plus a combiner, and held unedited when it became one fused fetch and
//! when a worker began to read the gate slices and padded convolutions of
//! its own shard in place; the whole-graph hashes were re-recorded each
//! time (the second time only the LSTM's and WResNet's: a dropped copy
//! drops its value).
//!
//! The two full-size models take 33 s and 79 s unoptimised, so a debug
//! `cargo test` ignores them and `scripts/check.sh` runs this file with
//! `--release` (7 s); the small ones run in both profiles, which also pins
//! that optimisation level does not change a bit.

use std::collections::BTreeMap;

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

fn run(
    g: &Graph,
    feeds: impl IntoIterator<Item = (TensorId, Tensor)>,
) -> BTreeMap<TensorId, Tensor> {
    let mut exec = Executor::new();
    for (t, v) in feeds {
        exec.feed(t, v);
    }
    exec.run(g).expect("run")
}

/// `fnv1a64` over the little-endian bits of `tensors`, in order.
fn hash<'a>(tensors: impl Iterator<Item = &'a Tensor> + Clone) -> u64 {
    // Sized up front: WResNet's values are ≈300 MB and a growing Vec would
    // briefly hold them twice over.
    let mut bytes = Vec::with_capacity(tensors.clone().map(|t| 4 * t.data().len()).sum());
    for t in tensors {
        bytes.extend(t.data().iter().flat_map(|v| v.to_bits().to_le_bytes()));
    }
    fnv1a64(&bytes)
}

/// Hashes the single-device run.
fn assert_values(g: &Graph, expect: u64) {
    if std::env::var_os("TOFU_SEED").is_some() {
        return; // the recorded streams are the unshifted ones
    }
    let got = hash(run(g, feeds(g)).values());
    assert_eq!(got, expect, "values changed at w=1: got {got:016x}");
}

/// Hashes the run of the graph generated for `workers`: every tensor of the
/// generated graph (`graph`), and every original tensor gathered from its
/// shards (`gathered`). The first moves with any node `generate` adds or
/// drops; the second only with a value of the original step.
fn assert_sharded_values(g: &Graph, workers: usize, graph: u64, gathered: u64) {
    if std::env::var_os("TOFU_SEED").is_some() {
        return;
    }
    let plan = partition(g, &PartitionOptions { workers, ..Default::default() }).unwrap();
    let sharded = generate(g, &plan, &GenOptions::default()).unwrap();
    let shard_feeds =
        feeds(g).into_iter().flat_map(|(t, v)| sharded.scatter(t, &v).expect("scatter"));
    let values = run(&sharded.graph, shard_feeds.collect::<Vec<_>>());
    let got = hash(values.values());
    let originals: Vec<Tensor> = g
        .tensor_ids()
        .map(|t| sharded.gather(t, &g.tensor(t).shape, &values).expect("gather"))
        .collect();
    drop(values);
    let got_gathered = hash(originals.iter());
    assert_eq!(
        (got, got_gathered),
        (graph, gathered),
        "values changed at w={workers}: got {got:016x}, gathered {got_gathered:016x}"
    );
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
    assert_values(&g, 0xbc187a3a2f431f31);
    assert_sharded_values(&g, 2, 0xc592f34c5e2aebe9, 0x78836f1aafa70023);
    assert_sharded_values(&g, 8, 0xb3284ba5f9b19f4d, 0x10512dd256966e7f);
}

#[test]
fn decoder_with_no_extent_a_multiple_of_four() {
    assert_values(&decoder(37, 66, 6, 130, 7), 0x3b6018d733465496);
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
    assert_values(&g, 0x4a2bda41a298e11a);
    assert_sharded_values(&g, 2, 0xd9b36c7570952550, 0x4e292a3100957ed3);
}

#[test]
fn mlp_with_odd_extents() {
    let g = mlp(&MlpConfig { batch: 17, dims: vec![33, 65, 31], classes: 9, with_updates: true })
        .unwrap()
        .graph;
    assert_values(&g, 0x4f1dbc7d8954bb33);
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
    assert_values(&g, 0xebc190c3370a75c1);
    assert_sharded_values(&g, 2, 0x90941b937ec99e13, 0x4dcac61727a84522);
}
