//! The `peak_device_bytes` of the repo benchmark's four configurations,
//! pinned: the largest `per_device_memory` over the eight GPUs of the
//! paper's machine, buffer reuse on, one optimizer history copy per weight
//! (`benchmark/src/workloads.rs::peak_device_bytes`). A planner change that
//! raises one fails here, not only in the ledger diff.

use tofu_core::{generate, partition, GenOptions, PartitionOptions};
use tofu_models::{
    decoder_block, rnn, wresnet, BuiltModel, DecoderConfig, RnnConfig, WResNetConfig,
};
use tofu_sim::{per_device_memory, Machine};

fn decoder(seq: usize) -> BuiltModel {
    let cfg = DecoderConfig { seq, d_model: 256, heads: 8, d_ff: 1024, classes: 64, with_updates: true };
    decoder_block(&cfg).unwrap()
}

/// Largest device peak of `m` partitioned over `workers`.
fn peak(m: &BuiltModel, workers: usize) -> u64 {
    let plan = partition(&m.graph, &PartitionOptions { workers, ..Default::default() }).unwrap();
    let sharded = generate(&m.graph, &plan, &GenOptions::default()).unwrap();
    let gpus = Machine::p2_8xlarge().gpus;
    let mems = per_device_memory(&sharded.graph, &sharded.device_of_node, gpus, true, 1.0);
    mems.iter().map(|m| m.peak_bytes).max().unwrap()
}

#[test]
fn step_comm_lstm_at_two_workers() {
    let cfg = RnnConfig {
        layers: 2,
        hidden: 64,
        batch: 8,
        steps: 20,
        embed: 32,
        vocab: 32,
        with_updates: true,
    };
    assert_eq!(peak(&rnn(&cfg).unwrap(), 2), 685_380);
}

#[test]
fn step_compute_decoder_256_at_two_workers() {
    assert_eq!(peak(&decoder(256), 2), 8_629_760);
}

#[test]
fn serve_miss_decoder_128_at_eight_workers() {
    assert_eq!(peak(&decoder(128), 8), 1_551_168);
}

#[test]
fn plan_cold_and_serve_hit_wresnet_50_1_at_eight_workers() {
    let cfg = WResNetConfig {
        layers: 50,
        width: 1,
        batch: 8,
        image: 16,
        classes: 8,
        with_updates: true,
    };
    assert_eq!(peak(&wresnet(&cfg).unwrap(), 8), 36_688_964);
}
