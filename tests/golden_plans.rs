//! Golden plan hashes at *default* options, where the beam binds (WResNet,
//! LSTM) or bounded enumeration fires (WResNet, LSTM), on the bench models the
//! fuzz-sized differential suites do not reach. Each value is `fnv1a64` of
//! the canonical plan JSON, recorded before the DP transition was factored
//! (PR 19). The hashes pin tie-breaking for *both* engines: `partition`
//! and the reference `unoptimized_partition` must produce the same bytes
//! (the reference is asserted here for the LSTM and the seq-128 decoder;
//! `search_scaling` holds WResNet to it at release speed), so a change to
//! any of them is a change to the recurrence, not a cost-neutral refactor.

use tofu::core::{partition, unoptimized_partition, PartitionOptions, PartitionPlan, Result};
use tofu::durable::fnv1a64;
use tofu::graph::Graph;
use tofu::models::{decoder_block, rnn, wresnet, DecoderConfig, RnnConfig, WResNetConfig};
use tofu::serve::plan_to_json;

/// A whole search over one of the two engines, with its name.
type Engine = (&'static str, fn(&Graph, &PartitionOptions) -> Result<PartitionPlan>);

const OPTIMIZED: Engine = ("partition", partition);
const REFERENCE: Engine = ("unoptimized_partition", |g, opts| unoptimized_partition(g, opts, None));

fn assert_plan(g: &Graph, (name, engine): Engine, workers: usize, hash: u64, bytes: usize) {
    let plan = engine(g, &PartitionOptions { workers, ..Default::default() }).unwrap();
    let json = plan_to_json(&plan).to_json();
    assert_eq!(json.len(), bytes, "{name} plan JSON length changed at w={workers}");
    assert_eq!(
        fnv1a64(json.as_bytes()),
        hash,
        "{name} plan bytes changed at w={workers}: got {:016x}",
        fnv1a64(json.as_bytes())
    );
}

#[test]
fn wresnet_plans_are_byte_identical_to_the_recorded_ones() {
    let model = wresnet(&WResNetConfig {
        layers: 50,
        width: 1,
        batch: 8,
        image: 16,
        classes: 8,
        with_updates: true,
    })
    .unwrap();
    for (workers, hash, bytes) in [
        (2, 0xb2d29d88b65daba9, 45_768),
        (4, 0xadd20fe087785087, 89_801),
        (8, 0xdc67e831a1ae23d7, 133_737),
    ] {
        assert_plan(&model.graph, OPTIMIZED, workers, hash, bytes);
    }
}

#[test]
fn decoder_plans_are_byte_identical_to_the_recorded_ones() {
    for (seq, hash, bytes) in
        [(128, 0x9f1ee9de992279cc, 15_692), (512, 0xbb11756141aaad03, 15_774)]
    {
        let model = decoder_block(&DecoderConfig {
            seq,
            d_model: 256,
            heads: 8,
            d_ff: 1024,
            classes: 64,
            with_updates: true,
        })
        .unwrap();
        assert_plan(&model.graph, OPTIMIZED, 8, hash, bytes);
        if seq == 128 {
            assert_plan(&model.graph, REFERENCE, 8, hash, bytes);
        }
    }
}

#[test]
fn lstm_plan_is_byte_identical_to_the_recorded_one() {
    let model = rnn(&RnnConfig {
        layers: 2,
        hidden: 64,
        batch: 8,
        steps: 20,
        embed: 32,
        vocab: 32,
        with_updates: true,
    })
    .unwrap();
    for engine in [OPTIMIZED, REFERENCE] {
        assert_plan(&model.graph, engine, 2, 0x9bece6ea77b4cf5d, 97_177);
    }
    // The LSTM's merged timestep classes touch the most bundles of any
    // bench model; these two widths were recorded before the optimized
    // engine's class costs moved into one table per cut.
    for (workers, hash, bytes) in
        [(4, 0xe9213c345746135e, 190_238), (8, 0xb45c1ee608b58930, 283_279)]
    {
        assert_plan(&model.graph, OPTIMIZED, workers, hash, bytes);
    }
}
