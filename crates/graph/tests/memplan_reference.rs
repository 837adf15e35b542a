//! The memory planner against the scan it replaced (`src/memplan/reference.rs`,
//! included below) on every worker schedule of the benchmark models — the
//! LSTM, the decoder block at seq 256 and 128, WResNet-50-1 and an MLP — at
//! w = 1, 2, 4 and 8, with buffer reuse on and off. `memplan`'s unit
//! proptest runs the same comparison on random DAGs; these are the schedules
//! the runtime and `tofu_sim::per_device_memory` actually plan.

use tofu_core::{generate, partition, GenOptions, PartitionOptions};
use tofu_graph::{
    lookup, plan_buffers, BufferPlan, Graph, MemPlan, NodeId, SlotAction, TensorId, TensorKind,
};
use tofu_models::{
    decoder_block, mlp, rnn, wresnet, BuiltModel, DecoderConfig, MlpConfig, RnnConfig,
    WResNetConfig,
};

#[path = "../src/memplan/reference.rs"]
mod reference;

/// The planner's in-place predicate, private to `memplan`, for the
/// reference to call.
fn is_inplace_capable(g: &Graph, id: NodeId) -> bool {
    lookup(&g.node(id).op).is_ok_and(|def| def.category.is_elementwise())
}

fn decoder(seq: usize) -> BuiltModel {
    decoder_block(&DecoderConfig {
        seq,
        d_model: 256,
        heads: 8,
        d_ff: 1024,
        classes: 64,
        with_updates: true,
    })
    .unwrap()
}

fn models() -> Vec<(&'static str, BuiltModel)> {
    vec![
        (
            "lstm",
            rnn(&RnnConfig {
                layers: 2,
                hidden: 64,
                batch: 8,
                steps: 20,
                embed: 32,
                vocab: 32,
                with_updates: true,
            })
            .unwrap(),
        ),
        ("decoder seq 256", decoder(256)),
        ("decoder seq 128", decoder(128)),
        (
            "wresnet-50-1",
            wresnet(&WResNetConfig {
                layers: 50,
                width: 1,
                batch: 8,
                image: 16,
                classes: 8,
                with_updates: true,
            })
            .unwrap(),
        ),
        (
            "mlp",
            mlp(&MlpConfig { batch: 64, dims: vec![256, 256], classes: 64, with_updates: true })
                .unwrap(),
        ),
    ]
}

#[test]
fn planner_matches_the_reference_on_every_benchmark_worker_schedule() {
    let mut schedules = 0;
    for (name, m) in models() {
        for workers in [1, 2, 4, 8] {
            let plan = partition(&m.graph, &PartitionOptions { workers, ..Default::default() })
                .unwrap_or_else(|e| panic!("{name} w={workers}: {e}"));
            let sharded = generate(&m.graph, &plan, &GenOptions::default()).unwrap();
            for w in 0..workers {
                let schedule = sharded.worker_schedule(w);
                for reuse in [true, false] {
                    reference::assert_agrees(&sharded.graph, &schedule, reuse);
                    schedules += 1;
                }
            }
        }
    }
    assert_eq!(schedules, 5 * (1 + 2 + 4 + 8) * 2);
}
