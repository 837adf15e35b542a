//! The memory planner checked two ways. A plan checker, independent of the
//! planner, holds every plan to the rules a runtime pool relies on: on
//! random DAGs (whole schedules and per-device sub-schedules) and on every
//! worker schedule of the benchmark models — the LSTM, the decoder block at
//! seq 256 and 128, WResNet-50-1 and an MLP — at w = 1, 2, 4 and 8, with
//! buffer reuse on and off. On those benchmark schedules, the schedules the
//! runtime and `tofu_sim::per_device_memory` actually plan, the planner must
//! also never need more bytes than the online scan it replaced
//! (`memplan_reference/old_scan.rs`, included below).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tofu_core::{generate, partition, GenOptions, PartitionOptions};
use tofu_graph::{lookup, plan_buffers, Attrs, BufferPlan, Graph, NodeId, SlotAction, TensorId};
use tofu_models::{
    decoder_block, mlp, rnn, wresnet, BuiltModel, DecoderConfig, MlpConfig, RnnConfig,
    WResNetConfig,
};
use tofu_tensor::Shape;

#[path = "memplan_reference/old_scan.rs"]
mod old_scan;

/// Plans `schedule` and asserts that the plan is valid, each locally
/// produced tensor dying at its last local read or the local position
/// aligned with its last remote consumer, whichever is later:
/// - slots are allocated in id order, and every output fits its slot;
/// - tensors sharing a slot have disjoint lifetimes, except where an
///   element-wise node's output takes over its dying, no smaller first
///   input in place; without reuse no slot is shared at all;
/// - replaying the actions reproduces `slot_bytes` (each slot is as large as
///   its largest tensor), and `peak_transient_bytes` is their sum;
/// - `live_peak_bytes` is the most bytes live at one position, an in-place
///   pair counted once, and the peak is at least that.
fn check_plan(g: &Graph, schedule: &[NodeId], reuse: bool) -> BufferPlan {
    let bp = plan_buffers(g, schedule, reuse);
    let what = format!("{} positions, reuse {reuse}", schedule.len());
    let n = schedule.len();
    let bytes = |t: TensorId| g.tensor(t).shape.bytes();
    assert_eq!(bp.actions.len(), n, "{what}: one action per position");

    let mut death: Vec<Option<usize>> = vec![None; g.num_tensors()];
    for (pos, &id) in schedule.iter().enumerate() {
        death[g.node(id).output.0] = Some(pos);
    }
    for id in g.node_ids() {
        // The first local position at or after the consumer, else the last.
        let local = schedule.partition_point(|s| s.0 < id.0).min(n.saturating_sub(1));
        for &t in &g.node(id).inputs {
            if let Some(d) = death[t.0].as_mut() {
                *d = (*d).max(local);
            }
        }
    }

    // Per slot: the latest tensor placed and the position it dies at.
    let mut occupant: Vec<(TensorId, usize)> = Vec::new();
    let mut widest: Vec<u64> = Vec::new();
    let mut counted_from: Vec<(usize, usize, u64)> = Vec::new(); // (from, death, bytes)
    for (pos, (&id, &action)) in schedule.iter().zip(&bp.actions).enumerate() {
        let node = g.node(id);
        let (out, need) = (node.output, bytes(node.output));
        let slot = action.slot();
        let at = format!("{what}: position {pos} ({action:?})");
        assert!(need <= bp.slot_bytes[slot], "{at}: {need} B do not fit the slot");
        match action {
            SlotAction::Alloc { .. } => {
                assert_eq!(slot, occupant.len(), "{at}: slots allocate in id order");
                occupant.push((out, 0));
                widest.push(0);
            }
            SlotAction::InPlace { .. } => {
                let (held, dies) = occupant[slot];
                let elementwise = lookup(&node.op).is_ok_and(|d| d.category.is_elementwise());
                assert!(reuse && elementwise, "{at}: not an in-place operator");
                assert_eq!(node.inputs.first(), Some(&held), "{at}: takes over another tensor");
                assert!(dies == pos && bytes(held) >= need, "{at}: illegal handover");
            }
            SlotAction::Reuse { .. } => {
                assert!(reuse && occupant[slot].1 < pos, "{at}: the slot is still live");
            }
        }
        let dies = if reuse { death[out.0].unwrap() } else { usize::MAX };
        occupant[slot] = (out, dies);
        widest[slot] = widest[slot].max(need);
        let in_place = matches!(action, SlotAction::InPlace { .. });
        counted_from.push((pos + usize::from(in_place), death[out.0].unwrap(), need));
    }
    assert_eq!(widest, bp.slot_bytes, "{what}: replayed slot sizes");
    assert_eq!(bp.mem.peak_transient_bytes, bp.slot_bytes.iter().sum::<u64>(), "{what}: peak");

    let live_at = |p: usize| -> u64 {
        counted_from.iter().filter(|&&(from, d, _)| from <= p && p <= d).map(|c| c.2).sum()
    };
    let live_peak = (0..n).map(live_at).max().unwrap_or(0);
    assert_eq!(bp.mem.live_peak_bytes, live_peak, "{what}: live bytes");
    assert!(bp.mem.peak_transient_bytes >= live_peak, "{what}: peak below the live bytes");
    let persistent: u64 = bp.persistent.iter().map(|&t| bytes(t)).sum();
    assert_eq!(bp.mem.persistent_bytes, persistent, "{what}: persistent bytes");
    bp
}

/// Attributes padding axis 0 with `after` trailing elements.
fn pad(after: i64) -> Attrs {
    Attrs::new().with_int("axis", 0).with_int("before", 0).with_int("after", after)
}

/// A random DAG of 1-D tensors (lengths multiples of 16 floats; inputs and
/// weights as leaves): element-wise ops that can run in place, `add` of two
/// equal-size tensors, and `pad` / `slice_axis` to change sizes, so records
/// of many sizes share buffers. Every op also draws one of three devices to
/// run on.
fn random_dag(seed: u64) -> (Graph, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new();
    let mut tensors: Vec<TensorId> = Vec::new();
    for i in 0..rng.gen_range(1..5usize) {
        let shape = Shape::new(vec![16 * rng.gen_range(1..5usize)]);
        tensors.push(if i % 2 == 1 {
            g.add_weight(&format!("w{i}"), shape)
        } else {
            g.add_input(&format!("x{i}"), shape)
        });
    }
    let mut device = Vec::new();
    for i in 0..rng.gen_range(1..48usize) {
        let x = tensors[rng.gen_range(0..tensors.len())];
        let len = g.tensor(x).shape.dim(0) as i64;
        let step = 16 * rng.gen_range(0..3i64);
        let name = format!("n{i}");
        let out = match rng.gen_range(0..5u32) {
            0 => g.add_op("relu", &name, &[x], Attrs::new()),
            1 => g.add_op("tanh", &name, &[x], Attrs::new()),
            2 => {
                // The first tensor of x's size from a random start.
                let from = rng.gen_range(0..tensors.len());
                let y = (0..tensors.len())
                    .map(|j| tensors[(from + j) % tensors.len()])
                    .find(|&y| g.tensor(y).shape == g.tensor(x).shape)
                    .unwrap_or(x);
                g.add_op("add", &name, &[x, y], Attrs::new())
            }
            3 => g.add_op("pad", &name, &[x], pad(step)),
            _ => {
                let end = (len - step).max(16);
                let attrs = Attrs::new().with_int("axis", 0).with_int("begin", 0);
                g.add_op("slice_axis", &name, &[x], attrs.with_int("end", end))
            }
        };
        tensors.push(out.unwrap());
        device.push(rng.gen_range(0..3usize));
    }
    (g, device)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Valid plans for the whole schedule and for every device's
    /// sub-schedule (whose tensors with remote consumers stay live to the
    /// aligned local step).
    #[test]
    fn random_dag_plans_are_valid(seed in 0u64..1_000_000) {
        let (g, device) = random_dag(seed);
        for reuse in [true, false] {
            check_plan(&g, &g.node_ids().collect::<Vec<_>>(), reuse);
            for d in 0..3 {
                let schedule: Vec<NodeId> = g.node_ids().filter(|n| device[n.0] == d).collect();
                check_plan(&g, &schedule, reuse);
            }
        }
    }
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
fn every_benchmark_worker_schedule_gets_a_valid_plan_no_larger_than_the_old_scan() {
    let mut schedules = 0;
    for (name, m) in models() {
        for workers in [1, 2, 4, 8] {
            let plan = partition(&m.graph, &PartitionOptions { workers, ..Default::default() })
                .unwrap_or_else(|e| panic!("{name} w={workers}: {e}"));
            let sharded = generate(&m.graph, &plan, &GenOptions::default()).unwrap();
            for w in 0..workers {
                let schedule = sharded.worker_schedule(w);
                for reuse in [true, false] {
                    let new = check_plan(&sharded.graph, &schedule, reuse).mem.total_bytes();
                    let old = old_scan::total_bytes(&sharded.graph, &schedule, reuse);
                    assert!(new <= old, "{name} w={workers} worker {w} reuse {reuse}: {new} > {old} B");
                    schedules += 1;
                }
            }
        }
    }
    assert_eq!(schedules, 5 * (1 + 2 + 4 + 8) * 2);
}
