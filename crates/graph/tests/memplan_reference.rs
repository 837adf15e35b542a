//! The memory planner checked two ways. A plan checker, independent of the
//! planner, holds every plan to the rules a runtime arena relies on: on
//! random DAGs (whole schedules and per-device sub-schedules) and on every
//! worker schedule of the benchmark models — the LSTM, the decoder block at
//! seq 256 and 128, WResNet-50-1 and an MLP — at w = 1, 2, 4 and 8, with
//! buffer reuse on and off. On those benchmark schedules, the schedules the
//! runtime and `tofu_sim::per_device_memory` actually plan, the planner must
//! also never need more bytes than the online scan it replaced
//! (`memplan_reference/old_scan.rs`) or the buffer-per-record form of greedy
//! by size that came between (`memplan_reference/slots.rs`), both included
//! below.

use proptest::prelude::*;
use tofu_core::{generate, partition, GenOptions, PartitionOptions};
use tofu_graph::{lookup, plan_buffers, Attrs, BufferPlan, Graph, NodeId, TensorId};
use tofu_models::{
    decoder_block, mlp, rnn, wresnet, BuiltModel, DecoderConfig, MlpConfig, RnnConfig,
    WResNetConfig,
};
use tofu_tensor::{Shape, SplitMix64};

#[path = "memplan_reference/old_scan.rs"]
mod old_scan;
#[path = "memplan_reference/slots.rs"]
mod slots;

/// Plans `schedule` and asserts that the plan is valid, each locally
/// produced tensor dying at its last local read or the local position
/// aligned with its last remote consumer, whichever is later:
/// - at every position, the byte ranges `offset..offset + bytes` of the
///   tensors live there are pairwise disjoint; an in-place output counts
///   from the position after its handover, where its input still lives;
/// - an output is in place only on an element-wise node, at the offset of
///   its first input, which dies right there and is no smaller; without
///   reuse nothing is in place and no two tensors share a byte at all;
/// - `peak_transient_bytes` is the largest `offset + bytes`;
/// - `live_peak_bytes` is the most bytes live at one position, an in-place
///   pair counted once, and the peak is at least that.
fn check_plan(g: &Graph, schedule: &[NodeId], reuse: bool) -> BufferPlan {
    let bp = plan_buffers(g, schedule, reuse);
    let what = format!("{} positions, reuse {reuse}", schedule.len());
    let n = schedule.len();
    let bytes = |t: TensorId| g.tensor(t).shape.bytes();
    assert_eq!(bp.placements.len(), n, "{what}: one placement per position");

    let mut made_at: Vec<Option<usize>> = vec![None; g.num_tensors()];
    for (pos, &id) in schedule.iter().enumerate() {
        made_at[g.node(id).output.0] = Some(pos);
    }
    let mut death = made_at.clone();
    for id in g.node_ids() {
        // The first local position at or after the consumer, else the last.
        let local = schedule.partition_point(|s| s.0 < id.0).min(n.saturating_sub(1));
        for &t in &g.node(id).inputs {
            if let Some(d) = death[t.0].as_mut() {
                *d = (*d).max(local);
            }
        }
    }

    // Per position: the bytes `lo..hi` its output holds over positions
    // `from..=to` (empty when an in-place output dies at its handover).
    let mut held: Vec<(u64, u64, usize, usize)> = Vec::with_capacity(n);
    for (pos, (&id, p)) in schedule.iter().zip(&bp.placements).enumerate() {
        let node = g.node(id);
        let (out, need) = (node.output, bytes(node.output));
        let at = format!("{what}: position {pos} ({p:?})");
        if p.in_place {
            let elementwise = lookup(&node.op).is_ok_and(|d| d.category.is_elementwise());
            assert!(reuse && elementwise, "{at}: not an in-place operator");
            let input = node.inputs[0];
            let def = made_at[input.0].unwrap_or_else(|| panic!("{at}: input not made here"));
            assert_eq!(p.offset, bp.placements[def].offset, "{at}: not at its input's offset");
            assert!(death[input.0] == Some(pos) && bytes(input) >= need, "{at}: illegal handover");
        }
        held.push((p.offset, p.offset + need, pos + usize::from(p.in_place), death[out.0].unwrap()));
    }
    // Two tensors whose bytes meet are never live at one position.
    let mut by_offset: Vec<usize> = (0..n).collect();
    by_offset.sort_by_key(|&i| held[i].0);
    for (k, &i) in by_offset.iter().enumerate() {
        let (_, hi, from, to) = held[i];
        for &j in by_offset[k + 1..].iter().take_while(|&&j| held[j].0 < hi) {
            let apart = held[j].2 > to || held[j].3 < from || held[j].0 == held[j].1;
            assert!(
                apart,
                "{what}: positions {i} {:?} and {j} {:?} share bytes while both live",
                held[i],
                held[j]
            );
        }
    }
    if !reuse {
        assert!(bp.placements.iter().all(|p| !p.in_place), "{what}: in place without reuse");
        for w in by_offset.windows(2) {
            assert!(held[w[0]].1 <= held[w[1]].0, "{what}: two records share a byte");
        }
    }
    let end = held.iter().map(|h| h.1).max().unwrap_or(0);
    assert_eq!(bp.mem.peak_transient_bytes, end, "{what}: peak is the largest end");

    let live_at = |p: usize| -> u64 {
        held.iter().filter(|&&(_, _, from, to)| from <= p && p <= to).map(|h| h.1 - h.0).sum()
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
    let mut rng = SplitMix64::new(seed.wrapping_add(0x9e3779b97f4a7c15));
    let mut g = Graph::new();
    let mut tensors: Vec<TensorId> = Vec::new();
    for i in 0..1 + rng.below(4) {
        let shape = Shape::new(vec![16 * (1 + rng.below(4) as usize)]);
        tensors.push(if i % 2 == 1 {
            g.add_weight(&format!("w{i}"), shape)
        } else {
            g.add_input(&format!("x{i}"), shape)
        });
    }
    let mut device = Vec::new();
    for i in 0..1 + rng.below(47) {
        let x = tensors[rng.below(tensors.len() as u64) as usize];
        let len = g.tensor(x).shape.dim(0) as i64;
        let step = 16 * rng.below(3) as i64;
        let name = format!("n{i}");
        let out = match rng.below(5) {
            0 => g.add_op("relu", &name, &[x], Attrs::new()),
            1 => g.add_op("tanh", &name, &[x], Attrs::new()),
            2 => {
                // The first tensor of x's size from a random start.
                let from = rng.below(tensors.len() as u64) as usize;
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
        device.push(rng.below(3) as usize);
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
fn every_benchmark_worker_schedule_gets_a_valid_plan_no_larger_than_the_old_ones() {
    let mut schedules = 0;
    for (name, m) in models() {
        for workers in [1, 2, 4, 8] {
            let plan = partition(&m.graph, &PartitionOptions { workers, ..Default::default() })
                .unwrap_or_else(|e| panic!("{name} w={workers}: {e}"));
            let sharded = generate(&m.graph, &plan, &GenOptions::default()).unwrap();
            // The largest arena and the largest live bound among the workers.
            let (mut arena, mut bound) = (0, 0);
            for w in 0..workers {
                let schedule = sharded.worker_schedule(w);
                for reuse in [true, false] {
                    let at = format!("{name} w={workers} worker {w} reuse {reuse}");
                    let mem = check_plan(&sharded.graph, &schedule, reuse).mem;
                    let new = mem.total_bytes();
                    let scan = old_scan::total_bytes(&sharded.graph, &schedule, reuse);
                    assert!(new <= scan, "{at}: {new} B > {scan} B of the online scan");
                    let slots = slots::total_bytes(&sharded.graph, &schedule, reuse);
                    assert!(new <= slots, "{at}: {new} B > {slots} B of a buffer per record");
                    if reuse {
                        arena = arena.max(mem.peak_transient_bytes);
                        bound = bound.max(mem.live_peak_bytes);
                    }
                    if reuse && name == "mlp" {
                        assert_eq!(mem.peak_transient_bytes, mem.live_peak_bytes, "{at}: arena");
                    }
                    schedules += 1;
                }
            }
            // The LSTM's last worker stays 1 KiB / 512 B / 256 B above its own
            // bound at w = 2 / 4 / 8, below the largest device's arena.
            if name == "mlp" || name == "lstm" {
                assert_eq!(arena, bound, "{name} w={workers}: the largest arena");
            }
        }
    }
    assert_eq!(schedules, 5 * (1 + 2 + 4 + 8) * 2);
}
