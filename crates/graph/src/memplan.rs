//! Static memory planning (the §6 "leveraging the existing memory planner"
//! substrate).
//!
//! Like MXNet's planner, buffers are assigned by a greedy liveness scan over
//! a serial schedule: an intermediate tensor's buffer becomes free after its
//! last consumer and can then be reused by a later allocation. The partition
//! pass inserts extra control dependencies precisely so that each worker's
//! sub-schedule stays serial and this reuse keeps working (§6, Fig. 7); the
//! `reuse` flag models the ablation where those dependencies are missing and
//! no cross-operator reuse is safe.
//!
//! **The placement rule.** At each schedule position the output takes over
//! its first input's buffer in place when the operator runs in place and
//! that input dies right there; otherwise it reuses the smallest free buffer
//! that fits, else grows the largest free buffer, else allocates a fresh
//! one. Ties between equal-size free buffers go to the lowest slot id.
//!
//! **Why the tie rule cannot change a number.** Every decision reads buffer
//! *sizes* only — which free size fits, which is largest, whether the dying
//! input's buffer is big enough — never a slot id. By induction over schedule
//! positions, the multiset of free sizes and the size of the buffer holding
//! each live tensor are the same under any tie rule, so the `MemPlan`, every
//! action's kind and `grown_by`, `dead_after`, `persistent` and the multiset
//! of slot sizes are too. Only slot labels depend on the rule, and the one
//! reader of labels, the runtime's `BufferPool`, replays the same plan.
//!
//! **Cost.** Near-linear in the graph: per-tensor state lives in dense
//! vectors, releases come from `dead_after` (no scan over live buffers), the
//! in-place test is one lookup, and free buffers sit in a set ordered by
//! `(bytes, slot)`, so a pick is a logarithmic range query. The runtime plans
//! every worker on every attempt, so this is paid per training step.

use std::collections::BTreeSet;

use crate::graph::{Graph, NodeId, TensorId, TensorKind};

/// Result of planning one device's memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemPlan {
    /// Peak bytes of transient (intermediate) buffers.
    pub peak_transient_bytes: u64,
    /// Bytes of persistent tensors (inputs and weights).
    pub persistent_bytes: u64,
    /// Number of physical buffers allocated (≤ number of intermediates when
    /// reuse succeeds).
    pub buffers_allocated: usize,
}

impl MemPlan {
    /// Total peak memory: persistent plus transient peak.
    pub fn total_bytes(&self) -> u64 {
        self.peak_transient_bytes + self.persistent_bytes
    }
}

/// How a scheduled node's output obtains a physical buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotAction {
    /// The output takes over the first input's buffer in place (the input's
    /// liveness ends exactly at this node and the buffer is large enough).
    InPlace {
        /// Slot taken over.
        slot: usize,
    },
    /// A freed buffer is reassigned; `grown_by` is the extra bytes the
    /// planner had to add when the slot was smaller than the output.
    Reuse {
        /// Slot reassigned.
        slot: usize,
        /// Bytes the slot grew by (0 for an exact or oversized fit).
        grown_by: u64,
    },
    /// A fresh physical buffer is allocated.
    Alloc {
        /// Newly created slot.
        slot: usize,
    },
}

impl SlotAction {
    /// The slot this action places the output into.
    pub fn slot(&self) -> usize {
        match *self {
            SlotAction::InPlace { slot }
            | SlotAction::Reuse { slot, .. }
            | SlotAction::Alloc { slot } => slot,
        }
    }
}

/// The full buffer assignment of one device's serial sub-schedule: the
/// physical slots, the per-node placement actions and the liveness events a
/// runtime needs to replay the plan against real allocations (the §6
/// "leverage the existing memory planner" contract made explicit).
#[derive(Debug, Clone)]
pub struct BufferPlan {
    /// The summary numbers.
    pub mem: MemPlan,
    /// Final byte size of every physical buffer slot.
    pub slot_bytes: Vec<u64>,
    /// Per schedule position: how that node's output is placed.
    pub actions: Vec<SlotAction>,
    /// Per schedule position: locally-produced tensors whose liveness ends
    /// right after the node at that position runs. The greedy scan frees
    /// slots at exactly these positions, including deaths that coincide with
    /// an in-place takeover.
    pub dead_after: Vec<Vec<TensorId>>,
    /// Inputs/weights resident on this device for the whole run (consumed by
    /// a non-fetch node of the schedule).
    pub persistent: Vec<TensorId>,
}

/// True when MXNet would run this operator in place: same-shape
/// element-wise math, gradient aggregation and optimizer updates.
fn is_inplace_capable(g: &Graph, id: NodeId) -> bool {
    crate::registry::lookup(&g.node(id).op).is_ok_and(|def| def.category.is_elementwise())
}

/// Plans memory for a sub-schedule (e.g. one worker's nodes of a partitioned
/// graph) and returns the full buffer assignment: every placement decision
/// and liveness event, so a runtime can seed a real pool from the static
/// plan. The placement rule and its tie-break are in the module docs.
///
/// Only tensors produced by scheduled nodes count as transient; persistent
/// bytes cover inputs/weights this device *owns* (consumed by a non-fetch
/// node of the schedule — a `multi_fetch` of a remote tensor only
/// materializes the fetched piece, which is the fetch node's own output).
/// A tensor produced here but consumed by other devices stays live until
/// the local step at which its last remote consumer has run (the §6
/// behavior: the buffer is released once the remote fetch completed).
pub fn plan_buffers(g: &Graph, schedule: &[NodeId], reuse: bool) -> BufferPlan {
    // Per tensor: the schedule position producing it here, if any.
    let mut def_pos: Vec<Option<usize>> = vec![None; g.num_tensors()];
    for (pos, &id) in schedule.iter().enumerate() {
        def_pos[g.node(id).output.0] = Some(pos);
    }

    // Global last-consumer index of every tensor (one pass over the graph).
    let mut global_last: Vec<usize> = vec![0; g.num_tensors()];
    for id in g.node_ids() {
        for &t in &g.node(id).inputs {
            global_last[t.0] = global_last[t.0].max(id.0);
        }
    }
    // Map a global node index to the local schedule position at (or after)
    // which it has certainly happened. Schedule ids ascend by construction.
    let global_ids: Vec<usize> = schedule.iter().map(|n| n.0).collect();
    let to_local = |global: usize| -> usize {
        match global_ids.binary_search(&global) {
            Ok(p) => p,
            Err(p) => p.min(schedule.len().saturating_sub(1)),
        }
    };
    // Per locally produced tensor: the position after which it dies — its
    // last local read, extended to the local step aligned with its last
    // remote consumer. Positions ascend, so the last write is the maximum.
    let mut last_use: Vec<usize> = vec![0; g.num_tensors()];
    for (pos, &id) in schedule.iter().enumerate() {
        for &t in &g.node(id).inputs {
            last_use[t.0] = pos;
        }
    }
    for (pos, &id) in schedule.iter().enumerate() {
        let t = g.node(id).output;
        last_use[t.0] = last_use[t.0].max(to_local(global_last[t.0]).max(pos));
    }
    // Exact death positions, in tensor id order within a position; the
    // release phase below frees slots at exactly these steps.
    let mut dead_after: Vec<Vec<TensorId>> = vec![Vec::new(); schedule.len()];
    for (t, def) in def_pos.iter().enumerate() {
        if def.is_some() {
            dead_after[last_use[t]].push(TensorId(t));
        }
    }

    // Persistent bytes: inputs/weights consumed by non-fetch nodes of the
    // schedule (i.e. resident on this device), in first-read order.
    let mut persistent_bytes = 0u64;
    let mut persistent: Vec<TensorId> = Vec::new();
    let mut resident = vec![false; g.num_tensors()];
    for &id in schedule {
        let node = g.node(id);
        if node.op == "multi_fetch" {
            continue;
        }
        for &t in &node.inputs {
            let meta = g.tensor(t);
            let external = meta.kind != TensorKind::Intermediate;
            if external && def_pos[t.0].is_none() && !resident[t.0] {
                resident[t.0] = true;
                persistent.push(t);
                persistent_bytes += meta.shape.bytes();
            }
        }
    }

    // Greedy buffer reuse over the serial schedule. Physical buffers carry
    // stable slot ids so the recorded actions can be replayed.
    let mut slot_bytes: Vec<u64> = Vec::new(); // by slot id, current size
    let mut free: BTreeSet<(u64, usize)> = BTreeSet::new(); // (bytes, slot) of unassigned slots
    let mut slot_of: Vec<Option<usize>> = vec![None; g.num_tensors()]; // slot of each live tensor
    let mut actions: Vec<SlotAction> = Vec::with_capacity(schedule.len());
    let mut current = 0u64;
    let mut peak = 0u64;
    let mut allocated = 0usize;

    for (pos, &id) in schedule.iter().enumerate() {
        let node = g.node(id);
        let out = node.output;
        let need = g.tensor(out).shape.bytes();
        // In-place execution (MXNet marks element-wise operators in-place):
        // when the first input's buffer dies at this very node, the output
        // takes it over without any new allocation.
        let in_place = match node.inputs.first() {
            Some(&t) if reuse && last_use[t.0] == pos => slot_of[t.0]
                .filter(|&slot| slot_bytes[slot] >= need && is_inplace_capable(g, id))
                .map(|slot| (t, slot)),
            _ => None,
        };
        let slot = if let Some((t, slot)) = in_place {
            slot_of[t.0] = None;
            actions.push(SlotAction::InPlace { slot });
            slot
        } else {
            // Reuse a free buffer when one exists. MXNet's planner assigns
            // buffers offline with full liveness knowledge, so it can resize
            // assignments freely; model that by growing an undersized free
            // buffer instead of allocating a disjoint one (the pool's
            // high-water mark then tracks the true live-byte peak, not
            // fragmentation). The smallest fit first, else the largest; the
            // lowest slot id among equal sizes either way.
            let pick = free.range((need, 0)..).next().or_else(|| {
                let &(largest, _) = free.last()?;
                free.range((largest, 0)..).next()
            });
            match pick.copied() {
                Some(key @ (size, slot)) => {
                    free.remove(&key);
                    let grown_by = need.saturating_sub(size);
                    if grown_by > 0 {
                        current += grown_by;
                        peak = peak.max(current);
                        slot_bytes[slot] = need;
                    }
                    actions.push(SlotAction::Reuse { slot, grown_by });
                    slot
                }
                None => {
                    let slot = slot_bytes.len();
                    slot_bytes.push(need);
                    allocated += 1;
                    current += need;
                    peak = peak.max(current);
                    actions.push(SlotAction::Alloc { slot });
                    slot
                }
            }
        };
        slot_of[out.0] = Some(slot);

        // Release buffers whose last consumer just ran — at every position,
        // including in-place takeovers, so a tensor dying alongside a
        // takeover frees its slot at the exact step `dead_after` records
        // (the input taken over has already handed its slot on). Without
        // reuse the planner cannot reclaim at all — this models the missing
        // control dependencies of Fig. 7, where ops of the partitioned graph
        // have no ordering that would make reclamation safe.
        if reuse {
            for &t in &dead_after[pos] {
                if let Some(slot) = slot_of[t.0].take() {
                    free.insert((slot_bytes[slot], slot));
                }
            }
        }
    }

    let mem =
        MemPlan { peak_transient_bytes: peak, persistent_bytes, buffers_allocated: allocated };
    BufferPlan { mem, slot_bytes, actions, dead_after, persistent }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::Attrs;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tofu_tensor::Shape;

    /// The summary numbers of the whole graph planned in insertion order.
    fn plan_whole(g: &Graph, reuse: bool) -> MemPlan {
        plan_buffers(g, &g.node_ids().collect::<Vec<_>>(), reuse).mem
    }

    /// A chain of n element-wise ops over a 1 KiB tensor.
    fn chain(n: usize) -> Graph {
        let mut g = Graph::new();
        let mut t = g.add_input("x", Shape::new(vec![256]));
        for i in 0..n {
            t = g.add_op("relu", &format!("r{i}"), &[t], Attrs::new()).unwrap();
        }
        g
    }

    #[test]
    fn chain_runs_in_place_with_one_buffer() {
        // Element-wise chains execute in place (as MXNet marks them): after
        // the first allocation every step reuses the same buffer.
        let g = chain(10);
        let plan = plan_whole(&g, true);
        assert_eq!(plan.buffers_allocated, 1, "allocated {}", plan.buffers_allocated);
        assert_eq!(plan.peak_transient_bytes, 1024);
        assert_eq!(plan.persistent_bytes, 1024);
    }

    #[test]
    fn no_reuse_allocates_per_node() {
        let g = chain(10);
        let plan = plan_whole(&g, false);
        assert_eq!(plan.buffers_allocated, 10);
        // Without reuse every transient stays live: 10 x 1 KiB.
        assert_eq!(plan.peak_transient_bytes, 10 * 1024);
        let with_reuse = plan_whole(&g, true);
        assert!(plan.peak_transient_bytes > with_reuse.peak_transient_bytes);
    }

    #[test]
    fn fan_out_keeps_source_live() {
        // x -> a, x -> b, (a, b) -> c: x stays live until both consumers ran.
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![256]));
        let a = g.add_op("relu", "a", &[x], Attrs::new()).unwrap();
        let b = g.add_op("tanh", "b", &[x], Attrs::new()).unwrap();
        let _c = g.add_op("add", "c", &[a, b], Attrs::new()).unwrap();
        let plan = plan_whole(&g, true);
        // a and b live at once; the add runs in place on a's buffer.
        assert_eq!(plan.peak_transient_bytes, 2 * 1024);
    }

    #[test]
    fn weights_count_as_persistent() {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![4, 8]));
        let w = g.add_weight("w", Shape::new(vec![8, 2]));
        let _y = g.add_op("matmul", "mm", &[x, w], Attrs::new()).unwrap();
        let plan = plan_whole(&g, true);
        assert_eq!(plan.persistent_bytes, (4 * 8 + 8 * 2) * 4);
        assert_eq!(plan.peak_transient_bytes, 4 * 2 * 4);
    }

    #[test]
    fn total_adds_up() {
        let g = chain(3);
        let p = plan_whole(&g, true);
        assert_eq!(p.total_bytes(), p.peak_transient_bytes + p.persistent_bytes);
    }

    #[test]
    fn buffer_plan_matches_summary_and_replays() {
        let g = chain(6);
        let schedule: Vec<NodeId> = g.node_ids().collect();
        let bp = plan_buffers(&g, &schedule, true);
        assert_eq!(bp.actions.len(), schedule.len());
        assert_eq!(bp.slot_bytes.len(), bp.mem.buffers_allocated);
        // Replay the actions against a byte counter: the high-water mark must
        // reproduce the planner's peak exactly.
        let (mut cur, mut peak) = (0u64, 0u64);
        for (pos, a) in bp.actions.iter().enumerate() {
            match *a {
                SlotAction::InPlace { .. } => {}
                SlotAction::Reuse { grown_by, .. } => {
                    cur += grown_by;
                    peak = peak.max(cur);
                }
                SlotAction::Alloc { .. } => {
                    cur += g.tensor(g.node(schedule[pos]).output).shape.bytes();
                    peak = peak.max(cur);
                }
            }
        }
        assert_eq!(peak, bp.mem.peak_transient_bytes);
        // An element-wise chain runs in place: one slot, rest in-place.
        assert_eq!(bp.slot_bytes, vec![1024]);
        assert!(bp.actions[1..].iter().all(|a| matches!(a, SlotAction::InPlace { .. })));
    }

    #[test]
    fn buffer_plan_records_liveness_deaths() {
        // x -> a, x -> b, (a, b) -> c: `a` dies in place at c, `b` dies after c.
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![256]));
        let a = g.add_op("relu", "a", &[x], Attrs::new()).unwrap();
        let b = g.add_op("tanh", "b", &[x], Attrs::new()).unwrap();
        let _c = g.add_op("add", "c", &[a, b], Attrs::new()).unwrap();
        let schedule: Vec<NodeId> = g.node_ids().collect();
        let bp = plan_buffers(&g, &schedule, true);
        assert_eq!(bp.persistent, vec![x]);
        let last = schedule.len() - 1;
        assert!(bp.dead_after[last].contains(&a));
        assert!(bp.dead_after[last].contains(&b));
    }

    #[test]
    fn death_coinciding_with_inplace_takeover_frees_at_exact_step() {
        // x -> a (relu), x -> b (tanh), c = add(a, b): c takes over a's slot
        // in place while b dies at the same step. d = relu(x) right after
        // must be able to reuse b's slot — freeing it one step late forced a
        // third allocation here.
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![256]));
        let a = g.add_op("relu", "a", &[x], Attrs::new()).unwrap();
        let b = g.add_op("tanh", "b", &[x], Attrs::new()).unwrap();
        let _c = g.add_op("add", "c", &[a, b], Attrs::new()).unwrap();
        let _d = g.add_op("relu", "d", &[x], Attrs::new()).unwrap();
        let schedule: Vec<NodeId> = g.node_ids().collect();
        let bp = plan_buffers(&g, &schedule, true);
        // dead_after is exact at the in-place position: both a (taken over)
        // and b (released) die when c runs (position 2).
        assert!(bp.dead_after[2].contains(&a));
        assert!(bp.dead_after[2].contains(&b));
        assert!(matches!(bp.actions[2], SlotAction::InPlace { .. }));
        // d reuses b's freed slot instead of allocating a third buffer.
        assert!(matches!(bp.actions[3], SlotAction::Reuse { grown_by: 0, .. }), "{:?}", bp.actions[3]);
        assert_eq!(bp.mem.buffers_allocated, 2);
        assert_eq!(bp.mem.peak_transient_bytes, 2 * 1024);
    }

    #[test]
    fn sub_schedule_scopes_to_workers_nodes() {
        let g = chain(4);
        let first_two: Vec<NodeId> = g.node_ids().take(2).collect();
        let plan = plan_buffers(&g, &first_two, true).mem;
        // r0 allocates; r1 runs in place. But r1's output feeds r2, which is
        // outside this schedule, so it must stay live: peak is one buffer
        // (the in-place takeover keeps a single physical buffer).
        assert_eq!(plan.peak_transient_bytes, 1024);
    }

    /// Attributes padding axis 0 with `after` trailing elements.
    fn pad(after: i64) -> Attrs {
        Attrs::new().with_int("axis", 0).with_int("before", 0).with_int("after", after)
    }

    /// x -> a (relu), x -> b (tanh), c = matmul(a, b): a and b die together
    /// at c, which cannot run in place, so two free 1 KiB slots (0 and 1)
    /// are left for the node `last` builds from x.
    fn two_free_slots(last: impl Fn(&mut Graph, TensorId)) -> BufferPlan {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![16, 16]));
        let a = g.add_op("relu", "a", &[x], Attrs::new()).unwrap();
        let b = g.add_op("tanh", "b", &[x], Attrs::new()).unwrap();
        let c = g.add_op("matmul", "c", &[a, b], Attrs::new()).unwrap();
        last(&mut g, x);
        // Keep c live past the last node, so its slot never joins the tie.
        let _keep = g.add_op("relu", "keep", &[c], Attrs::new()).unwrap();
        let schedule: Vec<NodeId> = g.node_ids().collect();
        let bp = plan_buffers(&g, &schedule, true);
        assert_eq!(bp.actions[2], SlotAction::Alloc { slot: 2 });
        bp
    }

    #[test]
    fn equal_size_free_buffers_go_to_the_lowest_slot() {
        // The smallest fit: both free slots fit exactly.
        let fit = two_free_slots(|g, x| {
            g.add_op("tanh", "d", &[x], Attrs::new()).unwrap();
        });
        assert_eq!(fit.actions[3], SlotAction::Reuse { slot: 0, grown_by: 0 });
        // No fit: the largest grows, and both are largest.
        let grow = two_free_slots(|g, x| {
            g.add_op("pad", "d", &[x], pad(16)).unwrap();
        });
        assert_eq!(grow.actions[3], SlotAction::Reuse { slot: 0, grown_by: 1024 });
    }

    /// A random DAG of 1-D tensors (lengths multiples of 16 floats; inputs
    /// and weights as leaves): element-wise ops that can run in place, `add`
    /// of two equal-size tensors, and `pad` / `slice_axis` to change sizes,
    /// so free buffers both fit and need growing. Every op also draws one of
    /// three devices to run on.
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

        /// The planner and the scan it replaced agree on every size, for the
        /// whole schedule and for every device's sub-schedule (whose tensors
        /// with remote consumers stay live to the aligned local step).
        #[test]
        fn planner_matches_the_reference_scan(seed in 0u64..1_000_000) {
            let (g, device) = random_dag(seed);
            for reuse in [true, false] {
                let all: Vec<NodeId> = g.node_ids().collect();
                reference::assert_agrees(&g, &all, reuse);
                for d in 0..3 {
                    let schedule: Vec<NodeId> = g.node_ids().filter(|n| device[n.0] == d).collect();
                    reference::assert_agrees(&g, &schedule, reuse);
                }
            }
        }
    }
}
