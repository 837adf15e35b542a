//! Static memory planning (the §6 "leveraging the existing memory planner"
//! substrate).
//!
//! Buffers are assigned offline over a serial schedule, with full liveness
//! knowledge: an intermediate tensor's buffer becomes free after its last
//! consumer and can then hold a later tensor. The partition pass inserts
//! extra control dependencies precisely so that each worker's sub-schedule
//! stays serial and this reuse keeps working (§6, Fig. 7); the `reuse` flag
//! models the ablation where those dependencies are missing and no
//! cross-operator reuse is safe, so every output gets a buffer of its own.
//!
//! **The placement rule** is greedy by size (Pisarchyk & Lee, "Efficient
//! Memory Management for Deep Neural Net Inference", 2020), in three passes:
//!
//! 1. *Records.* An output joins its first input's record — the node runs in
//!    place — when the operator runs in place, that input was produced on
//!    this schedule and dies at this node, and it has at least the output's
//!    bytes. Otherwise the output opens a record. A record lives over the
//!    closed interval from its first definition to its last tensor's death;
//!    its size is its largest tensor, the first.
//! 2. *Assignment.* Records are taken by `(bytes descending, interval
//!    length descending, first position ascending)`. Each goes into the
//!    first buffer, in creation order, whose intervals it does not overlap,
//!    else into a new buffer of its size. Sizes descend, so no buffer ever
//!    grows. Among equal sizes the longest-lived record goes first, so
//!    short records fill the holes long ones leave; by first position
//!    alone, the MLP's one-worker schedule needed 3.3 % more bytes than the
//!    online scan this planner replaced.
//! 3. *Slots.* Buffers are numbered in the order the schedule first uses
//!    them, so a runtime pool reserves slots in id order.
//!
//! **Why the plan is deterministic.** Every record opens at its own schedule
//! position, so no two records share a sort key: the order is total, and the
//! plan depends on the graph and the schedule alone.
//!
//! **Liveness.** A tensor produced here dies after the local step aligned
//! with its last reader on any device (the first local position at or after
//! that reader, else the last), or at its own position if nothing reads it.
//! The graph records each tensor's last reader as nodes are inserted, so a
//! plan never visits a node outside its schedule.
//!
//! **Cost.** One binary search per scheduled node for liveness, one sort of
//! the records, and per record a scan of the earlier buffers until one is
//! free over its interval. Each buffer keeps a bitset of the positions it is
//! busy at, so a record of a few positions tests a buffer with one or two
//! word reads.

use std::cmp::Reverse;

use crate::graph::{Graph, NodeId, TensorId, TensorKind};

/// Result of planning one device's memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemPlan {
    /// Peak bytes of transient (intermediate) buffers: the sum of the slot
    /// sizes.
    pub peak_transient_bytes: u64,
    /// The most transient bytes live at one schedule position, an in-place
    /// input and its output counted once: the lower bound on
    /// `peak_transient_bytes` that fragmentation stands above.
    pub live_peak_bytes: u64,
    /// Bytes of persistent tensors (inputs and weights).
    pub persistent_bytes: u64,
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
    /// liveness ends exactly at this node and it is at least as large).
    InPlace {
        /// Slot taken over.
        slot: usize,
    },
    /// A slot whose earlier tensors are all dead is reassigned.
    Reuse {
        /// Slot reassigned.
        slot: usize,
    },
    /// A fresh physical buffer of the slot's planned size is allocated.
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
            | SlotAction::Reuse { slot }
            | SlotAction::Alloc { slot } => slot,
        }
    }
}

/// The full buffer assignment of one device's serial sub-schedule: the
/// physical slots and the per-node placement actions a runtime needs to
/// replay the plan against real allocations (the §6 "leverage the existing
/// memory planner" contract made explicit). Liveness is already in the
/// actions: a slot is reused only once every tensor it held is dead.
#[derive(Debug, Clone)]
pub struct BufferPlan {
    /// The summary numbers.
    pub mem: MemPlan,
    /// Byte size of every physical buffer slot, fixed from its allocation.
    pub slot_bytes: Vec<u64>,
    /// Per schedule position: how that node's output is placed.
    pub actions: Vec<SlotAction>,
    /// Inputs/weights resident on this device for the whole run (consumed by
    /// a non-fetch node of the schedule).
    pub persistent: Vec<TensorId>,
}

/// True when MXNet would run this operator in place: same-shape
/// element-wise math, gradient aggregation and optimizer updates.
fn is_inplace_capable(g: &Graph, id: NodeId) -> bool {
    crate::registry::lookup(&g.node(id).op).is_ok_and(|def| def.category.is_elementwise())
}

/// Tensors that share one buffer over one closed interval of schedule
/// positions: a tensor and the outputs that ran in place on it.
#[derive(Clone, Copy)]
struct Record {
    bytes: u64,
    first: usize,
    last: usize,
}

/// Plans memory for a sub-schedule (e.g. one worker's nodes of a partitioned
/// graph, in ascending node id order) and returns the full buffer
/// assignment: every placement decision, so a runtime can seed a real pool
/// from the static plan. The placement rule and its order are in the module
/// docs; the plan reads the graph only at the schedule's nodes and their
/// tensors, never the rest of it.
///
/// Only tensors produced by scheduled nodes count as transient; persistent
/// bytes cover inputs/weights this device *owns* (consumed by a non-fetch
/// node of the schedule — a `multi_fetch` of a remote tensor only
/// materializes the fetched piece, which is the fetch node's own output).
/// A tensor produced here but consumed by other devices stays live until
/// the local step at which its last remote consumer has run (the §6
/// behavior: the buffer is released once the remote fetch completed).
pub fn plan_buffers(g: &Graph, schedule: &[NodeId], reuse: bool) -> BufferPlan {
    // Per position: the position after which its output dies — the local
    // step aligned with the output's last reader on any device (the first
    // local position at or after it, else the last), or its own position
    // when nothing reads it. A local read is a reader too, and schedule ids
    // ascend by construction, so no local read comes later.
    let last_use: Vec<usize> = schedule
        .iter()
        .enumerate()
        .map(|(pos, &id)| match g.last_reader(g.node(id).output) {
            Some(r) => schedule.partition_point(|s| s.0 < r.0).min(schedule.len() - 1),
            None => pos,
        })
        .collect();

    // Persistent tensors: inputs/weights consumed by non-fetch nodes of the
    // schedule (i.e. resident on this device), in first-read order.
    let mut persistent: Vec<TensorId> = Vec::new();
    let mut resident = vec![false; g.num_tensors()];
    for &id in schedule {
        let node = g.node(id);
        if node.op == "multi_fetch" {
            continue;
        }
        for &t in &node.inputs {
            if g.tensor(t).kind != TensorKind::Intermediate && !resident[t.0] {
                resident[t.0] = true;
                persistent.push(t);
            }
        }
    }

    // Records, and per position the output's record and whether it runs in
    // place (MXNet marks element-wise operators in-place). Bytes live per
    // position go into `live_delta`; an in-place output starts counting
    // after its handover position, where its input still holds the buffer.
    let mut records: Vec<Record> = Vec::new();
    let mut placed: Vec<(usize, bool)> = Vec::with_capacity(schedule.len());
    let mut live_delta: Vec<i64> = vec![0; schedule.len() + 1];
    for (pos, &id) in schedule.iter().enumerate() {
        let node = g.node(id);
        let need = g.tensor(node.output).shape.bytes();
        // The first input, and its position here if a scheduled node made it.
        let first = node.inputs.first().copied();
        let def = first.and_then(|t| g.producer(t)).and_then(|p| schedule.binary_search(&p).ok());
        let joined = match (first, def) {
            (Some(t), Some(def)) if reuse && last_use[def] == pos => {
                (g.tensor(t).shape.bytes() >= need && is_inplace_capable(g, id))
                    .then_some(placed[def].0)
            }
            _ => None,
        };
        let r = joined.unwrap_or_else(|| {
            records.push(Record { bytes: need, first: pos, last: pos });
            records.len() - 1
        });
        records[r].last = records[r].last.max(last_use[pos]);
        placed.push((r, joined.is_some()));
        let from = pos + usize::from(joined.is_some());
        if from <= last_use[pos] {
            live_delta[from] += need as i64;
            live_delta[last_use[pos] + 1] -= need as i64;
        }
    }
    let live_peak_bytes = live_delta
        .iter()
        .scan(0i64, |live, &d| {
            *live += d;
            Some(*live as u64)
        })
        .max()
        .unwrap_or(0);

    // Greedy by size: largest (then longest-lived) record first, each into
    // the first buffer free over its interval. A buffer marks the positions
    // it is busy at in `words` bits of `busy`. Without reuse nothing is ever
    // reclaimed — the missing control dependencies of Fig. 7 leave the
    // partitioned graph's ops no order that would make it safe — so every
    // record is a buffer of its own.
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_unstable_by_key(|&r| {
        let Record { bytes, first, last } = records[r];
        (Reverse(bytes), Reverse(last - first), first)
    });
    let words = schedule.len() / 64 + 1;
    let mut busy: Vec<u64> = Vec::new();
    let mut buffer_bytes: Vec<u64> = Vec::new();
    let mut buffer_of: Vec<usize> = vec![0; records.len()];
    for r in order {
        let Record { bytes, first, last } = records[r];
        // The interval's positions within word `w` of a buffer's bitset.
        let span = first / 64..=last / 64;
        let mask = |w: usize| {
            let from = if w == first / 64 { first % 64 } else { 0 };
            let to = if w == last / 64 { last % 64 } else { 63 };
            (u64::MAX << from) & (u64::MAX >> (63 - to))
        };
        let free = |bits: &[u64]| span.clone().all(|w| bits[w] & mask(w) == 0);
        let b = match busy.chunks(words).position(free) {
            Some(b) => b,
            None => {
                if reuse {
                    busy.resize(busy.len() + words, 0);
                }
                buffer_bytes.push(bytes);
                buffer_bytes.len() - 1
            }
        };
        if reuse {
            for w in span {
                busy[b * words + w] |= mask(w);
            }
        }
        buffer_of[r] = b;
    }

    // Slots in first-use order, and each position's action.
    let mut slot_of_buffer: Vec<Option<usize>> = vec![None; buffer_bytes.len()];
    let mut slot_bytes: Vec<u64> = Vec::with_capacity(buffer_bytes.len());
    let actions: Vec<SlotAction> = placed
        .iter()
        .map(|&(r, in_place)| {
            let b = buffer_of[r];
            match slot_of_buffer[b] {
                Some(slot) if in_place => SlotAction::InPlace { slot },
                Some(slot) => SlotAction::Reuse { slot },
                None => {
                    let slot = slot_bytes.len();
                    slot_of_buffer[b] = Some(slot);
                    slot_bytes.push(buffer_bytes[b]);
                    SlotAction::Alloc { slot }
                }
            }
        })
        .collect();

    let mem = MemPlan {
        peak_transient_bytes: slot_bytes.iter().sum(),
        live_peak_bytes,
        persistent_bytes: persistent.iter().map(|&t| g.tensor(t).shape.bytes()).sum(),
    };
    BufferPlan { mem, slot_bytes, actions, persistent }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::Attrs;
    use tofu_tensor::Shape;
    use SlotAction::{Alloc, InPlace, Reuse};

    /// The whole graph planned in insertion order.
    fn plan_whole(g: &Graph, reuse: bool) -> BufferPlan {
        plan_buffers(g, &g.node_ids().collect::<Vec<_>>(), reuse)
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
        let bp = plan_whole(&g, true);
        assert_eq!(bp.slot_bytes, vec![1024]);
        let plan = bp.mem;
        assert_eq!(plan.peak_transient_bytes, 1024);
        assert_eq!(plan.live_peak_bytes, 1024, "an in-place pair counts once");
        assert_eq!(plan.persistent_bytes, 1024);
    }

    #[test]
    fn no_reuse_allocates_per_node() {
        let g = chain(10);
        let bp = plan_whole(&g, false);
        assert_eq!(bp.slot_bytes, vec![1024; 10]);
        let plan = bp.mem;
        // Without reuse every transient stays live: 10 x 1 KiB.
        assert_eq!(plan.peak_transient_bytes, 10 * 1024);
        // Only a node's input and its output are ever live together.
        assert_eq!(plan.live_peak_bytes, 2 * 1024);
        let with_reuse = plan_whole(&g, true).mem;
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
        let plan = plan_whole(&g, true).mem;
        // a and b live at once; the add runs in place on a's buffer.
        assert_eq!(plan.peak_transient_bytes, 2 * 1024);
        assert_eq!(plan.live_peak_bytes, 2 * 1024);
    }

    #[test]
    fn weights_count_as_persistent() {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![4, 8]));
        let w = g.add_weight("w", Shape::new(vec![8, 2]));
        let _y = g.add_op("matmul", "mm", &[x, w], Attrs::new()).unwrap();
        let plan = plan_whole(&g, true).mem;
        assert_eq!(plan.persistent_bytes, (4 * 8 + 8 * 2) * 4);
        assert_eq!(plan.peak_transient_bytes, 4 * 2 * 4);
    }

    #[test]
    fn total_adds_up() {
        let g = chain(3);
        let p = plan_whole(&g, true).mem;
        assert_eq!(p.total_bytes(), p.peak_transient_bytes + p.persistent_bytes);
    }

    #[test]
    fn buffer_plan_matches_summary_and_replays() {
        let g = chain(6);
        let bp = plan_whole(&g, true);
        assert_eq!(bp.actions.len(), g.num_nodes());
        // Only an allocation adds bytes, so the allocations reproduce the
        // planner's peak exactly.
        let peak: u64 = bp
            .actions
            .iter()
            .filter_map(|a| match *a {
                Alloc { slot } => Some(bp.slot_bytes[slot]),
                _ => None,
            })
            .sum();
        assert_eq!(peak, bp.mem.peak_transient_bytes);
        // An element-wise chain runs in place: one slot, rest in-place.
        assert_eq!(bp.slot_bytes, vec![1024]);
        assert!(bp.actions[1..].iter().all(|a| matches!(a, InPlace { .. })));
    }

    #[test]
    fn buffer_plan_records_liveness_deaths() {
        // x -> a, x -> b, (a, b) -> c: `a` dies in place at c, `b` dies
        // after c. Both live until c, so each holds a slot of its own, and c
        // takes over a's.
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![256]));
        let a = g.add_op("relu", "a", &[x], Attrs::new()).unwrap();
        let b = g.add_op("tanh", "b", &[x], Attrs::new()).unwrap();
        let _c = g.add_op("add", "c", &[a, b], Attrs::new()).unwrap();
        let bp = plan_whole(&g, true);
        assert_eq!(bp.persistent, vec![x]);
        assert_eq!(bp.slot_bytes, vec![1024, 1024]);
        assert_eq!(bp.actions, [Alloc { slot: 0 }, Alloc { slot: 1 }, InPlace { slot: 0 }]);
        assert_eq!(bp.mem.live_peak_bytes, 2 * 1024, "a and b live at c, c counted after");
    }

    #[test]
    fn death_coinciding_with_inplace_takeover_frees_at_exact_step() {
        // x -> a (relu), x -> b (tanh), c = add(a, b): c takes over a's slot
        // in place while b dies at the same step. d = relu(x) right after
        // must be able to reuse a slot freed there — freeing one a step late
        // would force a third allocation.
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![256]));
        let a = g.add_op("relu", "a", &[x], Attrs::new()).unwrap();
        let b = g.add_op("tanh", "b", &[x], Attrs::new()).unwrap();
        let _c = g.add_op("add", "c", &[a, b], Attrs::new()).unwrap();
        let _d = g.add_op("relu", "d", &[x], Attrs::new()).unwrap();
        let bp = plan_whole(&g, true);
        // Both a (taken over) and b (released) die when c runs (position 2):
        // c takes over a's slot in place, and d reuses a slot freed there
        // instead of allocating a third buffer.
        assert_eq!(
            bp.actions,
            [Alloc { slot: 0 }, Alloc { slot: 1 }, InPlace { slot: 0 }, Reuse { slot: 0 }]
        );
        assert_eq!(bp.slot_bytes, vec![1024, 1024]);
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

    #[test]
    fn a_remote_reader_keeps_a_tensor_live_to_its_aligned_step() {
        // Schedule a = relu(x), b = tanh(x), d = tanh(x); c = relu(a) runs
        // between b and d on another device. No local node reads a, but c
        // does, so a lives through d's step: d cannot reuse its buffer.
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![256]));
        let a = g.add_op("relu", "a", &[x], Attrs::new()).unwrap();
        g.add_op("tanh", "b", &[x], Attrs::new()).unwrap();
        g.add_op("relu", "c", &[a], Attrs::new()).unwrap();
        g.add_op("tanh", "d", &[x], Attrs::new()).unwrap();
        let schedule = [NodeId(0), NodeId(1), NodeId(3)];
        let bp = plan_buffers(&g, &schedule, true);
        assert_eq!(bp.slot_bytes, vec![1024, 1024], "a premature death gives one slot");
        assert_eq!(bp.actions, [Alloc { slot: 0 }, Alloc { slot: 1 }, Reuse { slot: 1 }]);
        assert_eq!(bp.mem.live_peak_bytes, 2 * 1024);
    }

    /// Attributes padding axis 0 with `after` trailing elements.
    fn pad(after: i64) -> Attrs {
        Attrs::new().with_int("axis", 0).with_int("before", 0).with_int("after", after)
    }

    #[test]
    fn a_slot_is_sized_for_its_largest_tensor_from_the_start() {
        // x -> a (relu), x -> b (tanh), c = matmul(a, b), d = pad(x) of
        // 2 KiB, keep = relu(c): a and b die at c, which cannot run in
        // place. d is placed first, being largest, and a fits before it in
        // the same buffer, so slot 0 is reserved at 2 KiB when a allocates
        // it and d reuses it without growing anything.
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![16, 16]));
        let a = g.add_op("relu", "a", &[x], Attrs::new()).unwrap();
        let b = g.add_op("tanh", "b", &[x], Attrs::new()).unwrap();
        let c = g.add_op("matmul", "c", &[a, b], Attrs::new()).unwrap();
        g.add_op("pad", "d", &[x], pad(16)).unwrap();
        g.add_op("relu", "keep", &[c], Attrs::new()).unwrap();
        let bp = plan_whole(&g, true);
        assert_eq!(bp.slot_bytes, vec![2048, 1024, 1024]);
        assert_eq!(
            bp.actions,
            vec![
                Alloc { slot: 0 },
                Alloc { slot: 1 },
                Alloc { slot: 2 },
                Reuse { slot: 0 },
                InPlace { slot: 2 },
            ]
        );
        assert_eq!(bp.mem.peak_transient_bytes, 4096);
        // Live at c: a, b and c; at d: c and d.
        assert_eq!(bp.mem.live_peak_bytes, 3072);
    }
}
