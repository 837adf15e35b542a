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
//! **The placement rule** is greedy by size in its offset form (Pisarchyk &
//! Lee, "Efficient Memory Management for Deep Neural Net Inference", 2020):
//! one arena per device, a byte offset per tensor. Two passes:
//!
//! 1. *Records.* An output joins its first input's record — the node runs in
//!    place — when the operator runs in place, that input was produced on
//!    this schedule and dies at this node, and it has at least the output's
//!    bytes. Otherwise the output opens a record. A record lives over the
//!    closed interval from its first definition to its last tensor's death;
//!    its size is its largest tensor, the first.
//! 2. *Offsets.* Records are taken by `(bytes descending, interval length
//!    descending, first position ascending)`. Each is placed in the
//!    smallest gap that fits it between the already placed records that
//!    overlap it in time, at the gap's lower offset; if none fits, at the
//!    highest end of those records (0 if there are none). The arena's size,
//!    the largest `offset + bytes`, is the transient peak. Among equal sizes
//!    the longest-lived record goes first, so short records fill the holes
//!    long ones leave.
//!
//! Unlike the *shared-objects* form this replaced, where a whole buffer
//! never held two smaller records live at once, a range freed by one large
//! record can hold several smaller ones side by side, so the peak sits at or
//! near `live_peak_bytes`, the bound below which no placement can go.
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
//! the records, and per record one walk, in offset order, over the placed
//! records near it in time. The schedule is cut into at most about 64 time
//! blocks, each with a bitset over the placed records' ranks in offset
//! order; OR-ing a record's blocks yields its candidates once each, about
//! 1.25 per record that truly overlaps it on WResNet-50-1 at w=8, where a
//! walk over every placed record visits about four.

use std::cmp::Reverse;

use crate::graph::{Graph, NodeId, TensorId, TensorKind};

/// Result of planning one device's memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemPlan {
    /// Peak bytes of transient (intermediate) buffers: the size of the
    /// arena, the largest `offset + bytes` of a placement.
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

/// Where a scheduled node's output lives in its device's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Byte offset of the output in the arena.
    pub offset: u64,
    /// The output takes over its first input's range in place: the input
    /// dies exactly at this node and is at least as large.
    pub in_place: bool,
}

/// The full buffer assignment of one device's serial sub-schedule: one
/// arena of `mem.peak_transient_bytes` and the offset of every node's output
/// in it, which a runtime replays against real allocations (the §6
/// "leverage the existing memory planner" contract made explicit). Liveness
/// is already in the offsets: two tensors share a byte only when their
/// lifetimes are disjoint, or at an in-place handover.
#[derive(Debug, Clone)]
pub struct BufferPlan {
    /// The summary numbers.
    pub mem: MemPlan,
    /// Per schedule position: where that node's output is placed.
    pub placements: Vec<Placement>,
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

    // Greedy by size: largest (then longest-lived) record first, each at
    // the best-fitting offset among the placed records it overlaps in time.
    // Without reuse nothing is ever reclaimed — the missing control
    // dependencies of Fig. 7 leave the partitioned graph's ops no order that
    // would make it safe — so every record is stacked above all others.
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_unstable_by_key(|&r| {
        let Record { bytes, first, last } = records[r];
        (Reverse(bytes), Reverse(last - first), first)
    });
    let mut offset: Vec<u64> = vec![0; records.len()];
    let mut index = Placed::new(schedule.len(), records.len());
    let mut arena = 0;
    for r in order {
        let at = if reuse {
            let at = index.best_fit(records[r]);
            index.insert(r, records[r], at);
            at
        } else {
            arena
        };
        offset[r] = at;
        arena = arena.max(at + records[r].bytes);
    }

    let placements =
        placed.iter().map(|&(r, in_place)| Placement { offset: offset[r], in_place }).collect();
    let mem = MemPlan {
        peak_transient_bytes: arena,
        live_peak_bytes,
        persistent_bytes: persistent.iter().map(|&t| g.tensor(t).shape.bytes()).sum(),
    };
    BufferPlan { mem, placements, persistent }
}

/// The placed records, in offset order and indexed by time: `by_offset`
/// lists them by offset, and the bitset of time block `b` marks the ranks in
/// `by_offset` of those whose intervals meet the block's positions
/// `b * block..(b + 1) * block`. OR-ing the bitsets of a window's blocks
/// yields every record placed near it in time once, already in offset
/// order.
struct Placed {
    /// Per record, once placed: its bytes `(offset, end)` and its interval
    /// `(first, last)`.
    spans: Vec<(u64, u64, usize, usize)>,
    by_offset: Vec<usize>,
    /// Positions per time block, so that there are at most about 64.
    block: usize,
    /// Words per bitset: one bit per record.
    words: usize,
    /// Block `b`'s bitset is `bits[b * words..(b + 1) * words]`.
    bits: Vec<u64>,
}

impl Placed {
    fn new(positions: usize, records: usize) -> Placed {
        let block = (positions / 64).max(64);
        let words = records / 64 + 1;
        let bits = vec![0; (positions / block + 1) * words];
        let spans = vec![(0, 0, 0, 0); records];
        Placed { spans, by_offset: Vec::with_capacity(records), block, words, bits }
    }

    /// The offset for `rec`: the lower end of the smallest gap that fits it
    /// between the placed records it overlaps in time, taken in ascending
    /// offset, else the highest end of those records (0 if there are none).
    fn best_fit(&self, rec: Record) -> u64 {
        let Record { bytes, first, last } = rec;
        let blocks = first / self.block..=last / self.block;
        let mut top = 0;
        let mut best: Option<(u64, u64)> = None; // (gap, offset)
        for w in 0..self.by_offset.len().div_ceil(64) {
            let mut word = blocks.clone().fold(0, |u, b| u | self.bits[b * self.words + w]);
            while word != 0 {
                let x = self.by_offset[w * 64 + word.trailing_zeros() as usize];
                word &= word - 1;
                let (lo, hi, from, to) = self.spans[x];
                if from > last || to < first {
                    continue;
                }
                if lo >= top + bytes && best.is_none_or(|(gap, _)| lo - top < gap) {
                    best = Some((lo - top, top));
                }
                top = top.max(hi);
            }
        }
        best.map_or(top, |(_, at)| at)
    }

    /// Places record `r`, `rec`, at offset `at`.
    fn insert(&mut self, r: usize, rec: Record, at: u64) {
        self.spans[r] = (at, at + rec.bytes, rec.first, rec.last);
        let rank = self.by_offset.partition_point(|&x| self.spans[x].0 <= at);
        self.by_offset.insert(rank, r);
        let used = self.by_offset.len().div_ceil(64);
        let (w, low) = (rank / 64, (1u64 << (rank % 64)) - 1);
        for bits in self.bits.chunks_mut(self.words) {
            // Every rank from `rank` up moves up by one.
            for k in (w + 1..used).rev() {
                bits[k] = (bits[k] << 1) | (bits[k - 1] >> 63);
            }
            bits[w] = (bits[w] & low) | ((bits[w] & !low) << 1);
        }
        for b in rec.first / self.block..=rec.last / self.block {
            self.bits[b * self.words + w] |= low + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::Attrs;
    use tofu_tensor::Shape;

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

    /// A placement at `offset`, in place or not.
    fn at(offset: u64, in_place: bool) -> Placement {
        Placement { offset, in_place }
    }

    fn offsets(bp: &BufferPlan) -> Vec<u64> {
        bp.placements.iter().map(|p| p.offset).collect()
    }

    #[test]
    fn chain_runs_in_place_at_one_offset() {
        // Element-wise chains execute in place (as MXNet marks them): after
        // the first output every step takes over the same range.
        let g = chain(10);
        let bp = plan_whole(&g, true);
        assert_eq!(bp.placements.len(), g.num_nodes());
        assert_eq!(offsets(&bp), vec![0; 10]);
        assert!(!bp.placements[0].in_place && bp.placements[1..].iter().all(|p| p.in_place));
        let plan = bp.mem;
        assert_eq!(plan.peak_transient_bytes, 1024);
        assert_eq!(plan.live_peak_bytes, 1024, "an in-place pair counts once");
        assert_eq!(plan.persistent_bytes, 1024);
    }

    #[test]
    fn no_reuse_gives_every_output_a_range_of_its_own() {
        let g = chain(10);
        let bp = plan_whole(&g, false);
        assert_eq!(offsets(&bp), (0..10).map(|i| i * 1024).collect::<Vec<_>>());
        assert!(bp.placements.iter().all(|p| !p.in_place));
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
        let bp = plan_whole(&g, true);
        // a and b live at once; the add runs in place on a's range.
        assert_eq!(bp.persistent, vec![x]);
        assert_eq!(bp.placements, [at(0, false), at(1024, false), at(0, true)]);
        assert_eq!(bp.mem.peak_transient_bytes, 2 * 1024);
        assert_eq!(bp.mem.live_peak_bytes, 2 * 1024, "a and b live at c, c counted after");
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
    fn death_coinciding_with_inplace_takeover_frees_at_exact_step() {
        // x -> a (relu), x -> b (tanh), c = add(a, b): c takes over a's range
        // in place while b dies at the same step. d = relu(x) right after
        // must be able to reuse a range freed there — freeing one a step
        // late would stack d above both.
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![256]));
        let a = g.add_op("relu", "a", &[x], Attrs::new()).unwrap();
        let b = g.add_op("tanh", "b", &[x], Attrs::new()).unwrap();
        let _c = g.add_op("add", "c", &[a, b], Attrs::new()).unwrap();
        let _d = g.add_op("relu", "d", &[x], Attrs::new()).unwrap();
        let bp = plan_whole(&g, true);
        assert_eq!(bp.placements, [at(0, false), at(1024, false), at(0, true), at(0, false)]);
        assert_eq!(bp.mem.peak_transient_bytes, 2 * 1024);
    }

    #[test]
    fn sub_schedule_scopes_to_workers_nodes() {
        let g = chain(4);
        let first_two: Vec<NodeId> = g.node_ids().take(2).collect();
        let plan = plan_buffers(&g, &first_two, true).mem;
        // r0 opens a range; r1 runs in place. But r1's output feeds r2,
        // which is outside this schedule, so it must stay live: the peak is
        // one range (the in-place takeover keeps a single one).
        assert_eq!(plan.peak_transient_bytes, 1024);
    }

    #[test]
    fn a_remote_reader_keeps_a_tensor_live_to_its_aligned_step() {
        // Schedule a = relu(x), b = tanh(x), d = tanh(x); c = relu(a) runs
        // between b and d on another device. No local node reads a, but c
        // does, so a lives through d's step: d cannot reuse its range.
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![256]));
        let a = g.add_op("relu", "a", &[x], Attrs::new()).unwrap();
        g.add_op("tanh", "b", &[x], Attrs::new()).unwrap();
        g.add_op("relu", "c", &[a], Attrs::new()).unwrap();
        g.add_op("tanh", "d", &[x], Attrs::new()).unwrap();
        let schedule = [NodeId(0), NodeId(1), NodeId(3)];
        let bp = plan_buffers(&g, &schedule, true);
        assert_eq!(offsets(&bp), [0, 1024, 1024], "a premature death puts d at 0");
        assert_eq!(bp.mem.peak_transient_bytes, 2 * 1024);
        assert_eq!(bp.mem.live_peak_bytes, 2 * 1024);
    }

    /// Attributes padding axis 0 with `after` trailing elements.
    fn pad(after: i64) -> Attrs {
        Attrs::new().with_int("axis", 0).with_int("before", 0).with_int("after", after)
    }

    #[test]
    fn a_gap_between_two_placed_records_holds_a_smaller_one() {
        // x -> a (relu), x -> b (tanh), c = matmul(a, b), d = pad(x) of
        // 2 KiB, keep = relu(c): a and b die at c, which cannot run in
        // place. d, the largest, goes first at 0; a, disjoint from it in
        // time, at 0 too; c, live with both, above d at 2048; b, live with
        // a and c, fills the 1 KiB gap between them. The arena is the live
        // bound, where a buffer per record (d's holding a) needed 4 KiB.
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![16, 16]));
        let a = g.add_op("relu", "a", &[x], Attrs::new()).unwrap();
        let b = g.add_op("tanh", "b", &[x], Attrs::new()).unwrap();
        let c = g.add_op("matmul", "c", &[a, b], Attrs::new()).unwrap();
        g.add_op("pad", "d", &[x], pad(16)).unwrap();
        g.add_op("relu", "keep", &[c], Attrs::new()).unwrap();
        let bp = plan_whole(&g, true);
        assert_eq!(
            bp.placements,
            [at(0, false), at(1024, false), at(2048, false), at(0, false), at(2048, true)]
        );
        // Live at c: a, b and c; at d: c and d.
        assert_eq!(bp.mem.live_peak_bytes, 3072);
        assert_eq!(bp.mem.peak_transient_bytes, 3072);
    }

    /// Where `best_fit` puts `bytes` over `first..=last` of 200
    /// positions, beside records at `ranges` live at position 0.
    fn fit(ranges: &[(u64, u64)], bytes: u64, first: usize, last: usize) -> u64 {
        let mut index = Placed::new(200, ranges.len());
        for (r, &(lo, hi)) in ranges.iter().enumerate() {
            index.insert(r, Record { bytes: hi - lo, first: 0, last: 0 }, lo);
        }
        index.best_fit(Record { bytes, first, last })
    }

    #[test]
    fn best_fit_takes_the_smallest_gap_else_the_top() {
        let ranges = [(45, 100), (0, 10), (30, 40)];
        assert_eq!(fit(&ranges, 5, 0, 0), 40, "the 5 B gap, not the 20 B one");
        assert_eq!(fit(&ranges, 6, 0, 0), 10);
        assert_eq!(fit(&ranges, 21, 0, 0), 100);
        assert_eq!(fit(&ranges, 21, 0, 150), 100, "a window over several time blocks");
        assert_eq!(fit(&ranges, 21, 1, 150), 0, "nothing placed overlaps it in time");
        assert_eq!(fit(&[(0, 50), (20, 30), (52, 60)], 7, 0, 0), 60, "a nested range");
        assert_eq!(fit(&[], 7, 0, 0), 0);
    }
}
