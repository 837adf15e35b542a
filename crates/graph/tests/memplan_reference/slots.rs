//! The shared-objects form of greedy by size that `tofu_graph::plan_buffers`
//! used before it placed records by offset, kept as a no-regression oracle
//! of `memplan_reference.rs` (which includes this file). Records are built
//! by the same rule: an element-wise output joins its first input's record
//! when that input was produced on this schedule, dies at this node and is
//! no smaller. Records taken by `(bytes desc, interval length desc, first
//! asc)` each go into the first buffer whose records are all disjoint from
//! it in time, else into a new buffer of its size. Trimmed to the bytes it
//! reaches: the buffers' sizes, not which record holds which.

use std::cmp::Reverse;

use tofu_graph::{lookup, Graph, NodeId, TensorKind};

/// Persistent bytes plus the sum of the buffers, as `MemPlan::total_bytes`.
pub fn total_bytes(g: &Graph, schedule: &[NodeId], reuse: bool) -> u64 {
    let n = schedule.len();
    // The local position each tensor dies after: its last reader on any
    // device, aligned to the first local position at or after it.
    let mut made_at: Vec<Option<usize>> = vec![None; g.num_tensors()];
    for (pos, &id) in schedule.iter().enumerate() {
        made_at[g.node(id).output.0] = Some(pos);
    }
    let mut death = made_at.clone();
    for id in g.node_ids() {
        let local = schedule.partition_point(|s| s.0 < id.0).min(n.saturating_sub(1));
        for &t in &g.node(id).inputs {
            if let Some(d) = death[t.0].as_mut() {
                *d = (*d).max(local);
            }
        }
    }

    // Records as (bytes, first, last), and each position's record.
    let mut records: Vec<(u64, usize, usize)> = Vec::new();
    let mut record_of: Vec<usize> = Vec::with_capacity(n);
    for (pos, &id) in schedule.iter().enumerate() {
        let node = g.node(id);
        let need = g.tensor(node.output).shape.bytes();
        let elementwise = lookup(&node.op).is_ok_and(|def| def.category.is_elementwise());
        let joined = node.inputs.first().and_then(|&t| {
            let def = made_at[t.0]?;
            let fits = g.tensor(t).shape.bytes() >= need && death[t.0] == Some(pos);
            (reuse && elementwise && fits).then_some(record_of[def])
        });
        let r = joined.unwrap_or_else(|| {
            records.push((need, pos, pos));
            records.len() - 1
        });
        records[r].2 = records[r].2.max(death[node.output.0].unwrap());
        record_of.push(r);
    }

    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&r| (Reverse(records[r].0), Reverse(records[r].2 - records[r].1), records[r].1));
    // Per buffer: its bytes and the intervals of the records it holds.
    let mut buffers: Vec<(u64, Vec<(usize, usize)>)> = Vec::new();
    for r in order {
        let (bytes, first, last) = records[r];
        let free = |held: &Vec<(usize, usize)>| held.iter().all(|&(f, l)| l < first || last < f);
        match buffers.iter_mut().find(|(_, held)| reuse && free(held)) {
            Some((_, held)) => held.push((first, last)),
            None => buffers.push((bytes, vec![(first, last)])),
        }
    }

    let mut persistent: Vec<_> = Vec::new();
    for &id in schedule {
        let node = g.node(id);
        if node.op == "multi_fetch" {
            continue;
        }
        for &t in &node.inputs {
            if g.tensor(t).kind != TensorKind::Intermediate && !persistent.contains(&t) {
                persistent.push(t);
            }
        }
    }
    let persistent: u64 = persistent.iter().map(|&t| g.tensor(t).shape.bytes()).sum();
    persistent + buffers.iter().map(|b| b.0).sum::<u64>()
}
