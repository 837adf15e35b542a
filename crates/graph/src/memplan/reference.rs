//! The memory planner as it stood before its dense rewrite, kept verbatim as
//! the test oracle for [`super::plan_buffers`] — the role
//! `unoptimized_search` plays for the DP. It scans every free buffer per
//! allocation and every live buffer per schedule position, and breaks ties
//! between equal-size free buffers by whatever order `Vec::swap_remove` left
//! them in, so it agrees with the planner on every size (the `MemPlan`, each
//! action's kind and `grown_by`, `dead_after`, `persistent`, the multiset of
//! slot sizes) but not necessarily on slot labels.
//!
//! Compiled only under `cfg(test)`: by `memplan`'s unit tests, and by
//! `tests/memplan_reference.rs`, which includes this file to run the same
//! comparison on the benchmark models' worker schedules. Both includers put
//! the names imported below in scope.

use std::collections::BTreeMap;

use super::{
    is_inplace_capable, BufferPlan, Graph, MemPlan, NodeId, SlotAction, TensorId, TensorKind,
};

/// The greedy liveness scan, unchanged.
pub(crate) fn plan_buffers(g: &Graph, schedule: &[NodeId], reuse: bool) -> BufferPlan {
    let mut produced: BTreeMap<TensorId, usize> = BTreeMap::new();
    for (pos, &id) in schedule.iter().enumerate() {
        produced.insert(g.node(id).output, pos);
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
    let mut last_use: BTreeMap<TensorId, usize> = BTreeMap::new();
    for (pos, &id) in schedule.iter().enumerate() {
        for &t in &g.node(id).inputs {
            let e = last_use.entry(t).or_insert(pos);
            *e = (*e).max(pos);
        }
    }
    // Locally produced tensors with remote consumers: extend their liveness
    // to the local step aligned with the last remote consumer.
    for (&t, &def_pos) in &produced {
        let remote_last = global_last[t.0];
        let local = to_local(remote_last).max(def_pos);
        let e = last_use.entry(t).or_insert(local);
        *e = (*e).max(local);
    }

    // Persistent bytes: inputs/weights consumed by non-fetch nodes of the
    // schedule (i.e. resident on this device).
    let mut persistent = 0u64;
    let mut seen_persistent: Vec<TensorId> = Vec::new();
    for &id in schedule {
        let node = g.node(id);
        if node.op == "multi_fetch" {
            continue;
        }
        for &t in &node.inputs {
            let meta = g.tensor(t);
            let external = meta.kind != TensorKind::Intermediate;
            if external && !produced.contains_key(&t) && !seen_persistent.contains(&t) {
                seen_persistent.push(t);
                persistent += meta.shape.bytes();
            }
        }
    }

    // Greedy buffer reuse over the serial schedule. Physical buffers carry
    // stable slot ids so the recorded actions can be replayed; `free` holds
    // ids of currently-unassigned slots.
    let mut slot_bytes: Vec<u64> = Vec::new(); // by slot id, current size
    let mut free: Vec<usize> = Vec::new(); // free slot ids
    let mut live: Vec<(TensorId, usize, usize)> = Vec::new(); // (tensor, slot, last use)
    let mut actions: Vec<SlotAction> = Vec::with_capacity(schedule.len());
    // Exact death positions, straight from the liveness map; the release
    // phase below frees slots at exactly these steps.
    let mut dead_after: Vec<Vec<TensorId>> = vec![Vec::new(); schedule.len()];
    for &t in produced.keys() {
        if let Some(&last) = last_use.get(&t) {
            if last < schedule.len() {
                dead_after[last].push(t);
            }
        }
    }
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
        let in_place_slot = if reuse && is_inplace_capable(g, id) {
            node.inputs.first().and_then(|&t| {
                live.iter().position(|&(lt, slot, last)| {
                    lt == t && last == pos && slot_bytes[slot] >= need
                })
            })
        } else {
            None
        };
        if let Some(i) = in_place_slot {
            let (_, slot, _) = live.swap_remove(i);
            let last = last_use.get(&out).copied().unwrap_or(usize::MAX);
            live.push((out, slot, last));
            actions.push(SlotAction::InPlace { slot });
        } else {
            // Reuse a free buffer when one exists. MXNet's planner assigns
            // buffers offline with full liveness knowledge, so it can resize
            // assignments freely; model that by growing an undersized free
            // buffer instead of allocating a disjoint one (the pool's
            // high-water mark then tracks the true live-byte peak, not
            // fragmentation).
            let pick = if reuse {
                // Prefer an exact/over-sized fit, else the largest free buffer.
                free.iter()
                    .enumerate()
                    .filter(|&(_, &s)| slot_bytes[s] >= need)
                    .min_by_key(|&(_, &s)| slot_bytes[s])
                    .map(|(i, _)| i)
                    .or_else(|| {
                        free.iter()
                            .enumerate()
                            .max_by_key(|&(_, &s)| slot_bytes[s])
                            .map(|(i, _)| i)
                    })
            } else {
                None
            };
            let slot = match pick {
                Some(i) => {
                    let slot = free.swap_remove(i);
                    let size = slot_bytes[slot];
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
            };
            let last = last_use.get(&out).copied().unwrap_or(usize::MAX);
            live.push((out, slot, last));
        }

        // Release buffers whose last consumer just ran — at every position,
        // including in-place takeovers, so a tensor dying alongside a
        // takeover frees its slot at the exact step `dead_after` records
        // (skipping this at in-place positions freed those slots one step
        // late and inflated the next allocation). Without reuse the planner
        // cannot reclaim at all — this models the missing control
        // dependencies of Fig. 7, where ops of the partitioned graph have no
        // ordering that would make reclamation safe.
        if reuse {
            let mut i = 0;
            while i < live.len() {
                if live[i].2 <= pos {
                    let (_, slot, _) = live.swap_remove(i);
                    free.push(slot);
                } else {
                    i += 1;
                }
            }
        }
    }

    let mem = MemPlan { peak_transient_bytes: peak, persistent_bytes: persistent, buffers_allocated: allocated };
    BufferPlan { mem, slot_bytes, actions, dead_after, persistent: seen_persistent }
}

/// Plans `schedule` with [`super::plan_buffers`] and with the reference and
/// asserts that they agree on everything but slot labels.
pub(crate) fn assert_agrees(g: &Graph, schedule: &[NodeId], reuse: bool) {
    let new = super::plan_buffers(g, schedule, reuse);
    let old = plan_buffers(g, schedule, reuse);
    // An action without its label: (kind, grown_by).
    let unlabelled = |a: &SlotAction| match *a {
        SlotAction::InPlace { .. } => (0, 0),
        SlotAction::Reuse { grown_by, .. } => (1, grown_by),
        SlotAction::Alloc { .. } => (2, 0),
    };
    let sorted = |bytes: &[u64]| {
        let mut v = bytes.to_vec();
        v.sort_unstable();
        v
    };
    let what = format!("{} positions, reuse {reuse}", schedule.len());
    assert_eq!(new.mem, old.mem, "{what}: MemPlan");
    assert!(
        new.actions.iter().map(unlabelled).eq(old.actions.iter().map(unlabelled)),
        "{what}: action kinds or grown_by"
    );
    assert_eq!(new.dead_after, old.dead_after, "{what}: dead_after");
    assert_eq!(new.persistent, old.persistent, "{what}: persistent");
    assert_eq!(sorted(&new.slot_bytes), sorted(&old.slot_bytes), "{what}: slot sizes");
}
