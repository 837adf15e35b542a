//! The online scan `tofu_graph::plan_buffers` used before its greedy-by-size
//! assignment, kept as the no-regression oracle of `memplan_reference.rs`
//! (which includes this file). At each schedule position the output takes
//! over its first input's buffer in place when the operator runs in place,
//! that input dies right there and its buffer is large enough; otherwise it
//! reuses the smallest free buffer that fits, else grows the largest free
//! buffer, else allocates one. Trimmed to the bytes it reaches: every
//! decision reads buffer sizes only, so slot ids are not tracked.

use std::collections::BTreeMap;

use tofu_graph::{lookup, Graph, NodeId, TensorId, TensorKind};

/// Persistent bytes plus the scan's transient peak, as `MemPlan::total_bytes`.
pub fn total_bytes(g: &Graph, schedule: &[NodeId], reuse: bool) -> u64 {
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
        let local = to_local(global_last[t.0]).max(def_pos);
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

    let mut free: Vec<u64> = Vec::new(); // sizes of unassigned buffers
    let mut live: Vec<(TensorId, u64, usize)> = Vec::new(); // (tensor, buffer bytes, last use)
    let mut current = 0u64;
    let mut peak = 0u64;
    for (pos, &id) in schedule.iter().enumerate() {
        let node = g.node(id);
        let out = node.output;
        let need = g.tensor(out).shape.bytes();
        let in_place = lookup(&node.op).is_ok_and(|def| def.category.is_elementwise());
        let taken_over = if reuse && in_place {
            node.inputs.first().and_then(|&t| {
                live.iter().position(|&(lt, size, last)| lt == t && last == pos && size >= need)
            })
        } else {
            None
        };
        let size = if let Some(i) = taken_over {
            live.swap_remove(i).1
        } else {
            // The smallest free buffer that fits, else the largest, grown.
            let pick = free
                .iter()
                .enumerate()
                .filter(|&(_, &size)| size >= need)
                .min_by_key(|&(_, &size)| size)
                .or_else(|| free.iter().enumerate().max_by_key(|&(_, &size)| size))
                .map(|(i, _)| i);
            let have = pick.map_or(0, |i| free.swap_remove(i));
            current += need.saturating_sub(have);
            peak = peak.max(current);
            have.max(need)
        };
        live.push((out, size, last_use.get(&out).copied().unwrap_or(usize::MAX)));

        // Release buffers whose last consumer just ran; without reuse
        // nothing is reclaimed.
        if reuse {
            let mut i = 0;
            while i < live.len() {
                if live[i].2 <= pos {
                    free.push(live.swap_remove(i).1);
                } else {
                    i += 1;
                }
            }
        }
    }
    persistent + peak
}
