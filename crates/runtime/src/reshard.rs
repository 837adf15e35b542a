//! Plan-independent snapshots and checkpoint resharding.
//!
//! A [`FullSnapshot`] is a checkpoint addressed by **original** tensor ids at
//! full (unsharded) shapes, which makes it independent of any partition plan:
//! it can be cut out of one plan's per-worker snapshots
//! ([`assemble_snapshot`]) and sliced back into another plan's shard layout
//! ([`scatter_snapshot`]) — the mechanism elastic recovery uses to carry
//! progress across a worker-count change.
//!
//! Why this is sound (DESIGN.md "Elastic recovery" has the full argument):
//! with [`BarrierUnit::OriginalSteps`](crate::BarrierUnit) barriers, every
//! original node is entirely before or entirely after a barrier on *every*
//! worker of *every* plan, because the generator expands each original node
//! contiguously ([`ShardedGraph::origin_of_node`]). The values a resumed
//! worker reads from its snapshot are exactly the shard tensors of original
//! tensors computed before the barrier (cross-expansion reads only ever go
//! through shard tensors), and each shard is by construction the region
//! slice of its original tensor — so gathering the shards
//! ([`ShardedGraph::gather`]) and re-slicing them for the new plan
//! ([`ShardedGraph::scatter`]) reproduces, bit for bit, the state an
//! undisturbed run at the new width would have checkpointed when resumed
//! from this same snapshot.

use std::collections::BTreeMap;

use tofu_core::ShardedGraph;
use tofu_graph::TensorId;
use tofu_tensor::{Shape, Tensor};

use crate::checkpoint::{checkpoint_cuts, CheckpointPolicy, ResumePoint};
use crate::supervisor::run_once;
use crate::{Result, RunOptions, RunOutput, RuntimeError};

/// A plan-independent checkpoint: every original tensor the barrier covers
/// (leaves plus outputs of original nodes before it), at full shape, keyed
/// by **original** tensor id.
#[derive(Debug, Clone)]
pub struct FullSnapshot {
    /// 1-based checkpoint id; the barrier is original node `ckpt · every`.
    pub ckpt: usize,
    /// Original-step checkpoint cadence the id refers to.
    pub every: usize,
    /// Full-shape values keyed by original tensor id.
    pub tensors: BTreeMap<TensorId, Tensor>,
}

impl FullSnapshot {
    /// Total payload bytes of the snapshot.
    pub fn bytes(&self) -> u64 {
        self.tensors.values().map(|t| t.shape().bytes()).sum()
    }

    /// Round-trips every tensor through `via`'s shard layout: scatter into
    /// per-worker pieces, then gather them back to full shape. Because shard
    /// regions tile (or replicate over) each tensor's full extent, the result
    /// is bit-for-bit the original snapshot *for any plan* — shrink, grow, or
    /// same width. This is the invariant that lets elastic recovery carry one
    /// snapshot across arbitrary width changes, and the proptest suite pins
    /// it down over random width pairs in both directions.
    pub fn reshard_through(&self, via: &ShardedGraph) -> Result<FullSnapshot> {
        let mut tensors = BTreeMap::new();
        for (&t, full) in &self.tensors {
            let pieces: BTreeMap<TensorId, Tensor> = via.scatter(t, full)?.into_iter().collect();
            tensors.insert(t, via.gather(t, full.shape(), &pieces)?);
        }
        Ok(FullSnapshot { ckpt: self.ckpt, every: self.every, tensors })
    }
}

/// Cuts a [`FullSnapshot`] out of one plan's per-worker checkpoint values:
/// every original tensor whose shards are all present (exactly the leaves
/// plus the outputs of original nodes before the barrier, when the barrier
/// is origin-aligned) is reassembled at full shape.
pub(crate) fn assemble_snapshot(
    sharded: &ShardedGraph,
    ckpt: usize,
    values: &[BTreeMap<TensorId, std::sync::Arc<Tensor>>],
    every: usize,
) -> Result<FullSnapshot> {
    // One merged view over all workers' snapshots; shard ids are disjoint
    // across workers except for values each worker holds of its own shards.
    // Snapshot payloads are `Arc`-shared, so the merge clones refcounts.
    let mut merged: BTreeMap<TensorId, std::sync::Arc<Tensor>> = BTreeMap::new();
    for per_worker in values {
        for (t, v) in per_worker {
            merged.entry(*t).or_insert_with(|| v.clone());
        }
    }
    let mut tensors = BTreeMap::new();
    for (&t, shards) in &sharded.shards {
        if shards.iter().all(|s| merged.contains_key(s)) {
            // Shard regions tile (or replicate over) the full extent, so the
            // largest upper bound per dimension is the original shape.
            let regions = sharded.regions.get(&t).map_or(&[][..], Vec::as_slice);
            let rank = regions.first().map_or(0, |r| r.len());
            let full: Vec<usize> = (0..rank)
                .map(|d| regions.iter().map(|r| r[d].1.max(0) as usize).max().unwrap_or(0))
                .collect();
            tensors.insert(t, sharded.gather(t, &Shape::new(full), &merged)?);
        }
    }
    Ok(FullSnapshot { ckpt, every, tensors })
}

/// Slices a [`FullSnapshot`] into a resume point for `sharded` (possibly a
/// different plan / worker count than the snapshot came from). The snapshot's
/// checkpoint id addresses the same original-graph barrier under any plan, so
/// the new plan's cuts for that id are the equivalent resume positions.
pub(crate) fn scatter_snapshot(
    snap: &FullSnapshot,
    sharded: &ShardedGraph,
) -> Result<ResumePoint> {
    let cuts = checkpoint_cuts(sharded, CheckpointPolicy::every_original(snap.every));
    let cut = cuts.get(snap.ckpt - 1).ok_or_else(|| {
        RuntimeError::Internal(format!(
            "snapshot checkpoint {} has no barrier in the new plan ({} cuts)",
            snap.ckpt,
            cuts.len()
        ))
    })?;
    let mut values: Vec<BTreeMap<TensorId, std::sync::Arc<Tensor>>> =
        vec![BTreeMap::new(); sharded.workers];
    for (&t, full) in &snap.tensors {
        for (w, (shard, piece)) in sharded.scatter(t, full)?.into_iter().enumerate() {
            values[w].insert(shard, std::sync::Arc::new(piece));
        }
    }
    Ok(ResumePoint { ckpt: snap.ckpt, cuts: cut.clone(), values })
}

/// Runs `sharded` resuming from a plan-independent snapshot: the snapshot is
/// resharded onto `sharded`'s layout and execution starts at the barrier.
/// This is both the resume path of elastic recovery and the way to construct
/// its bit-identity baseline — an undisturbed run at the surviving width
/// resumed from the equivalent checkpoint cut.
///
/// `feeds` is ignored when the snapshot covers the leaves (it always does
/// for snapshots assembled from a consistent checkpoint) and exists so call
/// sites read like [`run_with_options`](crate::run_with_options).
pub fn resume_from_snapshot(
    sharded: &ShardedGraph,
    feeds: &[(TensorId, Tensor)],
    opts: &RunOptions,
    snap: &FullSnapshot,
) -> Result<RunOutput> {
    let _ = feeds;
    run_once(sharded, &[], opts, Some(&scatter_snapshot(snap, sharded)?))
}
