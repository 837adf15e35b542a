//! Checkpoint-restart recovery.
//!
//! A [`CheckpointPolicy`] makes every worker snapshot its live values at
//! *barrier* positions derived from a global order. With
//! [`BarrierUnit::ShardedSteps`] checkpoint `k` covers the first `k·every`
//! nodes of the sharded graph's topological order; with
//! [`BarrierUnit::OriginalSteps`] it covers every generated node whose
//! *origin* is among the first `k·every` nodes of the **original** graph —
//! a plan-independent boundary, so checkpoint `k` means the same original
//! prefix under every worker count (the property elastic resharding relies
//! on). Each worker's local cut for `k` is the length of its schedule prefix
//! inside that global prefix. Workers cross their cuts asynchronously; a
//! checkpoint is *consistent* once every worker has recorded it.
//!
//! Consistency argument (see DESIGN.md "Failure model"): a worker's values
//! map after its cut prefix is a pure function of the feeds, because worker
//! schedules are subsequences of one topological order and kernels are
//! deterministic. On restart from checkpoint `k`, channels are empty, so the
//! only missing state is messages: every piece a not-yet-executed consumer
//! needs is either produced *after* the sender's cut (re-sent naturally
//! during replay) or *before* it (replayed from the snapshot as an "owed
//! send" at resume startup). A piece whose readers all ran is not re-sent;
//! one with a reader left is sent once, for the readers left. Hence the
//! resumed run receives exactly the healthy run's messages, and its output
//! is bit-identical.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use tofu_core::ShardedGraph;
use tofu_graph::TensorId;
use tofu_tensor::{SplitMix64, Tensor};

use crate::durable::Persister;
use crate::fault::fault_rng;

/// Which schedule the checkpoint barriers count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BarrierUnit {
    /// Barriers every `every` nodes of the *sharded* graph's global
    /// topological order. Cheap and fine for same-plan restart, but the
    /// barriers of two different plans cover different original prefixes.
    #[default]
    ShardedSteps,
    /// Barriers every `every` nodes of the **original** graph: a generated
    /// node is inside barrier `b` iff its origin node's id is `< b·every`.
    /// Checkpoint `k` then denotes the same original-graph prefix under
    /// every worker count, which is what lets elastic recovery reshard a
    /// snapshot onto a different plan.
    OriginalSteps,
}

/// Snapshot cadence. Every snapshot is scanned for NaN/Inf and for values
/// corrupted since they were produced before it commits; a hit fails the run
/// with [`RuntimeError::PoisonedCheckpoint`](crate::RuntimeError) or
/// `CorruptSnapshot` instead of persisting a state recovery would faithfully
/// resume into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Snapshot after every `every` nodes (of the schedule `unit` selects).
    pub every: usize,
    /// Which schedule the barrier counts.
    pub unit: BarrierUnit,
}

impl CheckpointPolicy {
    /// Snapshot every `n` sharded-graph schedule steps.
    pub fn every(n: usize) -> CheckpointPolicy {
        CheckpointPolicy { every: n, unit: BarrierUnit::ShardedSteps }
    }

    /// Snapshot every `n` *original-graph* nodes — the plan-independent
    /// barriers elastic recovery reshards across.
    pub fn every_original(n: usize) -> CheckpointPolicy {
        CheckpointPolicy { every: n, unit: BarrierUnit::OriginalSteps }
    }
}

/// Retry policy of [`run_with_recovery`](crate::run_with_recovery) and
/// [`run_with_elastic_recovery`](crate::run_with_elastic_recovery). The
/// elastic one also shrinks past a width whose attempts are exhausted,
/// where the plain one returns the failure.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryOptions {
    /// Total attempts per worker count (first run included). At least 1.
    pub max_attempts: usize,
    /// Base sleep before the first retry; later delays follow a
    /// decorrelated-jitter schedule seeded with 0 and capped at 1 s, so
    /// fault-suite timing replays run to run.
    pub backoff: Duration,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions { max_attempts: 3, backoff: Duration::from_millis(10) }
    }
}

/// Ceiling on any single retry delay of the recovery supervisor.
pub(crate) const MAX_BACKOFF: Duration = Duration::from_secs(1);

/// Deterministic decorrelated-jitter retry schedule (the AWS
/// "decorrelated jitter" recurrence, made reproducible by seeding the
/// jitter from a SplitMix64 stream): each delay is
/// `min(cap, base + frac · (3·prev − base))` with `frac` uniform in
/// `[0, 1)`. Delays never exceed `cap` — the fix for the former unbounded
/// `backoff · 2^attempt` growth — and a zero `base` yields zero delays.
#[derive(Debug, Clone)]
pub(crate) struct BackoffSchedule {
    base: Duration,
    cap: Duration,
    prev: Duration,
    rng: SplitMix64,
}

impl BackoffSchedule {
    /// A schedule starting at `base`, capped at `cap`, jitter-seeded by
    /// `seed`. Equal arguments yield the identical delay sequence.
    pub(crate) fn new(base: Duration, cap: Duration, seed: u64) -> BackoffSchedule {
        BackoffSchedule { base, cap, prev: base, rng: fault_rng(seed) }
    }

    /// The next delay to sleep before retrying.
    pub(crate) fn next_delay(&mut self) -> Duration {
        if self.base.is_zero() {
            return Duration::ZERO;
        }
        // 53-bit mantissa fraction in [0, 1); f64 arithmetic is exact enough
        // for scheduling and bit-deterministic across runs.
        let frac = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let base = self.base.as_secs_f64();
        let spread = (3.0 * self.prev.as_secs_f64() - base).max(0.0);
        let next = (base + frac * spread).min(self.cap.as_secs_f64());
        self.prev = Duration::from_secs_f64(next);
        self.prev
    }
}

/// Per-worker cut positions of every checkpoint: `cuts[k - 1][w]` is the
/// local schedule prefix worker `w` must complete for checkpoint `k`, i.e.
/// how many of `w`'s nodes lie inside barrier `k·every`. One pass over the
/// nodes: each is counted at the first barrier it falls inside, and a
/// running sum over barriers turns those counts into cuts.
pub(crate) fn checkpoint_cuts(sharded: &ShardedGraph, policy: CheckpointPolicy) -> Vec<Vec<usize>> {
    let every = policy.every;
    // The length of the order the barriers count, and each node's position
    // in it (`node_ids` is the sharded schedule order).
    let n = match policy.unit {
        BarrierUnit::ShardedSteps => sharded.graph.num_nodes(),
        BarrierUnit::OriginalSteps => sharded.original_nodes(),
    };
    let pos = |i: usize| match policy.unit {
        BarrierUnit::ShardedSteps => i,
        BarrierUnit::OriginalSteps => sharded.origin_of_node[i].0,
    };
    // Barriers `every, 2·every, …` strictly below `n`.
    let barriers = n.saturating_sub(1).checked_div(every).unwrap_or(0);
    let mut cuts = vec![vec![0usize; sharded.workers]; barriers];
    for id in sharded.graph.node_ids() {
        if let Some(cut) = cuts.get_mut(pos(id.0) / every) {
            cut[sharded.device_of_node[id.0]] += 1;
        }
    }
    let mut running = vec![0usize; sharded.workers];
    for cut in &mut cuts {
        for (c, r) in cut.iter_mut().zip(&mut running) {
            *r += *c;
            *c = *r;
        }
    }
    cuts
}

/// A consistent checkpoint selected for resumption.
#[derive(Debug, Clone)]
pub(crate) struct ResumePoint {
    /// 1-based checkpoint id.
    pub ckpt: usize,
    /// Local cut per worker.
    pub cuts: Vec<usize>,
    /// Snapshot values per worker. Payloads are `Arc`-shared with the live
    /// run that recorded them — a barrier clones refcounts, not tensors.
    pub values: Vec<BTreeMap<TensorId, Arc<Tensor>>>,
}

/// Snapshots recorded so far, keyed by `(checkpoint, worker)`. Shared across
/// the attempts the supervisor makes at one width. Values are `Arc`-shared
/// with the recording worker's live map, so a barrier costs one refcount
/// bump per live tensor instead of a deep copy of the whole value map.
#[derive(Default)]
pub(crate) struct CheckpointStore {
    snaps: BTreeMap<(usize, usize), BTreeMap<TensorId, Arc<Tensor>>>,
    sink: Option<Arc<Persister>>,
}

impl std::fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("snaps", &self.snaps.keys().collect::<Vec<_>>())
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

impl CheckpointStore {
    /// A store whose checkpoints `sink` persists as each becomes consistent.
    pub(crate) fn with_sink(sink: Arc<Persister>) -> CheckpointStore {
        CheckpointStore { snaps: BTreeMap::new(), sink: Some(sink) }
    }

    /// The configured sink, if any.
    pub(crate) fn sink(&self) -> Option<Arc<Persister>> {
        self.sink.clone()
    }

    /// If checkpoint `k` is consistent across `workers` workers, clone out
    /// its per-worker snapshots (refcount bumps only).
    pub(crate) fn consistent_values(
        &self,
        k: usize,
        workers: usize,
    ) -> Option<Vec<BTreeMap<TensorId, Arc<Tensor>>>> {
        if (0..workers).all(|w| self.snaps.contains_key(&(k, w))) {
            Some((0..workers).map(|w| self.snaps[&(k, w)].clone()).collect())
        } else {
            None
        }
    }

    pub(crate) fn record(
        &mut self,
        ckpt: usize,
        worker: usize,
        values: BTreeMap<TensorId, Arc<Tensor>>,
    ) {
        self.snaps.insert((ckpt, worker), values);
    }

    /// Drops every recorded snapshot, releasing the shared payloads so a
    /// completed run can reclaim sole ownership of its values.
    pub(crate) fn clear(&mut self) {
        self.snaps.clear();
    }

    /// The highest checkpoint every one of `workers` workers has recorded.
    pub(crate) fn latest_consistent(&self, workers: usize, max_ckpt: usize) -> Option<usize> {
        (1..=max_ckpt)
            .rev()
            .find(|&k| (0..workers).all(|w| self.snaps.contains_key(&(k, w))))
    }

    /// Assembles the resume point for checkpoint `k` (which must be
    /// consistent).
    pub(crate) fn resume_point(
        &self,
        k: usize,
        workers: usize,
        cuts: &[Vec<usize>],
    ) -> ResumePoint {
        ResumePoint {
            ckpt: k,
            cuts: cuts[k - 1].clone(),
            values: (0..workers).map(|w| self.snaps[&(k, w)].clone()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition the cuts must meet: for barrier `b·every < n`, worker
    /// `w`'s cut counts the nodes of its schedule at a position `< b·every`.
    fn cuts_by_definition(sharded: &ShardedGraph, policy: CheckpointPolicy) -> Vec<Vec<usize>> {
        let (n, pos): (usize, Vec<usize>) = match policy.unit {
            BarrierUnit::ShardedSteps => {
                (sharded.graph.num_nodes(), (0..sharded.graph.num_nodes()).collect())
            }
            BarrierUnit::OriginalSteps => {
                (sharded.original_nodes(), sharded.origin_of_node.iter().map(|o| o.0).collect())
            }
        };
        (1..)
            .map(|b| b * policy.every)
            .take_while(|&barrier| barrier < n)
            .map(|barrier| {
                (0..sharded.workers)
                    .map(|w| {
                        let schedule = sharded.worker_schedule(w);
                        schedule.iter().filter(|id| pos[id.0] < barrier).count()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn checkpoint_cuts_count_each_workers_nodes_inside_each_barrier() {
        let m = tofu_models::mlp(&tofu_models::MlpConfig {
            batch: 24,
            dims: vec![12, 12],
            classes: 6,
            with_updates: true,
        })
        .unwrap();
        let opts = tofu_core::PartitionOptions { workers: 4, ..Default::default() };
        let plan = tofu_core::partition(&m.graph, &opts).unwrap();
        let mut sharded =
            tofu_core::generate(&m.graph, &plan, &tofu_core::GenOptions::default()).unwrap();
        let policies = [
            CheckpointPolicy::every(1),
            CheckpointPolicy::every(3),
            CheckpointPolicy::every_original(1),
            CheckpointPolicy::every_original(3),
        ];
        for policy in policies {
            let cuts = checkpoint_cuts(&sharded, policy);
            assert!(!cuts.is_empty(), "{policy:?}: no barrier");
            assert_eq!(cuts, cuts_by_definition(&sharded, policy), "{policy:?}");
        }
        // Generated nodes need not follow their origins' order: reversing
        // the origin ids changes the cuts, not their definition.
        let last = sharded.original_nodes() - 1;
        for o in &mut sharded.origin_of_node {
            o.0 = last - o.0;
        }
        for policy in [CheckpointPolicy::every_original(1), CheckpointPolicy::every_original(3)] {
            assert_eq!(
                checkpoint_cuts(&sharded, policy),
                cuts_by_definition(&sharded, policy),
                "{policy:?}, origins reversed"
            );
        }
    }

    #[test]
    fn latest_consistent_requires_every_worker() {
        let mut s = CheckpointStore::default();
        assert_eq!(s.latest_consistent(2, 3), None);
        s.record(1, 0, BTreeMap::new());
        s.record(1, 1, BTreeMap::new());
        s.record(2, 0, BTreeMap::new());
        assert_eq!(s.latest_consistent(2, 3), Some(1), "checkpoint 2 misses worker 1");
        s.record(2, 1, BTreeMap::new());
        assert_eq!(s.latest_consistent(2, 3), Some(2));
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(80);
        let delays = |seed: u64| -> Vec<Duration> {
            let mut s = BackoffSchedule::new(base, cap, seed);
            (0..32).map(|_| s.next_delay()).collect()
        };
        let a = delays(42);
        assert_eq!(a, delays(42), "equal seeds yield equal schedules");
        assert_ne!(a, delays(43), "jitter actually depends on the seed");
        assert!(a.iter().all(|d| *d >= base && *d <= cap), "every delay in [base, cap]");
        assert!(a.iter().any(|d| *d > base), "jitter spreads delays above base");
        // A zero base never sleeps (the fast path tests rely on).
        let mut zero = BackoffSchedule::new(Duration::ZERO, cap, 7);
        assert!(zero.next_delay().is_zero());
    }

    /// The retry jitter is pinned delay for delay, so a recovery timeline
    /// replays from its seed on every build.
    #[test]
    fn backoff_delays_are_pinned() {
        let mut s = BackoffSchedule::new(Duration::from_millis(10), Duration::from_secs(1), 3);
        let nanos: Vec<u128> = (0..5).map(|_| s.next_delay().as_nanos()).collect();
        assert_eq!(nanos, [24_915_635, 72_869_423, 102_697_007, 142_431_318, 328_351_217]);
    }
}
