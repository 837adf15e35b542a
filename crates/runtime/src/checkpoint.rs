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
use tofu_tensor::Tensor;

use crate::error::RunFailure;
use crate::fault::FaultRng;
use crate::RunOutput;

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
/// [`run_with_elastic_recovery`](crate::run_with_elastic_recovery).
#[derive(Debug, Clone, Copy)]
pub struct RecoveryOptions {
    /// Total attempts per worker count (first run included). At least 1.
    pub max_attempts: usize,
    /// Base sleep before the first retry; later delays follow a
    /// decorrelated-jitter schedule seeded with 0 and capped at 1 s (see
    /// [`BackoffSchedule`]), so fault-suite timing replays run to run.
    pub backoff: Duration,
    /// When set, exhausting `max_attempts` shrinks the worker set past the
    /// blamed device instead of giving up — down to one worker — and
    /// scripted rejoins grow it back (elastic recovery). Every width change
    /// re-plans the original graph, so
    /// [`run_with_recovery`](crate::run_with_recovery) — which is handed one
    /// fixed `ShardedGraph` — rejects `true` with
    /// [`RuntimeError::InvalidOptions`](crate::RuntimeError) pointing at
    /// [`run_with_elastic_recovery`](crate::run_with_elastic_recovery).
    pub elastic: bool,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions { max_attempts: 3, backoff: Duration::from_millis(10), elastic: false }
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
pub struct BackoffSchedule {
    base: Duration,
    cap: Duration,
    prev: Duration,
    rng: FaultRng,
}

impl BackoffSchedule {
    /// A schedule starting at `base`, capped at `cap`, jitter-seeded by
    /// `seed`. Equal arguments yield the identical delay sequence.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> BackoffSchedule {
        BackoffSchedule { base, cap, prev: base, rng: FaultRng::new(seed) }
    }

    /// The next delay to sleep before retrying.
    pub fn next_delay(&mut self) -> Duration {
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

/// One attempt of a recovery ladder, for latency accounting: which worker
/// set ran, what it resumed from, and where the time went.
#[derive(Debug, Clone)]
pub struct AttemptRecord {
    /// Worker count of this attempt.
    pub width: usize,
    /// Physical devices the logical workers mapped to.
    pub devices: Vec<usize>,
    /// Checkpoint the attempt resumed from (`None` = from scratch).
    pub resumed_from: Option<usize>,
    /// Time spent re-running the partition search before this attempt
    /// (`None` when the previous attempt's plan was reused).
    pub replan: Option<Duration>,
    /// Time spent resharding the carried snapshot onto this attempt's plan.
    pub reshard: Option<Duration>,
    /// Bytes of full-tensor snapshot moved by that reshard.
    pub reshard_bytes: u64,
    /// Slowest peer abort-detection latency, for failed attempts.
    pub detection: Option<Duration>,
    /// Wall-clock of the attempt itself.
    pub wall: Duration,
    /// Whether the attempt succeeded.
    pub ok: bool,
    /// Set when the attempt stopped *voluntarily* at this checkpoint barrier
    /// so the elastic ladder could grow onto a joining device (neither a
    /// success nor a failure).
    pub yielded: Option<usize>,
}

/// What a recovered run hands back: the (verified-resumable) output plus the
/// failure history that led to it.
#[derive(Debug)]
pub struct RecoveryReport {
    /// The successful run's output.
    pub output: RunOutput,
    /// Attempts consumed, first run included.
    pub attempts: usize,
    /// The failure of every aborted attempt, in order.
    pub failures: Vec<RunFailure>,
    /// Per retry: the checkpoint it resumed from (`None` = clean restart).
    pub resumed_from: Vec<Option<usize>>,
    /// Per attempt (first run included): worker set, resume point and
    /// latency breakdown, so tooling can assert detection → replan → resume
    /// budgets.
    pub history: Vec<AttemptRecord>,
}

/// Per-worker cut positions of every checkpoint: `cuts[k - 1][w]` is the
/// local schedule prefix worker `w` must complete for checkpoint `k`.
pub(crate) fn checkpoint_cuts(sharded: &ShardedGraph, policy: CheckpointPolicy) -> Vec<Vec<usize>> {
    let k = sharded.workers;
    let every = policy.every;
    // Per node: its position in the order the barriers count.
    let (n, pos_of): (usize, Vec<usize>) = match policy.unit {
        BarrierUnit::ShardedSteps => {
            // Global topological position (node_ids is the schedule order).
            let n = sharded.graph.num_nodes();
            let mut global_pos = vec![0usize; n];
            for (i, id) in sharded.graph.node_ids().enumerate() {
                global_pos[id.0] = i;
            }
            (n, global_pos)
        }
        BarrierUnit::OriginalSteps => {
            (sharded.original_nodes(), sharded.origin_of_node.iter().map(|o| o.0).collect())
        }
    };
    let mut cuts = Vec::new();
    let mut barrier = every;
    while barrier < n {
        let cut: Vec<usize> = (0..k)
            .map(|w| {
                sharded.worker_schedule(w).iter().filter(|id| pos_of[id.0] < barrier).count()
            })
            .collect();
        cuts.push(cut);
        barrier += every;
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

/// Observer of checkpoints the moment they become *consistent* (recorded by
/// every worker). The durable layer hangs off this hook: the last worker to
/// record checkpoint `k` drives the sink, so persistence happens exactly
/// once per checkpoint without any extra barrier. A sink error fails that
/// worker and aborts the run like any other worker-local failure.
pub(crate) trait CheckpointSink: Send + Sync {
    /// Called once per checkpoint, on the worker thread that completed it.
    /// `values[w]` is worker `w`'s snapshot at the barrier.
    fn on_consistent(
        &self,
        sharded: &ShardedGraph,
        worker: usize,
        ckpt: usize,
        values: &[BTreeMap<TensorId, Arc<Tensor>>],
    ) -> crate::Result<()>;
}

/// Snapshots recorded so far, keyed by `(checkpoint, worker)`. Shared across
/// the attempts the supervisor makes at one width. Values are `Arc`-shared
/// with the recording worker's live map, so a barrier costs one refcount
/// bump per live tensor instead of a deep copy of the whole value map.
#[derive(Default)]
pub(crate) struct CheckpointStore {
    snaps: BTreeMap<(usize, usize), BTreeMap<TensorId, Arc<Tensor>>>,
    sink: Option<Arc<dyn CheckpointSink>>,
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
    /// A store that notifies `sink` as each checkpoint becomes consistent.
    pub(crate) fn with_sink(sink: Arc<dyn CheckpointSink>) -> CheckpointStore {
        CheckpointStore { snaps: BTreeMap::new(), sink: Some(sink) }
    }

    /// The configured sink, if any.
    pub(crate) fn sink(&self) -> Option<Arc<dyn CheckpointSink>> {
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
}
