//! The one recovery supervisor (DESIGN.md "Failure model → The recovery
//! supervisor").
//!
//! Every entry point of the crate funnels into this module. A plain run
//! ([`run_once`]) is a single attempt; everything with "recovery" in its
//! name is [`supervise`], one loop of
//!
//! ```text
//! boot → select width → prepare → attempt → react
//! ```
//!
//! whose reactions — *done*, *retry with backoff*, *yielded → grow*,
//! *attempts exhausted → shrink or give up*, *process crash → reboot* — are
//! switched on by the caller's arguments:
//!
//! | argument | turns on |
//! |---|---|
//! | [`PlanSource::Replan`] | width selection, feed scattering, checkpoint resharding |
//! | [`RecoveryOptions::max_attempts`] `> 1` | retry with backoff at the current width |
//! | `elastic` | shrink past an exhausted width, surrender as `Unrecoverable` |
//! | [`RunOptions::churn`] | scripted leaves (shrink) and joins (yield → grow) |
//! | [`DurableOptions`] | persistence of every consistent checkpoint; boot from disk |
//! | [`DurableOptions::crash`] | the simulated whole-process crash → reboot |
//!
//! [`run_with_recovery`](crate::run_with_recovery),
//! [`run_with_elastic_recovery`](crate::run_with_elastic_recovery) and
//! [`run_with_durable_recovery`](crate::run_with_durable_recovery) are
//! argument adaptors (the elastic one sets `elastic`, the durable one sets
//! it exactly when a churn plan reshapes the fleet), and all three return
//! the supervisor's one [`RecoveryReport`]. Its `history` holds one
//! [`AttemptRecord`] per attempt; every other field of the report either
//! says what `history` cannot (the fleet, the transitions, the disk) or is
//! named by a caller outside the crate (`attempts`).

use std::collections::BTreeMap;
use std::sync::atomic::AtomicUsize;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, Once, PoisonError};
use std::time::{Duration, Instant};

use tofu_core::{CoreError, PartitionOptions, PartitionPlan, SearchCaches, ShardedGraph};
use tofu_durable::RejectedCheckpoint;
use tofu_graph::{Graph, TensorId};
use tofu_obs::{Collector, Track};
use tofu_tensor::Tensor;

use crate::abort::AbortToken;
use crate::checkpoint::{
    checkpoint_cuts, BackoffSchedule, BarrierUnit, CheckpointStore, RecoveryOptions,
    ResumePoint, MAX_BACKOFF,
};
use crate::durable::{DurableOptions, Persister};
use crate::elastic::{select_width, ElasticTransition, SelectErr, Selection, TransitionKind};
use crate::error::{RunFailure, RuntimeError};
use crate::fault::{ChurnEvent, Fault, FaultState};
use crate::reshard::{assemble_snapshot, scatter_snapshot, FullSnapshot};
use crate::trace::{LinkStat, RunTrace};
use crate::worker::{run_worker, Msg, WorkerCtx, WorkerOutcome};
use crate::{lock, IntegrityLevel, Result, RunOptions, RunOutput};

/// The recovery policy of a plain run: one attempt.
pub(crate) const SINGLE_ATTEMPT: RecoveryOptions =
    RecoveryOptions { max_attempts: 1, backoff: Duration::ZERO };

/// Up-front validation shared by every entry point, so misconfiguration
/// fails with a clear [`RuntimeError::InvalidOptions`] before any thread
/// spawns. `fleet` is the initial device count (fault and churn plans
/// address its physical ids); `replans` says the plan source can re-plan
/// (a fixed [`ShardedGraph`] cannot, which rules out everything that
/// reshapes the fleet — and is the only source under which sharded-step
/// barriers are legal, since nothing is ever resharded there).
pub(crate) fn validate(
    fleet: usize,
    replans: bool,
    opts: &RunOptions,
    recovery: &RecoveryOptions,
    durable: Option<&DurableOptions>,
) -> Result<()> {
    let invalid = |m: String| Err(RuntimeError::InvalidOptions(m));
    if fleet == 0 {
        return invalid("cannot run on zero workers".into());
    }
    if recovery.max_attempts == 0 {
        return invalid("max_attempts must be at least 1".into());
    }
    if opts.recv_timeout.is_zero() {
        return invalid("recv_timeout must be positive (a zero timeout stalls instantly)".into());
    }
    if let Some(cp) = opts.checkpoint {
        if cp.every == 0 {
            return invalid("checkpoint interval must be positive".into());
        }
        if replans && cp.unit != BarrierUnit::OriginalSteps {
            return invalid(
                "elastic and durable recovery reshard checkpoints across plans; use the \
                 plan-independent barriers of CheckpointPolicy::every_original"
                    .into(),
            );
        }
    }
    if let Some(d) = durable {
        if opts.checkpoint.is_none() {
            return invalid(
                "durable recovery persists checkpoint barriers; set a \
                 CheckpointPolicy::every_original cadence"
                    .into(),
            );
        }
        if d.restart_workers == Some(0) {
            return invalid("cannot restart on zero workers".into());
        }
        if d.restart_workers.is_some() && !opts.churn.is_empty() {
            return invalid(
                "restart_workers replaces the fleet at restart while a churn plan scripts \
                 its membership; set one or the other"
                    .into(),
            );
        }
    }
    if !opts.churn.is_empty() {
        if !replans {
            return invalid(
                "churn plans script fleet-membership changes; only run_with_elastic_recovery \
                 and run_with_durable_recovery can honor them"
                    .into(),
            );
        }
        if let Err(m) = opts.churn.validate(fleet) {
            return invalid(m);
        }
        if opts.churn.has_joins() && opts.checkpoint.is_none() {
            return invalid(
                "churn joins grow the run at checkpoint barriers; set a \
                 CheckpointPolicy::every_original cadence"
                    .into(),
            );
        }
    }
    // Fault plans address the *initial* fleet's physical ids.
    for f in &opts.faults.faults {
        match *f {
            Fault::Kill { worker, .. }
            | Fault::Panic { worker, .. }
            | Fault::PoolOverBudget { worker, .. } => {
                if worker >= fleet {
                    return invalid(format!("fault targets worker {worker} of {fleet}"));
                }
            }
            Fault::Message { src, dst, .. } => {
                if src >= fleet || dst >= fleet {
                    return invalid(format!("message fault targets link {src} -> {dst} of {fleet}"));
                }
                if src == dst {
                    return invalid(format!("message fault targets self-link {src} -> {dst}"));
                }
                if opts.integrity != IntegrityLevel::Full {
                    return invalid(
                        "message faults need IntegrityLevel::Full; lower levels skip the \
                         checks that detect tampering"
                            .into(),
                    );
                }
            }
        }
    }
    Ok(())
}

/// Everything one execution attempt borrows, by name.
#[derive(Clone, Copy)]
pub(crate) struct AttemptCtx<'a> {
    pub(crate) sharded: &'a ShardedGraph,
    /// Values for the sharded graph's leaf tensors (unused on resume: the
    /// snapshot already holds them).
    pub(crate) feeds: &'a [(TensorId, Tensor)],
    pub(crate) opts: &'a RunOptions,
    /// Injection state shared by every attempt of a supervised run.
    pub(crate) faults: &'a FaultState,
    /// Where barriers are recorded (consulted only under a checkpoint policy).
    pub(crate) store: &'a Mutex<CheckpointStore>,
    /// Checkpoint to start from (`None` = from the feeds).
    pub(crate) resume: Option<&'a ResumePoint>,
    /// `checkpoint_cuts` of `sharded` under `opts.checkpoint` (empty without
    /// a policy).
    pub(crate) cuts: &'a [Vec<usize>],
    /// Physical device of every logical worker.
    pub(crate) device_map: &'a [usize],
    /// Checkpoint barrier to pause at (elastic grow), if any.
    pub(crate) yield_at: Option<usize>,
}

/// How one execution attempt ended (when no failure intervened).
enum Attempt {
    /// Ran to completion.
    Done(RunOutput),
    /// Every worker stopped cleanly right after recording checkpoint `ckpt`
    /// — the cooperative pause the supervisor requests so it can grow onto a
    /// joining device at a consistent barrier.
    Yielded {
        /// The (1-based) checkpoint the attempt paused at.
        ckpt: usize,
    },
}

/// This plan's barrier cuts under the run's checkpoint policy.
fn cuts_of(sharded: &ShardedGraph, opts: &RunOptions) -> Vec<Vec<usize>> {
    opts.checkpoint.map(|cp| checkpoint_cuts(sharded, cp)).unwrap_or_default()
}

/// A single attempt with nothing around it — the whole of
/// [`run_with_options`](crate::run_with_options) and
/// [`resume_from_snapshot`](crate::resume_from_snapshot).
pub(crate) fn run_once(
    sharded: &ShardedGraph,
    feeds: &[(TensorId, Tensor)],
    opts: &RunOptions,
    resume: Option<&ResumePoint>,
) -> Result<RunOutput> {
    validate(sharded.workers, false, opts, &SINGLE_ATTEMPT, None)?;
    let device_map: Vec<usize> = (0..sharded.workers).collect();
    let ctx = AttemptCtx {
        sharded,
        feeds,
        opts,
        faults: &FaultState::new(&opts.faults),
        store: &Mutex::new(CheckpointStore::default()),
        resume,
        cuts: &cuts_of(sharded, opts),
        device_map: &device_map,
        yield_at: None,
    };
    match run_attempt(&ctx)? {
        Attempt::Done(out) => Ok(out),
        Attempt::Yielded { .. } => {
            Err(RuntimeError::Internal("attempt yielded without a yield barrier".into()))
        }
    }
}

/// Keeps the workers' heaps resident from one step to the next. A step
/// allocates its values afresh on the worker threads and the caller frees
/// them; glibc then hands a thread arena's free top back to the OS once it
/// exceeds the trim threshold (128 KiB by default), so the next step
/// page-faults every buffer back in: ≈4,900 minor faults, ≈3 ms of a ≈15 ms
/// `step_comm` step. glibc raises the threshold to twice the largest
/// mmapped block freed, and serves blocks below that block's size from its
/// arenas. Freeing one untouched 16 MiB block, once per process, raises it
/// to 32 MiB at the cost of two system calls and no page. Other allocators
/// ignore it.
fn keep_worker_heaps_resident() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| drop(std::hint::black_box(Vec::<u8>::with_capacity(16 << 20))));
}

/// One execution attempt: spawns the workers, collects their outcomes, and
/// on any failure assembles the [`RunFailure`] post-mortem. `ctx.device_map[w]`
/// is the *physical* device logical worker `w` runs on — fault plans target
/// physical devices, so after an elastic shrink the surviving workers keep
/// their fault histories while the dead device's faults vanish with it.
///
/// When `ctx.yield_at` is `Some(k)`, every worker stops cleanly right after
/// recording checkpoint `k` (positions before its cut are fully executed,
/// nothing after runs) and the attempt resolves to [`Attempt::Yielded`].
/// This is sound mid-run: with plan-independent barriers a pre-cut consumer
/// only ever needs pieces from pre-cut producers, so every worker reaches
/// its cut without any post-cut work and no send is left owed *within* the
/// prefix. In-flight pieces addressed to post-cut consumers are expected
/// and simply dropped with the channels.
fn run_attempt(ctx: &AttemptCtx<'_>) -> Result<Attempt> {
    let AttemptCtx { sharded, opts, store, resume, cuts, yield_at, .. } = *ctx;
    let k = sharded.workers;
    debug_assert_eq!(ctx.device_map.len(), k);

    keep_worker_heaps_resident();
    // The graph's execution plan — schedules, buffer plans, transfers,
    // fetch assemblies — built by the first attempt that runs the graph and
    // read by every later one. Building it rejects a malformed graph before
    // any thread starts. A resumed attempt filters its routes.
    let exec = sharded.exec_plan(opts.collector.as_ref()).map_err(|e| match e {
        CoreError::InvalidShardedGraph(m) => RuntimeError::InvalidOptions(m),
        e => RuntimeError::Core(e),
    })?;
    let resumed = resume.map(|r| exec.routes_from(&r.cuts));
    let routes = resumed.as_deref().unwrap_or(&exec.routes);
    // Workers index their values by tensor id, so every feed a from-scratch
    // attempt reads must name a tensor of the graph.
    let tensors = sharded.graph.num_tensors();
    if let Some((t, _)) = ctx.feeds.iter().find(|(t, _)| t.0 >= tensors && resume.is_none()) {
        return Err(RuntimeError::InvalidOptions(format!(
            "feed for tensor {t:?}, which the sharded graph does not have (it has {tensors} \
             tensors)"
        )));
    }

    // Checkpoint barriers: per worker, which checkpoint ids to record at
    // which local schedule position.
    let mut ckpts_at: Vec<BTreeMap<usize, Vec<usize>>> = vec![BTreeMap::new(); k];
    for (ki, cut) in cuts.iter().enumerate() {
        for (w, map) in ckpts_at.iter_mut().enumerate() {
            map.entry(cut[w]).or_default().push(ki + 1);
        }
    }

    // One channel per worker. Workers share one immutable sender slice —
    // no per-run clone fan-out; a dead worker drops its *receiver*, so a
    // send to it still fails fast, and the abort token (not channel
    // disconnection) is the primary dead-peer signal.
    let mut txs: Vec<Sender<Msg>> = Vec::with_capacity(k);
    let mut rxs: Vec<Receiver<Msg>> = Vec::with_capacity(k);
    for _ in 0..k {
        let (tx, rx) = channel();
        txs.push(tx);
        rxs.push(rx);
    }

    let token = AbortToken::new();
    let results: Mutex<Vec<Option<WorkerOutcome>>> = Mutex::new((0..k).map(|_| None).collect());
    // Yield rendezvous: a worker that paused at the yield barrier keeps its
    // receive port alive (parked, not exited) until every worker has reached
    // its own cut — otherwise a peer's pre-cut producer pushing a piece to
    // this worker's *post*-cut consumer would see a hung-up channel.
    let yield_latch = AtomicUsize::new(0);
    let epoch = Instant::now();
    // The collector's clock at this run's epoch: workers translate their
    // epoch-relative `Duration`s into collector microseconds by adding this
    // offset, so traces of successive attempts share one timeline.
    let obs_epoch_us = opts.collector.as_ref().map(|c| c.now_us()).unwrap_or(0.0);

    std::thread::scope(|scope| {
        for (w, rx) in rxs.into_iter().enumerate() {
            let worker = WorkerCtx {
                attempt: ctx,
                w,
                txs: txs.as_slice(),
                epoch,
                obs_epoch_us,
                token: &token,
                ckpts_at: &ckpts_at[w],
                exec: &exec,
                routes: &routes[w],
                yield_latch: &yield_latch,
            };
            let results = &results;
            scope.spawn(move || {
                let outcome = run_worker(&worker, rx);
                if let Some(slot) = lock(results).get_mut(w) {
                    *slot = Some(outcome);
                }
            });
        }
    });
    drop(txs);

    let wall = epoch.elapsed();
    if let Some(c) = &opts.collector {
        c.complete(
            Track::control(),
            "run",
            "attempt",
            obs_epoch_us,
            obs_epoch_us + wall.as_secs_f64() * 1e6,
        );
    }
    let merge_start = opts.collector.as_ref().map(Collector::now_us);
    let mut workers = Vec::new();
    let mut slabs: Vec<Vec<Option<Arc<Tensor>>>> = Vec::with_capacity(k);
    let mut sent_all: Vec<(usize, Vec<(u64, u64)>)> = Vec::new();
    let mut detection: Vec<(usize, Duration)> = Vec::new();
    let mut errors: Vec<(usize, RuntimeError)> = Vec::new();
    let mut any_yielded = false;
    let results = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    for (w, slot) in results.into_iter().enumerate() {
        let Some(o) = slot else {
            errors.push((w, RuntimeError::Internal(format!("worker {w} vanished"))));
            slabs.push(Vec::new());
            continue;
        };
        any_yielded |= o.yielded;
        if let Some(t) = o.trace {
            workers.push(t);
        }
        slabs.push(o.values);
        if !o.sent.is_empty() {
            sent_all.push((w, o.sent));
        }
        if let Some(d) = o.observed {
            detection.push((w, d));
        }
        if let Some(e) = o.error {
            errors.push((w, e));
        }
    }
    let mut links = Vec::new();
    for (src, per_dst) in &sent_all {
        for (dst, &(bytes, messages)) in per_dst.iter().enumerate() {
            if bytes > 0 || messages > 0 {
                links.push(LinkStat { src: *src, dst, bytes, messages });
            }
        }
    }
    let trace = RunTrace { workers, links, wall };

    let cause = token.cause();
    let clean = cause.is_none() && errors.is_empty();
    let mut values = BTreeMap::new();
    if clean && !any_yielded {
        // Success terminates the whole recovery ladder: the store's `Arc`
        // clones are dead weight, and dropping them lets the conversion
        // below reclaim most payloads by move instead of copy.
        if opts.checkpoint.is_some() {
            lock(store).clear();
        }
        // One ordered pass: every tensor from the slab of the worker that
        // owns it, in id order, so the map is built without a search.
        values = sharded
            .device_of_tensor
            .iter()
            .enumerate()
            .filter_map(|(t, owner)| {
                let v = slabs.get_mut((*owner)?)?.get_mut(t)?.take()?;
                Some((TensorId(t), Arc::try_unwrap(v).unwrap_or_else(|a| (*a).clone())))
            })
            .collect();
    }
    if let (Some(c), Some(start)) = (&opts.collector, merge_start) {
        let copies: u64 = trace.workers.iter().map(|w| w.transport_copy_bytes).sum();
        c.add_total("runtime/transport_copy_bytes", copies as f64);
        c.complete(Track::control(), "run", "merge", start, c.now_us());
    }
    if clean {
        // A failure always wins over a yield: if any worker died before its
        // cut we fall through to the post-mortem below and the checkpoint
        // stays whatever was consistently recorded.
        if any_yielded {
            let ckpt = yield_at
                .ok_or_else(|| RuntimeError::Internal("worker yielded without a barrier".into()))?;
            return Ok(Attempt::Yielded { ckpt });
        }
        return Ok(Attempt::Done(RunOutput { values, trace }));
    }
    // The token's cause identifies the *first* failure; that worker's own
    // typed error is the root cause. Workers that stopped because of the
    // abort hold secondary `Aborted` errors.
    let (primary, node, pos, summary) = match &cause {
        Some(c) => (c.worker, c.node, c.pos, c.summary.clone()),
        None => (errors[0].0, None, None, errors[0].1.to_string()),
    };
    let root = errors
        .iter()
        .position(|(w, e)| *w == primary && !matches!(e, RuntimeError::Aborted { .. }))
        .map(|i| errors.swap_remove(i).1)
        .unwrap_or(RuntimeError::Internal(summary));
    Err(RuntimeError::Failed(Box::new(RunFailure {
        worker: primary,
        node,
        pos,
        cause: Box::new(root),
        detection,
        trace,
    })))
}

/// Where the plan of each width comes from.
pub(crate) enum PlanSource<'a> {
    /// The caller's plan, as is: `feeds` are shard feeds and the width never
    /// changes.
    Fixed(&'a ShardedGraph),
    /// Partition `graph` per width through the warm `caches`: `feeds` are
    /// full original tensors, scattered per plan.
    Replan {
        /// The original graph.
        graph: &'a Graph,
        /// Partition options; `workers` is the initial fleet size.
        part: &'a PartitionOptions,
        /// Search caches that make a replan a lookup, not a cold search.
        caches: &'a mut SearchCaches,
    },
}

impl<'a> PlanSource<'a> {
    fn fixed(&self) -> Option<&'a ShardedGraph> {
        match self {
            PlanSource::Fixed(s) => Some(s),
            PlanSource::Replan { .. } => None,
        }
    }

    /// The plan for a fleet of `cap` devices (see [`select_width`]).
    fn select(
        &mut self,
        obs: Option<&Collector>,
        elastic: bool,
        cap: usize,
    ) -> std::result::Result<Selection, SelectErr> {
        match self {
            PlanSource::Fixed(s) => Ok(Selection { width: s.workers, planned: None, warm: false }),
            PlanSource::Replan { graph, part, caches } => {
                select_width(graph, part, caches, obs, elastic, cap)
            }
        }
    }
}

/// A width change the next selection completes.
struct Pending {
    /// `Shrink`, or `Grow` (demoted to `SpareJoin` when selection finds no
    /// wider feasible width).
    kind: TransitionKind,
    device: usize,
    from_width: usize,
    at_ckpt: Option<usize>,
    /// The failure that exhausted the old width (shrinks only).
    failure: Option<RunFailure>,
}

/// What the supervisor observed, in order. The ledger is the observer's, not
/// the supervised process's: a simulated process crash does not erase it.
#[derive(Default)]
pub(crate) struct Ledger {
    /// Physical devices classified as permanently lost, in loss order.
    pub(crate) lost: Vec<usize>,
    /// Physical devices that (re)joined the fleet, in join order.
    pub(crate) joined: Vec<usize>,
    /// Worker counts attempted, ladder order.
    pub(crate) widths: Vec<usize>,
    /// The failure of every aborted attempt except a process crash.
    pub(crate) failures: Vec<RunFailure>,
    /// One record per attempt.
    pub(crate) history: Vec<AttemptRecord>,
    /// Every fleet transition.
    pub(crate) transitions: Vec<ElasticTransition>,
    /// Post-mortem of the simulated process crash, once it fired.
    pub(crate) crashed: Option<RunFailure>,
}

/// One attempt of a recovery ladder: which worker set ran, what it resumed
/// from and how it ended. Its latencies are spans on an attached
/// [`Collector`]: the replan before it (`elastic replan ({w} workers)`), the
/// reshard (`reshard checkpoint …`) and the attempt itself (`attempt`).
#[derive(Debug, Clone)]
pub struct AttemptRecord {
    /// Worker count of this attempt.
    pub width: usize,
    /// Physical devices the logical workers mapped to.
    pub devices: Vec<usize>,
    /// Checkpoint the attempt resumed from (`None` = from scratch).
    pub resumed_from: Option<usize>,
    /// Bytes of full-tensor snapshot resharded onto this attempt's plan.
    pub reshard_bytes: u64,
    /// Slowest peer abort-detection latency, for failed attempts.
    pub detection: Option<Duration>,
    /// Whether the attempt succeeded.
    pub ok: bool,
    /// Set when the attempt stopped *voluntarily* at this checkpoint barrier
    /// so the elastic ladder could grow onto a joining device (neither a
    /// success nor a failure).
    pub yielded: Option<usize>,
}

/// What a supervised run hands back, whichever entry point started it: the
/// final output, one [`AttemptRecord`] per attempt, the fleet's transitions
/// and the durable store's counters. Per-attempt facts live only in
/// `history`: the final width's devices are `history.last().devices`, the
/// checkpoint the successful attempt resumed from is
/// `history.last().resumed_from`, the bytes restored are the sum of
/// `history`'s `reshard_bytes`, and a crash's detection latency is
/// `crashed`'s.
#[derive(Debug)]
pub struct RecoveryReport {
    /// The successful run's output, keyed by the final plan's tensor ids.
    pub output: RunOutput,
    /// The final partition plan (`None` under
    /// [`run_with_recovery`](crate::run_with_recovery): the caller's fixed
    /// plan ran).
    pub plan: Option<PartitionPlan>,
    /// The final plan's sharded graph (`None` exactly when `plan` is) —
    /// gather originals from `output` with [`ShardedGraph::gather`].
    pub sharded: Option<ShardedGraph>,
    /// Fleet members idling as spares at the end (in the fleet but not
    /// active: no feasible width used them; the active ones are
    /// `history.last().devices`).
    pub spares: Vec<usize>,
    /// Physical devices classified as permanently lost, in loss order.
    pub lost: Vec<usize>,
    /// Physical devices that (re)joined the fleet, in join order.
    pub joined: Vec<usize>,
    /// Worker counts selected, ladder order (initial width first).
    pub widths: Vec<usize>,
    /// Attempts consumed, first run included (`history.len()`).
    pub attempts: usize,
    /// The failure of every aborted attempt except a process crash, in order.
    pub failures: Vec<RunFailure>,
    /// One record per attempt, first run included.
    pub history: Vec<AttemptRecord>,
    /// Every fleet transition (shrink, grow, spare join, spare loss).
    pub transitions: Vec<ElasticTransition>,
    /// Post-mortem of the simulated process crash, when one fired.
    pub crashed: Option<RunFailure>,
    /// The plan-independent snapshot the final width resumed from, if any —
    /// feed it to [`resume_from_snapshot`](crate::resume_from_snapshot) at
    /// the final width to reproduce the output bit for bit.
    pub snapshot: Option<FullSnapshot>,
    /// Durable checkpoint candidates recovery rejected, newest first, each
    /// with its typed reason. This and the durable counters below are zero
    /// when no store is configured.
    pub rejected: Vec<RejectedCheckpoint>,
    /// Checkpoints committed durably, across all processes.
    pub written: usize,
    /// Bytes written durably, across all processes (shards + manifests).
    pub written_bytes: u64,
    /// Blobs removed by retention GC.
    pub gc_removed: usize,
    /// Total wall time spent in durable commits.
    pub write_wall: Duration,
}

/// Inserts `d` into sorted `v` (active devices are always the lowest-id
/// fleet members, so logical-worker order stays deterministic).
fn insert_sorted(v: &mut Vec<usize>, d: usize) {
    let i = v.partition_point(|&x| x < d);
    v.insert(i, d);
}

/// The recovery supervisor (see the module docs for the state machine).
///
/// Two kinds of state cross its transitions. **The world** — fleet
/// membership (`available`, the lost list) and the churn script's cursor —
/// survives everything, a process crash included. **Process memory** — the
/// [`CheckpointStore`], the carried snapshot, injected faults' fired flags
/// and the durable sink — is dropped by a process crash and rebuilt by the
/// next boot from whatever the blob store holds.
///
/// `elastic` is the shrink mandate: exhausting a width's attempts shrinks
/// past the blamed device (down to one worker, then `Unrecoverable`)
/// instead of returning the failure. Only a re-planning source can honor it.
pub(crate) fn supervise(
    mut source: PlanSource<'_>,
    feeds: &[(TensorId, Tensor)],
    opts: &RunOptions,
    recovery: &RecoveryOptions,
    durable: Option<&DurableOptions>,
    elastic: bool,
) -> Result<RecoveryReport> {
    let fleet = match &source {
        PlanSource::Fixed(s) => s.workers,
        PlanSource::Replan { part, .. } => part.workers,
    };
    validate(fleet, source.fixed().is_none(), opts, recovery, durable)?;
    let obs = opts.collector.as_ref();
    let faults = FaultState::with_churn(&opts.faults, &opts.churn);
    let mut backoff = BackoffSchedule::new(recovery.backoff, MAX_BACKOFF, 0);
    let disk = durable.map(|d| Persister::new(d, opts));

    // The fleet: every present physical device, sorted. The first `width`
    // are active; the rest idle as spares.
    let mut available: Vec<usize> = (0..fleet).collect();
    let mut log = Ledger::default();
    let mut carried: Option<FullSnapshot> = None;
    let mut pending: Option<Pending> = None;
    let mut boot = true;

    'ladder: loop {
        // ===== boot: a (re)started process learns what the disk holds =====
        if std::mem::take(&mut boot) {
            if let Some(d) = &disk {
                carried = d.boot(&mut available)?;
            }
        }

        // ===== select width =====
        let Selection { width, planned, warm } =
            match source.select(obs, elastic, available.len()) {
                Ok(s) => s,
                Err(SelectErr::Hard(e)) => return Err(e),
                Err(SelectErr::Infeasible(term)) => {
                    // The failure that triggered the shrink says more than
                    // the infeasibility it ran into.
                    let cause = match pending.and_then(|p| p.failure) {
                        Some(f) => RuntimeError::Failed(Box::new(f)),
                        None => term,
                    };
                    // With an elastic mandate an unrunnable fleet is a typed
                    // surrender; without one, surface the raw error.
                    return Err(if elastic {
                        RuntimeError::Unrecoverable {
                            lost: log.lost,
                            widths: log.widths,
                            cause: Box::new(cause),
                        }
                    } else {
                        cause
                    });
                }
            };
        let sharded: &ShardedGraph = planned
            .as_ref()
            .map(|(_, s)| s)
            .or(source.fixed())
            .expect("a selection carries its plan unless the source is fixed");
        log.widths.push(width);
        let devices: Vec<usize> = available[..width].to_vec();
        if let Some(c) = obs {
            c.counter(Track::control(), "elastic/surviving_workers", c.now_us(), width as f64);
            c.counter(
                Track::control(),
                "elastic/spare_devices",
                c.now_us(),
                (available.len() - width) as f64,
            );
        }

        // ===== prepare: feeds, barriers and the carried snapshot, once per
        // width; every attempt below can resume from the resharded point =====
        let cuts = cuts_of(sharded, opts);
        if let Some(k) = disk.as_ref().and_then(|d| d.armed_crash()) {
            if k > cuts.len() {
                return Err(RuntimeError::InvalidOptions(format!(
                    "the simulated crash point (checkpoint {k}) is past the plan's last barrier \
                     ({}): the run would complete instead of crashing",
                    cuts.len()
                )));
            }
        }
        // Only a from-scratch attempt reads the feeds, and none starts from
        // scratch once a snapshot is carried.
        let mut scattered: Vec<(TensorId, Tensor)> = Vec::new();
        if planned.is_some() && carried.is_none() {
            for (t, v) in feeds {
                scattered.extend(sharded.scatter(*t, v)?);
            }
        }
        let shard_feeds = if planned.is_some() { scattered.as_slice() } else { feeds };
        let mut reshard_bytes = 0u64;
        let mut carried_point: Option<ResumePoint> = None;
        if let Some(snap) = &carried {
            let obs_t0 = obs.map(|c| c.now_us()).unwrap_or(0.0);
            carried_point = Some(scatter_snapshot(snap, sharded)?);
            reshard_bytes = snap.bytes();
            if let Some(c) = obs {
                c.complete(
                    Track::control(),
                    "elastic",
                    &format!("reshard checkpoint {} → {width} workers", snap.ckpt),
                    obs_t0,
                    c.now_us(),
                );
                c.add_total("elastic/reshard_bytes", snap.bytes() as f64);
            }
        }
        // Close the width change that led here; the next attempt is the
        // first at the new width.
        if let Some(p) = pending.take() {
            let kind = match p.kind {
                TransitionKind::Grow if width <= p.from_width => TransitionKind::SpareJoin,
                kind => kind,
            };
            if let Some(c) = obs {
                c.add_total("elastic/replans", 1.0);
                let at = p.at_ckpt.unwrap_or(0);
                match kind {
                    TransitionKind::Grow => {
                        let (dev, from) = (p.device, p.from_width);
                        let what = format!("device {dev} rejoined: grow {from} → {width} at checkpoint {at}");
                        c.instant(Track::control(), "churn", &what);
                        c.add_total("elastic/joins", 1.0);
                        c.add_total("elastic/grows", 1.0);
                    }
                    TransitionKind::SpareJoin => {
                        let what =
                            format!("device {} rejoined as spare (no wider feasible width)", p.device);
                        c.instant(Track::control(), "churn", &what);
                        c.add_total("elastic/joins", 1.0);
                    }
                    _ => {}
                }
            }
            log.transitions.push(ElasticTransition {
                kind,
                device: p.device,
                from_width: p.from_width,
                to_width: width,
                at_ckpt: p.at_ckpt,
                attempt: Some(log.history.len()),
                replan_warm: warm,
            });
            log.failures.extend(p.failure);
        }

        // A leave of a non-active device cannot fire mid-run: it happens
        // immediately (no worker runs on it).
        while let Some(ChurnEvent::Leave { device, .. }) = faults.armed_event() {
            if devices.contains(&device) {
                break;
            }
            faults.advance_churn();
            if let Some(i) = available.iter().position(|&d| d == device) {
                available.remove(i);
                log.lost.push(device);
                log.transitions.push(ElasticTransition {
                    kind: TransitionKind::SpareLoss,
                    device,
                    from_width: width,
                    to_width: width,
                    at_ckpt: None,
                    attempt: None,
                    replan_warm: false,
                });
                if let Some(c) = obs {
                    let what = format!("spare device {device} lost (width stays {width})");
                    c.instant(Track::control(), "churn", &what);
                }
            }
        }
        // A join that may trigger a grow pause during this width's attempts.
        let grow_pending = faults.pending_join();

        // Fresh store per width: snapshots are keyed by this plan's tensor
        // ids. Progress crosses widths only through the carried snapshot.
        let store = Mutex::new(match &disk {
            Some(d) => CheckpointStore::with_sink(d.clone()),
            None => CheckpointStore::default(),
        });

        // ===== attempt → react =====
        let mut exhausted: Option<RunFailure> = None;
        for attempt in 1..=recovery.max_attempts {
            let resume: Option<ResumePoint> = {
                let s = lock(&store);
                match s.latest_consistent(width, cuts.len()) {
                    // This width's own checkpoints are never older than the
                    // carried snapshot (attempts resume at or past its
                    // barrier), so prefer them.
                    Some(ck) => Some(s.resume_point(ck, width, &cuts)),
                    None => carried_point.clone(),
                }
            };
            let resume_ckpt = resume.as_ref().map(|p| p.ckpt);
            // Where to pause for a pending join: the first barrier strictly
            // after the resume point that honors `at_ckpt`, clamped into the
            // plan's barrier range. An attempt resuming at the last barrier
            // has none left to pause at; the resume point, consistent
            // already, is then the grow point itself, so a join grows at the
            // last barrier whether a shrink harvested it or an earlier one.
            let yield_at: Option<usize> = grow_pending.and_then(|(_, at)| {
                let lo = resume_ckpt.map(|ck| ck + 1).unwrap_or(1);
                (lo <= cuts.len()).then(|| at.clamp(lo, cuts.len()))
            });
            if let Some(c) = obs {
                let from = match resume_ckpt {
                    Some(ck) => format!("resume from checkpoint {ck}"),
                    None => "from scratch".into(),
                };
                let what = format!("attempt {attempt} @ {width} workers: {from}");
                c.instant(Track::control(), "recovery", &what);
            }
            let outcome = match (grow_pending, yield_at, resume_ckpt) {
                (Some(_), None, Some(ckpt)) => {
                    // An attempt with nothing to run before its pause.
                    if let Some(c) = obs {
                        let now = c.now_us();
                        c.complete(Track::control(), "run", "attempt", now, now);
                    }
                    Ok(Attempt::Yielded { ckpt })
                }
                _ => run_attempt(&AttemptCtx {
                    sharded,
                    feeds: shard_feeds,
                    opts,
                    faults: &faults,
                    store: &store,
                    resume: resume.as_ref(),
                    cuts: &cuts,
                    device_map: &devices,
                    yield_at,
                }),
            };
            let mut record = AttemptRecord {
                width,
                devices: devices.clone(),
                resumed_from: resume_ckpt,
                reshard_bytes: if attempt == 1 { reshard_bytes } else { 0 },
                detection: None,
                ok: false,
                yielded: None,
            };
            match outcome {
                Ok(Attempt::Done(output)) => {
                    if let Some(k) = disk.as_ref().and_then(|d| d.armed_crash()) {
                        return Err(RuntimeError::InvalidOptions(format!(
                            "the simulated crash point (checkpoint {k}) was never reached: the \
                             run completed — move the crash to an earlier barrier"
                        )));
                    }
                    record.ok = true;
                    log.history.push(record);
                    let spares = available.iter().copied().filter(|d| !devices.contains(d)).collect();
                    let (plan, sharded) = planned.unzip();
                    let mut report = RecoveryReport {
                        output,
                        plan,
                        sharded,
                        spares,
                        lost: log.lost,
                        joined: log.joined,
                        widths: log.widths,
                        attempts: log.history.len(),
                        failures: log.failures,
                        history: log.history,
                        transitions: log.transitions,
                        crashed: log.crashed,
                        snapshot: carried,
                        rejected: Vec::new(),
                        written: 0,
                        written_bytes: 0,
                        gc_removed: 0,
                        write_wall: Duration::ZERO,
                    };
                    if let Some(d) = &disk {
                        d.report_into(&mut report);
                    }
                    return Ok(report);
                }
                Ok(Attempt::Yielded { ckpt }) => {
                    record.yielded = Some(ckpt);
                    log.history.push(record);
                    // The pause barrier is consistent by construction
                    // (every worker recorded it before stopping): harvest
                    // it as the carried snapshot and let the device in.
                    // Selection over the enlarged fleet cannot regress below
                    // the current width (it stays feasible) — but it may not
                    // exceed it either, in which case the device idles as a
                    // spare.
                    let cp = opts.checkpoint.expect("yield requires a checkpoint policy");
                    let point = match resume {
                        Some(point) if point.ckpt == ckpt => point,
                        _ => lock(&store).resume_point(ckpt, width, &cuts),
                    };
                    carried = Some(assemble_snapshot(sharded, ckpt, &point.values, cp.every)?);
                    let (device, _) = grow_pending.expect("only a pending join sets a yield barrier");
                    insert_sorted(&mut available, device);
                    log.joined.push(device);
                    faults.advance_churn();
                    pending = Some(Pending {
                        kind: TransitionKind::Grow,
                        device,
                        from_width: width,
                        at_ckpt: Some(ckpt),
                        failure: None,
                    });
                    continue 'ladder;
                }
                Err(RuntimeError::Failed(f)) => {
                    record.detection = f.max_detection();
                    log.history.push(record);
                    if disk.as_ref().is_some_and(|d| d.crashed()) {
                        // Whole-process crash: the checkpoint store (dropped
                        // with this iteration), the carried snapshot and the
                        // fired flags die; the blob store and the world live.
                        if let Some(c) = obs {
                            let what = format!("process crashed: {}", f.cause);
                            c.instant(Track::control(), "durable", &what);
                        }
                        log.crashed = Some(*f);
                        carried = None;
                        faults.forget_fired();
                        boot = true;
                        continue 'ladder;
                    }
                    if attempt < recovery.max_attempts {
                        log.failures.push(*f);
                        let delay = backoff.next_delay();
                        if !delay.is_zero() {
                            std::thread::sleep(delay);
                        }
                    } else {
                        exhausted = Some(*f);
                    }
                }
                // Configuration errors are not retryable.
                Err(e) => return Err(e),
            }
        }

        // This width is out of attempts. Without an elastic mandate that is
        // the run's failure; with one, the blamed worker's physical device is
        // classified as permanently lost and the ladder shrinks past it.
        let f = exhausted.expect("an exhausted width recorded its last failure");
        if !elastic {
            return Err(RuntimeError::Failed(Box::new(f)));
        }
        let victim = devices[f.worker];
        if let Some(c) = obs {
            c.instant(Track::control(), "elastic", &format!("device {victim} lost (permanent)"));
        }
        log.lost.push(victim);
        // A scripted leave of this device has done its job: retire it so
        // the next churn event arms.
        if matches!(faults.armed_event(),
            Some(ChurnEvent::Leave { device, .. }) if device == victim)
        {
            faults.advance_churn();
        }
        // Harvest this width's best consistent checkpoint as the carried
        // plan-independent snapshot before the store (keyed by this plan's
        // tensor ids) is dropped.
        if let Some(cp) = opts.checkpoint {
            let s = lock(&store);
            if let Some(ck) = s.latest_consistent(width, cuts.len()) {
                let point = s.resume_point(ck, width, &cuts);
                let snap = assemble_snapshot(sharded, point.ckpt, &point.values, cp.every)?;
                // Attempts only ever resume at or past the carried barrier,
                // so a fresh consistent checkpoint is never older.
                if carried.as_ref().is_none_or(|c0| snap.ckpt >= c0.ckpt) {
                    carried = Some(snap);
                }
            }
        }
        available.retain(|&d| d != victim);
        pending = Some(Pending {
            kind: TransitionKind::Shrink,
            device: victim,
            from_width: width,
            at_ckpt: carried.as_ref().map(|s| s.ckpt),
            failure: Some(f),
        });
    }
}
