//! One worker thread of an attempt: its execution state ([`Worker`]), the
//! message type workers exchange, the panic-safe thread entry point
//! ([`run_worker`]), the checkpoint-barrier integrity scan and the
//! block-copy helpers the send, fetch and reshard paths share.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tofu_core::{ExecPlan, FetchSource, Routes, ShardedGraph, Transfer};
use tofu_graph::{execute_node, BufferPlan, NodeId, TensorId, TensorKind};
use tofu_obs::{SpanBuffer, Track};
use tofu_tensor::{Shape, Tensor};

use crate::abort::{AbortCause, AbortToken};
use crate::checkpoint::CheckpointStore;
use crate::error::RuntimeError;
use crate::fault::{FaultState, MessageFault, StepFault};
use crate::pool::BufferPool;
use crate::supervisor::AttemptCtx;
use crate::trace::WorkerTrace;
use crate::{lock, IntegrityLevel, Result};

/// Granularity at which blocked workers poll the shared abort token; bounds
/// how stale a worker's view of a peer failure can be.
const ABORT_POLL: Duration = Duration::from_millis(5);

/// One cross-worker message: one transfer's extracted piece, stamped with
/// its first reader (input `input_index` of `consumer`), the integrity
/// metadata the receiver verifies (sender, per-link sequence number, payload
/// checksum) and the pre-resolved receive slot it lands in. The payload is a
/// shared tensor — sending moves a refcount, never bytes.
pub(crate) struct Msg {
    src: usize,
    seq: u64,
    slot: u32,
    consumer: NodeId,
    input_index: usize,
    checksum: u64,
    piece: Arc<Tensor>,
}

/// What one worker thread hands back, success or not.
pub(crate) struct WorkerOutcome {
    /// The (possibly partial) trace; `None` when a panic unwound the worker
    /// before one could be assembled.
    pub(crate) trace: Option<WorkerTrace>,
    /// The worker's values, indexed by `TensorId` (empty on failure).
    pub(crate) values: Vec<Option<Arc<Tensor>>>,
    /// Per destination: (bytes, messages) pushed.
    pub(crate) sent: Vec<(u64, u64)>,
    pub(crate) error: Option<RuntimeError>,
    /// Time from the abort token tripping to this worker observing it.
    pub(crate) observed: Option<Duration>,
    /// The worker stopped voluntarily at the attempt's yield barrier.
    pub(crate) yielded: bool,
}

/// FNV-1a over the payload's f32 bit patterns — one 32-bit *word* per
/// multiply step; cheap and deterministic. The durable codec's
/// `tofu_durable::fnv1a64` uses the same offset basis and prime but hashes one
/// *byte* per step (the standard FNV-1a, so shard files stay checkable by
/// outside tools). The two are different functions over the same constants
/// and are not interchangeable: this one guards in-memory pieces and
/// snapshots, that one guards bytes on disk.
fn payload_checksum(data: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for v in data {
        h ^= v.to_bits() as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// What the pre-snapshot scan found wrong with a live value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SnapshotDefect {
    /// The value holds a NaN or infinity.
    NonFinite,
    /// The value's bytes no longer hash to the checksum recorded when it was
    /// produced — the buffer was corrupted while sitting in memory.
    ChecksumMismatch,
}

/// Scans a worker's live values right before they are recorded into
/// checkpoint state at barrier position `pos`: values dead before the barrier
/// (`last_read[t] < pos`, see `ExecPlan::last_read`) are unobservable on
/// resume and skipped; the snapshot still records them. The rest
/// must be finite and, when a produce-time checksum was recorded in `sums`,
/// must still hash to it. Returns the first offending tensor.
pub(crate) fn scan_snapshot(
    values: &BTreeMap<TensorId, Arc<Tensor>>,
    sums: &BTreeMap<TensorId, u64>,
    last_read: &[usize],
    pos: usize,
) -> std::result::Result<(), (TensorId, SnapshotDefect)> {
    for (t, v) in values {
        if last_read[t.0] < pos {
            continue; // dead before the barrier: unobservable on resume
        }
        if v.data().iter().any(|x| !x.is_finite()) {
            return Err((*t, SnapshotDefect::NonFinite));
        }
        if let Some(&sum) = sums.get(t) {
            if payload_checksum(v.data()) != sum {
                return Err((*t, SnapshotDefect::ChecksumMismatch));
            }
        }
    }
    Ok(())
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Everything one worker thread borrows from its attempt, by name.
pub(crate) struct WorkerCtx<'a> {
    /// The attempt this worker belongs to.
    pub(crate) attempt: &'a AttemptCtx<'a>,
    /// Logical worker index.
    pub(crate) w: usize,
    /// The attempt-wide shared sender slice (own slot included).
    pub(crate) txs: &'a [Sender<Msg>],
    /// The attempt's wall-clock epoch.
    pub(crate) epoch: Instant,
    /// Collector microseconds at `epoch` (see `run_attempt`).
    pub(crate) obs_epoch_us: f64,
    /// The attempt's shared abort token.
    pub(crate) token: &'a AbortToken,
    /// Per local schedule position: checkpoint ids to record there.
    pub(crate) ckpts_at: &'a BTreeMap<usize, Vec<usize>>,
    /// The graph's execution plan.
    pub(crate) exec: &'a ExecPlan,
    /// This worker's routes for the attempt.
    pub(crate) routes: &'a Routes,
    /// Rendezvous counter of paused workers (see `run_attempt`).
    pub(crate) yield_latch: &'a AtomicUsize,
}

/// Runs one worker to completion, converting every exit path — success,
/// typed error, panic — into a [`WorkerOutcome`] and tripping the shared
/// abort token on first failure.
pub(crate) fn run_worker(ctx: &WorkerCtx<'_>, rx: Receiver<Msg>) -> WorkerOutcome {
    let (w, token) = (ctx.w, ctx.token);
    let failed = |error: RuntimeError, summary: String| {
        token.trip(AbortCause { worker: w, node: None, pos: None, summary, at: Instant::now() });
        WorkerOutcome {
            trace: None,
            values: Vec::new(),
            sent: Vec::new(),
            error: Some(error),
            observed: None,
            yielded: false,
        }
    };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut worker = match Worker::new(ctx, rx) {
            Ok(worker) => worker,
            Err(e) => {
                let summary = e.to_string();
                return failed(e, summary);
            }
        };
        let err = worker.run_inner().err();
        worker.finish(err)
    }));
    result.unwrap_or_else(|payload| {
        let message = panic_message(payload);
        let summary = format!("panic: {message}");
        failed(RuntimeError::WorkerPanic { worker: w, message }, summary)
    })
}

/// One worker's execution state.
struct Worker<'a> {
    sharded: &'a ShardedGraph,
    w: usize,
    /// Physical device this logical worker runs on; fault plans address
    /// physical devices (see `run_attempt`).
    phys: usize,
    /// Logical-to-physical device map for the whole attempt, for addressing
    /// message faults by physical link.
    device_map: &'a [usize],
    /// The graph's execution plan: transfers and liveness floors.
    exec: &'a ExecPlan,
    schedule: &'a [NodeId],
    plan: &'a BufferPlan,
    /// Values by `TensorId`, one slot per tensor of the graph; a worker only
    /// ever holds tensors it owns. Values are shared: checkpoints and resume
    /// snapshots hold `Arc` clones of the same payloads instead of deep
    /// copies.
    values: Vec<Option<Arc<Tensor>>>,
    /// Under a checkpoint policy: FNV-1a checksum of each value's payload,
    /// recorded the moment the value was produced (or fed / restored). The
    /// checkpoint barrier re-hashes live values against these, so a buffer
    /// aliased or overwritten after production is caught *before* the
    /// snapshot commits — and long before it could reach disk.
    value_sums: BTreeMap<TensorId, u64>,
    /// Remote pieces that arrived before their last reader took them,
    /// indexed by the plan-time receive slot.
    pending: Vec<Option<Arc<Tensor>>>,
    /// Per receive slot: reads still to come this attempt.
    reads_left: Vec<u32>,
    rx: Receiver<Msg>,
    /// The attempt-wide shared sender slice (own slot included; the run
    /// scope owns the senders, so no per-run clone fan-out).
    txs: &'a [Sender<Msg>],
    /// This worker's routes for the attempt.
    routes: &'a Routes,
    /// Per-message verification level.
    integrity: IntegrityLevel,
    /// Cached: the fault plan contains at least one message fault, so the
    /// per-send fault scan is worth running at all.
    has_message_faults: bool,
    /// Payload bytes the transport copied beyond the producer's single
    /// block extraction (zero on the fault-free fast path).
    transport_copy_bytes: u64,
    /// Per destination: (bytes, messages) pushed.
    sent: Vec<(u64, u64)>,
    /// Per destination: next sequence number to stamp.
    next_seq: Vec<u64>,
    /// Per source: sequence number the next arrival must carry.
    expect_seq: Vec<u64>,
    bytes_received: u64,
    persistent_bytes: u64,
    pool: BufferPool,
    ops: usize,
    busy: Duration,
    epoch: Instant,
    /// Trace buffer on this worker's runtime lane; events accumulate locally
    /// and reach the shared collector in one batch at [`Worker::finish`].
    obs: Option<SpanBuffer>,
    /// Collector microseconds at `epoch` (see `run_attempt`).
    obs_epoch_us: f64,
    recv_timeout: Duration,
    token: AbortToken,
    faults: &'a FaultState,
    ckpts_at: &'a BTreeMap<usize, Vec<usize>>,
    store: Option<&'a Mutex<CheckpointStore>>,
    /// Schedule position execution starts at (non-zero on resume).
    start_pos: usize,
    /// Position / node currently executing, for failure attribution.
    cur_pos: Option<usize>,
    cur_node: Option<NodeId>,
    /// Latency from abort trip to this worker observing it.
    observed: Option<Duration>,
    completed: bool,
    /// Checkpoint barrier to stop cleanly at (elastic grow pause).
    yield_at: Option<usize>,
    /// Set once the yield barrier has been recorded; execution stops.
    yielded: bool,
    /// Rendezvous counter of paused workers (see `run_attempt`).
    yield_latch: &'a AtomicUsize,
}

impl<'a> Worker<'a> {
    fn new(ctx: &WorkerCtx<'a>, rx: Receiver<Msg>) -> Result<Worker<'a>> {
        let WorkerCtx {
            attempt,
            w,
            txs,
            epoch,
            obs_epoch_us,
            token,
            ckpts_at,
            exec,
            routes,
            yield_latch,
        } = *ctx;
        let AttemptCtx { sharded, feeds, opts, faults, device_map, yield_at, .. } = *attempt;
        let store = opts.checkpoint.map(|_| attempt.store);
        let resume = attempt.resume.map(|r| (r.cuts[w], &r.values[w]));
        let obs = opts.collector.as_ref().map(|c| c.buffer(Track::runtime(w)));
        let mut values = vec![None; sharded.graph.num_tensors()];
        let start_pos = match resume {
            // The snapshot already holds the feeds plus everything the
            // prefix computed; re-feeding would be redundant. Cloning an
            // `Arc` shares the payload with the checkpoint store.
            Some((cut, snap)) => {
                for (t, v) in snap {
                    let slot = values.get_mut(t.0).ok_or_else(|| {
                        RuntimeError::Internal(format!("worker {w}: snapshot holds unknown {t:?}"))
                    })?;
                    *slot = Some(Arc::clone(v));
                }
                cut
            }
            None => {
                for (t, v) in feeds {
                    // Feeds name tensors of the graph (`run_attempt` checks).
                    if sharded.device_of_tensor[t.0] != Some(w) {
                        continue;
                    }
                    let meta = sharded.graph.tensor(*t);
                    if meta.kind == TensorKind::Intermediate {
                        return Err(RuntimeError::Internal(format!(
                            "worker {w}: fed tensor {:?} is not a leaf",
                            meta.name
                        )));
                    }
                    if v.shape() != &meta.shape {
                        return Err(RuntimeError::Internal(format!(
                            "worker {w}: fed shape {} for shard {:?} declared {}",
                            v.shape(),
                            meta.name,
                            meta.shape
                        )));
                    }
                    values[t.0] = Some(Arc::new(v.clone()));
                }
                0
            }
        };
        let k = txs.len();
        let value_sums = if store.is_some() {
            values
                .iter()
                .enumerate()
                .filter_map(|(t, v)| Some((TensorId(t), payload_checksum(v.as_ref()?.data()))))
                .collect()
        } else {
            BTreeMap::new()
        };
        Ok(Worker {
            sharded,
            w,
            phys: device_map[w],
            device_map,
            exec,
            schedule: &exec.workers[w].schedule,
            plan: &exec.workers[w].buffers,
            values,
            value_sums,
            pending: vec![None; routes.reads.len()],
            reads_left: routes.reads.clone(),
            rx,
            txs,
            routes,
            integrity: opts.integrity,
            has_message_faults: faults.has_message_faults(),
            transport_copy_bytes: 0,
            sent: vec![(0, 0); k],
            next_seq: vec![0; k],
            expect_seq: vec![0; k],
            bytes_received: 0,
            persistent_bytes: 0,
            pool: BufferPool::new(w),
            ops: 0,
            busy: Duration::ZERO,
            epoch,
            obs,
            obs_epoch_us,
            recv_timeout: opts.recv_timeout,
            token: token.clone(),
            faults,
            ckpts_at,
            store,
            start_pos,
            cur_pos: None,
            cur_node: None,
            observed: None,
            completed: false,
            yield_at,
            yielded: false,
            yield_latch,
        })
    }

    /// Parks a paused worker until every worker has reached its own yield
    /// cut (or a failure tripped the abort token), keeping this worker's
    /// receive port alive for peers still executing their prefixes.
    fn yield_park(&self) {
        let k = self.txs.len();
        self.yield_latch.fetch_add(1, Ordering::AcqRel);
        while self.yield_latch.load(Ordering::Acquire) < k && !self.token.is_tripped() {
            std::thread::sleep(ABORT_POLL);
        }
    }

    /// Collector microseconds for an epoch-relative duration.
    fn obs_ts(&self, since_epoch: Duration) -> f64 {
        self.obs_epoch_us + since_epoch.as_secs_f64() * 1e6
    }

    /// Converts the finished (or failed) worker into its outcome, tripping
    /// the abort token if this worker failed first.
    fn finish(mut self, err: Option<RuntimeError>) -> WorkerOutcome {
        if let Some(e) = &err {
            if !matches!(e, RuntimeError::Aborted { .. }) {
                if let Some(buf) = self.obs.as_mut() {
                    buf.instant("abort", &format!("worker {} failed: {e}", self.w));
                }
            }
            // A worker that stopped *because of* the abort is not a new
            // failure; everything else races to trip (first wins).
            if !matches!(e, RuntimeError::Aborted { .. }) {
                self.token.trip(AbortCause {
                    worker: self.w,
                    node: self.cur_node,
                    pos: self.cur_pos,
                    summary: e.to_string(),
                    at: Instant::now(),
                });
            }
        }
        // One batched hand-off of everything this worker buffered (flush on
        // drop would also cover it; doing it here keeps the timing visible).
        if let Some(buf) = self.obs.as_mut() {
            buf.flush();
        }
        let trace = WorkerTrace {
            device: self.w,
            ops: self.ops,
            busy: self.busy,
            pool_peak_bytes: self.pool.peak_bytes(),
            persistent_bytes: self.persistent_bytes,
            bytes_sent: self.sent.iter().map(|&(b, _)| b).sum(),
            bytes_received: self.bytes_received,
            transport_copy_bytes: self.transport_copy_bytes,
            completed: self.completed,
            resume_pos: if self.start_pos > 0 { Some(self.start_pos) } else { None },
        };
        WorkerOutcome {
            trace: Some(trace),
            values: std::mem::take(&mut self.values),
            sent: std::mem::take(&mut self.sent),
            error: err,
            observed: self.observed,
            yielded: self.yielded,
        }
    }

    /// Observes the shared abort token; errors with `Aborted` once tripped.
    fn check_abort(&mut self) -> Result<()> {
        if self.token.is_tripped() {
            let cause = self.token.cause().expect("tripped token carries a cause");
            if self.observed.is_none() {
                self.observed = Some(cause.at.elapsed());
                if let Some(buf) = self.obs.as_mut() {
                    buf.instant("abort", &format!("abort observed (worker {} failed)", cause.worker));
                }
            }
            return Err(RuntimeError::Aborted { worker: self.w, by: cause.worker });
        }
        Ok(())
    }

    /// Records every checkpoint whose local cut is `pos` (positions
    /// `[0, pos)` are done). Every value still live at the barrier is
    /// scanned for NaN/Inf first and a poisoned snapshot
    /// is *never* committed — a checkpoint exists to be restored from, and
    /// restoring non-finite state would silently poison every later attempt.
    /// Tensors whose last local read precedes the barrier are skipped by the
    /// scan (a resume can never observe them) but stay in the snapshot: the
    /// recorded map is an `Arc` clone of the live one — refcount bumps, no
    /// payload copies — and bit-identity of recovered runs requires every
    /// key to survive.
    ///
    /// The same scan re-hashes each live value and compares it against the
    /// checksum recorded when the value was produced: a mismatch means some
    /// buffer aliased or scribbled over the payload after the fact, and the
    /// snapshot is rejected with [`RuntimeError::CorruptSnapshot`] before it
    /// can be committed (or persisted to disk).
    ///
    /// When the store carries a durable sink, the worker whose record
    /// makes checkpoint `k` consistent drives the sink — outside the store
    /// lock, so persistence I/O never serializes peers' barriers.
    fn take_checkpoints(&mut self, pos: usize) -> Result<()> {
        if let (Some(store), Some(ks)) = (self.store, self.ckpts_at.get(&pos)) {
            let snapshot: BTreeMap<TensorId, Arc<Tensor>> = self
                .values
                .iter()
                .enumerate()
                .filter_map(|(t, v)| Some((TensorId(t), Arc::clone(v.as_ref()?))))
                .collect();
            if let Err((t, defect)) =
                scan_snapshot(&snapshot, &self.value_sums, &self.exec.last_read, pos)
            {
                let graph = &self.sharded.graph;
                return Err(match defect {
                    SnapshotDefect::NonFinite => RuntimeError::PoisonedCheckpoint {
                        worker: self.w,
                        node: graph.producer(t).map(|n| graph.node(n).name.clone()),
                        tensor: graph.tensor(t).name.clone(),
                    },
                    SnapshotDefect::ChecksumMismatch => RuntimeError::CorruptSnapshot {
                        worker: self.w,
                        tensor: graph.tensor(t).name.clone(),
                    },
                });
            }
            let mut to_persist = Vec::new();
            let sink = {
                let mut s = lock(store);
                for &k in ks {
                    s.record(k, self.w, snapshot.clone());
                }
                let sink = s.sink();
                if sink.is_some() {
                    // Exactly one worker observes each k become consistent
                    // (its record is the last of the set), so each k is
                    // collected for persistence exactly once.
                    for &k in ks {
                        if let Some(vals) = s.consistent_values(k, self.sharded.workers) {
                            to_persist.push((k, vals));
                        }
                    }
                }
                sink
            };
            if let Some(sink) = sink {
                for (k, vals) in to_persist {
                    sink.on_consistent(self.sharded, self.w, k, &vals)?;
                }
            }
            for &k in ks {
                if let Some(buf) = self.obs.as_mut() {
                    buf.instant("ckpt", &format!("checkpoint {k}"));
                }
            }
            if let Some(y) = self.yield_at {
                if ks.contains(&y) {
                    // The pause barrier is recorded: stop before executing
                    // anything past this cut.
                    self.yielded = true;
                    if let Some(buf) = self.obs.as_mut() {
                        buf.instant("ckpt", &format!("yield at checkpoint {y}"));
                    }
                }
            }
        }
        Ok(())
    }

    fn run_inner(&mut self) -> Result<()> {
        // On resume, bring the pool to its pre-failure state by replaying
        // the plan's prefix (output sizes are static graph metadata).
        for pos in 0..self.start_pos {
            let out = self.sharded.graph.node(self.schedule[pos]).output;
            let bytes = self.sharded.graph.tensor(out).shape.bytes();
            self.pool.apply(self.plan.actions[pos], bytes)?;
        }

        // Resident leaf bytes, measured from the actual fed shards this
        // worker's non-fetch nodes consume.
        let mut persistent_bytes = 0u64;
        for t in &self.plan.persistent {
            let v = self.values[t.0].as_ref().ok_or_else(|| RuntimeError::MissingFeed {
                worker: self.w,
                tensor: self.sharded.graph.tensor(*t).name.clone(),
            })?;
            persistent_bytes += v.shape().bytes();
        }
        self.persistent_bytes = persistent_bytes;

        // Owned leaf shards other devices fetch go out before any compute;
        // on resume this list also carries the owed snapshot sends.
        let routes = self.routes;
        for &x in &routes.startup {
            self.send(x)?;
        }

        let last = self.schedule.len().saturating_sub(1);
        // Index-based walk: `NodeId` is `Copy`, so reading one id per step
        // borrows `self.schedule` only momentarily and the `&mut self` calls
        // below don't force a clone of the whole schedule.
        for pos in self.start_pos..self.schedule.len() {
            let id = self.schedule[pos];
            self.check_abort()?;
            self.cur_pos = Some(pos);
            self.cur_node = Some(id);
            self.take_checkpoints(pos)?;
            if self.yielded {
                // Stopping here is clean: every pre-cut producer already
                // ran and pushed its pieces, so no peer still inside its
                // prefix can block on this worker.
                self.cur_pos = None;
                self.cur_node = None;
                self.yield_park();
                return Ok(());
            }
            // Every step fault ends the attempt, so the first one firing
            // here is the one reported.
            if let Some(f) = self.faults.step_faults(self.phys, pos, last, self.start_pos).first() {
                return Err(match f {
                    StepFault::Kill => RuntimeError::Injected {
                        worker: self.w,
                        detail: format!("killed at schedule step {pos} (node {})", id.0),
                    },
                    StepFault::Panic => {
                        panic!("injected panic on worker {} at schedule step {pos}", self.w)
                    }
                    StepFault::PoolOverBudget => RuntimeError::Pool {
                        worker: self.w,
                        detail: format!(
                            "over budget: injected at schedule step {pos} with {} B resident",
                            self.pool.current_bytes()
                        ),
                    },
                });
            }
            let node = self.sharded.graph.node(id);
            let start = self.epoch.elapsed();
            let out = if node.op == "multi_fetch" {
                self.assemble_fetch(pos, id)?
            } else {
                let inputs: Vec<&Tensor> = node
                    .inputs
                    .iter()
                    .map(|t| {
                        self.values[t.0].as_deref().ok_or_else(|| RuntimeError::MissingFeed {
                            worker: self.w,
                            tensor: self.sharded.graph.tensor(*t).name.clone(),
                        })
                    })
                    .collect::<Result<_>>()?;
                execute_node(&self.sharded.graph, id, &inputs)
                    .map_err(|source| RuntimeError::Exec { worker: self.w, source })?
            };
            self.pool.apply(self.plan.actions[pos], out.shape().bytes())?;
            let end = self.epoch.elapsed();
            self.busy += end - start;
            self.ops += 1;
            if self.obs.is_some() {
                let (s_us, e_us) = (self.obs_ts(start), self.obs_ts(end));
                let cat = if node.op == "multi_fetch" { "fetch" } else { "op" };
                let pool_now = self.pool.current_bytes() as f64;
                if let Some(buf) = self.obs.as_mut() {
                    buf.complete(cat, &node.name, s_us, e_us);
                    buf.counter("pool bytes", e_us, pool_now);
                }
            }
            if self.store.is_some() {
                self.value_sums.insert(node.output, payload_checksum(out.data()));
            }
            self.values[node.output.0] = Some(Arc::new(out));
            for &x in &routes.sends[pos] {
                self.send(x)?;
            }
        }
        self.cur_pos = None;
        self.cur_node = None;
        self.take_checkpoints(self.schedule.len())?;
        if self.yielded {
            // The whole schedule happens to sit before the yield barrier.
            // Skip the end-of-run checks: peers pausing at their own cuts
            // may legitimately leave pieces for this attempt's unexecuted
            // suffix in flight.
            self.yield_park();
            return Ok(());
        }

        // End-of-run integrity: every piece addressed to this worker must
        // have been consumed — a leftover means a duplicated or misrouted
        // message survived to the end. `Fast` skips the audit entirely: the
        // routing table guarantees a fault-free run sends exactly the pieces
        // the plan owes, so the audit only ever fires under injected faults
        // (which require `Full` anyway).
        if self.integrity == IntegrityLevel::Full {
            self.drain_check()?;
        }
        self.pool.verify_against(self.plan)?;
        self.completed = true;
        Ok(())
    }

    /// Pushes transfer `x` (extract the block into a fresh tensor, stamp,
    /// send), applying any injected message fault targeting this link
    /// position. The fast path performs exactly one copy — source tensor to
    /// piece — and the channel then carries only the `Arc`.
    fn send(&mut self, x: usize) -> Result<()> {
        let exec = self.exec;
        let r: &Transfer = &exec.transfers[x];
        let src = self.values[r.tensor.0].as_ref().ok_or_else(|| {
            RuntimeError::Internal(format!(
                "worker {}: comm edge reads unevaluated tensor {:?}",
                self.w, r.tensor
            ))
        })?;
        let block = Shape::new(r.len.iter().map(|&l| l.max(0) as usize).collect());
        let zeros = vec![0i64; block.rank()];
        let mut piece = Tensor::zeros(block);
        piece
            .copy_block(src, &r.src_begin, &zeros, &r.len)
            .map_err(|e| piece_error("extraction", e))?;
        let mut piece = Arc::new(piece);
        let bytes = piece.shape().bytes();
        // The checksum covers the *intended* payload; corruption injected
        // below is therefore detectable at the receiver. `Fast` sends 0 —
        // the receiver doesn't look at it.
        let checksum = if self.integrity == IntegrityLevel::Full {
            payload_checksum(piece.data())
        } else {
            0
        };
        let index = self.sent[r.dst].1;
        let seq = self.next_seq[r.dst];
        self.next_seq[r.dst] += 1;
        self.sent[r.dst].0 += bytes;
        self.sent[r.dst].1 += 1;
        if self.obs.is_some() {
            let ts = self.obs_ts(self.epoch.elapsed());
            let total = self.sent[r.dst].0 as f64;
            let name = format!("link {}->{} bytes", self.w, r.dst);
            if let Some(buf) = self.obs.as_mut() {
                buf.counter(&name, ts, total);
            }
        }
        // The linear fault-table scan only runs when a message fault is
        // actually armed; fault-free runs skip it per message.
        let action = if self.has_message_faults {
            self.faults.message_action(self.phys, self.device_map[r.dst], index)
        } else {
            None
        };
        match action {
            // Lost on the wire: the sequence number is consumed, so the next
            // message on this link exposes the gap.
            Some(MessageFault::Drop) => return Ok(()),
            Some(MessageFault::Delay(d)) => std::thread::sleep(d),
            Some(MessageFault::Corrupt) => {
                // A shared payload is never corrupted in place — that would
                // tamper with every holder. Divert through an owned copy
                // instead, charged to the transport-copy counter like any
                // other fault-path copy.
                let mut owned = Tensor::clone(&piece);
                if let Some(v) = owned.data_mut().first_mut() {
                    *v = f32::from_bits(v.to_bits() ^ 0x0040_0000);
                }
                self.transport_copy_bytes += bytes;
                piece = Arc::new(owned);
            }
            Some(MessageFault::Duplicate) | None => {}
        }
        if r.dst == self.w {
            return Err(RuntimeError::Internal(
                "comm edge addressed to the sending worker".into(),
            ));
        }
        let tx = &self.txs[r.dst];
        let hung_up = |_| RuntimeError::Comm {
            worker: self.w,
            detail: format!("worker {} hung up", r.dst),
        };
        let (consumer, input_index) = r.readers[0];
        if action == Some(MessageFault::Duplicate) {
            // Cloning the `Arc` bumps a refcount; the payload stays shared.
            tx.send(Msg {
                src: self.w,
                seq,
                slot: r.slot,
                consumer,
                input_index,
                checksum,
                piece: Arc::clone(&piece),
            })
            .map_err(hung_up)?;
        }
        tx.send(Msg { src: self.w, seq, slot: r.slot, consumer, input_index, checksum, piece })
            .map_err(hung_up)?;
        Ok(())
    }

    /// Executes a `multi_fetch` node: local inputs are copied out of the
    /// worker's own values; remote inputs block on their pre-assigned
    /// receive slot until the (already-extracted) piece arrives. The
    /// assembly plan was decoded once at plan time — no attribute parsing
    /// or graph lookups happen here.
    fn assemble_fetch(&mut self, pos: usize, id: NodeId) -> Result<Tensor> {
        let exec = self.exec;
        let inputs = exec.workers[self.w].fetches[pos]
            .as_ref()
            .ok_or_else(|| RuntimeError::Internal("assemble on non-fetch node".into()))?;
        let graph = &self.sharded.graph;
        let mut out = Tensor::zeros(graph.tensor(graph.node(id).output).shape.clone());
        for (i, p) in inputs.iter().enumerate() {
            match p.source {
                FetchSource::Local(t) => {
                    let src = self.values[t.0].as_ref().ok_or_else(|| {
                        RuntimeError::Internal(format!(
                            "worker {}: fetch reads unevaluated local {t:?}",
                            self.w
                        ))
                    })?;
                    out.copy_block(src.as_ref(), &p.src_begin, &p.dst_begin, &p.len)
                        .map_err(|e| piece_error("assembly", e))?;
                }
                FetchSource::Remote { slot } => {
                    // Time the blocking receive separately so a trace splits
                    // a fetch node's span into recv-wait vs assembly.
                    let wait_start = self.obs.as_ref().map(|_| self.epoch.elapsed());
                    let piece = self.recv_piece(slot, id, i)?;
                    if let Some(ws) = wait_start {
                        let (s_us, e_us) = (self.obs_ts(ws), self.obs_ts(self.epoch.elapsed()));
                        let name = format!("recv {}[{i}]", self.sharded.graph.node(id).name);
                        if let Some(buf) = self.obs.as_mut() {
                            buf.complete("wait", &name, s_us, e_us);
                        }
                    }
                    // The producer already extracted the block: `src_begin`
                    // is zero in the received piece's coordinates.
                    out.copy_block(&piece, &p.src_begin, &p.dst_begin, &p.len)
                        .map_err(|e| piece_error("assembly", e))?;
                }
            }
        }
        Ok(out)
    }

    /// Validates an arriving message (link sequence, payload checksum,
    /// expected piece — all at [`IntegrityLevel::Full`]) and stashes it in
    /// its receive slot. At [`IntegrityLevel::Fast`] only the slot-occupancy
    /// check remains, and that is required for correctness, not integrity: a
    /// slot holds exactly one piece per attempt.
    fn accept(&mut self, msg: Msg) -> Result<()> {
        let exec = self.exec;
        let comm = |detail: String| RuntimeError::Comm { worker: self.w, detail };
        let slot = msg.slot as usize;
        let Some(expect) = exec.workers[self.w].slots.get(slot).map(|&x| &exec.transfers[x]) else {
            return Err(comm(format!(
                "link {} -> {}: piece carries unknown receive slot {slot}",
                msg.src, self.w
            )));
        };
        if self.integrity == IntegrityLevel::Full {
            let expected = self.expect_seq[msg.src];
            if msg.seq != expected {
                return Err(comm(format!(
                    "link {} -> {}: message carries seq {} but {} was expected ({})",
                    msg.src,
                    self.w,
                    msg.seq,
                    expected,
                    if msg.seq < expected {
                        "a piece was duplicated or reordered"
                    } else {
                        "a piece was dropped"
                    }
                )));
            }
            self.expect_seq[msg.src] = expected + 1;
            if payload_checksum(msg.piece.data()) != msg.checksum {
                return Err(comm(format!(
                    "link {} -> {}: piece for node {} input {} failed its checksum \
                     (payload corrupted in transit)",
                    msg.src, self.w, msg.consumer.0, msg.input_index
                )));
            }
            // Expected-piece check against the plan-time routing table: the
            // stamped sender, consumer and input index must match what the
            // slot was assigned to carry, and the payload must be exactly
            // the block shape the generator planned.
            let (consumer, input_index) = expect.readers[0];
            if msg.src != expect.src || msg.consumer != consumer || msg.input_index != input_index {
                return Err(comm(format!(
                    "link {} -> {}: piece stamped for node {} input {} landed in slot \
                     {slot}, which expects node {} input {} from worker {}",
                    msg.src,
                    self.w,
                    msg.consumer.0,
                    msg.input_index,
                    consumer.0,
                    input_index,
                    expect.src
                )));
            }
            if !msg.piece.shape().dims().iter().map(|&d| d as i64).eq(expect.len.iter().copied()) {
                return Err(comm(format!(
                    "link {} -> {}: piece for node {} input {} has shape {} but block \
                     {:?} was expected",
                    msg.src,
                    self.w,
                    msg.consumer.0,
                    msg.input_index,
                    msg.piece.shape(),
                    expect.len
                )));
            }
        }
        if self.pending[slot].is_some() {
            let (consumer, input_index) = expect.readers[0];
            return Err(comm(format!(
                "link {} -> {}: second piece for node {} input {input_index} (duplicate)",
                msg.src, self.w, consumer.0
            )));
        }
        self.bytes_received += msg.piece.shape().bytes();
        self.pending[slot] = Some(msg.piece);
        Ok(())
    }

    /// The piece for `slot`, from the stash or the wire: a shared clone for
    /// every read but the slot's last, which takes the piece out. Polls the
    /// abort token every [`ABORT_POLL`] while waiting, so a peer
    /// failure is observed in milliseconds rather than `recv_timeout`.
    fn recv_piece(
        &mut self,
        slot: u32,
        consumer: NodeId,
        input_index: usize,
    ) -> Result<Arc<Tensor>> {
        let slot = slot as usize;
        let deadline = Instant::now() + self.recv_timeout;
        loop {
            let stash = &mut self.pending[slot];
            if let Some(v) = stash {
                let v = Arc::clone(v);
                let left = &mut self.reads_left[slot];
                *left = left.saturating_sub(1);
                if *left == 0 {
                    *stash = None;
                }
                return Ok(v);
            }
            self.check_abort()?;
            let now = Instant::now();
            if now >= deadline {
                return Err(RuntimeError::Comm {
                    worker: self.w,
                    detail: format!(
                        "stalled {:?} waiting for node {} input {input_index}",
                        self.recv_timeout, consumer.0
                    ),
                });
            }
            match self.rx.recv_timeout(ABORT_POLL.min(deadline - now)) {
                Ok(msg) => self.accept(msg)?,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    self.check_abort()?;
                    return Err(RuntimeError::Comm {
                        worker: self.w,
                        detail: "every peer hung up".into(),
                    });
                }
            }
        }
    }

    /// End-of-run check: the receive port and every stash slot must be empty.
    fn drain_check(&mut self) -> Result<()> {
        while let Ok(msg) = self.rx.try_recv() {
            // A late arrival still goes through the integrity checks — a
            // duplicate trips the sequence check right here.
            self.accept(msg)?;
        }
        if let Some(slot) = self.pending.iter().position(|p| p.is_some()) {
            let (consumer, input_index) =
                self.exec.transfers[self.exec.workers[self.w].slots[slot]].readers[0];
            return Err(RuntimeError::Comm {
                worker: self.w,
                detail: format!(
                    "piece for node {} input {input_index} was never consumed \
                     (duplicated or misrouted message)",
                    consumer.0
                ),
            });
        }
        Ok(())
    }
}

/// A block the copier refused: the routing table and the values disagree.
fn piece_error(stage: &str, e: tofu_tensor::TensorError) -> RuntimeError {
    RuntimeError::Internal(format!("piece {stage}: {e}"))
}

#[cfg(test)]
mod snapshot_guard_tests {
    use super::*;

    fn arc(data: Vec<f32>) -> Arc<Tensor> {
        Arc::new(Tensor::from_vec(Shape::new(vec![data.len()]), data).unwrap())
    }

    #[test]
    fn clean_values_pass() {
        let values: BTreeMap<TensorId, Arc<Tensor>> =
            [(TensorId(0), arc(vec![1.0, 2.0])), (TensorId(1), arc(vec![-0.0, 3.5]))].into();
        let sums: BTreeMap<TensorId, u64> =
            values.iter().map(|(t, v)| (*t, payload_checksum(v.data()))).collect();
        assert_eq!(scan_snapshot(&values, &sums, &[10, 10], 5), Ok(()));
    }

    #[test]
    fn stale_checksum_is_corruption() {
        // Record the checksum of one payload, then "corrupt" the buffer by
        // swapping in different bytes — the scan must flag it.
        let good = arc(vec![1.0, 2.0]);
        let sums: BTreeMap<TensorId, u64> =
            [(TensorId(0), payload_checksum(good.data()))].into();
        let corrupted: BTreeMap<TensorId, Arc<Tensor>> =
            [(TensorId(0), arc(vec![1.0, 2.000001]))].into();
        assert_eq!(
            scan_snapshot(&corrupted, &sums, &[10], 5),
            Err((TensorId(0), SnapshotDefect::ChecksumMismatch))
        );
    }

    #[test]
    fn nonfinite_beats_checksum() {
        // A NaN payload is poison even if its checksum happens to match.
        let bad = arc(vec![f32::NAN]);
        let sums: BTreeMap<TensorId, u64> =
            [(TensorId(0), payload_checksum(bad.data()))].into();
        let values: BTreeMap<TensorId, Arc<Tensor>> = [(TensorId(0), bad)].into();
        assert_eq!(
            scan_snapshot(&values, &sums, &[10], 5),
            Err((TensorId(0), SnapshotDefect::NonFinite))
        );
    }

    #[test]
    fn dead_values_are_skipped() {
        // Dead before the barrier: even a corrupt value is unobservable.
        let values: BTreeMap<TensorId, Arc<Tensor>> = [(TensorId(0), arc(vec![f32::NAN]))].into();
        let sums: BTreeMap<TensorId, u64> = [(TensorId(0), 0xdead)].into();
        assert_eq!(scan_snapshot(&values, &sums, &[3], 5), Ok(()));
    }

    #[test]
    fn missing_sum_only_checks_finiteness() {
        // A value with no recorded sum is only checked for finiteness.
        let values: BTreeMap<TensorId, Arc<Tensor>> = [(TensorId(0), arc(vec![4.0]))].into();
        assert_eq!(scan_snapshot(&values, &BTreeMap::new(), &[10], 5), Ok(()));
    }
}
