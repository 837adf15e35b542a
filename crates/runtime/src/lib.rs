//! Multi-worker runtime for Tofu-partitioned graphs.
//!
//! Executes a [`ShardedGraph`] across `N` OS threads — one per logical
//! device — connected by channels. Everything static about a step — each
//! worker's schedule, buffer plan and routes — is the graph's
//! [`ExecPlan`](tofu_core::ExecPlan), planned by the first run of the graph
//! and read by every later one ([`ShardedGraph::exec_plan`]), so a step only
//! executes. Each worker owns:
//!
//! - its serial sub-schedule of the sharded graph
//!   ([`ShardedGraph::worker_schedule`]), which is a subsequence of the
//!   global topological order;
//! - its values, in a slab indexed by tensor id, which the supervisor merges
//!   into [`RunOutput::values`] in one ordered pass;
//! - a buffer pool that replays the static memory planner's
//!   `BufferPlan` against the sizes of the tensors actually produced, so
//!   the plan's footprint is confirmed in executed order and can be held
//!   against `tofu-sim`'s `per_device_memory` prediction;
//! - typed send/receive ports for cross-device tensor pieces.
//!
//! Communication follows the §6 invariant the generator establishes: every
//! cross-device data edge enters a `multi_fetch` node, so producers *push*
//! exactly the piece each remote consumer needs (precomputed by
//! [`ShardedGraph::comm_edges`]) and non-fetch nodes only ever read local
//! values. Pushes go over unbounded channels and never block, which rules
//! out send/receive cycles: the earliest unexecuted node across all workers
//! (in global topological order) always has its remote pieces already sent
//! or owed by producers that come strictly earlier, so some worker can
//! always make progress.
//!
//! The run records a [`RunTrace`] — per-worker op counts and busy time,
//! per-link bytes, per-worker pool peaks — for side-by-side comparison with
//! the simulator's predictions; per-op spans go to
//! [`RunOptions::collector`].
//!
//! # Fault tolerance
//!
//! The runtime is built to *fail fast and recover* (DESIGN.md "Failure
//! model"):
//!
//! - **Cooperative abort.** Every worker shares an [`AbortToken`]; the first
//!   failure (kernel error, integrity violation, panic, injected fault)
//!   trips it, and every other worker observes the trip between schedule
//!   steps and inside its receive loop (every 5 ms), so a dead peer stops the run in milliseconds instead of
//!   stalling healthy workers for the full `recv_timeout`. The run returns
//!   [`RuntimeError::Failed`] wrapping a [`RunFailure`] that names the
//!   first-failing worker and node and preserves the partial traces.
//! - **Message integrity.** Every [`Msg`] carries the sending worker, a
//!   per-link sequence number and a payload checksum; at
//!   [`IntegrityLevel::Full`] (the default) the receiver checks all three
//!   plus the expected piece (consumer node, input index, block shape)
//!   before stashing, so dropped, duplicated, reordered, misrouted or
//!   corrupted pieces surface as typed [`RuntimeError::Comm`] errors instead
//!   of wrong tensors. [`RunOptions::integrity`] relaxes the per-message
//!   work for trusted transports; fault suites must run at `Full`.
//! - **Zero-copy transport.** Payloads travel as `Arc<Tensor>` over
//!   `std::sync::mpsc` channels: the producer extracts the block once into
//!   a fresh tensor, the channel and the receiver's stash move the `Arc`,
//!   and the last holder frees it. Send routing is the execution plan's
//!   schedule-indexed table, so the send path performs no map lookups.
//! - **Fault injection.** A [`FaultPlan`] in [`RunOptions`] deterministically
//!   kills or panics a worker at a schedule position, tampers with a chosen
//!   message, or forces a pool over-budget event, each once per process —
//!   so every failure path above is testable. A device lost for good is a
//!   [`ChurnPlan`] leave, and disk faults are
//!   [`DurableOptions::disk_faults`].
//! - **One recovery supervisor.** A [`CheckpointPolicy`] snapshots worker
//!   values at global-schedule barriers, and a single supervisor loop
//!   (`supervisor.rs`) retries a faulted run with capped backoff from the
//!   last consistent checkpoint, shrinks and grows the worker set, and
//!   reboots from durable checkpoints after a whole-process crash.
//!   [`run_with_recovery`], [`run_with_elastic_recovery`] and
//!   [`run_with_durable_recovery`] are argument adaptors over it, and all
//!   three return its one [`RecoveryReport`]: the output, one
//!   [`AttemptRecord`] per attempt (the only place a `resumed_from`
//!   checkpoint is recorded), the fleet's transitions and the durable
//!   store's counters. Recovered output is bit-identical to an undisturbed
//!   run.
//!
//! This file holds the options, the output type and the public entry
//! points; one worker thread's state machine lives in `worker.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abort;
mod checkpoint;
mod durable;
mod elastic;
mod error;
mod fault;
mod pool;
mod reshard;
mod supervisor;
mod trace;
mod worker;

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use tofu_core::ShardedGraph;
use tofu_graph::TensorId;
use tofu_obs::Collector;
use tofu_tensor::Tensor;

pub use abort::{AbortCause, AbortToken};
pub use checkpoint::{BarrierUnit, CheckpointPolicy, RecoveryOptions};
pub use durable::{run_with_durable_recovery, CrashPoint, DurableOptions};
pub use elastic::{run_with_elastic_recovery, ElasticTransition, TransitionKind};
pub use error::{RunFailure, RuntimeError};
pub use fault::{ChurnEvent, ChurnPlan, Fault, FaultPlan, MessageFault};
pub use reshard::{resume_from_snapshot, FullSnapshot};
pub use supervisor::{AttemptRecord, RecoveryReport};
pub use tofu_durable::{
    BlobStore, DirStore, DiskFault, DiskFaultPlan, MemStore, RejectReason, RejectedCheckpoint,
};
pub use trace::{LinkStat, RunTrace, WorkerTrace};

use supervisor::{run_once, supervise, PlanSource};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RuntimeError>;

/// Locks `m`, taking the guard even when a holder panicked. A worker panic
/// is an injected, *recoverable* fault in this crate ([`Fault::Panic`]): the
/// retry shares the abort token, checkpoint store and persister of the
/// attempt that died, so a poisoned lock must not turn one recoverable
/// failure into a panic on every later acquisition.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How much per-message verification the receive path performs.
///
/// Payload and byte accounting are identical at both levels — only the
/// *checks* differ, so a `Fast` run moves exactly the bytes a `Full` run
/// moves and produces bit-identical output on a healthy transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IntegrityLevel {
    /// Route-slot bounds and double-delivery checks only; trusts the
    /// transport. The per-message cost is two array index checks.
    Fast,
    /// Everything: per-link sequence numbers, payload checksums, the
    /// plan-time consumer/input/shape cross-check per message and the
    /// end-of-run drain audit. Required whenever the fault plan injects
    /// message faults — the checks are what turn tampering into typed
    /// errors.
    #[default]
    Full,
}

/// Knobs of a run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// How long a worker waits on a remote piece before declaring the run
    /// stalled (guards against a dropped piece with no later traffic on the
    /// link; never hit on healthy runs).
    pub recv_timeout: Duration,
    /// Faults to inject (empty by default).
    pub faults: FaultPlan,
    /// Scripted fleet-membership events (empty by default). Honoring a
    /// leave or a join means re-planning at another width, so only the
    /// entry points that take the original graph —
    /// [`run_with_elastic_recovery`] and [`run_with_durable_recovery`] —
    /// accept one; those given a fixed [`ShardedGraph`] reject a non-empty
    /// plan rather than silently ignore it.
    pub churn: ChurnPlan,
    /// Snapshot cadence for checkpoint-restart (`None` = no snapshots).
    pub checkpoint: Option<CheckpointPolicy>,
    /// Per-message verification level (default [`IntegrityLevel::Full`]).
    /// Plans that inject message faults are rejected at any other level.
    pub integrity: IntegrityLevel,
    /// Optional trace sink. When set, every worker emits per-op spans (with
    /// recv-waits nested inside fetch spans), cumulative per-link byte
    /// counters, a pool-occupancy timeline and abort/checkpoint markers onto
    /// its `Track::runtime(device)` lane; attempts and recovery land on
    /// `Track::control()`. `None` (the default) costs one discriminant check
    /// per site — no clock reads, no allocation.
    pub collector: Option<Collector>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            recv_timeout: Duration::from_secs(60),
            faults: FaultPlan::none(),
            churn: ChurnPlan::none(),
            checkpoint: None,
            integrity: IntegrityLevel::default(),
            collector: None,
        }
    }
}

/// Everything a run produces: the value of every tensor of the sharded
/// graph (gather the originals with [`ShardedGraph::gather`]) plus the
/// measured trace.
#[derive(Debug)]
pub struct RunOutput {
    /// Value of every tensor, merged across workers.
    pub values: BTreeMap<TensorId, Tensor>,
    /// The measured event trace.
    pub trace: RunTrace,
}

/// Executes `sharded` across one thread per worker: exactly one attempt, no
/// supervisor. `feeds` carries values for the sharded graph's leaf tensors
/// (typically from [`ShardedGraph::scatter`] over the original feeds);
/// `RunOptions::default()` is a plain healthy run.
pub fn run_with_options(
    sharded: &ShardedGraph,
    feeds: &[(TensorId, Tensor)],
    opts: &RunOptions,
) -> Result<RunOutput> {
    run_once(sharded, feeds, opts, None)
}

/// [`run_with_options`] plus retry: a faulted run is re-attempted with
/// capped, deterministically jittered backoff (see
/// [`RecoveryOptions::backoff`]), resuming from the last *consistent*
/// checkpoint when `opts.checkpoint` is set (and from scratch otherwise).
/// Injected faults fire once across all attempts, so the retry observes a
/// healthy world. A device lost for good is a [`ChurnPlan`] leave, and
/// recovering past it means re-planning at another width, which a fixed
/// `sharded` cannot do: a churn plan is rejected here, and
/// [`run_with_elastic_recovery`] takes the original graph instead. The
/// recovered output is bit-identical to an undisturbed run (see DESIGN.md
/// "Failure model" for the argument).
pub fn run_with_recovery(
    sharded: &ShardedGraph,
    feeds: &[(TensorId, Tensor)],
    opts: &RunOptions,
    recovery: &RecoveryOptions,
) -> Result<RecoveryReport> {
    supervise(PlanSource::Fixed(sharded), feeds, opts, recovery, None, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_recovers_a_mutex_poisoned_by_a_panicking_thread() {
        let m = Mutex::new(vec![1]);
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let mut g = lock(&m);
                g.push(2);
                panic!("holder dies with the guard live");
            })
            .join()
        });
        assert!(died.is_err());
        assert!(m.is_poisoned());
        lock(&m).push(3);
        assert_eq!(*lock(&m), vec![1, 2, 3]);
    }
}
