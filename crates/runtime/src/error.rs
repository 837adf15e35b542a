//! Runtime error type and the structured failure record of an aborted run.
//!
//! Every variant that can originate on a worker thread carries the worker id,
//! so a multi-worker failure is attributable from the `Display` output alone.
//! A run that aborts cooperatively returns [`RuntimeError::Failed`] wrapping a
//! [`RunFailure`]: the first-failing worker, the node it was executing, the
//! typed root cause, how fast every healthy peer observed the abort, and the
//! partial [`RunTrace`](crate::RunTrace) preserved for post-mortem analysis.

use std::fmt;
use std::time::Duration;

use tofu_core::CoreError;
use tofu_graph::{GraphError, NodeId};

use crate::trace::RunTrace;

/// Anything that can go wrong executing a sharded graph across workers.
#[derive(Debug)]
pub enum RuntimeError {
    /// A kernel or graph lookup failed on a worker.
    Exec {
        /// Worker the kernel ran on.
        worker: usize,
        /// The underlying graph/kernel error.
        source: GraphError,
    },
    /// Scatter/gather bookkeeping failed.
    Core(CoreError),
    /// A leaf shard owned by a worker was not fed.
    MissingFeed {
        /// Worker that owns the missing shard.
        worker: usize,
        /// Name of the unfed tensor.
        tensor: String,
    },
    /// A cross-worker transfer failed: peer died, stalled, or the link
    /// integrity checks (sequence number, checksum, expected piece) tripped.
    Comm {
        /// Worker that detected the violation.
        worker: usize,
        /// What exactly was violated.
        detail: String,
    },
    /// The planner-seeded buffer pool and the plan disagreed, or an injected
    /// [`Fault::PoolOverBudget`](crate::Fault) ran the pool over budget.
    Pool {
        /// Worker whose pool diverged.
        worker: usize,
        /// What diverged.
        detail: String,
    },
    /// A worker thread panicked; the payload message is preserved.
    WorkerPanic {
        /// Worker that panicked.
        worker: usize,
        /// The panic payload, stringified.
        message: String,
    },
    /// A worker stopped because a *peer* tripped the shared abort token.
    Aborted {
        /// Worker that observed the abort.
        worker: usize,
        /// Worker that tripped the token.
        by: usize,
    },
    /// A fault injected by the configured [`FaultPlan`](crate::FaultPlan).
    Injected {
        /// Worker the fault was injected into.
        worker: usize,
        /// Which fault fired.
        detail: String,
    },
    /// A checkpoint snapshot contained a non-finite value; the checkpoint
    /// was *not* committed, so recovery can never resume from a numerically
    /// poisoned state.
    PoisonedCheckpoint {
        /// Worker whose snapshot held the poisoned tensor.
        worker: usize,
        /// Name of the node that produced the tensor (`None` for a leaf).
        node: Option<String>,
        /// Name of the poisoned tensor.
        tensor: String,
    },
    /// A checkpoint snapshot no longer hashes to the checksum recorded when
    /// its tensor was produced — some buffer aliased or scribbled over the
    /// live value after the fact. The checkpoint was *not* committed.
    CorruptSnapshot {
        /// Worker whose snapshot failed verification.
        worker: usize,
        /// Name of the tensor whose payload changed.
        tensor: String,
    },
    /// The durable checkpoint store failed (I/O error writing a shard or
    /// manifest, or reading one back during recovery).
    Durable {
        /// Worker whose commit hit the store failure (`usize::MAX` when the
        /// failure happened outside any worker, e.g. during discovery).
        worker: usize,
        /// The underlying store failure.
        detail: String,
    },
    /// Elastic recovery ran out of devices: every attempted worker count
    /// failed and no feasible width is left to shrink to.
    Unrecoverable {
        /// Physical devices classified as permanently lost, in loss order.
        lost: Vec<usize>,
        /// Worker counts attempted, ladder order (full width first).
        widths: Vec<usize>,
        /// Why the last width could not proceed.
        cause: Box<RuntimeError>,
    },
    /// `RunOptions` (or the sharded graph itself) failed up-front validation.
    InvalidOptions(String),
    /// The run aborted; the boxed record names the first failure and keeps
    /// the partial traces.
    Failed(Box<RunFailure>),
    /// Internal invariant violation.
    Internal(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Exec { worker, source } => {
                write!(f, "worker {worker}: execution failed: {source}")
            }
            RuntimeError::Core(e) => write!(f, "partition bookkeeping failed: {e}"),
            RuntimeError::MissingFeed { worker, tensor } => {
                write!(f, "worker {worker}: leaf shard not fed: {tensor}")
            }
            RuntimeError::Comm { worker, detail } => {
                write!(f, "worker {worker}: cross-worker transfer failed: {detail}")
            }
            RuntimeError::Pool { worker, detail } => {
                write!(f, "worker {worker}: buffer pool diverged from plan: {detail}")
            }
            RuntimeError::WorkerPanic { worker, message } => {
                write!(f, "worker {worker}: panicked: {message}")
            }
            RuntimeError::Aborted { worker, by } => {
                write!(f, "worker {worker}: aborted (worker {by} failed first)")
            }
            RuntimeError::Injected { worker, detail } => {
                write!(f, "worker {worker}: injected fault: {detail}")
            }
            RuntimeError::PoisonedCheckpoint { worker, node, tensor } => {
                write!(f, "worker {worker}: checkpoint poisoned: tensor {tensor:?}")?;
                if let Some(n) = node {
                    write!(f, " (produced by node {n:?})")?;
                }
                write!(f, " contains a non-finite value")
            }
            RuntimeError::CorruptSnapshot { worker, tensor } => {
                write!(
                    f,
                    "worker {worker}: checkpoint integrity: tensor {tensor:?} no longer \
                     matches the checksum recorded when it was produced (aliased buffer?)"
                )
            }
            RuntimeError::Durable { worker, detail } => {
                if *worker == usize::MAX {
                    write!(f, "durable checkpoint store failed: {detail}")
                } else {
                    write!(f, "worker {worker}: durable checkpoint store failed: {detail}")
                }
            }
            RuntimeError::Unrecoverable { lost, widths, cause } => {
                // Render the whole ladder, not just the last attempt:
                // "unrecoverable after ladder 8 → 7 → 6 (lost devices 3, 5);
                //  terminal cause: ...".
                write!(f, "unrecoverable after ladder ")?;
                if widths.is_empty() {
                    write!(f, "(no worker count ran)")?;
                } else {
                    for (i, w) in widths.iter().enumerate() {
                        if i > 0 {
                            write!(f, " \u{2192} ")?;
                        }
                        write!(f, "{w}")?;
                    }
                    write!(f, " worker(s)")?;
                }
                if lost.is_empty() {
                    write!(f, " (no device lost)")?;
                } else {
                    write!(f, " (lost device")?;
                    if lost.len() > 1 {
                        write!(f, "s")?;
                    }
                    for (i, d) in lost.iter().enumerate() {
                        write!(f, "{} {d}", if i > 0 { "," } else { "" })?;
                    }
                    write!(f, ")")?;
                }
                write!(f, "; terminal cause: {cause}")
            }
            RuntimeError::InvalidOptions(m) => write!(f, "invalid run options: {m}"),
            RuntimeError::Failed(failure) => failure.fmt(f),
            RuntimeError::Internal(m) => write!(f, "internal runtime error: {m}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Exec { source, .. } => Some(source),
            RuntimeError::Core(e) => Some(e),
            RuntimeError::Failed(failure) => Some(&*failure.cause),
            RuntimeError::Unrecoverable { cause, .. } => Some(&**cause),
            _ => None,
        }
    }
}

impl From<CoreError> for RuntimeError {
    fn from(e: CoreError) -> Self {
        RuntimeError::Core(e)
    }
}

/// Post-mortem record of an aborted multi-worker run.
#[derive(Debug)]
pub struct RunFailure {
    /// The first worker that failed (tripped the shared abort token).
    pub worker: usize,
    /// The node that worker was executing when it failed, if any.
    pub node: Option<NodeId>,
    /// That node's position in the worker's serial schedule.
    pub pos: Option<usize>,
    /// The first failure's typed root cause (never `Aborted` or `Failed`).
    pub cause: Box<RuntimeError>,
    /// Per healthy worker: time from the token tripping to that worker
    /// observing it and stopping. Workers already finished do not appear.
    pub detection: Vec<(usize, Duration)>,
    /// Partial traces of every worker that got far enough to produce one
    /// (a panicking worker loses its trace to the unwind).
    pub trace: RunTrace,
}

impl RunFailure {
    /// The slowest abort observation among healthy workers, if any observed.
    pub fn max_detection(&self) -> Option<Duration> {
        self.detection.iter().map(|&(_, d)| d).max()
    }
}

impl fmt::Display for RunFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run aborted: worker {} failed", self.worker)?;
        if let Some(n) = self.node {
            write!(f, " at node {}", n.0)?;
        }
        if let Some(p) = self.pos {
            write!(f, " (schedule step {p})")?;
        }
        write!(f, ": {}", self.cause)?;
        if let Some(d) = self.max_detection() {
            write!(f, "; {} peer(s) aborted within {d:?}", self.detection.len())?;
        }
        Ok(())
    }
}
