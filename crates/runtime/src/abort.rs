//! Fail-fast cooperative abort.
//!
//! One [`AbortToken`] is shared by every worker of a run. The first worker
//! that fails — a kernel error, a tripped integrity check, a panic, an
//! injected fault — *trips* the token with a structured [`AbortCause`];
//! every other worker polls the token between schedule steps and inside its
//! receive loop (every 5 ms), so a dead peer stops the whole run within
//! milliseconds
//! instead of stalling healthy workers until `recv_timeout`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tofu_graph::NodeId;

use crate::lock;

/// Why the run aborted: the first failure, as recorded by the worker that
/// tripped the token.
#[derive(Debug, Clone)]
pub(crate) struct AbortCause {
    /// Worker that failed first.
    pub worker: usize,
    /// Node that worker was executing, if it got that far.
    pub node: Option<NodeId>,
    /// Position of that node in the worker's serial schedule.
    pub pos: Option<usize>,
    /// One-line description of the failure.
    pub summary: String,
    /// When the token tripped (for detection-latency measurement).
    pub at: Instant,
}

#[derive(Debug)]
struct Inner {
    tripped: AtomicBool,
    cause: Mutex<Option<AbortCause>>,
}

/// Shared poison flag plus first-failure cause. Cloning is cheap (an `Arc`).
#[derive(Debug, Clone)]
pub(crate) struct AbortToken {
    inner: Arc<Inner>,
}

impl AbortToken {
    /// A fresh, untripped token.
    pub(crate) fn new() -> AbortToken {
        AbortToken {
            inner: Arc::new(Inner {
                tripped: AtomicBool::new(false),
                cause: Mutex::new(None),
            }),
        }
    }

    /// Trips the token with `cause`. The first trip wins; later trips (from
    /// workers failing as a *consequence* of the first) are ignored. Returns
    /// whether this call was the first.
    pub(crate) fn trip(&self, cause: AbortCause) -> bool {
        // The cause is written under the lock *before* the flag is raised, so
        // any worker that observes `tripped` also observes a cause.
        let mut slot = lock(&self.inner.cause);
        if slot.is_some() {
            return false;
        }
        *slot = Some(cause);
        drop(slot);
        self.inner.tripped.store(true, Ordering::Release);
        true
    }

    /// Cheap poll: has any worker failed?
    pub(crate) fn is_tripped(&self) -> bool {
        self.inner.tripped.load(Ordering::Acquire)
    }

    /// The first failure, once tripped.
    pub(crate) fn cause(&self) -> Option<AbortCause> {
        lock(&self.inner.cause).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cause(worker: usize) -> AbortCause {
        AbortCause { worker, node: None, pos: None, summary: "boom".into(), at: Instant::now() }
    }

    #[test]
    fn first_trip_wins() {
        let t = AbortToken::new();
        assert!(!t.is_tripped());
        assert!(t.cause().is_none());
        assert!(t.trip(cause(3)));
        assert!(!t.trip(cause(5)), "second trip must not override the first");
        assert!(t.is_tripped());
        assert_eq!(t.cause().unwrap().worker, 3);
    }

    #[test]
    fn clones_share_state() {
        let t = AbortToken::new();
        let u = t.clone();
        t.trip(cause(1));
        assert!(u.is_tripped());
        assert_eq!(u.cause().unwrap().worker, 1);
    }
}
