//! Per-tenant fair scheduling with admission control.
//!
//! The serve queue is not FIFO: one tenant submitting a burst of cold
//! requests must not starve another tenant's single request behind it.
//! [`FairScheduler`] keeps one FIFO queue per tenant and services tenants
//! round-robin — each turn of the rotation pops exactly one item from the
//! front tenant's queue, so a tenant with 100 queued requests and a tenant
//! with 1 alternate until the second is drained.
//!
//! Admission control is a hard cap on the *total* queued items: when the cap
//! is reached, [`FairScheduler::push`] rejects the item and hands it back to
//! the caller (the server answers `overloaded`), bounding both memory and
//! worst-case queueing delay.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

struct SchedState<T> {
    /// One FIFO per tenant; entries are removed when a tenant drains.
    queues: HashMap<String, VecDeque<T>>,
    /// Round-robin rotation of tenants that currently have queued items.
    rotation: VecDeque<String>,
    /// Total queued items across all tenants.
    queued: usize,
    /// Set once by [`FairScheduler::close`]; wakes and drains all poppers.
    closed: bool,
}

/// A bounded, tenant-fair MPMC queue (mutex + condvar; no busy waiting).
pub struct FairScheduler<T> {
    state: Mutex<SchedState<T>>,
    ready: Condvar,
    cap: usize,
}

impl<T> FairScheduler<T> {
    /// Creates a scheduler admitting at most `cap` queued items in total.
    /// A cap of zero rejects every push (useful to force `overloaded`).
    pub fn new(cap: usize) -> FairScheduler<T> {
        FairScheduler {
            state: Mutex::new(SchedState {
                queues: HashMap::new(),
                rotation: VecDeque::new(),
                queued: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            cap,
        }
    }

    /// Enqueues one item for a tenant. `Err(item)` means the queue is at
    /// capacity (or closed) and the item was NOT admitted — the caller owns
    /// it again and should reject the request.
    pub fn push(&self, tenant: &str, item: T) -> Result<(), T> {
        let mut st = self.state.lock().expect("scheduler lock");
        if st.closed || st.queued >= self.cap {
            return Err(item);
        }
        let q = st.queues.entry(tenant.to_string()).or_default();
        let was_empty = q.is_empty();
        q.push_back(item);
        st.queued += 1;
        if was_empty {
            st.rotation.push_back(tenant.to_string());
        }
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Pops the next item round-robin across tenants, blocking while the
    /// queue is empty. Returns `None` once the scheduler is closed and
    /// drained.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().expect("scheduler lock");
        loop {
            if let Some(tenant) = st.rotation.pop_front() {
                let q = st.queues.get_mut(&tenant).expect("rotation tenant has a queue");
                let item = q.pop_front().expect("rotation tenant queue nonempty");
                let drained = q.is_empty();
                st.queued -= 1;
                if drained {
                    st.queues.remove(&tenant);
                } else {
                    st.rotation.push_back(tenant);
                }
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).expect("scheduler wait");
        }
    }

    /// Closes the queue: subsequent pushes fail, and poppers return `None`
    /// once the remaining items are drained.
    pub fn close(&self) {
        self.state.lock().expect("scheduler lock").closed = true;
        self.ready.notify_all();
    }

    /// Total queued items right now (racy by nature; for stats only).
    pub(crate) fn queued(&self) -> usize {
        self.state.lock().expect("scheduler lock").queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn round_robin_across_tenants() {
        let s = FairScheduler::new(16);
        for item in ["a1", "a2", "a3"] {
            s.push("alice", item).unwrap();
        }
        s.push("bob", "b1").unwrap();
        s.push("carol", "c1").unwrap();
        // alice was first, then bob and carol each get a turn before alice's
        // backlog continues.
        assert_eq!(s.pop(), Some("a1"));
        assert_eq!(s.pop(), Some("b1"));
        assert_eq!(s.pop(), Some("c1"));
        assert_eq!(s.pop(), Some("a2"));
        assert_eq!(s.pop(), Some("a3"));
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn per_tenant_order_is_fifo() {
        let s = FairScheduler::new(16);
        for i in 0..5 {
            s.push("t", i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(s.pop(), Some(i));
        }
    }

    #[test]
    fn cap_rejects_and_returns_item() {
        let s = FairScheduler::new(2);
        s.push("a", 1).unwrap();
        s.push("b", 2).unwrap();
        assert_eq!(s.push("c", 3), Err(3));
        // Draining one slot readmits.
        assert!(s.pop().is_some());
        s.push("c", 3).unwrap();
    }

    #[test]
    fn zero_cap_rejects_everything() {
        let s = FairScheduler::new(0);
        assert_eq!(s.push("a", 1), Err(1));
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let s = Arc::new(FairScheduler::<u32>::new(4));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || s.pop()));
        }
        // Give the poppers a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        s.close();
        for h in handles {
            assert_eq!(h.join().unwrap(), None);
        }
        assert_eq!(s.push("a", 1), Err(1));
    }

    #[test]
    fn close_drains_remaining_items() {
        let s = FairScheduler::new(4);
        s.push("a", 1).unwrap();
        s.push("a", 2).unwrap();
        s.close();
        assert_eq!(s.pop(), Some(1));
        assert_eq!(s.pop(), Some(2));
        assert_eq!(s.pop(), None);
    }
}
