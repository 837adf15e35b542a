//! The one memo shared across partition calls — and across threads.
//!
//! [`SearchCaches`] is a **request memo** keyed by [`request_fingerprint`]:
//! a repeat of a *whole* partition request skips even coarsening and
//! returns the finished plan, and a width the search *proved infeasible*
//! ([`crate::CoreError::NoStrategy`] / `BadWorkerCount`) is remembered too,
//! so an elastic runtime probing the width ladder never re-proves an
//! infeasibility. Transient errors (bounds, internal) are never memoized.
//! Nothing below the request is cached across calls: strategy discovery
//! runs once per request, in [`crate::coarsen()`], and the per-class cost memo
//! lives inside `dp.rs` because its keys are frontier-local.
//!
//! The key is *exact*: two requests collide only when `partition` would walk
//! an identical search, so a hit is answer-preserving.
//!
//! # Concurrency
//!
//! [`SearchCaches`] is `Send + Sync`: the memo lives behind **sharded
//! reader-writer locks** (16 shards, selected by key bits, so readers of
//! different entries never contend on one lock) and the hit/miss tallies
//! are atomics. Because every memoized outcome is a pure function of its
//! exact key, concurrent interleavings can only change *which thread
//! computes an entry first*, never the entry's value — so results stay
//! bit-identical to a single-threaded run (the plan-service stress tests
//! assert this).
//!
//! The memo is a `SingleFlight` table, which additionally performs
//! **single-flight deduplication**: when N threads miss the same fingerprint
//! at once, exactly one (the *leader*) runs the search while the rest block
//! on a condvar and receive the leader's value as a hit. A leader that
//! errors or panics marks the flight failed and wakes the waiters, one of
//! which becomes the next leader — no flight is ever abandoned in a
//! blocking state.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use tofu_graph::Graph;

use crate::error::CoreError;
use crate::recursive::{PartitionOptions, PartitionPlan};

/// A fast multiply-xor hasher for the DP's internal keys (packed class-memo
/// keys, spec tuples, fingerprints). Not DoS-resistant — keys are internal,
/// never attacker-controlled — but several times faster than SipHash on the
/// millions of lookups a WResNet search performs.
#[derive(Default)]
pub struct FastHasher(u64);

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0 ^ u64::from_le_bytes(buf)).wrapping_mul(SEED).rotate_left(5);
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0 ^ i).wrapping_mul(SEED).rotate_left(5);
    }

    fn write_u128(&mut self, i: u128) {
        self.write_u64(i as u64);
        self.write_u64((i >> 64) as u64);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` using [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// 128-bit FNV-1a, used for the request fingerprint, where a collision would
/// silently return a wrong plan (so 64 bits would be uncomfortable).
#[derive(Clone, Copy)]
struct Fnv(u128);

const FNV_OFFSET: u128 = 0x6c62272e07bb0142_62b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000_000000000000013b;

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u128::from(b)).wrapping_mul(FNV_PRIME);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    fn num(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn finish(self) -> u128 {
        self.0
    }
}

/// A non-draining point-in-time view of the request memo, exposed for tests,
/// the bench harness and the plan service's `stats` request (the hit/miss
/// tallies also flow into `tofu-obs` totals when a collector is attached).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Request-memo hits: whole partition requests answered without any
    /// search — a finished plan or a remembered infeasibility (including
    /// single-flight waiters served by a leader's outcome).
    pub request_hits: u64,
    /// Request-memo misses (one per single-flight leader).
    pub request_misses: u64,
    /// Resident request-memo outcomes — finished plans *and* remembered
    /// infeasibilities (in-flight computations excluded).
    pub request_entries: usize,
}

impl CacheStats {
    /// Hits / lookups of the request memo (`0.0` before any lookup).
    pub fn request_hit_rate(&self) -> f64 {
        self.request_hits as f64 / (self.request_hits + self.request_misses).max(1) as f64
    }
}

/// Lock shard count of the memo. A power of two so shard selection is a
/// mask; 16 shards keep 8–16 worker threads essentially contention-free
/// while costing a few hundred bytes when idle.
const SHARDS: usize = 16;

/// State of one in-flight computation.
enum FlightState<V> {
    /// The leader is still computing.
    Computing,
    /// The leader finished; waiters take the value from here.
    Done(V),
    /// The leader errored or panicked; a waiter must retry.
    Failed,
}

struct Flight<V> {
    state: Mutex<FlightState<V>>,
    cv: Condvar,
}

enum Slot<V> {
    Ready(V),
    Pending(Arc<Flight<V>>),
}

/// Result of a [`SingleFlight::begin`] lookup.
pub(crate) enum Lookup<'a, V: Clone> {
    /// The value was cached (or just published by another thread's leader).
    Ready(V),
    /// This thread is the leader: it must compute the value and
    /// [`FlightGuard::fill`] it (or let the guard drop to mark failure).
    Leader(FlightGuard<'a, V>),
}

/// RAII companion of [`Lookup::Leader`]: guarantees the flight is resolved
/// even when the leader errors or panics, so waiters never block on an
/// abandoned computation.
pub(crate) struct FlightGuard<'a, V: Clone> {
    table: &'a SingleFlight<V>,
    key: u128,
    armed: bool,
}

impl<V: Clone> FlightGuard<'_, V> {
    /// Publishes the finished value and wakes every waiter.
    pub(crate) fn fill(mut self, value: &V) {
        self.armed = false;
        self.table.resolve(self.key, Some(value));
    }
}

impl<V: Clone> Drop for FlightGuard<'_, V> {
    fn drop(&mut self) {
        if self.armed {
            self.table.resolve(self.key, None);
        }
    }
}

/// A sharded `fingerprint → value` map with single-flight deduplication and
/// hit/miss tallies: concurrent misses of one key elect exactly one leader,
/// the rest block on its flight and receive its value as a hit.
pub(crate) struct SingleFlight<V> {
    shards: [RwLock<FastMap<u128, Slot<V>>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> Default for SingleFlight<V> {
    fn default() -> Self {
        SingleFlight {
            shards: std::array::from_fn(|_| RwLock::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<V: Clone> SingleFlight<V> {
    fn shard(&self, key: u128) -> &RwLock<FastMap<u128, Slot<V>>> {
        &self.shards[(key as u64 ^ (key >> 64) as u64) as usize & (SHARDS - 1)]
    }

    /// Resident finished values (in-flight computations excluded).
    fn ready_entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let map = s.read().expect("cache lock");
                map.values().filter(|slot| matches!(slot, Slot::Ready(_))).count()
            })
            .sum()
    }

    /// Returns the cached value, blocks until a concurrent leader publishes
    /// it, or elects the caller leader.
    pub(crate) fn begin(&self, key: u128) -> Lookup<'_, V> {
        loop {
            // Fast path: shared read of the shard.
            let flight = {
                let map = self.shard(key).read().expect("cache lock");
                match map.get(&key) {
                    Some(Slot::Ready(v)) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Lookup::Ready(v.clone());
                    }
                    Some(Slot::Pending(f)) => Some(Arc::clone(f)),
                    None => None,
                }
            };
            match flight {
                Some(f) => {
                    // Wait for the leader; a failed flight retries the loop
                    // (and may elect this thread the next leader).
                    let mut st = f.state.lock().expect("flight lock");
                    while matches!(*st, FlightState::Computing) {
                        st = f.cv.wait(st).expect("flight lock");
                    }
                    if let FlightState::Done(v) = &*st {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Lookup::Ready(v.clone());
                    }
                }
                None => {
                    let mut map = self.shard(key).write().expect("cache lock");
                    // Re-check under the write lock: another thread may have
                    // inserted between our read and write acquisitions.
                    if map.contains_key(&key) {
                        continue;
                    }
                    let flight = Flight {
                        state: Mutex::new(FlightState::Computing),
                        cv: Condvar::new(),
                    };
                    map.insert(key, Slot::Pending(Arc::new(flight)));
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return Lookup::Leader(FlightGuard { table: self, key, armed: true });
                }
            }
        }
    }

    /// Ends the leader's flight: `Some` publishes the value, `None` frees
    /// the key so a waiter retries; either way every waiter wakes.
    fn resolve(&self, key: u128, value: Option<&V>) {
        let old = {
            let mut map = self.shard(key).write().expect("cache lock");
            match value {
                Some(v) => map.insert(key, Slot::Ready(v.clone())),
                None => map.remove(&key),
            }
        };
        if let Some(Slot::Pending(f)) = old {
            // Reached from the guard's `Drop`, possibly mid-unwind: a
            // poisoned flight lock must not become a second panic.
            let mut st = f.state.lock().unwrap_or_else(|e| e.into_inner());
            *st = value.map_or(FlightState::Failed, |v| FlightState::Done(v.clone()));
            f.cv.notify_all();
        }
    }
}

/// Memoized outcome of one whole partition request: the finished plan, or
/// one of the *provable* rejections — no strategy for some node
/// ([`CoreError::NoStrategy`]) or an unusable worker count
/// ([`CoreError::BadWorkerCount`]) — which are pure functions of the request
/// exactly like a plan is. Resource-bound and internal errors are
/// circumstance-dependent and are never stored.
pub(crate) type RequestOutcome = Result<PartitionPlan, CoreError>;

/// The request memo threaded through one or more partition calls.
///
/// [`crate::partition`] uses none; callers that run many related requests
/// (worker-count sweeps, an elastic runtime's width ladder, a plan service)
/// share one instance via [`crate::recursive::partition_cached`] to reuse
/// whole-request outcomes across calls. The type is `Send + Sync`: a
/// long-running service wraps one instance in an `Arc` and calls
/// `partition_cached` from many solver threads at once (see the module docs
/// for the bit-identity argument).
#[derive(Default)]
pub struct SearchCaches {
    pub(crate) requests: SingleFlight<RequestOutcome>,
}

impl SearchCaches {
    /// An empty memo.
    pub fn new() -> SearchCaches {
        SearchCaches::default()
    }

    /// Current tallies and resident entries (non-draining).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            request_hits: self.requests.hits.load(Ordering::Relaxed),
            request_misses: self.requests.misses.load(Ordering::Relaxed),
            request_entries: self.requests.ready_entries(),
        }
    }
}

/// Structural fingerprint of one *whole partition request*: the graph (ops,
/// canonical attrs, shapes, wiring, coarsening tags — names excluded) plus
/// every [`PartitionOptions`] field that steers the search. Two requests
/// share a fingerprint exactly when `partition` would walk an identical
/// search and return an identical plan, so it is the natural key for a
/// request-level plan cache (the `tofu-serve` service keys its shared
/// response cache on this).
pub fn request_fingerprint(g: &Graph, opts: &PartitionOptions) -> u128 {
    let mut h = Fnv::new();
    h.num(opts.workers as u64);
    h.byte(u8::from(opts.allow_reduce));
    h.num(opts.state_bound as u64);
    h.num(opts.internal_bound as u64);
    h.num(opts.beam as u64);
    h.num(opts.fetch_buffer_floor);
    h.byte(opts.tuning as u8);
    // Tensor shapes (declared, pre-recursion).
    h.num(g.num_tensors() as u64);
    for t in g.tensor_ids() {
        let dims = g.tensor(t).shape.dims();
        h.num(dims.len() as u64);
        for &d in dims {
            h.num(d as u64);
        }
    }
    // Nodes: op kind, canonical attrs, wiring, and the tags coarsening
    // reads (§5.1) — forward/backward pairing, RNN timestep coalescing and
    // layer placement all change the coarsened chain, hence the plan.
    h.num(g.num_nodes() as u64);
    for id in g.node_ids() {
        let n = g.node(id);
        h.bytes(n.op.as_bytes());
        h.byte(0);
        h.bytes(n.attrs.to_string().as_bytes());
        h.byte(0);
        h.num(n.inputs.len() as u64);
        for &t in &n.inputs {
            h.num(t.0 as u64);
        }
        h.num(n.output.0 as u64);
        h.byte(u8::from(n.tags.is_backward));
        h.num(n.tags.fw_origin.map_or(u64::MAX, |f| f.0 as u64));
        h.num(n.tags.layer.map_or(u64::MAX, |l| l as u64));
        h.num(n.tags.timestep.map_or(u64::MAX, |t| t as u64));
        match &n.tags.cell_position {
            Some(cp) => {
                h.byte(1);
                h.bytes(cp.as_bytes());
            }
            None => h.byte(0),
        }
        h.byte(0);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_hasher_spreads_small_keys() {
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..1000 {
            let mut h = FastHasher::default();
            h.write_u64(i);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 1000);
    }

    #[test]
    fn fnv_distinguishes_order() {
        let mut a = Fnv::new();
        a.num(1);
        a.num(2);
        let mut b = Fnv::new();
        b.num(2);
        b.num(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn stats_start_zeroed() {
        let c = SearchCaches::new();
        assert_eq!(c.stats(), CacheStats::default());
        assert_eq!(c.stats().request_hit_rate(), 0.0);
    }

    #[test]
    fn hit_rates_derive_from_tallies() {
        let s = CacheStats { request_hits: 3, request_misses: 1, request_entries: 1 };
        assert!((s.request_hit_rate() - 0.75).abs() < 1e-12);
    }

    /// An outcome the single-flight checks can mint and recognise.
    fn mint(tag: usize) -> RequestOutcome {
        Err(CoreError::BadWorkerCount(tag))
    }

    fn tallies(t: &SingleFlight<RequestOutcome>) -> (u64, u64) {
        (t.hits.load(Ordering::Relaxed), t.misses.load(Ordering::Relaxed))
    }

    fn lead(t: &SingleFlight<RequestOutcome>, key: u128) -> FlightGuard<'_, RequestOutcome> {
        match t.begin(key) {
            Lookup::Leader(guard) => guard,
            Lookup::Ready(_) => panic!("no value published for key {key}"),
        }
    }

    fn hit(t: &SingleFlight<RequestOutcome>, key: u128) -> usize {
        match t.begin(key) {
            Lookup::Ready(Err(CoreError::BadWorkerCount(tag))) => tag,
            Lookup::Ready(_) => panic!("minted outcomes are BadWorkerCount"),
            Lookup::Leader(_) => panic!("key {key} must not elect a second leader"),
        }
    }

    #[test]
    fn single_flight_leader_then_hit() {
        let t = SingleFlight::default();
        lead(&t, 42).fill(&mint(7));
        assert_eq!(hit(&t, 42), 7);
        assert_eq!(tallies(&t), (1, 1));
        assert_eq!(t.ready_entries(), 1);
    }

    #[test]
    fn failed_flight_elects_a_new_leader() {
        let t = SingleFlight::default();
        drop(lead(&t, 7)); // leader "errored": flight must clear
        // The key is free again: the next lookup becomes leader, not a hit.
        let _second = lead(&t, 7);
        assert_eq!(tallies(&t), (0, 2));
        assert_eq!(t.ready_entries(), 0, "a failed flight leaves nothing behind");
    }

    /// Spins until `waiters` other threads hold the pending flight of `key`,
    /// i.e. each saw the slot `Pending` and is parked on (or about to lock)
    /// the flight.
    fn await_waiters(t: &SingleFlight<RequestOutcome>, key: u128, waiters: usize) {
        loop {
            if let Some(Slot::Pending(f)) = t.shard(key).read().expect("cache lock").get(&key) {
                if Arc::strong_count(f) > waiters {
                    return;
                }
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn waiters_block_until_leader_fills() {
        let t = SingleFlight::default();
        let guard = lead(&t, 9);
        std::thread::scope(|s| {
            let waiters: Vec<_> = (0..4).map(|_| s.spawn(|| hit(&t, 9))).collect();
            await_waiters(&t, 9, 4);
            guard.fill(&mint(3));
            for w in waiters {
                assert_eq!(w.join().expect("waiter"), 3);
            }
        });
        assert_eq!(tallies(&t), (4, 1), "single flight: one miss for five lookups");
    }

    #[test]
    fn panicking_leader_wakes_a_waiter_who_becomes_leader() {
        let t = SingleFlight::default();
        std::thread::scope(|s| {
            let (leading_tx, leading_rx) = std::sync::mpsc::channel::<()>();
            let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
            let t = &t;
            let leader = s.spawn(move || {
                let _guard = lead(t, 11);
                leading_tx.send(()).expect("test alive");
                go_rx.recv().expect("test alive");
                panic!("leader dies mid-search (expected by this test)");
            });
            leading_rx.recv().expect("leader elected");
            // The waiter must come out of `begin` as the next leader: its
            // fill is what the final lookup sees.
            let waiter = s.spawn(move || lead(t, 11).fill(&mint(5)));
            await_waiters(t, 11, 1);
            go_tx.send(()).expect("leader alive");
            assert!(leader.join().is_err(), "the leader thread panicked");
            waiter.join().expect("waiter woke and led");
        });
        assert_eq!(hit(&t, 11), 5);
        assert_eq!(tallies(&t), (1, 2));
    }

    #[test]
    fn request_memo_remembers_plans_and_infeasibilities() {
        let c = SearchCaches::new();
        let plan = PartitionPlan {
            workers: 2,
            steps: Vec::new(),
            tiling: Vec::new(),
            search_time: std::time::Duration::ZERO,
        };
        lead(&c.requests, 1).fill(&Ok(plan));
        assert!(matches!(c.requests.begin(1), Lookup::Ready(Ok(p)) if p.workers == 2));
        lead(&c.requests, 2).fill(&mint(7));
        assert_eq!(hit(&c.requests, 2), 7);

        let stats = c.stats();
        assert_eq!((stats.request_hits, stats.request_misses, stats.request_entries), (2, 2, 2));
    }
}
