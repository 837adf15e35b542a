//! The one memo a caller carries across partition calls.
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
//! an identical search, so a hit is answer-preserving. It hashes every
//! [`crate::PartitionOptions`] field, because every field is part of the
//! request; the engine is not one of them — the memo only ever fronts the
//! optimized search, and the reference engine is a separate function,
//! [`crate::unoptimized_partition`].
//!
//! # Ownership
//!
//! The memo is a plain map its caller owns: [`crate::partition_cached`]
//! takes `&mut SearchCaches`, so the type system rules out concurrent
//! callers. A service that answers many clients at once keeps its own keyed
//! memo in front of the search (the `tofu-serve` response cache, which
//! also deduplicates concurrent identical requests) and calls the plain
//! search on a miss.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use tofu_graph::Graph;

use crate::error::CoreError;
use crate::recursive::{PartitionOptions, PartitionPlan};

/// A fast multiply-xor hasher for the DP's internal keys (the spec tuples
/// of its rows, groups and carried class fields; fingerprints). Not
/// DoS-resistant — keys are internal, never attacker-controlled — but
/// several times faster than SipHash on the lookups a WResNet search
/// performs.
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

/// A point-in-time view of the request memo, exposed for tests and the bench
/// harness (the hit/miss tallies also flow into `tofu-obs` totals when a
/// collector is attached).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Request-memo hits: whole partition requests answered without any
    /// search — a finished plan or a remembered infeasibility.
    pub request_hits: u64,
    /// Request-memo misses (one search each).
    pub request_misses: u64,
    /// Resident request-memo outcomes — finished plans *and* remembered
    /// infeasibilities.
    pub request_entries: usize,
}

/// Memoized outcome of one whole partition request: the finished plan, or
/// a *provable* rejection ([`CoreError::is_provable`]), which is a pure
/// function of the request exactly like a plan is.
pub(crate) type RequestOutcome = Result<PartitionPlan, CoreError>;

/// The request memo threaded through one or more partition calls.
///
/// [`crate::partition`] uses none; callers that run many related requests
/// (worker-count sweeps, an elastic runtime's width ladder) carry one
/// instance through [`crate::recursive::partition_cached`] to reuse
/// whole-request outcomes across calls.
#[derive(Default)]
pub struct SearchCaches {
    pub(crate) requests: FastMap<u128, RequestOutcome>,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

impl SearchCaches {
    /// An empty memo.
    pub fn new() -> SearchCaches {
        SearchCaches::default()
    }

    /// Current tallies and resident entries.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            request_hits: self.hits,
            request_misses: self.misses,
            request_entries: self.requests.len(),
        }
    }
}

/// Structural fingerprint of one *whole partition request*: the graph (ops,
/// canonical attrs, shapes, wiring, coarsening tags — names excluded) plus
/// every [`PartitionOptions`] field (each one steers the search). Two
/// requests share a fingerprint exactly when `partition` would walk an
/// identical search and return an identical plan, so it is the natural key
/// for a request-level plan cache (the `tofu-serve` service keys its shared
/// response cache on this, and its client hashes a `lookup` with this same
/// function).
pub fn request_fingerprint(g: &Graph, opts: &PartitionOptions) -> u128 {
    let mut h = Fnv::new();
    h.num(opts.workers as u64);
    h.byte(u8::from(opts.allow_reduce));
    h.num(opts.state_bound as u64);
    h.num(opts.internal_bound as u64);
    h.num(opts.beam as u64);
    h.num(opts.fetch_buffer_floor);
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
    }
}
