//! Durable checkpoint store for the Tofu runtime.
//!
//! The runtime's checkpoint/restart machinery (PR 2) and elastic reshard
//! path (PRs 5/7) keep every consistent checkpoint in the coordinating
//! process's heap — kill the process and all progress dies with it. This
//! crate is the missing durability layer:
//!
//! - [`codec`]: checksummed binary shard encoding and a checksummed,
//!   versioned JSON manifest; every decode path returns a typed
//!   [`CodecError`](codec::CodecError), never panics.
//! - [`store`]: the [`BlobStore`] boundary. [`DirStore`] writes through
//!   write-temp → fsync → atomic-rename → fsync-parent, so each blob is
//!   all-or-nothing; [`MemStore`] keeps the contract in memory for tests.
//! - [`commit`]: the commit protocol (shards first, manifest last — the
//!   manifest *is* the commit point), newest-valid discovery with typed
//!   [`RejectReason`]s for every skipped candidate, and retention GC.
//! - [`fault`]: deterministic disk-fault injection ([`FaultyStore`]) —
//!   torn writes, bit flips, missing shards, stale and duplicate
//!   manifests — each firing once, like the runtime's injected faults.
//!
//! Checkpoints are *plan-independent* (full tensor values, not per-worker
//! shards), so a restarted process may validate the newest checkpoint and
//! reshard it onto a fleet of a different width. The runtime's
//! `run_with_durable_recovery` drives this crate end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod commit;
pub mod fault;
pub mod store;

pub use codec::{fnv1a64, CodecError, Manifest, ShardEntry};
pub use commit::{
    gc, recover_latest, write_checkpoint, DurableCheckpoint, Recovery, RejectReason,
    RejectedCheckpoint, WriteStats,
};
pub use fault::{DiskFault, DiskFaultPlan, FaultyStore};
pub use store::{BlobStore, DirStore, MemStore};
