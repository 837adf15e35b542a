//! Checkpoint commit, discovery/validation, and retention GC.
//!
//! Commit protocol: write every shard blob (ascending tensor order), then
//! write the manifest. Each blob individually goes through the store's
//! atomic-durable `put`, and the manifest is the commit point — recovery
//! ignores shards that no readable, valid manifest names. Validation is
//! total: a checkpoint is used only if its manifest self-checksum, its
//! name/body ordinal agreement, and every named shard's presence, size,
//! checksum and decode all hold. Anything else is skipped with a typed
//! [`RejectReason`] and the scan falls back to the next-newest candidate.

use std::collections::BTreeMap;
use std::fmt;
use std::io;

use tofu_tensor::Tensor;

use crate::codec::{
    decode_shard, encode_shard, fnv1a64, manifest_name, parse_manifest_name, parse_shard_name,
    shard_name, Manifest, ShardEntry, FORMAT_VERSION,
};
use crate::store::BlobStore;

/// A plan-independent checkpoint in transit to or from disk: full
/// (unsharded) tensor values keyed by tensor id, plus the barrier cadence
/// needed to re-derive per-worker resume cuts at any worker width.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableCheckpoint {
    /// Checkpoint ordinal (1-based barrier index).
    pub ckpt: u64,
    /// Barrier cadence in original steps.
    pub every: u64,
    /// Full tensor values, keyed by tensor id.
    pub tensors: BTreeMap<u64, Tensor>,
}

impl DurableCheckpoint {
    /// Total payload bytes across all tensors.
    pub fn bytes(&self) -> u64 {
        self.tensors.values().map(|t| t.shape().bytes()).sum()
    }
}

/// What a completed [`write_checkpoint`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteStats {
    /// Shard blobs written.
    pub shards: usize,
    /// Total bytes written (shards, plus the manifest when committed).
    pub bytes: u64,
    /// Whether the manifest was written (the checkpoint is committed).
    pub committed: bool,
}

/// Write checkpoint `snap` to `store`: all shards, then — iff `commit` —
/// the manifest that makes them durable. `commit: false` models a process
/// that died between data writes and the commit point.
pub fn write_checkpoint(
    store: &dyn BlobStore,
    snap: &DurableCheckpoint,
    commit: bool,
) -> io::Result<WriteStats> {
    let mut entries = Vec::with_capacity(snap.tensors.len());
    let mut bytes = 0u64;
    for (&tensor, t) in &snap.tensors {
        let blob = encode_shard(tensor, t);
        let file = shard_name(snap.ckpt, tensor);
        entries.push(ShardEntry {
            tensor,
            file: file.clone(),
            bytes: blob.len() as u64,
            checksum: fnv1a64(&blob),
        });
        store.put(&file, &blob)?;
        bytes += blob.len() as u64;
    }
    if !commit {
        return Ok(WriteStats { shards: entries.len(), bytes, committed: false });
    }
    let manifest = Manifest {
        version: FORMAT_VERSION,
        ckpt: snap.ckpt,
        every: snap.every,
        shards: entries,
    }
    .encode();
    bytes += manifest.len() as u64;
    store.put(&manifest_name(snap.ckpt), &manifest)?;
    Ok(WriteStats { shards: snap.tensors.len(), bytes, committed: true })
}

/// Why a checkpoint candidate was skipped during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The manifest blob could not be read from the store.
    Unreadable(String),
    /// The manifest failed its self-checksum or structural validation.
    BadManifest(String),
    /// The ordinal in the manifest body disagrees with the blob name —
    /// a stale or duplicated manifest committed under the wrong name.
    IdMismatch {
        /// Ordinal parsed from the blob name.
        name: u64,
        /// Ordinal recorded inside the manifest body.
        body: u64,
    },
    /// The manifest cadence disagrees with the cadence the run expects.
    WrongCadence {
        /// Cadence the restarting run was configured with.
        want: u64,
        /// Cadence recorded in the manifest.
        got: u64,
    },
    /// A shard named by the manifest is absent.
    MissingShard {
        /// Blob name of the absent shard.
        file: String,
    },
    /// A shard's size differs from the manifest record (torn write).
    SizeMismatch {
        /// Blob name of the shard.
        file: String,
        /// Size the manifest recorded.
        want: u64,
        /// Size actually found.
        got: u64,
    },
    /// A shard's checksum or decode failed (corruption).
    ShardCorrupt {
        /// Blob name of the shard.
        file: String,
        /// The underlying codec failure.
        detail: String,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Unreadable(d) => write!(f, "manifest unreadable: {d}"),
            RejectReason::BadManifest(d) => write!(f, "manifest invalid: {d}"),
            RejectReason::IdMismatch { name, body } => {
                write!(f, "manifest name says checkpoint {name} but body says {body}")
            }
            RejectReason::WrongCadence { want, got } => {
                write!(f, "cadence mismatch: run expects every={want}, manifest has every={got}")
            }
            RejectReason::MissingShard { file } => write!(f, "shard {file} missing"),
            RejectReason::SizeMismatch { file, want, got } => {
                write!(f, "shard {file} is {got} bytes, manifest says {want}")
            }
            RejectReason::ShardCorrupt { file, detail } => {
                write!(f, "shard {file} corrupt: {detail}")
            }
        }
    }
}

/// A skipped checkpoint candidate: which ordinal, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectedCheckpoint {
    /// Ordinal parsed from the rejected manifest's name.
    pub ckpt: u64,
    /// Why validation refused it.
    pub reason: RejectReason,
}

/// Outcome of [`recover_latest`].
#[derive(Debug)]
pub struct Recovery {
    /// The newest fully-valid checkpoint, if any survived validation.
    pub snapshot: Option<DurableCheckpoint>,
    /// Newer candidates that were skipped, newest first, each with a typed
    /// reason.
    pub rejected: Vec<RejectedCheckpoint>,
}

fn validate_candidate(
    store: &dyn BlobStore,
    ckpt: u64,
    expected_every: Option<u64>,
) -> Result<DurableCheckpoint, RejectReason> {
    let bytes = match store.get(&manifest_name(ckpt)) {
        Ok(b) => b,
        Err(e) => return Err(RejectReason::Unreadable(e.to_string())),
    };
    let m = Manifest::decode(&bytes).map_err(|e| RejectReason::BadManifest(e.to_string()))?;
    if m.ckpt != ckpt {
        return Err(RejectReason::IdMismatch { name: ckpt, body: m.ckpt });
    }
    if let Some(want) = expected_every {
        if m.every != want {
            return Err(RejectReason::WrongCadence { want, got: m.every });
        }
    }
    let mut tensors = BTreeMap::new();
    for entry in &m.shards {
        let blob = match store.get(&entry.file) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(RejectReason::MissingShard { file: entry.file.clone() });
            }
            Err(e) => return Err(RejectReason::Unreadable(e.to_string())),
        };
        if blob.len() as u64 != entry.bytes {
            return Err(RejectReason::SizeMismatch {
                file: entry.file.clone(),
                want: entry.bytes,
                got: blob.len() as u64,
            });
        }
        if fnv1a64(&blob) != entry.checksum {
            return Err(RejectReason::ShardCorrupt {
                file: entry.file.clone(),
                detail: "blob checksum does not match manifest".to_string(),
            });
        }
        let (tensor, t) = decode_shard(&blob).map_err(|e| RejectReason::ShardCorrupt {
            file: entry.file.clone(),
            detail: e.to_string(),
        })?;
        if tensor != entry.tensor {
            return Err(RejectReason::ShardCorrupt {
                file: entry.file.clone(),
                detail: format!("header says tensor {tensor}, manifest says {}", entry.tensor),
            });
        }
        tensors.insert(tensor, t);
    }
    Ok(DurableCheckpoint { ckpt, every: m.every, tensors })
}

/// Find the newest fully-valid checkpoint in `store`.
///
/// Candidates (manifests) are scanned newest-first; each is validated in
/// full and either returned or recorded in [`Recovery::rejected`] with a
/// typed reason. Pass `expected_every` to additionally require the stored
/// cadence to match the restarting run's configuration.
pub fn recover_latest(
    store: &dyn BlobStore,
    expected_every: Option<u64>,
) -> io::Result<Recovery> {
    let mut ids: Vec<u64> =
        store.list()?.iter().filter_map(|n| parse_manifest_name(n)).collect();
    ids.sort_unstable();
    let mut rejected = Vec::new();
    let mut snapshot = None;
    for &ckpt in ids.iter().rev() {
        match validate_candidate(store, ckpt, expected_every) {
            Ok(snap) => {
                snapshot = Some(snap);
                break;
            }
            Err(reason) => rejected.push(RejectedCheckpoint { ckpt, reason }),
        }
    }
    Ok(Recovery { snapshot, rejected })
}

/// Delete all but the newest `retain` committed checkpoints, plus any
/// orphan shards older than the oldest retained one. Manifests are deleted
/// before their shards so a crash mid-GC can only leave orphan shards
/// (harmless), never a manifest whose shards are gone.
///
/// Returns the number of blobs removed.
pub fn gc(store: &dyn BlobStore, retain: usize) -> io::Result<usize> {
    let names = store.list()?;
    let mut ids: Vec<u64> = names.iter().filter_map(|n| parse_manifest_name(n)).collect();
    ids.sort_unstable();
    let kept: Vec<u64> = ids.iter().rev().take(retain.max(1)).copied().collect();
    let oldest_kept = kept.last().copied().unwrap_or(0);
    let mut removed = 0;
    for &ckpt in &ids {
        if !kept.contains(&ckpt) {
            store.delete(&manifest_name(ckpt))?;
            removed += 1;
        }
    }
    for name in &names {
        if let Some(ckpt) = parse_shard_name(name) {
            if !kept.contains(&ckpt) && ckpt < oldest_kept {
                store.delete(name)?;
                removed += 1;
            }
        }
    }
    Ok(removed)
}
