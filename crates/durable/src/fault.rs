//! Deterministic disk-fault injection.
//!
//! [`FaultyStore`] wraps any [`BlobStore`] and corrupts writes according to
//! a [`DiskFaultPlan`] — torn writes, bit flips, dropped shard files and
//! manifest-level confusions. Faults are addressed by checkpoint ordinal
//! plus the shard's write ordinal within that checkpoint (shards are always
//! written in ascending tensor order, so ordinals are deterministic), and
//! each fires exactly once, mirroring the runtime's one-shot faults. The corruption happens *through* the real store so recovery sees
//! exactly what a failing disk would have left behind.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::codec::{manifest_name, parse_manifest_name, parse_shard_name};
use crate::store::BlobStore;

/// One injected disk fault. `ckpt` selects the checkpoint whose write is
/// sabotaged; `shard` (where present) is the 0-based ordinal of the shard
/// write within that checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// Truncate the shard blob to its first `keep` bytes — a torn write
    /// that slipped past the atomic-rename protocol (e.g. firmware lying
    /// about flush). `keep` is clamped to the blob length.
    TornWrite {
        /// Checkpoint ordinal to sabotage.
        ckpt: u64,
        /// Shard write ordinal within the checkpoint.
        shard: usize,
        /// Bytes to keep from the front of the blob.
        keep: usize,
    },
    /// Flip bit `bit` (modulo the blob's bit length) of the shard blob —
    /// silent media corruption the checksum must catch.
    BitFlip {
        /// Checkpoint ordinal to sabotage.
        ckpt: u64,
        /// Shard write ordinal within the checkpoint.
        shard: usize,
        /// Bit index, taken modulo the blob's bit length.
        bit: u64,
    },
    /// Drop the shard write entirely: the manifest will name a file that
    /// does not exist.
    MissingShard {
        /// Checkpoint ordinal to sabotage.
        ckpt: u64,
        /// Shard write ordinal within the checkpoint.
        shard: usize,
    },
    /// Commit the manifest normally, then delete the checkpoint's first
    /// shard — a manifest left stale by media loss after commit.
    StaleManifest {
        /// Checkpoint ordinal to sabotage.
        ckpt: u64,
    },
    /// After committing checkpoint `ckpt`, also write a byte-identical copy
    /// of its manifest under the *next* ordinal's name — a duplicate that
    /// recovery must reject by the name/body ordinal mismatch.
    DuplicateManifest {
        /// Checkpoint ordinal whose manifest is duplicated.
        ckpt: u64,
    },
}

/// A set of disk faults to inject, deterministic and order-independent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiskFaultPlan {
    /// The faults to inject; each fires at most once.
    pub faults: Vec<DiskFault>,
}

impl DiskFaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> DiskFaultPlan {
        DiskFaultPlan::default()
    }

    /// Add a fault (builder-style).
    pub fn with(mut self, fault: DiskFault) -> DiskFaultPlan {
        self.faults.push(fault);
        self
    }
}

struct Armed {
    fault: DiskFault,
    fired: AtomicBool,
}

/// A [`BlobStore`] wrapper that injects the faults of a [`DiskFaultPlan`]
/// into matching writes, each exactly once.
pub struct FaultyStore {
    inner: Arc<dyn BlobStore>,
    armed: Vec<Armed>,
    // Per-checkpoint count of shard writes seen so far, addressing faults
    // by write ordinal.
    seq: Mutex<BTreeMap<u64, usize>>,
}

impl FaultyStore {
    /// Wrap `inner`, arming every fault in `plan`.
    pub fn new(inner: Arc<dyn BlobStore>, plan: DiskFaultPlan) -> FaultyStore {
        FaultyStore {
            inner,
            armed: plan
                .faults
                .into_iter()
                .map(|fault| Armed { fault, fired: AtomicBool::new(false) })
                .collect(),
            seq: Mutex::new(BTreeMap::new()),
        }
    }

    /// Number of faults that have fired so far.
    pub fn fired(&self) -> usize {
        self.armed.iter().filter(|a| a.fired.load(Ordering::SeqCst)).count()
    }

    fn fire(&self, pred: impl Fn(&DiskFault) -> bool) -> Option<DiskFault> {
        for a in &self.armed {
            if pred(&a.fault) && !a.fired.swap(true, Ordering::SeqCst) {
                return Some(a.fault);
            }
        }
        None
    }

    fn first_shard_of(&self, ckpt: u64) -> io::Result<Option<String>> {
        Ok(self
            .inner
            .list()?
            .into_iter()
            .find(|n| parse_shard_name(n) == Some(ckpt)))
    }
}

impl BlobStore for FaultyStore {
    fn put(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        if let Some(ckpt) = parse_shard_name(name) {
            let ordinal = {
                let mut seq = self.seq.lock().unwrap();
                let n = seq.entry(ckpt).or_insert(0);
                let ord = *n;
                *n += 1;
                ord
            };
            if self
                .fire(|f| matches!(*f, DiskFault::MissingShard { ckpt: c, shard } if c == ckpt && shard == ordinal))
                .is_some()
            {
                return Ok(()); // write silently dropped
            }
            let mut data = bytes.to_vec();
            if let Some(DiskFault::TornWrite { keep, .. }) = self.fire(
                |f| matches!(*f, DiskFault::TornWrite { ckpt: c, shard, .. } if c == ckpt && shard == ordinal),
            ) {
                data.truncate(keep.min(data.len()));
            }
            if let Some(DiskFault::BitFlip { bit, .. }) = self.fire(
                |f| matches!(*f, DiskFault::BitFlip { ckpt: c, shard, .. } if c == ckpt && shard == ordinal),
            ) {
                if !data.is_empty() {
                    let i = (bit % (data.len() as u64 * 8)) as usize;
                    data[i / 8] ^= 1 << (i % 8);
                }
            }
            return self.inner.put(name, &data);
        }
        if let Some(ckpt) = parse_manifest_name(name) {
            self.inner.put(name, bytes)?;
            if self
                .fire(|f| matches!(*f, DiskFault::StaleManifest { ckpt: c } if c == ckpt))
                .is_some()
            {
                if let Some(shard) = self.first_shard_of(ckpt)? {
                    self.inner.delete(&shard)?;
                }
            }
            if self
                .fire(|f| matches!(*f, DiskFault::DuplicateManifest { ckpt: c } if c == ckpt))
                .is_some()
            {
                self.inner.put(&manifest_name(ckpt + 1), bytes)?;
            }
            return Ok(());
        }
        self.inner.put(name, bytes)
    }

    fn get(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.get(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        self.inner.delete(name)
    }
}

impl std::fmt::Debug for FaultyStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyStore")
            .field("armed", &self.armed.iter().map(|a| a.fault).collect::<Vec<_>>())
            .field("fired", &self.fired())
            .finish()
    }
}
