//! Durable checkpoints: whole-process crash recovery from disk.
//!
//! Everything the recovery supervisor keeps between attempts — the
//! [`CheckpointStore`](crate::checkpoint::CheckpointStore), the carried
//! snapshot — lives in the coordinating process's heap and dies with it.
//! This module is the supervisor's *durable sink*: it persists checkpoints
//! through [`tofu_durable`] the moment they become consistent, and gives the
//! supervisor a **boot** step that a fresh process (the first one, or the
//! one after a simulated whole-process crash) starts with:
//!
//! 1. **Discover** the newest *valid* checkpoint on disk. Every candidate
//!    manifest is validated in full (self-checksum, name/body ordinal
//!    agreement, per-shard presence + size + checksum + decode); corrupt or
//!    torn candidates are skipped with a typed
//!    [`RejectReason`](tofu_durable::RejectReason), never silently used.
//! 2. **Carry** it. Durable checkpoints store *full* tensors keyed by
//!    original ids — they *are* [`FullSnapshot`]s — so the supervisor
//!    reshards the recovered one exactly like a snapshot carried across an
//!    elastic width change, and the restart width may differ from the width
//!    that wrote it.
//! 3. **Resume** at the checkpoint barrier, bit-identical to an
//!    undisturbed run resumed from the same cut, while continuing to
//!    persist and GC later checkpoints.
//!
//! Persistence rides the checkpoint store: the worker whose barrier
//! record makes checkpoint `k` consistent commits it (shards first, then
//! the manifest — the commit point), then prunes superseded checkpoints
//! down to the newest two (`RETAIN`). Disk faults from
//! [`DurableOptions::disk_faults`] are injected into those writes via
//! [`FaultyStore`], deterministic and one-shot like every other injected
//! fault. [`run_with_durable_recovery`] is the adaptor that hands the sink
//! to the supervisor; DESIGN.md "Failure model → The recovery supervisor"
//! says what survives a crash and what does not.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tofu_core::{PartitionOptions, SearchCaches, ShardedGraph};
use tofu_durable::{
    gc, recover_latest, write_checkpoint, BlobStore, DiskFaultPlan, FaultyStore, FullSnapshot,
    RejectedCheckpoint,
};
use tofu_graph::{Graph, TensorId};
use tofu_obs::{Collector, Track};
use tofu_tensor::Tensor;

use crate::error::RuntimeError;
use crate::reshard::assemble_snapshot;
use crate::supervisor::{supervise, PlanSource, RecoveryReport, SINGLE_ATTEMPT};
use crate::{lock, Result, RunOptions};

/// Where [`run_with_durable_recovery`] simulates the whole-process crash,
/// relative to the durable commit of a chosen checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Die while persisting checkpoint `k`: shard files hit the disk but
    /// the manifest — the commit point — never does. Recovery must fall
    /// back to checkpoint `k - 1` (or scratch) and ignore the orphans.
    BeforeCommit(usize),
    /// Die right after checkpoint `k`'s manifest commits (before GC runs).
    /// Recovery must find `k` valid and resume from it.
    AfterCommit(usize),
}

impl CrashPoint {
    fn ckpt(&self) -> usize {
        match *self {
            CrashPoint::BeforeCommit(k) | CrashPoint::AfterCommit(k) => k,
        }
    }
}

/// Configuration of [`run_with_durable_recovery`].
pub struct DurableOptions {
    /// Where checkpoints are persisted. [`DirStore`](tofu_durable::DirStore)
    /// for a real directory, [`MemStore`](tofu_durable::MemStore) for tests.
    pub store: Arc<dyn BlobStore>,
    /// Simulated whole-process crash. `None` runs straight through (still
    /// persisting every checkpoint).
    pub crash: Option<CrashPoint>,
    /// Worker count of the restarted process — the one with no simulated
    /// crash ahead of it; `None` keeps the fleet as it stands. The
    /// checkpoint reshards either way. Mutually exclusive with a churn
    /// plan, which scripts fleet membership itself.
    pub restart_workers: Option<usize>,
    /// Disk faults injected into the store's writes, each firing once.
    pub disk_faults: DiskFaultPlan,
}

/// How many committed checkpoints survive the GC after each commit.
const RETAIN: usize = 2;

impl DurableOptions {
    /// Persist to `store`, no simulated crash, no disk faults.
    pub fn new(store: Arc<dyn BlobStore>) -> DurableOptions {
        let disk_faults = DiskFaultPlan::none();
        DurableOptions { store, crash: None, restart_workers: None, disk_faults }
    }
}

impl std::fmt::Debug for DurableOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableOptions")
            .field("crash", &self.crash)
            .field("restart_workers", &self.restart_workers)
            .field("disk_faults", &self.disk_faults)
            .finish_non_exhaustive()
    }
}

/// The simulated crash has not fired yet.
const CRASH_ARMED: u8 = 0;
/// It fired and the supervisor has not rebooted since: the process is down.
const CRASH_DOWN: u8 = 1;
/// It fired and a fresh process took over.
const CRASH_SPENT: u8 = 2;

/// The supervisor's durable sink. Held by the store, it assembles each
/// consistent barrier into a plan-independent snapshot, commits it (shards
/// first, manifest last), then GCs superseded checkpoints — and fires the
/// simulated whole-process crash around the configured commit. As the boot
/// step it rediscovers the newest valid checkpoint. One instance spans the
/// supervised run, but the only process state it holds is `floor`, which
/// every boot resets from what the disk actually holds; the counters are the
/// observer's.
pub(crate) struct Persister {
    store: Arc<FaultyStore>,
    every: usize,
    crash: Option<CrashPoint>,
    restart_workers: Option<usize>,
    crash_state: AtomicU8,
    /// Highest checkpoint already persisted (persists are skipped at or
    /// below it: checkpoints become consistent in ascending order, and a
    /// restart must not rewrite the checkpoint it resumed from).
    floor: AtomicUsize,
    written: AtomicUsize,
    bytes: AtomicU64,
    gc_removed: AtomicUsize,
    write_us: AtomicU64,
    /// Candidates the boots so far rejected, newest first per boot.
    rejected: Mutex<Vec<RejectedCheckpoint>>,
    obs: Option<Collector>,
    /// Serializes commits: concurrent workers can complete different
    /// barriers back to back, and shard/manifest write order is the
    /// correctness argument.
    io: Mutex<()>,
}

impl Persister {
    /// The sink of one supervised run. Disk faults are consumed here, by the
    /// store wrapper; the in-memory run never sees them.
    pub(crate) fn new(durable: &DurableOptions, opts: &RunOptions) -> Arc<Persister> {
        let disk = durable.disk_faults.clone();
        Arc::new(Persister {
            store: Arc::new(FaultyStore::new(durable.store.clone(), disk)),
            every: opts.checkpoint.expect("validated: durable runs set a cadence").every,
            crash: durable.crash,
            restart_workers: durable.restart_workers,
            crash_state: AtomicU8::new(CRASH_ARMED),
            floor: AtomicUsize::new(0),
            written: AtomicUsize::new(0),
            bytes: AtomicU64::new(0),
            gc_removed: AtomicUsize::new(0),
            write_us: AtomicU64::new(0),
            rejected: Mutex::default(),
            obs: opts.collector.clone(),
            io: Mutex::new(()),
        })
    }

    /// The checkpoint of the simulated crash still ahead of the process.
    pub(crate) fn armed_crash(&self) -> Option<usize> {
        let armed = self.crash_state.load(Ordering::SeqCst) == CRASH_ARMED;
        self.crash.filter(|_| armed).map(|c| c.ckpt())
    }

    /// True exactly once: right after the simulated crash killed the process.
    pub(crate) fn crashed(&self) -> bool {
        let s = &self.crash_state;
        s.compare_exchange(CRASH_DOWN, CRASH_SPENT, Ordering::SeqCst, Ordering::SeqCst).is_ok()
    }

    /// Process start: discover the newest valid checkpoint on disk (every
    /// rejected candidate is recorded with its typed reason) and return it
    /// as the snapshot to carry. A process with no simulated crash ahead of
    /// it is the *restarted* one, so [`DurableOptions::restart_workers`]
    /// replaces the fleet here.
    pub(crate) fn boot(&self, available: &mut Vec<usize>) -> Result<Option<FullSnapshot>> {
        if let (None, Some(n)) = (self.armed_crash(), self.restart_workers) {
            *available = (0..n).collect();
        }
        let obs_t0 = self.obs.as_ref().map(|c| c.now_us()).unwrap_or(0.0);
        let recovery = recover_latest(&*self.store, Some(self.every as u64))
            .map_err(|e| RuntimeError::Durable { worker: usize::MAX, detail: e.to_string() })?;
        if let Some(c) = &self.obs {
            for r in &recovery.rejected {
                c.add_total("ckpt/rejected", 1.0);
                let what = format!("rejected checkpoint {}: {}", r.ckpt, r.reason);
                c.instant(Track::control(), "durable", &what);
            }
            let what = "discover newest valid checkpoint";
            c.complete(Track::control(), "durable", what, obs_t0, c.now_us());
        }
        lock(&self.rejected).extend(recovery.rejected);
        let snapshot = recovery.snapshot;
        self.floor.store(snapshot.as_ref().map_or(0, |s| s.ckpt), Ordering::SeqCst);
        Ok(snapshot)
    }

    /// Moves what the sink counted and discovered into the run's report.
    pub(crate) fn report_into(&self, report: &mut RecoveryReport) {
        report.rejected = std::mem::take(&mut *lock(&self.rejected));
        report.written = self.written.load(Ordering::SeqCst);
        report.written_bytes = self.bytes.load(Ordering::SeqCst);
        report.gc_removed = self.gc_removed.load(Ordering::SeqCst);
        report.write_wall = Duration::from_micros(self.write_us.load(Ordering::SeqCst));
    }
}

impl Persister {
    /// Persists checkpoint `ckpt` the moment it becomes consistent (recorded
    /// by every worker), on the worker thread whose record completed it —
    /// so each checkpoint is persisted exactly once, with no extra barrier.
    /// `values[w]` is worker `w`'s snapshot at the barrier. An error fails
    /// that worker and aborts the run like any other worker-local failure.
    pub(crate) fn on_consistent(
        &self,
        sharded: &ShardedGraph,
        worker: usize,
        ckpt: usize,
        values: &[std::collections::BTreeMap<TensorId, Arc<Tensor>>],
    ) -> Result<()> {
        let _serial = lock(&self.io);
        if ckpt <= self.floor.load(Ordering::SeqCst) {
            return Ok(());
        }
        let snap = assemble_snapshot(sharded, ckpt, values, self.every)?;
        let t0 = Instant::now();
        let obs_t0 = self.obs.as_ref().map(|c| c.now_us()).unwrap_or(0.0);
        let crash_here = |point: CrashPoint| {
            let s = &self.crash_state;
            self.crash == Some(point)
                && s.compare_exchange(CRASH_ARMED, CRASH_DOWN, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
        };
        if crash_here(CrashPoint::BeforeCommit(ckpt)) {
            // The doomed process got its shard files out but died before
            // the manifest — the commit point — existed.
            write_checkpoint(&*self.store, &snap, false)
                .map_err(|e| RuntimeError::Durable { worker, detail: e.to_string() })?;
            return Err(RuntimeError::Injected {
                worker,
                detail: format!(
                    "simulated process crash before durable commit of checkpoint {ckpt}"
                ),
            });
        }
        let stats = write_checkpoint(&*self.store, &snap, true)
            .map_err(|e| RuntimeError::Durable { worker, detail: e.to_string() })?;
        self.floor.store(ckpt, Ordering::SeqCst);
        self.written.fetch_add(1, Ordering::SeqCst);
        self.bytes.fetch_add(stats.bytes, Ordering::SeqCst);
        self.write_us.fetch_add(t0.elapsed().as_micros() as u64, Ordering::SeqCst);
        if let Some(c) = &self.obs {
            c.complete(
                Track::control(),
                "durable",
                &format!("commit checkpoint {ckpt}"),
                obs_t0,
                c.now_us(),
            );
            c.add_total("ckpt/written", 1.0);
            c.add_total("ckpt/bytes", stats.bytes as f64);
        }
        if crash_here(CrashPoint::AfterCommit(ckpt)) {
            // Committed, but the process died before GC could run: older
            // manifests survive as stale-but-valid fallbacks.
            return Err(RuntimeError::Injected {
                worker,
                detail: format!(
                    "simulated process crash after durable commit of checkpoint {ckpt}"
                ),
            });
        }
        let removed = gc(&*self.store, RETAIN)
            .map_err(|e| RuntimeError::Durable { worker, detail: e.to_string() })?;
        if removed > 0 {
            self.gc_removed.fetch_add(removed, Ordering::SeqCst);
            if let Some(c) = &self.obs {
                c.add_total("ckpt/gc", removed as f64);
            }
        }
        Ok(())
    }
}

/// Runs `g` with every consistent checkpoint persisted durably, optionally
/// simulating a whole-process crash and recovering from disk.
///
/// Takes the **original** graph and full-tensor feeds (like
/// [`run_with_elastic_recovery`](crate::run_with_elastic_recovery)):
/// partitioning and feed scattering are done per width, because the
/// restarted process may run at a different width
/// ([`DurableOptions::restart_workers`]) than the one that crashed.
///
/// Every process start — the first one included — discovers the newest
/// valid checkpoint the store holds ([`recover_latest`]), reshards it onto
/// the current plan and resumes from it. With a [`CrashPoint`] configured,
/// the process *must* die there (a crash point past the last barrier is an
/// [`RuntimeError::InvalidOptions`] before any worker starts — the run would
/// complete instead of crashing). All of its in-memory state — checkpoint
/// store, carried snapshot, injected faults' fired flags — is dropped; only
/// the blob store and the world (fleet membership, the churn script's
/// cursor) carry over, exactly like a real process death.
///
/// A [`ChurnPlan`](crate::ChurnPlan) in `opts` composes: leaves shrink and
/// joins grow the run elastically while checkpoints
/// keep being persisted, and a crash in the middle of that ladder restarts
/// on the fleet as it stood. Without churn the run gets one attempt per
/// process and any other failure is returned as is.
///
/// Disk faults in [`DurableOptions::disk_faults`] corrupt the doomed
/// process's writes; recovery detects each corruption during validation
/// and reports it in [`RecoveryReport::rejected`] with a typed reason —
/// falling back to an older checkpoint (or scratch), never resuming from
/// corrupt bytes.
pub fn run_with_durable_recovery(
    g: &Graph,
    feeds: &[(TensorId, Tensor)],
    part_opts: &PartitionOptions,
    opts: &RunOptions,
    durable: &DurableOptions,
    caches: &mut SearchCaches,
) -> Result<RecoveryReport> {
    let source = PlanSource::Replan { graph: g, part: part_opts, caches };
    supervise(source, feeds, opts, &SINGLE_ATTEMPT, Some(durable), !opts.churn.is_empty())
}
