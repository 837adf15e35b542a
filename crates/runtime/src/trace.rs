//! Per-run measured counters: how much each worker executed, what moved over
//! each link and what memory the buffer pools actually held — the measured
//! counterpart to `tofu-sim`'s predictions. The per-op timeline is the
//! collector's (`RunOptions::collector`), not the trace's.

use std::time::Duration;

/// One worker's side of a run.
#[derive(Debug, Clone)]
pub struct WorkerTrace {
    /// Logical device id.
    pub device: usize,
    /// Nodes executed. Their spans are the collector's, on
    /// `Track::runtime(device)` (see `RunOptions::collector`).
    pub ops: usize,
    /// Sum of op durations (wall time the worker spent executing or waiting
    /// inside ops, as opposed to being done).
    pub busy: Duration,
    /// High-water mark of the planner-seeded buffer pool.
    pub pool_peak_bytes: u64,
    /// Bytes of leaf shards (inputs/weights) resident for the whole run.
    pub persistent_bytes: u64,
    /// Bytes this worker pushed to other devices.
    pub bytes_sent: u64,
    /// Bytes this worker received from other devices, counted per arrival
    /// (a piece several fetches read counts once).
    pub bytes_received: u64,
    /// Transport payload bytes *copied* between producer send and consumer
    /// stash (beyond the one block extraction at send). Zero on the
    /// fault-free zero-copy path — pieces travel by refcount; only injected
    /// corruption faults divert through an owned buffer and charge here.
    pub transport_copy_bytes: u64,
    /// False when the worker stopped early (its own failure or a peer's
    /// abort); `ops` then counts only the prefix it completed.
    pub completed: bool,
    /// Set when the worker resumed from a checkpoint: the local schedule
    /// position execution restarted at (`ops` counts positions from here).
    pub resume_pos: Option<usize>,
}

impl WorkerTrace {
    /// Peak device footprint: persistent shards plus the pool high-water.
    pub fn peak_memory_bytes(&self) -> u64 {
        self.pool_peak_bytes + self.persistent_bytes
    }
}

/// Traffic over one directed device pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkStat {
    /// Sending device.
    pub src: usize,
    /// Receiving device.
    pub dst: usize,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Messages (one per transfer: an element crosses once, however many
    /// fetches read it).
    pub messages: u64,
}

/// The full measured record of one multi-worker run.
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// One trace per worker that returned one, in device order. A worker
    /// that panicked returns none, so after a panic an index here is not a
    /// device: read [`WorkerTrace::device`].
    pub workers: Vec<WorkerTrace>,
    /// Per-link traffic, sorted by `(src, dst)`; quiet links are omitted.
    pub links: Vec<LinkStat>,
    /// Wall-clock time from run start to the last worker finishing.
    pub wall: Duration,
}

impl RunTrace {
    /// Total bytes moved between devices.
    pub fn comm_bytes(&self) -> u64 {
        self.links.iter().map(|l| l.bytes).sum()
    }

    /// Total nodes executed across workers.
    pub fn ops_executed(&self) -> usize {
        self.workers.iter().map(|w| w.ops).sum()
    }

    /// A compact human-readable table of the run.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "wall {:?}; {} ops; {} B over {} links",
            self.wall,
            self.ops_executed(),
            self.comm_bytes(),
            self.links.len()
        );
        for w in &self.workers {
            let _ = writeln!(
                s,
                "  worker {}: {} ops, busy {:?}, pool peak {} B, persistent {} B, sent {} B, recv {} B{}",
                w.device,
                w.ops,
                w.busy,
                w.pool_peak_bytes,
                w.persistent_bytes,
                w.bytes_sent,
                w.bytes_received,
                if w.completed { "" } else { " [ABORTED]" }
            );
        }
        for l in &self.links {
            let _ = writeln!(
                s,
                "  link {} -> {}: {} B in {} messages",
                l.src, l.dst, l.bytes, l.messages
            );
        }
        s
    }
}
