//! Per-run event traces: what each worker executed when, what moved over
//! each link and what memory the buffer pools actually held — the measured
//! counterpart to `tofu-sim`'s predictions.

use std::time::Duration;

use tofu_graph::NodeId;

/// One executed node on one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpEvent {
    /// Node of the sharded graph.
    pub node: NodeId,
    /// Start offset from the run epoch (includes any wait for remote
    /// pieces a `multi_fetch` performs).
    pub start: Duration,
    /// End offset from the run epoch.
    pub end: Duration,
}

/// One worker's side of a run.
#[derive(Debug, Clone)]
pub struct WorkerTrace {
    /// Logical device id.
    pub device: usize,
    /// Executed nodes in schedule order.
    pub ops: Vec<OpEvent>,
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
    /// abort); `ops` then holds only the prefix it completed.
    pub completed: bool,
    /// Set when the worker resumed from a checkpoint: the local schedule
    /// position execution restarted at (`ops` covers positions from here).
    pub resumed_from: Option<usize>,
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
    /// Messages (one per transfer: a block crosses once, however many
    /// fetches read it).
    pub messages: u64,
}

/// The full measured record of one multi-worker run.
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// Per-worker traces, indexed by device.
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
        self.workers.iter().map(|w| w.ops.len()).sum()
    }

    /// True when the trace is a post-mortem: a worker's trace is missing
    /// (panic) or marked incomplete (abort).
    pub fn is_partial(&self) -> bool {
        self.workers.iter().any(|w| !w.completed)
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
                w.ops.len(),
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
