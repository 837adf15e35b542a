//! Side-by-side comparison of a *measured* runtime trace with the
//! simulator's *predictions* for the same sharded graph.
//!
//! Two of the columns are exactly checkable and anchor the simulator's
//! fidelity claims:
//!
//! - **communication bytes** — both sides count the `multi_fetch` piece
//!   bytes, so measured traffic must equal the prediction bit for bit;
//! - **per-device memory** — the runtime's pool replays the same static
//!   planner the simulator consults and fails any run whose peak differs
//!   from the plan's, and its resident bytes are the plan's own persistent
//!   tensors, so the measured footprint equals `per_device_memory` to the
//!   byte on every completed run (the tests pin equality).
//!
//! Time columns (makespan vs. wall clock, busy seconds) are *not* expected
//! to agree in absolute terms: the simulator models K80s, the runtime runs
//! naive CPU kernels. They are reported side by side for shape comparison.

use std::time::Duration;

use tofu_core::ShardedGraph;
use tofu_runtime::RunTrace;

use crate::event::simulate_with_leaf_devices;
use crate::machine::Machine;
use crate::memory::per_device_memory;

/// One device's predicted-vs-measured row.
#[derive(Debug, Clone)]
pub struct DeviceReport {
    /// Logical device id.
    pub device: usize,
    /// `per_device_memory` peak (no optimizer copies — the runtime holds
    /// exactly what the plan models).
    pub predicted_memory_bytes: u64,
    /// Measured pool high-water plus resident leaf shards.
    pub measured_memory_bytes: u64,
    /// Simulated busy compute seconds (K80 cost model).
    pub predicted_busy_seconds: f64,
    /// Measured wall time spent inside ops (CPU kernels).
    pub measured_busy: Duration,
    /// Nodes executed.
    pub ops: usize,
    /// False when the worker stopped early (abort post-mortem trace); the
    /// measured columns then cover only the executed prefix.
    pub completed: bool,
}

impl DeviceReport {
    /// Relative error of the measured footprint against the prediction.
    pub fn memory_error(&self) -> f64 {
        if self.predicted_memory_bytes == 0 {
            return if self.measured_memory_bytes == 0 { 0.0 } else { f64::INFINITY };
        }
        let p = self.predicted_memory_bytes as f64;
        (self.measured_memory_bytes as f64 - p).abs() / p
    }
}

/// The full predicted-vs-measured report of one run.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Simulated iteration time (seconds, K80 model).
    pub predicted_makespan_seconds: f64,
    /// Measured wall-clock time of the run.
    pub measured_wall: Duration,
    /// Simulated bytes moved between devices.
    pub predicted_comm_bytes: f64,
    /// Measured bytes moved over the channels.
    pub measured_comm_bytes: u64,
    /// Per-device rows, indexed by device.
    pub devices: Vec<DeviceReport>,
}

impl TraceReport {
    /// True when the measured trace is an abort post-mortem: some worker
    /// stopped early, so the exact-match columns (comm bytes, memory) only
    /// reflect the executed prefix and are not expected to line up.
    pub fn is_partial(&self) -> bool {
        self.devices.iter().any(|d| !d.completed)
    }

    /// True when measured traffic equals the simulator's count exactly.
    pub fn comm_bytes_match(&self) -> bool {
        self.predicted_comm_bytes == self.measured_comm_bytes as f64
    }

    /// A compact human-readable table.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "makespan: simulated {:.3} ms (K80 model) | measured {:?} (CPU kernels)",
            self.predicted_makespan_seconds * 1e3,
            self.measured_wall
        );
        let _ = writeln!(
            s,
            "comm:     simulated {} B | measured {} B | {}",
            self.predicted_comm_bytes as u64,
            self.measured_comm_bytes,
            if self.comm_bytes_match() {
                "exact match"
            } else if self.is_partial() {
                "partial trace (not comparable)"
            } else {
                "MISMATCH"
            }
        );
        for d in &self.devices {
            let _ = writeln!(
                s,
                "device {}: memory predicted {} B, measured {} B ({:+.2}%) | busy sim {:.3} ms, measured {:?} | {} ops{}",
                d.device,
                d.predicted_memory_bytes,
                d.measured_memory_bytes,
                d.memory_error() * 1e2,
                d.predicted_busy_seconds * 1e3,
                d.measured_busy,
                d.ops,
                if d.completed { "" } else { " [ABORTED]" }
            );
        }
        s
    }
}

/// Builds the report: simulates `sharded` on `machine` and lines the
/// prediction up against the measured `trace` (produced by
/// `tofu_runtime::run`, which always plans with buffer reuse).
pub fn compare_trace(sharded: &ShardedGraph, machine: &Machine, trace: &RunTrace) -> TraceReport {
    let sim = simulate_with_leaf_devices(
        &sharded.graph,
        &sharded.device_of_node,
        &sharded.device_of_tensor,
        machine,
        false,
    );
    let mems = per_device_memory(
        &sharded.graph,
        &sharded.device_of_node,
        sharded.workers,
        true,
        0.0,
    );
    let devices = trace
        .workers
        .iter()
        .map(|w| DeviceReport {
            device: w.device,
            predicted_memory_bytes: mems[w.device].peak_bytes,
            measured_memory_bytes: w.peak_memory_bytes(),
            predicted_busy_seconds: sim.compute_busy.get(w.device).copied().unwrap_or(0.0),
            measured_busy: w.busy,
            ops: w.ops.len(),
            completed: w.completed,
        })
        .collect();
    TraceReport {
        predicted_makespan_seconds: sim.makespan,
        measured_wall: trace.wall,
        predicted_comm_bytes: sim.comm_bytes,
        measured_comm_bytes: trace.comm_bytes(),
        devices,
    }
}
