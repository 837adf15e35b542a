//! Discrete-event multi-GPU simulator.
//!
//! The paper's evaluation ran on an EC2 p2.8xlarge (8× K80, 12 GB each,
//! 21 GB/s PCI-e peer-to-peer, 10 GB/s shared host link). This crate
//! substitutes that testbed with a cost-model simulation — see DESIGN.md for
//! why the substitution preserves the evaluation's *relative* results:
//!
//! - [`machine`]: the hardware model (capacities, bandwidth hierarchy);
//! - [`compute`]: flop-based kernel times with op-dependent utilization
//!   curves (matmuls starve at small batches; convolutions do not — the two
//!   §7.2 effects);
//! - [`event`]: per-device serial execution with link-serialized transfers,
//!   one walk that keeps two clocks — with link time, and with free
//!   transfers (Fig. 10's compute-only bar) — so a step and its
//!   compute-only time come from one simulation;
//! - [`memory`]: per-device peak memory via the static planner plus the
//!   `3W` optimizer rule;
//! - [`baselines`]: Ideal, SmallBatch, LRU Swapping (shared host link) and
//!   Operator Placement (MXNet and TensorFlow flavors);
//! - [`tofu`]: simulation of Tofu-partitioned graphs (and any other
//!   [`tofu_core::PartitionPlan`], enabling the Fig. 10 comparison).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod compute;
pub mod event;
pub mod machine;
pub mod memory;
pub mod tofu;

pub use baselines::{ideal, op_placement, small_batch, swap, ModelBuilder};
pub use event::{simulate_traced, simulate_with_leaf_devices, SimResult};
pub use machine::Machine;
pub use memory::{per_device_memory, DeviceMemory};
pub use tofu::{run_partitioned, PartitionedRun};
/// The options of [`run_partitioned`]: those of the graph generation it
/// simulates.
pub use tofu_core::GenOptions as TofuSimOptions;

/// One training configuration's simulated result.
#[derive(Debug, Clone, Copy)]
pub enum Outcome {
    /// The configuration runs; summary attached.
    Ran(Perf),
    /// The configuration exceeds device memory (an "OOM" bar in the paper's
    /// figures).
    Oom {
        /// The peak per-device demand observed (GB).
        peak_gb: f64,
    },
}

impl Outcome {
    /// Throughput in samples/second; `None` for OOM.
    pub fn throughput(&self) -> Option<f64> {
        match self {
            Outcome::Ran(p) => Some(p.throughput),
            Outcome::Oom { .. } => None,
        }
    }
}

/// Performance summary of one simulated configuration.
#[derive(Debug, Clone, Copy)]
pub struct Perf {
    /// Time per training iteration (seconds).
    pub iter_seconds: f64,
    /// Samples per second.
    pub throughput: f64,
    /// Global mini-batch size used.
    pub batch: usize,
    /// Peak per-device memory (GB).
    pub peak_gb: f64,
    /// Fraction of the iteration attributable to communication.
    pub comm_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors() {
        let p = Perf {
            iter_seconds: 1.0,
            throughput: 64.0,
            batch: 64,
            peak_gb: 1.0,
            comm_fraction: 0.1,
        };
        assert_eq!(Outcome::Ran(p).throughput(), Some(64.0));
        assert_eq!(Outcome::Oom { peak_gb: 20.0 }.throughput(), None);
    }
}
