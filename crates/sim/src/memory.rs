//! Per-device memory accounting.
//!
//! Wraps the graph crate's static memory planner: a device's footprint is
//! its persistent tensors (weight shards and inputs), the planner's
//! transient bytes under its serial sub-schedule (the sum of its buffer
//! slots, each sized once, offline, for the largest tensor it holds; the
//! runtime's pool reserves exactly these), and one extra optimizer history
//! copy per weight — the `3W` rule of §7.1 (weight + gradient + history; the
//! gradient is a graph tensor and already in the plan).

use tofu_graph::{plan_buffers, Graph, NodeId, TensorKind};

use crate::machine::Machine;

/// Memory summary of one device.
#[derive(Debug, Clone, Copy)]
pub struct DeviceMemory {
    /// Peak bytes (persistent + transient + optimizer history).
    pub peak_bytes: u64,
    /// Persistent (weights + inputs) bytes.
    pub persistent_bytes: u64,
    /// Extra optimizer-history bytes.
    pub optimizer_bytes: u64,
}

impl DeviceMemory {
    /// Peak in gigabytes.
    pub fn peak_gb(&self) -> f64 {
        self.peak_bytes as f64 / 1e9
    }

    /// True when this device fits the machine's capacity.
    pub fn fits(&self, machine: &Machine) -> bool {
        self.peak_bytes <= machine.mem_capacity
    }
}

/// Computes one device's memory from its sub-schedule.
///
/// `buffer_reuse` models the §6 control-dependency optimization: with it the
/// memory planner lets tensors with disjoint lifetimes along the worker's
/// serial schedule share a buffer; without it every transient allocation is
/// simultaneously live.
pub(crate) fn device_memory(
    g: &Graph,
    schedule: &[NodeId],
    buffer_reuse: bool,
    optimizer_copies: f64,
) -> DeviceMemory {
    let plan = plan_buffers(g, schedule, buffer_reuse);
    // Optimizer history: one extra copy per weight shard this device *owns*
    // — the weights among the planner's persistent tensors (consumed by its
    // compute nodes; weight shards read through a `multi_fetch` belong to
    // another device).
    let weight_bytes: u64 = plan
        .persistent
        .iter()
        .map(|&t| g.tensor(t))
        .filter(|meta| meta.kind == TensorKind::Weight)
        .map(|meta| meta.shape.bytes())
        .sum();
    let optimizer_bytes = (weight_bytes as f64 * optimizer_copies) as u64;
    DeviceMemory {
        peak_bytes: plan.mem.total_bytes() + optimizer_bytes,
        persistent_bytes: plan.mem.persistent_bytes,
        optimizer_bytes,
    }
}

/// Memory of every device in a device-tagged graph.
pub fn per_device_memory(
    g: &Graph,
    device_of: &[usize],
    gpus: usize,
    buffer_reuse: bool,
    optimizer_copies: f64,
) -> Vec<DeviceMemory> {
    (0..gpus)
        .map(|d| {
            let schedule: Vec<NodeId> =
                g.node_ids().filter(|n| device_of[n.0] == d).collect();
            device_memory(g, &schedule, buffer_reuse, optimizer_copies)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofu_graph::Attrs;
    use tofu_tensor::Shape;

    #[test]
    fn optimizer_history_counts_weights_once() {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![4, 8]));
        let w = g.add_weight("w", Shape::new(vec![8, 8]));
        let a = g.add_op("matmul", "m1", &[x, w], Attrs::new()).unwrap();
        let _b = g.add_op("matmul", "m2", &[a, w], Attrs::new()).unwrap();
        let schedule: Vec<NodeId> = g.node_ids().collect();
        let mem = device_memory(&g, &schedule, true, 1.0);
        assert_eq!(mem.optimizer_bytes, 8 * 8 * 4);
        assert!(mem.peak_bytes > mem.optimizer_bytes);
    }

    #[test]
    fn reuse_reduces_peak() {
        let mut g = Graph::new();
        let mut t = g.add_input("x", Shape::new(vec![1 << 16]));
        for i in 0..6 {
            t = g.add_op("relu", &format!("r{i}"), &[t], Attrs::new()).unwrap();
        }
        let schedule: Vec<NodeId> = g.node_ids().collect();
        let with = device_memory(&g, &schedule, true, 0.0);
        let without = device_memory(&g, &schedule, false, 0.0);
        assert!(without.peak_bytes > with.peak_bytes);
    }

    #[test]
    fn fits_respects_capacity() {
        let machine = Machine::p2_8xlarge();
        let small = DeviceMemory { peak_bytes: 1 << 30, persistent_bytes: 0, optimizer_bytes: 0 };
        let big = DeviceMemory { peak_bytes: 20 * (1 << 30), ..small };
        assert!(small.fits(&machine));
        assert!(!big.fits(&machine));
    }

    #[test]
    fn per_device_split_accounts_separately() {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![1 << 16]));
        let _a = g.add_op("relu", "a", &[x], Attrs::new()).unwrap();
        let _b = g.add_op("tanh", "b", &[x], Attrs::new()).unwrap();
        let mems = per_device_memory(&g, &[0, 1], 2, true, 0.0);
        assert_eq!(mems.len(), 2);
        assert!(mems[0].peak_bytes > 0);
        assert!(mems[1].peak_bytes > 0);
    }
}
