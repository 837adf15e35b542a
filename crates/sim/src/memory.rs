//! Per-device memory accounting.
//!
//! Wraps the graph crate's static memory planner: a device's footprint is
//! its persistent tensors (weight shards and inputs), the planner's
//! transient bytes under its serial sub-schedule (the size of its arena,
//! in which every tensor gets a byte offset offline; the runtime's pool
//! reaches exactly this high-water mark), and one extra optimizer history
//! copy per weight — the `3W` rule of §7.1 (weight + gradient + history; the
//! gradient is a graph tensor and already in the plan).

use tofu_graph::{plan_buffers, Graph, NodeId, TensorKind};

use crate::machine::Machine;

/// Memory summary of one device.
#[derive(Debug, Clone, Copy)]
pub struct DeviceMemory {
    /// Peak bytes (persistent + transient + optimizer history).
    pub peak_bytes: u64,
}

impl DeviceMemory {
    /// Peak in gigabytes.
    pub fn peak_gb(&self) -> f64 {
        self.peak_bytes as f64 / 1e9
    }

    /// True when this device fits the machine's capacity.
    pub(crate) fn fits(&self, machine: &Machine) -> bool {
        self.peak_bytes <= machine.mem_capacity
    }
}

/// Memory of every device in a device-tagged graph, each planned over its
/// serial sub-schedule (its nodes in id order); a device that runs no node
/// holds 0 B. Every entry of `device_of` must be below `gpus`.
///
/// `buffer_reuse` models the §6 control-dependency optimization: with it the
/// memory planner lets tensors with disjoint lifetimes along the worker's
/// serial schedule share bytes of the arena; without it every transient
/// allocation is simultaneously live.
pub fn per_device_memory(
    g: &Graph,
    device_of: &[usize],
    gpus: usize,
    buffer_reuse: bool,
    optimizer_copies: f64,
) -> Vec<DeviceMemory> {
    let mut schedules: Vec<Vec<NodeId>> = vec![Vec::new(); gpus];
    for id in g.node_ids() {
        schedules[device_of[id.0]].push(id);
    }
    schedules
        .iter()
        .map(|schedule| {
            let plan = plan_buffers(g, schedule, buffer_reuse);
            // Optimizer history: one extra copy per weight shard this
            // device *owns* — the weights among the planner's persistent
            // tensors (consumed by its compute nodes; weight shards read
            // through a `multi_fetch` belong to another device).
            let weight_bytes: u64 = plan
                .persistent
                .iter()
                .map(|&t| g.tensor(t))
                .filter(|meta| meta.kind == TensorKind::Weight)
                .map(|meta| meta.shape.bytes())
                .sum();
            let optimizer_bytes = (weight_bytes as f64 * optimizer_copies) as u64;
            DeviceMemory { peak_bytes: plan.mem.total_bytes() + optimizer_bytes }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofu_graph::Attrs;
    use tofu_tensor::Shape;

    /// The whole graph planned as device 0's.
    fn single_device(g: &Graph, reuse: bool, optimizer_copies: f64) -> u64 {
        per_device_memory(g, &vec![0; g.num_nodes()], 1, reuse, optimizer_copies)[0].peak_bytes
    }

    #[test]
    fn optimizer_history_counts_weights_once() {
        // w is read by two nodes but holds one history copy of its 256 B.
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![4, 8]));
        let w = g.add_weight("w", Shape::new(vec![8, 8]));
        let a = g.add_op("matmul", "m1", &[x, w], Attrs::new()).unwrap();
        let _b = g.add_op("matmul", "m2", &[a, w], Attrs::new()).unwrap();
        let without = single_device(&g, true, 0.0);
        assert_eq!(single_device(&g, true, 1.0) - without, 8 * 8 * 4);
        assert!(without > 0);
    }

    #[test]
    fn reuse_reduces_peak() {
        let mut g = Graph::new();
        let mut t = g.add_input("x", Shape::new(vec![1 << 16]));
        for i in 0..6 {
            t = g.add_op("relu", &format!("r{i}"), &[t], Attrs::new()).unwrap();
        }
        assert!(single_device(&g, false, 0.0) > single_device(&g, true, 0.0));
    }

    #[test]
    fn fits_respects_capacity() {
        let machine = Machine::p2_8xlarge();
        let small = DeviceMemory { peak_bytes: 1 << 30 };
        let big = DeviceMemory { peak_bytes: 20 * (1 << 30) };
        assert!(small.fits(&machine));
        assert!(!big.fits(&machine));
    }

    #[test]
    fn per_device_split_accounts_separately() {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![1 << 16]));
        let _a = g.add_op("relu", "a", &[x], Attrs::new()).unwrap();
        let _b = g.add_op("tanh", "b", &[x], Attrs::new()).unwrap();
        let mems = per_device_memory(&g, &[0, 1], 3, true, 0.0);
        assert_eq!(mems.len(), 3);
        assert!(mems[0].peak_bytes > 0);
        assert!(mems[1].peak_bytes > 0);
        assert_eq!(mems[2].peak_bytes, 0, "a device that runs no node");
    }
}
