//! The per-operator compute-time model.
//!
//! Times are flop counts over peak throughput scaled by an op-dependent
//! utilization curve. Two curve shapes drive the paper's §7.2 observations:
//! matrix multiplication loses utilization quickly as its smallest dimension
//! (usually the batch) shrinks — which is why SmallBatch collapses on RNNs —
//! while convolutions keep high utilization even at tiny batches thanks to
//! spatial parallelism — which is why SmallBatch stays competitive on
//! WResNet-50-4.

use tofu_graph::{lookup, Graph, NodeId, OpCategory};
use tofu_tensor::Shape;

use crate::machine::Machine;

/// Utilization of a matmul-family kernel given its `M, N, K` extents.
pub(crate) fn matmul_utilization(m: usize, n: usize, k: usize) -> f64 {
    let smallest = m.min(n).min(k) as f64;
    (smallest / 512.0).sqrt().clamp(0.03, 1.0)
}

/// Utilization of a convolution kernel given its output parallelism.
pub(crate) fn conv_utilization(batch: usize, spatial: usize) -> f64 {
    let work = (batch * spatial) as f64;
    (work / 2048.0).sqrt().clamp(0.25, 1.0)
}

/// Estimated execution time of one node, in seconds.
pub(crate) fn node_seconds(g: &Graph, node: NodeId, machine: &Machine) -> f64 {
    let n = g.node(node);
    let def = match lookup(&n.op) {
        Ok(d) => d,
        Err(_) => return machine.launch_overhead,
    };
    let in_shapes: Vec<Shape> = n.inputs.iter().map(|&t| g.tensor(t).shape.clone()).collect();
    let out_shape = &g.tensor(n.output).shape;
    let flops = (def.flops)(&in_shapes, out_shape, &n.attrs);

    let bytes_touched: f64 = in_shapes.iter().map(|s| s.bytes() as f64).sum::<f64>()
        + out_shape.bytes() as f64;
    let bandwidth_time = bytes_touched / machine.mem_bandwidth;

    let util = match def.category {
        OpCategory::Linalg => {
            let (m, nn) = if out_shape.rank() >= 2 {
                (out_shape.dim(out_shape.rank() - 2), out_shape.dim(out_shape.rank() - 1))
            } else {
                (out_shape.volume().max(1), 1)
            };
            let k = if m * nn > 0 { (flops / 2.0 / (m * nn) as f64) as usize } else { 1 };
            matmul_utilization(m.max(1), nn.max(1), k.max(1))
        }
        OpCategory::Convolution => {
            let (b, spatial) = if out_shape.rank() == 4 {
                (out_shape.dim(0), out_shape.dim(2) * out_shape.dim(3))
            } else if out_shape.rank() == 3 {
                (out_shape.dim(0), out_shape.dim(2))
            } else {
                (1, out_shape.volume())
            };
            conv_utilization(b.max(1), spatial.max(1))
        }
        // Everything else is bandwidth-bound.
        _ => 1.0,
    };

    let flop_time = flops / (machine.peak_flops * util);
    flop_time.max(bandwidth_time) + machine.launch_overhead
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofu_graph::Attrs;

    #[test]
    fn matmul_utilization_falls_with_batch() {
        let big = matmul_utilization(512, 4096, 4096);
        let small = matmul_utilization(16, 4096, 4096);
        assert!(big > 0.9);
        assert!(small < 0.25);
        assert!(small >= 0.03);
    }

    #[test]
    fn conv_utilization_stays_high_at_small_batch() {
        // 56x56 output at batch 1 still keeps a conv busy (§7.2).
        let u = conv_utilization(1, 56 * 56);
        assert!(u > 0.9, "conv util {u}");
        // Tiny 7x7 at batch 1 finally drops.
        let u = conv_utilization(1, 49);
        assert!(u < 0.5);
    }

    #[test]
    fn matmul_time_scales_with_flops() {
        let m = Machine::p2_8xlarge();
        let mut g = Graph::new();
        let a = g.add_input("a", Shape::new(vec![512, 1024]));
        let b = g.add_weight("b", Shape::new(vec![1024, 1024]));
        let y = g.add_op("matmul", "mm", &[a, b], Attrs::new()).unwrap();
        let t_small = node_seconds(&g, g.producer(y).unwrap(), &m);

        let a2 = g.add_input("a2", Shape::new(vec![512, 4096]));
        let b2 = g.add_weight("b2", Shape::new(vec![4096, 4096]));
        let y2 = g.add_op("matmul", "mm2", &[a2, b2], Attrs::new()).unwrap();
        let t_big = node_seconds(&g, g.producer(y2).unwrap(), &m);
        assert!(t_big > 5.0 * t_small, "{t_big} vs {t_small}");
    }

    #[test]
    fn elementwise_is_bandwidth_bound() {
        let m = Machine::p2_8xlarge();
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![1 << 20]));
        let y = g.add_op("relu", "r", &[x], Attrs::new()).unwrap();
        let t = node_seconds(&g, g.producer(y).unwrap(), &m);
        // 8 MiB in + out over 160 GB/s plus launch overhead.
        let expected = (2.0 * 4.0 * (1 << 20) as f64) / 160e9 + 10e-6;
        assert!((t - expected).abs() / expected < 0.05, "{t} vs {expected}");
    }

    #[test]
    fn every_node_costs_at_least_the_launch() {
        let m = Machine::p2_8xlarge();
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![1]));
        let y = g.add_op("relu", "r", &[x], Attrs::new()).unwrap();
        assert!(node_seconds(&g, g.producer(y).unwrap(), &m) >= m.launch_overhead);
    }
}
