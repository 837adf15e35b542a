//! The machine model: an EC2 p2.8xlarge-like box (§7.1).
//!
//! 8 GPUs with 12 GB device memory each, PCI-e peer-to-peer at 21 GB/s
//! within a switch, a slower upper hierarchy level (two PCI-e trees joined
//! over the host), and a 10 GB/s CPU link *shared by all GPUs* — the
//! bottleneck that throttles the swapping baseline (§7.2).

/// Static machine description used by the cost model.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Number of GPU devices.
    pub gpus: usize,
    /// Device memory per GPU in bytes.
    pub mem_capacity: u64,
    /// Peak fp32 throughput per GPU (flops/s).
    pub peak_flops: f64,
    /// Effective device-memory bandwidth (bytes/s) for bandwidth-bound
    /// (element-wise/data) kernels.
    pub mem_bandwidth: f64,
    /// Kernel launch overhead per operator (seconds).
    pub launch_overhead: f64,
    /// Interconnect hierarchy: `(group_size, bytes_per_second)` sorted by
    /// group size; a transfer between two GPUs uses the bandwidth of the
    /// smallest group containing both.
    pub levels: Vec<(usize, f64)>,
    /// Host link bandwidth (bytes/s), shared by every GPU.
    pub cpu_bandwidth: f64,
}

impl Machine {
    /// The paper's testbed: p2.8xlarge with 8 K80 GPUs (12 GB each,
    /// 21 GB/s peer-to-peer PCI-e, 10 GB/s to the host).
    pub fn p2_8xlarge() -> Machine {
        Machine {
            gpus: 8,
            mem_capacity: 12 * (1 << 30),
            peak_flops: 2.8e12,
            mem_bandwidth: 160e9,
            launch_overhead: 10e-6,
            levels: vec![(2, 21e9), (4, 16e9), (8, 8e9)],
            cpu_bandwidth: 10e9,
        }
    }

    /// Bandwidth between two GPUs: the level of the smallest group that
    /// contains both under the natural binary hierarchy.
    pub(crate) fn link_bw(&self, a: usize, b: usize) -> f64 {
        if a == b {
            return f64::INFINITY;
        }
        for &(size, bw) in &self.levels {
            if a / size == b / size {
                return bw;
            }
        }
        self.levels.last().map(|&(_, bw)| bw).unwrap_or(1e9)
    }

    /// Host-link bandwidth available to one GPU when `sharing` GPUs swap
    /// concurrently.
    pub(crate) fn cpu_bw_per_gpu(&self, sharing: usize) -> f64 {
        self.cpu_bandwidth / sharing.max(1) as f64
    }

    /// Device memory capacity in gigabytes.
    pub(crate) fn capacity_gb(&self) -> f64 {
        self.mem_capacity as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_machine_matches_testbed() {
        let m = Machine::p2_8xlarge();
        assert_eq!(m.gpus, 8);
        assert!((m.capacity_gb() - 12.88).abs() < 0.1);
        assert_eq!(m.cpu_bandwidth, 10e9);
    }

    #[test]
    fn link_bandwidth_is_hierarchical() {
        let m = Machine::p2_8xlarge();
        // Same pair: fastest.
        assert_eq!(m.link_bw(0, 1), 21e9);
        assert_eq!(m.link_bw(6, 7), 21e9);
        // Same quad, different pair.
        assert_eq!(m.link_bw(0, 2), 16e9);
        // Across the two quads: slowest.
        assert_eq!(m.link_bw(0, 7), 8e9);
        assert_eq!(m.link_bw(3, 4), 8e9);
        // Self transfers are free.
        assert!(m.link_bw(5, 5).is_infinite());
    }

    #[test]
    fn cpu_bandwidth_is_shared() {
        let m = Machine::p2_8xlarge();
        assert_eq!(m.cpu_bw_per_gpu(8), 1.25e9);
        assert_eq!(m.cpu_bw_per_gpu(1), 10e9);
        assert_eq!(m.cpu_bw_per_gpu(0), 10e9);
    }
}
