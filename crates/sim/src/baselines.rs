//! The non-partitioning training baselines of §7.1/§7.2: Ideal, SmallBatch,
//! Swapping and Operator Placement.

use std::collections::BTreeMap;

use tofu_graph::{Graph, NodeId, TensorId, TensorKind};

use crate::event::simulate_with_leaf_devices;
use crate::machine::Machine;
use crate::memory::{device_memory, per_device_memory};
use crate::{Outcome, Perf};

/// A model source: builds the training graph for a given global batch size
/// (returns `None` when the builder cannot produce that batch).
pub type ModelBuilder<'a> = &'a dyn Fn(usize) -> Option<Graph>;

fn single_device_time(g: &Graph, machine: &Machine) -> f64 {
    let devices = vec![0usize; g.num_nodes()];
    simulate_with_leaf_devices(g, &devices, &[], machine, true).makespan
}

fn single_device_peak(g: &Graph, machine: &Machine) -> crate::memory::DeviceMemory {
    let _ = machine;
    let schedule: Vec<NodeId> = g.node_ids().collect();
    device_memory(g, &schedule, true, 1.0)
}

/// **Ideal** (§7.1): a hypothetical GPU with infinite memory; single-GPU
/// throughput at a saturating batch, multiplied by the GPU count.
pub fn ideal(build: ModelBuilder<'_>, batch: usize, machine: &Machine) -> Outcome {
    let Some(g) = build(batch) else {
        return Outcome::Oom { peak_gb: f64::NAN };
    };
    let t = single_device_time(&g, machine);
    Outcome::Ran(Perf {
        iter_seconds: t,
        throughput: machine.gpus as f64 * batch as f64 / t,
        batch,
        peak_gb: single_device_peak(&g, machine).peak_gb(),
        comm_fraction: 0.0,
    })
}

/// **SmallBatch** (§7.1): shrink the mini-batch until the model fits one
/// GPU; like Ideal, communication is ignored (an upper bound).
pub fn small_batch(
    build: ModelBuilder<'_>,
    candidates: &[usize],
    machine: &Machine,
) -> Outcome {
    let mut worst_peak = 0.0f64;
    for &batch in candidates {
        let Some(g) = build(batch) else { continue };
        let mem = single_device_peak(&g, machine);
        worst_peak = worst_peak.max(mem.peak_gb());
        if mem.fits(machine) {
            let t = single_device_time(&g, machine);
            return Outcome::Ran(Perf {
                iter_seconds: t,
                throughput: machine.gpus as f64 * batch as f64 / t,
                batch,
                peak_gb: mem.peak_gb(),
                comm_fraction: 0.0,
            });
        }
    }
    Outcome::Oom { peak_gb: worst_peak }
}

/// Steady-state LRU swap traffic (bytes in + out) for one iteration of the
/// schedule under a device-memory budget.
///
/// Policy per §7.1: least-recently-used eviction with prefetching, read-only
/// tensors are copied to the CPU once and dropped for free thereafter, and
/// buffers about to be used are not evicted.
pub fn lru_swap_traffic(g: &Graph, capacity: u64) -> u64 {
    #[derive(Clone)]
    struct Buf {
        bytes: u64,
        last: u64,
        dirty: bool,
    }
    let mut resident: BTreeMap<TensorId, Buf> = BTreeMap::new();
    let mut used: u64 = 0;
    let mut clock: u64 = 0;
    let mut traffic_in = 0u64;
    let mut traffic_out = 0u64;
    let mut counting = false;

    // Two passes: the first warms the cache (weights land resident), the
    // second measures the steady state.
    for pass in 0..2 {
        if pass == 1 {
            counting = true;
        }
        for id in g.node_ids() {
            let node = g.node(id);
            clock += 1;
            let mut touched: Vec<(TensorId, bool)> =
                node.inputs.iter().map(|&t| (t, false)).collect();
            touched.push((node.output, true));
            // Pin the tensors this node touches so they cannot self-evict.
            let pinned: Vec<TensorId> = touched.iter().map(|&(t, _)| t).collect();
            for (t, write) in touched {
                let bytes = g.tensor(t).shape.bytes();
                match resident.get_mut(&t) {
                    Some(buf) => {
                        buf.last = clock;
                        buf.dirty |= write;
                    }
                    None => {
                        // Swap in (a fresh write needs no inbound copy).
                        if !write && counting {
                            traffic_in += bytes;
                        }
                        // Evict LRU until it fits.
                        while used + bytes > capacity {
                            let victim = resident
                                .iter()
                                .filter(|(vt, _)| !pinned.contains(vt))
                                .min_by_key(|(_, b)| b.last)
                                .map(|(&vt, _)| vt);
                            let Some(victim) = victim else { break };
                            let b = resident.remove(&victim).expect("resident");
                            used -= b.bytes;
                            if b.dirty && counting {
                                traffic_out += b.bytes;
                            }
                        }
                        used += bytes;
                        resident.insert(
                            t,
                            Buf { bytes, last: clock, dirty: write },
                        );
                    }
                }
            }
        }
        // Between iterations, intermediates die; weights stay.
        let mut next: BTreeMap<TensorId, Buf> = BTreeMap::new();
        for (t, b) in resident {
            if g.tensor(t).kind != TensorKind::Intermediate {
                next.insert(t, b); // Weights persist across iterations.
            } else {
                used -= b.bytes;
            }
        }
        resident = next;
    }
    traffic_in + traffic_out
}

/// **Swapping** (§7.1): data parallelism with vDNN-style LRU swapping to the
/// host over the *shared* 10 GB/s CPU link; compute and transfers overlap
/// (prefetching), so iteration time is the max of the two, plus the
/// data-parallel gradient synchronization.
pub fn swap(
    build: ModelBuilder<'_>,
    candidates: &[usize],
    machine: &Machine,
) -> Outcome {
    let mut best: Option<Perf> = None;
    for &global_batch in candidates {
        let per_gpu = global_batch / machine.gpus;
        if per_gpu == 0 {
            continue;
        }
        let Some(g) = build(per_gpu) else { continue };
        let compute = single_device_time(&g, machine);
        let traffic = lru_swap_traffic(&g, machine.mem_capacity) as f64;
        let swap_time = traffic / machine.cpu_bw_per_gpu(machine.gpus);
        // Gradient all-reduce of replicated weights over the peer links.
        let weight_bytes: f64 = g
            .tensor_ids()
            .filter(|&t| g.tensor(t).kind == TensorKind::Weight)
            .map(|t| g.tensor(t).shape.bytes() as f64)
            .sum();
        let slowest = machine.levels.last().map(|&(_, bw)| bw).unwrap_or(8e9);
        let sync_time = 2.0 * weight_bytes * (machine.gpus as f64 - 1.0)
            / machine.gpus as f64
            / slowest;
        let iter = compute.max(swap_time) + sync_time;
        let perf = Perf {
            iter_seconds: iter,
            throughput: global_batch as f64 / iter,
            batch: global_batch,
            peak_gb: machine.capacity_gb(),
            comm_fraction: (iter - compute).max(0.0) / iter,
        };
        if best.as_ref().map(|b| perf.throughput > b.throughput).unwrap_or(true) {
            best = Some(perf);
        }
    }
    match best {
        Some(p) => Outcome::Ran(p),
        None => Outcome::Oom { peak_gb: f64::NAN },
    }
}

/// Device assignment for **Operator Placement** (§7.1): layers round-robin
/// over the GPUs; untagged nodes follow their first producer.
pub fn placement_devices(g: &Graph, gpus: usize) -> Vec<usize> {
    let mut devices = vec![0usize; g.num_nodes()];
    let mut tensor_device: Vec<usize> = vec![0; g.num_tensors()];
    for id in g.node_ids() {
        let node = g.node(id);
        let dev = match node.tags.layer {
            Some(layer) => layer % gpus,
            None => node
                .inputs
                .iter()
                .filter_map(|&t| g.producer(t).map(|p| devices[p.0]))
                .next()
                .unwrap_or(0),
        };
        devices[id.0] = dev;
        tensor_device[node.output.0] = dev;
    }
    devices
}

/// **Operator Placement**: pipelined per-layer execution across GPUs. The
/// `in_place_aggregation` flag distinguishes the MXNet flavor (true) from
/// the TensorFlow flavor (false), whose missing in-place gradient
/// aggregation roughly halves throughput and inflates memory (§7.2,
/// Table 3).
pub fn op_placement(
    g: &Graph,
    batch: usize,
    machine: &Machine,
    in_place_aggregation: bool,
) -> Outcome {
    let devices = placement_devices(g, machine.gpus);
    let sim = simulate_with_leaf_devices(g, &devices, &[], machine, false);
    let free = simulate_with_leaf_devices(g, &devices, &[], machine, true);
    let mems = per_device_memory(&g.clone(), &devices, machine.gpus, true, 1.0);
    let mut peak = mems.iter().map(|m| m.peak_bytes).max().unwrap_or(0) as f64;
    let mut iter = sim.makespan;
    if !in_place_aggregation {
        // Every gradient aggregation materializes fresh buffers and an
        // extra pass instead of accumulating in place.
        let mut extra_bytes = 0u64;
        let mut extra_time = 0.0;
        for id in g.node_ids() {
            let node = g.node(id);
            if node.op == "add_n" || node.name.starts_with("grad_acc") {
                let b = g.tensor(node.output).shape.bytes();
                extra_bytes += b * node.inputs.len() as u64;
                extra_time +=
                    3.0 * (b * node.inputs.len() as u64) as f64 / machine.mem_bandwidth;
            }
        }
        // The aggregation buffers concentrate on the device holding the most
        // gradients; charge the average per device.
        peak += extra_bytes as f64 / machine.gpus as f64;
        iter += extra_time;
    }
    if peak > machine.mem_capacity as f64 {
        return Outcome::Oom { peak_gb: peak / 1e9 };
    }
    Outcome::Ran(Perf {
        iter_seconds: iter,
        throughput: batch as f64 / iter,
        batch,
        peak_gb: peak / 1e9,
        comm_fraction: sim.comm_overhead_fraction(free.makespan),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofu_graph::{Attrs, NodeTags};
    use tofu_tensor::Shape;

    fn toy(batch: usize) -> Option<Graph> {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![batch, 64]));
        let w = g.add_weight("w", Shape::new(vec![64, 64]));
        let labels = g.add_input("labels", Shape::new(vec![batch]));
        let y = g.add_op("matmul", "fc", &[x, w], Attrs::new()).ok()?;
        let loss = g.add_op("softmax_ce", "loss", &[y, labels], Attrs::new()).ok()?;
        tofu_graph::autodiff::backward(&mut g, loss, &[w]).ok()?;
        Some(g)
    }

    #[test]
    fn ideal_scales_by_gpu_count() {
        let m = Machine::p2_8xlarge();
        let Outcome::Ran(p) = ideal(&toy, 64, &m) else { panic!("ideal ran") };
        assert_eq!(p.batch, 64);
        assert!(p.throughput > 0.0);
    }

    #[test]
    fn small_batch_picks_first_fitting() {
        let m = Machine::p2_8xlarge();
        let Outcome::Ran(p) = small_batch(&toy, &[128, 64, 32], &m) else {
            panic!("toy model fits easily")
        };
        assert_eq!(p.batch, 128);
    }

    #[test]
    fn small_batch_oom_when_nothing_fits() {
        let mut m = Machine::p2_8xlarge();
        m.mem_capacity = 1024; // 1 KiB GPU.
        let out = small_batch(&toy, &[8, 4], &m);
        assert!(matches!(out, Outcome::Oom { .. }));
    }

    #[test]
    fn lru_traffic_zero_when_fitting() {
        let g = toy(16).unwrap();
        assert_eq!(lru_swap_traffic(&g, 1 << 30), 0);
        // A starving budget forces traffic.
        let tight = lru_swap_traffic(&g, 24 * 1024);
        assert!(tight > 0, "traffic {tight}");
    }

    #[test]
    fn swap_runs_and_reports() {
        let m = Machine::p2_8xlarge();
        let Outcome::Ran(p) = swap(&toy, &[64], &m) else { panic!("swap runs") };
        assert_eq!(p.batch, 64);
        assert!(p.throughput > 0.0);
    }

    #[test]
    fn placement_round_robins_layers() {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![4, 4]));
        let mut t = x;
        for i in 0..6 {
            t = g
                .add_op_tagged(
                    "relu",
                    &format!("r{i}"),
                    &[t],
                    Attrs::new(),
                    NodeTags { layer: Some(i), ..NodeTags::default() },
                )
                .unwrap();
        }
        let devices = placement_devices(&g, 4);
        assert_eq!(devices, vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn tf_flavor_is_slower_and_bigger() {
        let m = Machine::p2_8xlarge();
        let g = toy(512).unwrap();
        let Outcome::Ran(mx) = op_placement(&g, 512, &m, true) else { panic!() };
        let Outcome::Ran(tf) = op_placement(&g, 512, &m, false) else { panic!() };
        assert!(tf.iter_seconds >= mx.iter_seconds);
        assert!(tf.peak_gb >= mx.peak_gb);
    }
}
