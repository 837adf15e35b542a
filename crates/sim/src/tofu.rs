//! Simulating Tofu-partitioned training (and the Fig. 10 partitioner
//! comparison).

use tofu_core::genplan::{generate, GenOptions};
use tofu_core::recursive::PartitionPlan;
use tofu_core::CoreError;
use tofu_graph::Graph;

use crate::event::simulate_traced;
use crate::machine::Machine;
use crate::memory::per_device_memory;
use crate::{Outcome, Perf};

/// Extra optimizer-history copies per weight shard: the 3W rule of §7.1.
const OPTIMIZER_COPIES: f64 = 1.0;

/// Detailed result of a partitioned-execution simulation.
#[derive(Debug, Clone)]
pub struct PartitionedRun {
    /// Throughput/latency/memory summary.
    pub outcome: Outcome,
    /// Iteration time with communication zeroed (Fig. 10's compute bar).
    pub compute_only_seconds: f64,
    /// Total bytes moved between GPUs per iteration.
    pub comm_bytes: f64,
    /// Per-device peak memory (GB).
    pub per_device_gb: Vec<f64>,
}

/// Generates the partitioned graph for `plan` and simulates one iteration.
///
/// A plan wider than the machine is rejected with
/// [`CoreError::BadWorkerCount`]: its workers have no device to run on.
pub fn run_partitioned(
    g: &Graph,
    plan: &PartitionPlan,
    batch: usize,
    machine: &Machine,
    opts: &GenOptions,
) -> tofu_core::Result<PartitionedRun> {
    if plan.workers > machine.gpus {
        return Err(CoreError::BadWorkerCount(plan.workers));
    }
    let sharded = generate(g, plan, opts)?;
    let sim = simulate_traced(
        &sharded.graph,
        &sharded.device_of_node,
        &sharded.device_of_tensor,
        machine,
        None,
    );
    let mems = per_device_memory(
        &sharded.graph,
        &sharded.device_of_node,
        machine.gpus,
        opts.control_deps,
        OPTIMIZER_COPIES,
    );
    let per_device_gb: Vec<f64> = mems.iter().map(|m| m.peak_gb()).collect();
    let peak = per_device_gb.iter().copied().fold(0.0, f64::max);
    let outcome = if peak * 1e9 > machine.mem_capacity as f64 {
        Outcome::Oom { peak_gb: peak }
    } else {
        Outcome::Ran(Perf {
            iter_seconds: sim.makespan,
            throughput: batch as f64 / sim.makespan,
            batch,
            peak_gb: peak,
            comm_fraction: sim.comm_overhead_fraction(),
        })
    };
    Ok(PartitionedRun {
        outcome,
        compute_only_seconds: sim.compute_only_makespan,
        comm_bytes: sim.comm_bytes,
        per_device_gb,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofu_core::recursive::{partition, PartitionOptions};
    use tofu_graph::{autodiff, Attrs};
    use tofu_tensor::Shape;

    fn toy(batch: usize, hidden: usize) -> Graph {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![batch, hidden]));
        let w = g.add_weight("w", Shape::new(vec![hidden, hidden]));
        let labels = g.add_input("labels", Shape::new(vec![batch]));
        let y = g.add_op("matmul", "fc", &[x, w], Attrs::new()).unwrap();
        let loss = g.add_op("softmax_ce", "loss", &[y, labels], Attrs::new()).unwrap();
        autodiff::backward(&mut g, loss, &[w]).unwrap();
        g
    }

    #[test]
    fn partitioned_run_produces_performance() {
        let machine = Machine::p2_8xlarge();
        let g = toy(64, 256);
        let plan = partition(&g, &PartitionOptions { workers: 4, ..Default::default() }).unwrap();
        let run = run_partitioned(&g, &plan, 64, &machine, &GenOptions::default()).unwrap();
        let Outcome::Ran(p) = run.outcome else { panic!("fits easily") };
        assert!(p.throughput > 0.0);
        assert_eq!(run.per_device_gb.len(), 8);
        assert!(run.comm_bytes > 0.0);
        assert!(run.compute_only_seconds <= p.iter_seconds + 1e-12);
    }

    #[test]
    fn plan_wider_than_the_machine_is_rejected() {
        let machine = Machine { gpus: 4, ..Machine::p2_8xlarge() };
        let g = toy(64, 256);
        let plan = partition(&g, &PartitionOptions { workers: 8, ..Default::default() }).unwrap();
        let err = run_partitioned(&g, &plan, 64, &machine, &GenOptions::default())
            .unwrap_err();
        assert!(matches!(err, CoreError::BadWorkerCount(8)), "{err:?}");
    }

    #[test]
    fn control_deps_reduce_memory() {
        let machine = Machine::p2_8xlarge();
        let g = toy(64, 256);
        let plan = partition(&g, &PartitionOptions { workers: 4, ..Default::default() }).unwrap();
        let max_gb = |control_deps| {
            let opts = GenOptions { control_deps };
            let run = run_partitioned(&g, &plan, 64, &machine, &opts).unwrap();
            run.per_device_gb.iter().copied().fold(0.0, f64::max)
        };
        let (max_with, max_without) = (max_gb(true), max_gb(false));
        assert!(max_without >= max_with, "{max_without} < {max_with}");
    }

    #[test]
    fn partitioning_reduces_per_device_memory() {
        let machine = Machine::p2_8xlarge();
        let g = toy(64, 512);
        let single = per_device_memory(&g, &vec![0; g.num_nodes()], 1, true, 1.0)[0].peak_gb();
        let plan = partition(&g, &PartitionOptions { workers: 8, ..Default::default() }).unwrap();
        let run = run_partitioned(&g, &plan, 64, &machine, &GenOptions::default()).unwrap();
        let max = run.per_device_gb.iter().copied().fold(0.0, f64::max);
        assert!(
            max < single * 0.5,
            "per-device {max} GB vs single-device {single} GB"
        );
    }
}
