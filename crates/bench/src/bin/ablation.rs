//! Ablations of Tofu's design choices (the §5/§6 optimizations DESIGN.md
//! calls out): output reduction, Fig.-7 control dependencies, Fig.-6 fetch
//! buffers, coarsening, and the DP beam width.

use tofu_core::baselines::{run, Algorithm};
use tofu_core::recursive::{partition, PartitionOptions};
use tofu_models::{rnn, wresnet, RnnConfig, WResNetConfig};
use tofu_sim::{per_device_memory, run_partitioned, Machine, TofuSimOptions};

fn main() {
    let machine = Machine::p2_8xlarge();

    // Workloads sized so every variant completes quickly.
    let rnn_model = rnn(&RnnConfig {
        layers: 4,
        hidden: 2048,
        batch: 256,
        steps: 20,
        embed: 1024,
        vocab: 4096,
        with_updates: true,
    })
    .expect("rnn builds");
    let wres_model = wresnet(&WResNetConfig {
        layers: 50,
        width: 6,
        batch: 32,
        ..Default::default()
    })
    .expect("wresnet builds");

    println!("Ablation 1: output-reduction strategies (Tofu vs ICML18 search)");
    for (name, g) in [("RNN-4-2K", &rnn_model.graph), ("WResNet-50-6", &wres_model.graph)] {
        let with = run(g, Algorithm::Tofu, 8).expect("tofu plan");
        let without = run(g, Algorithm::Icml18, 8).expect("icml18 plan");
        println!(
            "  {name:<14} comm with reduction: {:>8.2} GB   without: {:>8.2} GB   ({:.2}x)",
            with.total_comm_bytes() / 1e9,
            without.total_comm_bytes() / 1e9,
            without.total_comm_bytes() / with.total_comm_bytes().max(1.0)
        );
    }

    println!("\nAblation 2: Fig.-7 control dependencies (per-GPU peak memory)");
    let plan = partition(&rnn_model.graph, &PartitionOptions::default()).expect("plan");
    for control_deps in [true, false] {
        let run = run_partitioned(
            &rnn_model.graph,
            &plan,
            256,
            &machine,
            &TofuSimOptions { control_deps },
        )
        .expect("generation succeeds");
        let peak = run.per_device_gb.iter().copied().fold(0.0, f64::max);
        println!(
            "  control deps {:<5} peak per-GPU memory: {peak:>7.2} GB",
            if control_deps { "on" } else { "off" },
        );
    }

    println!("\nAblation 3: Fig.-6 fetch buffers in later recursion steps");
    for floor in [1u64 << 20, u64::MAX] {
        let plan = partition(
            &rnn_model.graph,
            &PartitionOptions { fetch_buffer_floor: floor, ..Default::default() },
        )
        .expect("plan");
        println!(
            "  fetch buffers {:<9} total comm: {:>8.2} GB  (deltas {:?})",
            if floor == u64::MAX { "ignored" } else { "tracked" },
            plan.total_comm_bytes() / 1e9,
            plan.step_costs().iter().map(|c| (c / 1e9 * 100.0).round() / 100.0).collect::<Vec<_>>()
        );
    }

    println!("\nAblation 4: DP beam width (search quality vs time)");
    for beam in [8usize, 64, 512] {
        let plan = partition(
            &wres_model.graph,
            &PartitionOptions { beam, ..Default::default() },
        )
        .expect("plan");
        println!(
            "  beam {beam:<5} comm {:>8.2} GB   search {:?}",
            plan.total_comm_bytes() / 1e9,
            plan.search_time
        );
    }

    println!("\nAblation 5: buffer reuse across the whole partitioned graph");
    let sharded = tofu_core::generate(
        &wres_model.graph,
        &partition(&wres_model.graph, &PartitionOptions::default()).expect("plan"),
        &tofu_core::GenOptions::default(),
    )
    .expect("generate");
    for reuse in [true, false] {
        let mems = per_device_memory(
            &sharded.graph,
            &sharded.device_of_node,
            machine.gpus,
            reuse,
            1.0,
        );
        let peak = mems.iter().map(|m| m.peak_gb()).fold(0.0, f64::max);
        println!("  planner reuse {:<5} peak per-GPU: {peak:>7.2} GB", if reuse { "on" } else { "off" });
    }
}
