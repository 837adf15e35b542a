//! Coarsening on an unrolled RNN (§5.1): timestep coalescing collapses the
//! 20-step LSTM training graph into a small chain of coalesced operator
//! groups, which is what makes the DP search fast (Table 1).
//!
//! Run with: `cargo run --release --example rnn_coalescing`

use std::time::Instant;

use tofu::core::{coarsen, partition, PartitionOptions};
use tofu::models::{rnn, RnnConfig};

fn main() {
    let cfg = RnnConfig {
        layers: 4,
        hidden: 1024,
        batch: 128,
        steps: 20,
        embed: 512,
        vocab: 2048,
        with_updates: true,
    };
    let model = rnn(&cfg).expect("model builds");
    let g = &model.graph;

    let cg = coarsen(g);
    println!(
        "unrolled RNN ({} layers x {} steps): {} operators",
        cfg.layers,
        cfg.steps,
        g.num_nodes()
    );
    println!(
        "after coarsening: {} groups ({}x fewer) — the \"chain of coalesced and\n\
         grouped operators\" of §5.1",
        cg.num_groups(),
        g.num_nodes() / cg.num_groups().max(1)
    );

    // Largest coalesced classes: cell positions merged across 20 timesteps.
    let mut sizes: Vec<(usize, usize)> = cg
        .class_nodes
        .iter()
        .enumerate()
        .map(|(ci, members)| (ci, members.len()))
        .collect();
    sizes.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    println!("\nlargest strategy classes (shared partition choice):");
    for &(ci, n) in sizes.iter().take(6) {
        let rep = cg.class_nodes[ci][0];
        let node = g.node(rep);
        println!(
            "  {:>3} members  op {:<12} (e.g. {}, cell position {:?})",
            n,
            node.op,
            node.name,
            node.tags.cell_position.as_deref().unwrap_or("-")
        );
    }

    // And the search that the coalescing enables.
    let started = Instant::now();
    let plan = partition(g, &PartitionOptions { workers: 8, ..Default::default() })
        .expect("partition succeeds");
    println!(
        "\n8-worker plan found in {:?}; communication {:.2} GB/iteration",
        started.elapsed(),
        plan.total_comm_bytes() / 1e9
    );
    let wx = g.tensor_by_name("l0/wx").expect("weight exists");
    println!(
        "layer-0 W_x tiling across the three steps: {:?} (all timesteps share it)",
        plan.tiling[wx.0]
    );
}
