//! Runtime scaling ledger: what `tofu-runtime` moves at 1/2/4/8 workers for
//! an MLP and a small WResNet — sharded nodes, messages, bytes on the links,
//! bytes the transport copied — written to `BENCH_runtime.json`.
//!
//! Every row is one step at [`IntegrityLevel::Fast`], the production
//! configuration the zero-copy transport optimizes (the fault suites
//! exercise `Full`). Each value is a count the run reproduces exactly, so
//! the committed file only changes when partitioning, generation or the
//! transport do. Step *time* is measured by `benchmark/` (`runtime.step_s`,
//! `runtime.us_per_op`), not here.
//!
//! The run exits non-zero if the transport copied any payload byte: the
//! zero-copy data plane must stay zero-copy.

use tofu_bench::{bench_report, feeds, scatter_feeds, write_report, Json};
use tofu_core::{generate, partition, GenOptions, PartitionOptions};
use tofu_graph::Graph;
use tofu_models::{mlp, wresnet, MlpConfig, WResNetConfig};
use tofu_runtime::{run_with_options, IntegrityLevel, RunOptions};

const WORKERS: [usize; 4] = [1, 2, 4, 8];

struct Row {
    model: &'static str,
    workers: usize,
    comm_bytes: u64,
    nodes: usize,
    messages: u64,
    transport_copy_bytes: u64,
    exact: bool,
}

fn measure(model: &'static str, g: &Graph, workers: usize) -> Option<Row> {
    let plan = match partition(g, &PartitionOptions { workers, ..Default::default() }) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{model} w={workers}: partition failed: {e}");
            return None;
        }
    };
    let sharded = match generate(g, &plan, &GenOptions::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{model} w={workers}: generate failed: {e}");
            return None;
        }
    };
    let shard_feeds = scatter_feeds(&sharded, &feeds(g));
    let opts = RunOptions { integrity: IntegrityLevel::Fast, ..Default::default() };
    let out = run_with_options(&sharded, &shard_feeds, &opts).expect("runtime run");
    Some(Row {
        model,
        workers,
        comm_bytes: out.trace.comm_bytes(),
        nodes: sharded.graph.num_nodes(),
        messages: out.trace.links.iter().map(|l| l.messages).sum(),
        transport_copy_bytes: out.trace.workers.iter().map(|w| w.transport_copy_bytes).sum(),
        exact: sharded.exact,
    })
}

fn main() {
    let mlp_model = mlp(&MlpConfig { batch: 64, dims: vec![256, 256], classes: 64, with_updates: true })
        .expect("mlp builds");
    let wres_model = wresnet(&WResNetConfig {
        layers: 50,
        width: 1,
        batch: 8,
        image: 16,
        classes: 8,
        with_updates: true,
    })
    .expect("wresnet builds");

    let mut rows: Vec<Row> = Vec::new();
    for (name, model) in
        [("mlp-256x2 (batch 64)", &mlp_model), ("wresnet-50-1 (batch 8)", &wres_model)]
    {
        println!("\n{name} — one step per row");
        println!(
            "{:<8} {:>12} {:>7} {:>9} {:>14} {:>6}",
            "workers", "comm bytes", "nodes", "messages", "copied bytes", "exact"
        );
        println!("{}", "-".repeat(61));
        for workers in WORKERS {
            if let Some(r) = measure(name, &model.graph, workers) {
                println!(
                    "{:<8} {:>12} {:>7} {:>9} {:>14} {:>6}",
                    r.workers, r.comm_bytes, r.nodes, r.messages, r.transport_copy_bytes, r.exact
                );
                rows.push(r);
            }
        }
    }

    let results = rows
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("model", Json::from(r.model)),
                ("workers", Json::from(r.workers)),
                ("comm_bytes", Json::from(r.comm_bytes)),
                ("nodes", Json::from(r.nodes)),
                ("messages", Json::from(r.messages)),
                ("transport_copy_bytes", Json::from(r.transport_copy_bytes)),
                ("exact", Json::Bool(r.exact)),
            ])
        })
        .collect();
    write_report("BENCH_runtime.json", &bench_report("runtime_scaling", Vec::new(), results));
    println!("({} rows)", rows.len());
    let copied: Vec<&Row> = rows.iter().filter(|r| r.transport_copy_bytes != 0).collect();
    if !copied.is_empty() {
        eprintln!("\nruntime_scaling: the transport copied payload bytes:");
        for r in copied {
            eprintln!("  {} w={}: {} bytes", r.model, r.workers, r.transport_copy_bytes);
        }
        std::process::exit(1);
    }
}
