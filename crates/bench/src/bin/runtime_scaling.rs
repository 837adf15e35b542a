//! Runtime scaling ledger: what `tofu-runtime` moves at 1/2/4/8 workers for
//! an MLP and a small WResNet — sharded nodes, messages, bytes on the links,
//! the remote reads those messages serve, bytes the transport copied —
//! written to `BENCH_runtime.json`.
//!
//! Every row is one step at [`IntegrityLevel::Fast`], the production
//! configuration the zero-copy transport optimizes (the fault suites
//! exercise `Full`). Each value is a count the run reproduces exactly, so
//! the committed file only changes when partitioning, generation or the
//! transport do. Step *time* is measured by `benchmark/` (`runtime.step_s`,
//! `runtime.us_per_op`), not here.
//!
//! The run exits non-zero if the transport copied any payload byte (the
//! zero-copy data plane must stay zero-copy), or if the links did not carry
//! exactly `comm_edges()`: one message per transfer, and no two transfers
//! moving the same block to the same device.

use tofu_bench::{bench_report, feeds, scatter_feeds, transfers, write_report, Json};
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
    /// Remote reads the messages serve: a block several fetches on one
    /// device read crosses once, so this is at least `messages`.
    remote_reads: u64,
    transport_copy_bytes: u64,
    exact: bool,
}

fn measure(model: &'static str, g: &Graph, workers: usize) -> Result<Row, String> {
    let plan = partition(g, &PartitionOptions { workers, ..Default::default() })
        .map_err(|e| format!("partition failed: {e}"))?;
    let sharded =
        generate(g, &plan, &GenOptions::default()).map_err(|e| format!("generate failed: {e}"))?;
    let planned = transfers(&sharded)?;
    let shard_feeds = scatter_feeds(&sharded, &feeds(g));
    let opts = RunOptions { integrity: IntegrityLevel::Fast, ..Default::default() };
    let out = run_with_options(&sharded, &shard_feeds, &opts).expect("runtime run");
    let row = Row {
        model,
        workers,
        comm_bytes: out.trace.comm_bytes(),
        nodes: sharded.graph.num_nodes(),
        messages: out.trace.links.iter().map(|l| l.messages).sum(),
        remote_reads: planned.reads,
        transport_copy_bytes: out.trace.workers.iter().map(|w| w.transport_copy_bytes).sum(),
        exact: sharded.exact,
    };
    if (row.messages, row.comm_bytes) != (planned.count, planned.bytes) {
        return Err(format!(
            "the links carried {} B in {} messages, but comm_edges() has {} B in {} transfers",
            row.comm_bytes, row.messages, planned.bytes, planned.count
        ));
    }
    Ok(row)
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
    let mut failures: Vec<String> = Vec::new();
    for (name, model) in
        [("mlp-256x2 (batch 64)", &mlp_model), ("wresnet-50-1 (batch 8)", &wres_model)]
    {
        println!("\n{name} — one step per row");
        println!(
            "{:<8} {:>12} {:>7} {:>9} {:>7} {:>14} {:>6}",
            "workers", "comm bytes", "nodes", "messages", "reads", "copied bytes", "exact"
        );
        println!("{}", "-".repeat(69));
        for workers in WORKERS {
            match measure(name, &model.graph, workers) {
                Ok(r) => {
                    println!(
                        "{:<8} {:>12} {:>7} {:>9} {:>7} {:>14} {:>6}",
                        r.workers,
                        r.comm_bytes,
                        r.nodes,
                        r.messages,
                        r.remote_reads,
                        r.transport_copy_bytes,
                        r.exact
                    );
                    rows.push(r);
                }
                Err(e) => failures.push(format!("{name} w={workers}: {e}")),
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
                ("remote_reads", Json::from(r.remote_reads)),
                ("transport_copy_bytes", Json::from(r.transport_copy_bytes)),
                ("exact", Json::Bool(r.exact)),
            ])
        })
        .collect();
    write_report("BENCH_runtime.json", &bench_report("runtime_scaling", Vec::new(), results));
    println!("({} rows)", rows.len());
    for r in rows.iter().filter(|r| r.transport_copy_bytes != 0) {
        failures.push(format!(
            "{} w={}: the transport copied {} payload bytes",
            r.model, r.workers, r.transport_copy_bytes
        ));
    }
    if !failures.is_empty() {
        eprintln!("\nruntime_scaling FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
