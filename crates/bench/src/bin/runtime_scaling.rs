//! Runtime scaling ledger: what `tofu-runtime` moves at 1/2/4/8 workers for
//! an MLP, a small WResNet and the benchmark's `step_comm` LSTM — sharded
//! nodes, `multi_fetch` nodes that read no remote input, messages, bytes on
//! the links, the remote reads those messages serve, bytes the transport
//! copied, the largest worker's peak memory and the live-byte bound beneath
//! it — written to `BENCH_runtime.json`.
//!
//! Every row is three steps of one sharded graph at [`IntegrityLevel::Fast`],
//! the production configuration the zero-copy transport optimizes (the fault
//! suites exercise `Full`), traced into one collector. Each value is a count
//! the run reproduces exactly, so the committed file only changes when
//! partitioning, generation or the transport do. `plan_spans_3_steps` counts
//! the planning spans of the three steps: execution is planned once per
//! sharded graph, so it is 1 on every row. Step *time* is measured by
//! `benchmark/` (`runtime.step_s`, `runtime.us_per_op`), not here.
//!
//! The run exits non-zero if the transport copied any payload byte (the
//! zero-copy data plane must stay zero-copy), if the links did not carry
//! exactly `comm_edges()` — one message per transfer, and no two transfers
//! of one tensor to one device overlapping — if the simulator predicts
//! other link bytes than the links carried, if a worker's peak memory
//! differs from `per_device_memory`'s (buffer reuse on, no optimizer copies:
//! what the runtime allocates), if a row's peak falls below its live-byte
//! bound (only a plan that overlaps live tensors can), if the second or
//! third step planned anything, or if a step's values differ from the
//! first's.

use tofu_bench::{
    bench_report, bit_identical, feeds, scatter_feeds, transfers, write_report, Json,
};
use tofu_core::{generate, partition, GenOptions, PartitionOptions};
use tofu_graph::{Graph, Node};
use tofu_models::{mlp, rnn, wresnet, MlpConfig, RnnConfig, WResNetConfig};
use tofu_obs::Collector;
use tofu_runtime::{run_with_options, IntegrityLevel, RunOptions};
use tofu_sim::{per_device_memory, simulate_with_leaf_devices, Machine};

const WORKERS: [usize; 4] = [1, 2, 4, 8];

struct Row {
    model: &'static str,
    workers: usize,
    comm_bytes: u64,
    nodes: usize,
    /// `multi_fetch` nodes all of whose inputs are on their own device: a
    /// copy of data the worker already holds.
    local_fetches: usize,
    messages: u64,
    /// Distinct remote reads, `(node, input)`, the messages serve: an
    /// element several fetches on one device read crosses once.
    remote_reads: u64,
    transport_copy_bytes: u64,
    /// The largest worker's peak memory (bytes).
    peak_device_bytes: u64,
    /// The largest worker's persistent bytes plus its plan's
    /// `live_peak_bytes`: the most bytes live at one position, below which
    /// no assignment of the same tensors can go. The gap to
    /// `peak_device_bytes` is the planner's fragmentation.
    live_peak_bytes: u64,
    /// Planning spans over three steps of the row's sharded graph.
    plan_spans_3_steps: usize,
    exact: bool,
}

fn measure(model: &'static str, g: &Graph, workers: usize) -> Result<Row, String> {
    let plan = partition(g, &PartitionOptions { workers, ..Default::default() })
        .map_err(|e| format!("partition failed: {e}"))?;
    let sharded =
        generate(g, &plan, &GenOptions::default()).map_err(|e| format!("generate failed: {e}"))?;
    let planned = transfers(&sharded)?;
    let shard_feeds = scatter_feeds(&sharded, &feeds(g));
    let obs = Collector::new();
    let opts = RunOptions {
        integrity: IntegrityLevel::Fast,
        collector: Some(obs.clone()),
        ..Default::default()
    };
    let plan_spans = || obs.events().iter().filter(|e| e.cat == "plan").count();
    let out = run_with_options(&sharded, &shard_feeds, &opts).expect("runtime run");
    let after_first = plan_spans();
    for step in 2..=3 {
        let again = run_with_options(&sharded, &shard_feeds, &opts).expect("runtime run");
        if plan_spans() != after_first {
            return Err(format!("step {step} planned again: {} planning spans", plan_spans()));
        }
        if !bit_identical(&again.values, &out.values) {
            return Err(format!("step {step} is not bit-identical to step 1"));
        }
    }
    // The plan the steps ran, cached by the first.
    let exec = sharded.exec_plan(None).map_err(|e| format!("exec plan failed: {e}"))?;
    let (graph, nodes) = (&sharded.graph, &sharded.device_of_node);
    let local = |n: &Node, w: usize| {
        n.op == "multi_fetch" && n.inputs.iter().all(|t| sharded.device_of_tensor[t.0] == Some(w))
    };
    let row = Row {
        model,
        workers,
        comm_bytes: out.trace.comm_bytes(),
        nodes: graph.num_nodes(),
        local_fetches: graph.node_ids().filter(|&n| local(graph.node(n), nodes[n.0])).count(),
        messages: out.trace.links.iter().map(|l| l.messages).sum(),
        remote_reads: planned.reads,
        transport_copy_bytes: out.trace.workers.iter().map(|w| w.transport_copy_bytes).sum(),
        peak_device_bytes: out.trace.workers.iter().map(|w| w.peak_memory_bytes())
            .max()
            .unwrap_or(0),
        live_peak_bytes: exec
            .workers
            .iter()
            .map(|wp| wp.buffers.mem.persistent_bytes + wp.buffers.mem.live_peak_bytes)
            .max()
            .unwrap_or(0),
        plan_spans_3_steps: plan_spans(),
        exact: sharded.exact,
    };
    if (row.messages, row.comm_bytes) != (planned.count, planned.bytes) {
        return Err(format!(
            "the links carried {} B in {} messages, but comm_edges() has {} B in {} transfers",
            row.comm_bytes, row.messages, planned.bytes, planned.count
        ));
    }
    let machine = Machine::p2_8xlarge();
    let sim = simulate_with_leaf_devices(graph, nodes, &sharded.device_of_tensor, &machine, false);
    if sim.comm_bytes != row.comm_bytes as f64 {
        return Err(format!(
            "the links carried {} B, but the simulator predicts {} B",
            row.comm_bytes, sim.comm_bytes
        ));
    }
    let mems = per_device_memory(graph, nodes, workers, true, 0.0);
    for w in &out.trace.workers {
        if w.peak_memory_bytes() != mems[w.device].peak_bytes {
            return Err(format!(
                "device {} peaked at {} B, but per_device_memory predicts {} B",
                w.device,
                w.peak_memory_bytes(),
                mems[w.device].peak_bytes
            ));
        }
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
    let lstm_model = rnn(&RnnConfig {
        layers: 2,
        hidden: 64,
        batch: 8,
        steps: 20,
        embed: 32,
        vocab: 32,
        with_updates: true,
    })
    .expect("lstm builds");

    let mut rows: Vec<Row> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for (name, model) in [
        ("mlp-256x2 (batch 64)", &mlp_model),
        ("wresnet-50-1 (batch 8)", &wres_model),
        ("lstm-2x64 (batch 8, 20 steps)", &lstm_model),
    ] {
        println!("\n{name} — three steps per row");
        println!(
            "{:<8} {:>12} {:>7} {:>7} {:>9} {:>7} {:>14} {:>12} {:>12} {:>11} {:>6}",
            "workers",
            "comm bytes",
            "nodes",
            "local",
            "messages",
            "reads",
            "copied bytes",
            "peak bytes",
            "live bytes",
            "plan spans",
            "exact"
        );
        println!("{}", "-".repeat(115));
        for workers in WORKERS {
            match measure(name, &model.graph, workers) {
                Ok(r) => {
                    println!(
                        "{:<8} {:>12} {:>7} {:>7} {:>9} {:>7} {:>14} {:>12} {:>12} {:>11} {:>6}",
                        r.workers,
                        r.comm_bytes,
                        r.nodes,
                        r.local_fetches,
                        r.messages,
                        r.remote_reads,
                        r.transport_copy_bytes,
                        r.peak_device_bytes,
                        r.live_peak_bytes,
                        r.plan_spans_3_steps,
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
                ("local_fetches", Json::from(r.local_fetches)),
                ("messages", Json::from(r.messages)),
                ("remote_reads", Json::from(r.remote_reads)),
                ("transport_copy_bytes", Json::from(r.transport_copy_bytes)),
                ("peak_device_bytes", Json::from(r.peak_device_bytes)),
                ("live_peak_bytes", Json::from(r.live_peak_bytes)),
                ("plan_spans_3_steps", Json::from(r.plan_spans_3_steps)),
                ("exact", Json::Bool(r.exact)),
            ])
        })
        .collect();
    write_report("BENCH_runtime.json", &bench_report("runtime_scaling", Vec::new(), results));
    println!("({} rows)", rows.len());
    // Only a plan that overlaps live tensors can peak below its live bytes.
    for r in rows.iter().filter(|r| r.peak_device_bytes < r.live_peak_bytes) {
        failures.push(format!(
            "{} w={}: peak {} B below the {} B live bound",
            r.model, r.workers, r.peak_device_bytes, r.live_peak_bytes
        ));
    }
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
