//! Dumps a unified Chrome-trace for a model: partition-search counters,
//! the simulator's predicted per-device timeline, and the real runtime's
//! measured timeline, all in one file so chrome://tracing (or Perfetto)
//! shows predicted and measured lanes side by side per device.
//!
//! Usage: `trace_dump [--model mlp|wresnet|both] [--workers N]`
//! Writes `TRACE_<model>.json`, then re-parses its own output and fails
//! (exit 1) unless the trace is well-formed: non-empty, search events
//! present, and both a runtime and a sim process lane per device.

use tofu_bench::{feeds, scatter_feeds};
use tofu_core::recursive::{partition_with_obs, PartitionOptions};
use tofu_core::{generate, GenOptions, ShardedGraph};
use tofu_graph::Graph;
use tofu_models::{mlp, wresnet, MlpConfig, WResNetConfig};
use tofu_obs::chrome::chrome_trace;
use tofu_obs::json::{self, num_map, Json};
use tofu_obs::{Collector, PID_RUNTIME_BASE, PID_SEARCH, PID_SIM_BASE};
use tofu_runtime::{run_with_options, RunOptions};
use tofu_sim::{simulate_traced, Machine};

fn dump(tag: &str, g: &Graph, workers: usize) -> Result<String, String> {
    let obs = Collector::new();
    let opts = PartitionOptions { workers, ..Default::default() };
    let plan = partition_with_obs(g, &opts, Some(&obs))
        .map_err(|e| format!("{tag}: partition failed: {e}"))?;
    let sharded: ShardedGraph = generate(g, &plan, &GenOptions::default())
        .map_err(|e| format!("{tag}: generate failed: {e}"))?;

    // Predicted timeline: simulated clock, one "(predicted)" lane per device.
    simulate_traced(
        &sharded.graph,
        &sharded.device_of_node,
        &sharded.device_of_tensor,
        &Machine::p2_8xlarge(),
        Some(&obs),
    );

    // Measured timeline: the same sharded graph on the threaded runtime.
    let shard_feeds = scatter_feeds(&sharded, &feeds(g));
    let run_opts = RunOptions { collector: Some(obs.clone()), ..Default::default() };
    run_with_options(&sharded, &shard_feeds, &run_opts)
        .map_err(|e| format!("{tag}: runtime run failed: {e}"))?;

    let mut doc = chrome_trace(&obs.events());
    if let Json::Obj(pairs) = &mut doc {
        pairs.push(("totals".to_string(), num_map(&obs.totals())));
    }
    let path = format!("TRACE_{tag}.json");
    std::fs::write(&path, doc.to_json() + "\n").map_err(|e| format!("write {path}: {e}"))?;
    validate(&path, workers)?;
    Ok(path)
}

/// Re-reads the file just written and checks it is a usable trace.
fn validate(path: &str, workers: usize) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: missing traceEvents array"))?;
    if events.is_empty() {
        return Err(format!("{path}: traceEvents is empty"));
    }
    let pids: Vec<f64> = events
        .iter()
        .filter_map(|e| e.get("pid").and_then(Json::as_f64))
        .collect();
    if !pids.contains(&(PID_SEARCH as f64)) {
        return Err(format!("{path}: no partition-search events (pid {PID_SEARCH})"));
    }
    for d in 0..workers {
        for (base, what) in [(PID_RUNTIME_BASE, "runtime"), (PID_SIM_BASE, "sim")] {
            let pid = (base + d as u32) as f64;
            if !pids.contains(&pid) {
                return Err(format!("{path}: no {what} events for device {d} (pid {pid})"));
            }
        }
    }
    let totals = doc.get("totals").ok_or_else(|| format!("{path}: missing totals"))?;
    let explored = totals.get("dp/states_explored").and_then(Json::as_f64).unwrap_or(0.0);
    if explored <= 0.0 {
        return Err(format!("{path}: dp/states_explored missing or zero"));
    }
    println!("{path}: {} events, {} dp states explored — ok", events.len(), explored);
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let pick = |flag: &str, default: &str| -> String {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| default.to_string())
    };
    let model = pick("--model", "both");
    let workers: usize = pick("--workers", "2").parse().expect("--workers takes a number");

    let mut failures = Vec::new();
    if model == "mlp" || model == "both" {
        let m = mlp(&MlpConfig {
            batch: 64,
            dims: vec![256, 256],
            classes: 64,
            with_updates: true,
        })
        .expect("mlp builds");
        match dump("mlp", &m.graph, workers) {
            Ok(path) => println!("wrote {path}"),
            Err(e) => failures.push(e),
        }
    }
    if model == "wresnet" || model == "both" {
        let m = wresnet(&WResNetConfig {
            layers: 50,
            width: 1,
            batch: 8,
            image: 16,
            classes: 8,
            with_updates: true,
        })
        .expect("wresnet builds");
        match dump("wresnet", &m.graph, workers) {
            Ok(path) => println!("wrote {path}"),
            Err(e) => failures.push(e),
        }
    }
    if !(model == "mlp" || model == "wresnet" || model == "both") {
        eprintln!("unknown --model {model} (expected mlp|wresnet|both)");
        std::process::exit(2);
    }
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
