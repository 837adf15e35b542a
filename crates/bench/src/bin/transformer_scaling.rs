//! Transformer decoder scaling sweep (Fig. 8-11 style, on the workload the
//! paper predates): simulated throughput and OOM curves for a GPT-style
//! decoder block at paper-scale sequence lengths, across 1/2/4/8 simulated
//! GPUs, written to `BENCH_transformer.json`.
//!
//! Every value is a simulator output, so the file repeats exactly and
//! `scripts/check.sh` fails on any drift from the committed copy — a changed
//! `comm_bytes` is a real partitioning or codegen change and must be staged
//! deliberately. Beside it, `read_bytes` sums each remote read's own piece:
//! an element several fetches on one device read crosses once, so
//! `comm_bytes` (disjoint transfers) is at most `read_bytes`, and
//! `plan_comm_bytes` (the DP's Eq. 3 objective) is compared against the
//! latter. The run fails if the simulator's bytes differ from the
//! `comm_edges()` sum or if two transfers of one tensor to one device
//! overlap.
//!
//! Besides the curves, the run is a regression gate on **strategy
//! structure**: at every multi-worker point the plan must be genuinely
//! multi-axis — different ops split along different TDL axes, with at least
//! one head-parallel or reduction split (`split:h`, `reduce:h`, `split:j`,
//! `reduce:k`) in use — never a degenerate single-axis data-parallel plan.
//! At seq=512 (where the seq/width ratio makes the megatron partition
//! globally optimal) the gate further requires the exact megatron-style ids
//! on every structure node; at longer sequences the DP legitimately mixes in
//! sequence-parallel steps (`split:n`), which the curves record.

use tofu_bench::{bench_report, transfers, write_report, Json};
use tofu_core::{generate, partition, GenOptions, NodeChoice, PartitionOptions, PartitionPlan};
use tofu_graph::{Graph, NodeId};
use tofu_models::{decoder_block, DecoderConfig};
use tofu_sim::Machine;

/// Paper-scale sequence lengths (tokens per step; batch folded in).
const SEQS: [usize; 5] = [512, 1024, 2048, 4096, 8192];
const WORKERS: [usize; 4] = [1, 2, 4, 8];
const D_MODEL: usize = 1024;
const HEADS: usize = 16;
const D_FF: usize = 4096;
const CLASSES: usize = 1024;
/// At this sequence length the megatron partition is globally optimal and
/// the gate requires it exactly; longer sequences may mix sequence splits.
const MEGATRON_SEQ: usize = 512;

/// Forward nodes whose chosen strategy defines the megatron structure.
const STRUCTURE: [(&str, &str); 5] = [
    ("q_proj", "split:h"),
    ("attn_out", "reduce:h"),
    ("ffn1", "split:j"),
    ("ffn2", "reduce:k"),
    ("scores", "split:b"),
];

/// Per-recursion-step strategy ids of the named node.
fn chosen(g: &Graph, plan: &PartitionPlan, name: &str) -> Vec<String> {
    let Some(id) = (0..g.num_nodes()).map(NodeId).find(|&n| g.node(n).name == name) else {
        return Vec::new();
    };
    plan.steps
        .iter()
        .map(|step| match &step.plan.node_choice[id.0] {
            NodeChoice::Strategy(s) => s.id.clone(),
            NodeChoice::Ewise(spec) => format!("ewise:{spec:?}"),
        })
        .collect()
}

/// Collapses per-step ids for display: "split:h" or "split:n|split:h".
fn display_ids(ids: &[String]) -> String {
    let mut out: Vec<&str> = Vec::new();
    for id in ids {
        if out.last() != Some(&id.as_str()) {
            out.push(id);
        }
    }
    out.join("|")
}

fn main() {
    let machine = Machine::p2_8xlarge();
    let mut results: Vec<Json> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    println!(
        "Transformer decoder scaling: d_model={D_MODEL}, heads={HEADS}, d_ff={D_FF} \
         on {} simulated GPUs ({} GB each)",
        machine.gpus,
        machine.mem_capacity as f64 / 1e9,
    );
    println!(
        "{:<6} {:<8} {:>14} {:>12} {:>10}  structure",
        "seq", "workers", "tokens/s", "comm bytes", "peak GB"
    );
    println!("{}", "-".repeat(89));

    for seq in SEQS {
        let cfg = DecoderConfig {
            seq,
            d_model: D_MODEL,
            heads: HEADS,
            d_ff: D_FF,
            classes: CLASSES,
            with_updates: true,
        };
        let m = decoder_block(&cfg).expect("decoder builds");
        for workers in WORKERS {
            let plan =
                match partition(&m.graph, &PartitionOptions { workers, ..Default::default() }) {
                    Ok(p) => p,
                    Err(e) => {
                        failures.push(format!("seq={seq} w={workers}: partition failed: {e}"));
                        continue;
                    }
                };
            let run = match tofu_sim::run_partitioned(
                &m.graph,
                &plan,
                seq,
                &machine,
                &GenOptions::default(),
            ) {
                Ok(r) => r,
                Err(e) => {
                    failures.push(format!("seq={seq} w={workers}: simulation failed: {e}"));
                    continue;
                }
            };

            let planned = match generate(&m.graph, &plan, &GenOptions::default())
                .map_err(|e| format!("generate failed: {e}"))
                .and_then(|sharded| transfers(&sharded))
            {
                Ok(t) => t,
                Err(e) => {
                    failures.push(format!("seq={seq} w={workers}: {e}"));
                    continue;
                }
            };
            if run.comm_bytes != planned.bytes as f64 {
                failures.push(format!(
                    "seq={seq} w={workers}: simulated {} B, comm_edges() sum to {} B",
                    run.comm_bytes, planned.bytes
                ));
            }

            let structure: Vec<(String, Vec<String>)> = STRUCTURE
                .iter()
                .map(|&(node, _)| (node.to_string(), chosen(&m.graph, &plan, node)))
                .collect();
            if workers > 1 {
                let all: Vec<&str> = structure
                    .iter()
                    .flat_map(|(_, ids)| ids.iter().map(String::as_str))
                    .collect();
                let distinct: std::collections::BTreeSet<&str> = all.iter().copied().collect();
                // Non-token-axis splits: head splits on the projections
                // (`split:h`/`reduce:h`), feature splits on the MLP
                // (`split:j`/`reduce:k`), or the batched attention matmuls'
                // batch axis (`split:b`), which for this graph IS the head
                // dimension. Pure token-data-parallelism would pick
                // `split:n`/`split:i` everywhere and contains none of these.
                let model_parallel = ["split:h", "reduce:h", "split:j", "reduce:k", "split:b"]
                    .iter()
                    .any(|a| distinct.contains(a));
                if distinct.len() < 2 || !model_parallel {
                    failures.push(format!(
                        "seq={seq} w={workers}: plan is not multi-axis (ids {distinct:?}) — \
                         the search degenerated to single-axis parallelism"
                    ));
                }
                if seq == MEGATRON_SEQ {
                    for &(node, want) in &STRUCTURE {
                        let ids = &structure.iter().find(|(n, _)| n == node).unwrap().1;
                        if !ids.iter().all(|id| id == want) {
                            failures.push(format!(
                                "seq={seq} w={workers}: node {node} chose {}, expected the \
                                 megatron-style {want} at this scale",
                                display_ids(ids)
                            ));
                        }
                    }
                }
            }

            let peak = run.per_device_gb.iter().copied().fold(0.0, f64::max);
            let (tokens_per_sec, oom) = match run.outcome.throughput() {
                Some(t) => (t, false),
                None => (0.0, true),
            };
            let summary = if workers == 1 {
                "single device (replicated)".to_string()
            } else {
                structure
                    .iter()
                    .map(|(n, ids)| format!("{n}={}", display_ids(ids)))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            println!(
                "{:<6} {:<8} {:>14} {:>12.0} {:>10.2}  {}",
                seq,
                workers,
                if oom { "OOM".to_string() } else { format!("{tokens_per_sec:.1}") },
                run.comm_bytes,
                peak,
                summary,
            );

            results.push(Json::obj(vec![
                ("seq", Json::from(seq)),
                ("workers", Json::from(workers)),
                ("tokens_per_sec", Json::from(tokens_per_sec)),
                ("oom", Json::Bool(oom)),
                ("comm_bytes", Json::from(run.comm_bytes)),
                ("read_bytes", Json::from(planned.read_bytes)),
                ("plan_comm_bytes", Json::from(plan.total_comm_bytes())),
                ("peak_gb", Json::from(peak)),
                ("compute_only_seconds", Json::from(run.compute_only_seconds)),
                (
                    "structure",
                    Json::obj(
                        structure
                            .iter()
                            .map(|(n, ids)| (n.as_str(), Json::from(display_ids(ids).as_str())))
                            .collect(),
                    ),
                ),
            ]));
        }
    }

    write_report(
        "BENCH_transformer.json",
        &bench_report(
            "transformer_scaling",
            vec![
                ("d_model", Json::from(D_MODEL)),
                ("heads", Json::from(HEADS)),
                ("d_ff", Json::from(D_FF)),
                ("classes", Json::from(CLASSES)),
            ],
            results,
        ),
    );
    if !failures.is_empty() {
        eprintln!("\ntransformer_scaling FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("\nBENCH_transformer.json written; megatron structure verified.");
}
