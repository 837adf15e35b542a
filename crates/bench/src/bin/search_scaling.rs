//! Partition-search scaling ledger: group-cost evaluations, relaxations,
//! states the beam truncated, class-cost evaluations and strategy analyses
//! of the optimized DP engine (factored transition, strategies analysed
//! once per request) against the reference `unoptimized_partition`, for an
//! MLP, WResNet-50, a decoder block and an LSTM at 2/4/8 workers, written to
//! `BENCH_search.json`. The analyses are a per-model constant; a
//! width-dependent count means discovery went back to running per step.
//! The class-cost evaluations count each (class, specs) pair the search
//! costs once, so a change that re-costs or skips a pair moves them. Search *time* is measured by
//! `benchmark/` (`core.partition_s`, `core.partition_warm_s`).
//!
//! This is a correctness gate: the process exits nonzero when the
//! optimized engine's plan — cold, or through a request memo shared across
//! the widths — is not the reference's at default options (canonical plan
//! bytes: every step's ways,
//! cost, tensor specs and node choices; the beam binds on WResNet and the
//! LSTM and bounded enumeration fires on both, so this is the
//! default-options differential at release speed), or when its evaluations plus its relaxations reach the
//! reference's `states × combos` count on a nontrivial search — i.e. when
//! the transition is back to the product loop (see DESIGN.md "Search
//! performance").

use tofu_bench::{bench_report, write_report, Json};
use tofu_core::recursive::{
    partition_cached, partition_with_obs, unoptimized_partition, PartitionOptions,
};
use tofu_core::SearchCaches;
use tofu_graph::Graph;
use tofu_models::{
    decoder_block, mlp, rnn, wresnet, DecoderConfig, MlpConfig, RnnConfig, WResNetConfig,
};
use tofu_obs::Collector;
use tofu_serve::plan_to_json;

const WORKERS: [usize; 3] = [2, 4, 8];

struct Row {
    model: &'static str,
    workers: usize,
    ref_states: f64,
    opt_states: f64,
    relaxations: f64,
    assignments_bounded: f64,
    prune_beam: f64,
    class_evals: f64,
    strategy_analyses: f64,
    cost: f64,
    identical: bool,
}

fn total(c: &Collector, key: &str) -> f64 {
    c.totals().get(key).copied().unwrap_or(0.0)
}

fn measure(model: &'static str, g: &Graph, workers: usize, warm: &mut SearchCaches) -> Row {
    let opts = PartitionOptions { workers, ..Default::default() };

    let ref_obs = Collector::new();
    let ref_plan = unoptimized_partition(g, &opts, Some(&ref_obs)).expect("reference");
    let opt_obs = Collector::new();
    let opt_plan = partition_with_obs(g, &opts, Some(&opt_obs)).expect("optimized");

    // Warm row: same query against a request memo shared across the whole
    // (model, workers) sweep, which smaller widths filled.
    let warm_plan = partition_cached(g, &opts, warm, None).expect("warm optimized");

    let cost = ref_plan.total_comm_bytes();
    // Whole-plan identity on the canonical plan bytes: every step's ways,
    // cost, tensor specs and node choices, and the tiling.
    let ref_bytes = plan_to_json(&ref_plan).to_json();
    let identical = plan_to_json(&opt_plan).to_json() == ref_bytes
        && plan_to_json(&warm_plan).to_json() == ref_bytes;
    Row {
        model,
        workers,
        ref_states: total(&ref_obs, "dp/states_explored"),
        opt_states: total(&opt_obs, "dp/states_explored"),
        relaxations: total(&opt_obs, "dp/relaxations"),
        assignments_bounded: total(&opt_obs, "dp/assignments_bounded"),
        prune_beam: total(&opt_obs, "dp/prune_beam"),
        class_evals: total(&opt_obs, "dp/class_evals"),
        strategy_analyses: total(&opt_obs, "coarsen/strategy_analyses"),
        cost,
        identical,
    }
}

fn main() {
    let mlp_model =
        mlp(&MlpConfig { batch: 64, dims: vec![256, 256], classes: 64, with_updates: true })
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
    // The plan service's miss request in `benchmark/` (`serve_miss`).
    let decoder_model = decoder_block(&DecoderConfig {
        seq: 128,
        d_model: 256,
        heads: 8,
        d_ff: 1024,
        classes: 64,
        with_updates: true,
    })
    .expect("decoder builds");
    // The LSTM of `benchmark/`'s `step_comm`: unrolled timesteps merged into
    // strategy classes too wide for a few-bit spec packing.
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
    let mut failed = false;
    for (name, g) in [
        ("mlp-256x2 (batch 64)", &mlp_model.graph),
        ("wresnet-50-1 (batch 8)", &wres_model.graph),
        ("decoder-256 (seq 128)", &decoder_model.graph),
        ("lstm-2x64 (20 steps)", &lstm_model.graph),
    ] {
        // One request memo per model: every width is a new request, and
        // each must still return the reference's plan.
        let mut warm = SearchCaches::new();
        println!("\n{name} — reference vs optimized search");
        println!(
            "{:<8} {:>12} {:>12} {:>12} {:>8} {:>10} {:>10} {:>14} {:>6}",
            "workers",
            "ref states",
            "opt states",
            "relaxations",
            "bounded",
            "pruned",
            "evals",
            "analyses",
            "ident"
        );
        println!("{}", "-".repeat(100));
        for workers in WORKERS {
            let r = measure(name, g, workers, &mut warm);
            println!(
                "{:<8} {:>12.0} {:>12.0} {:>12.0} {:>8.0} {:>10.0} {:>10.0} {:>14.0} {:>6}",
                r.workers,
                r.ref_states,
                r.opt_states,
                r.relaxations,
                r.assignments_bounded,
                r.prune_beam,
                r.class_evals,
                r.strategy_analyses,
                r.identical,
            );
            if !r.identical {
                eprintln!(
                    "FAIL: {name} w={workers}: optimized plan differs from reference (cost {})",
                    r.cost
                );
                failed = true;
            }
            // Tiny searches (the MLP) have one state per projection, so the
            // factoring has nothing to share and only the evaluations are
            // held to the reference's; on any nontrivial search evaluations
            // plus relaxations must stay strictly below the reference's
            // `states × combos`, which a product loop cannot do.
            let strict = r.ref_states > 100_000.0;
            let work = r.opt_states + if strict { r.relaxations } else { 0.0 };
            if work > r.ref_states || (strict && work >= r.ref_states) {
                eprintln!(
                    "FAIL: {name} w={workers}: optimized did {} evaluations + {} relaxations, \
                     reference {} evaluations",
                    r.opt_states, r.relaxations, r.ref_states
                );
                failed = true;
            }
            rows.push(r);
        }
    }

    let results = rows
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("model", Json::from(r.model)),
                ("workers", Json::from(r.workers)),
                ("reference_states_explored", Json::from(r.ref_states)),
                ("optimized_states_explored", Json::from(r.opt_states)),
                ("relaxations", Json::from(r.relaxations)),
                ("assignments_bounded", Json::from(r.assignments_bounded)),
                ("prune_beam", Json::from(r.prune_beam)),
                ("class_evals", Json::from(r.class_evals)),
                ("strategy_analyses", Json::from(r.strategy_analyses)),
                ("total_comm_bytes", Json::from(r.cost)),
                ("cost_identical", Json::Bool(r.identical)),
            ])
        })
        .collect();
    let doc = bench_report("search_scaling", Vec::new(), results);
    write_report("BENCH_search.json", &doc);

    if failed {
        eprintln!("search_scaling: optimized engine violated its contract (see FAIL lines)");
        std::process::exit(1);
    }
}
