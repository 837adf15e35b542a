//! Elastic degraded-mode recovery sweep: permanently kills 1 / 2 / 4 of 8
//! workers at an early / mid / late schedule position (9 rows) and drives
//! each run through `run_with_elastic_recovery`, recording the latency
//! breakdown of every shrink — failure detection, partition replan,
//! checkpoint reshard — plus end-to-end wall time, into
//! `BENCH_elastic.json`.
//!
//! The bin exits non-zero unless (a) every degraded output is bit-identical
//! to an undisturbed run at the surviving width resumed from the same
//! snapshot, and (b) warm replans (worker counts the shared `SearchCaches`
//! has already searched) are no slower than the cold search of the same
//! width.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tofu_bench::{bench_report, feeds, write_report, Json};
use tofu_core::{PartitionOptions, SearchCaches};
use tofu_graph::TensorId;
use tofu_models::{mlp, MlpConfig};
use tofu_runtime::{
    resume_from_snapshot, run_with_elastic_recovery, run_with_options, CheckpointPolicy,
    ElasticPolicy, ElasticReport, Fault, FaultPlan, RecoveryOptions, RunOptions,
};
use tofu_tensor::Tensor;

fn bit_identical(a: &BTreeMap<TensorId, Tensor>, b: &BTreeMap<TensorId, Tensor>) -> bool {
    a.len() == b.len()
        && a.iter().all(|(t, va)| {
            b.get(t).is_some_and(|vb| {
                va.data().iter().map(|x| x.to_bits()).eq(vb.data().iter().map(|x| x.to_bits()))
            })
        })
}

/// The spec's baseline: undisturbed run at the surviving width, resumed from
/// the snapshot the ladder carried (or from scratch when it carried none).
fn baseline_values(
    report: &ElasticReport,
    full_feeds: &[(TensorId, Tensor)],
) -> BTreeMap<TensorId, Tensor> {
    let clean = RunOptions::default();
    match &report.snapshot {
        Some(snap) => resume_from_snapshot(&report.sharded, &[], &clean, snap)
            .expect("baseline resume")
            .values,
        None => {
            let mut sf = Vec::new();
            for (t, v) in full_feeds {
                sf.extend(report.sharded.scatter(*t, v).expect("scatter"));
            }
            run_with_options(&report.sharded, &sf, &clean).expect("baseline run").values
        }
    }
}

struct Row {
    label: String,
    killed: usize,
    phase: &'static str,
    widths: Vec<usize>,
    lost: Vec<usize>,
    detection_max_us: u128,
    replan_us: u128,
    reshard_us: u128,
    reshard_bytes: u64,
    total_us: u128,
    exact: bool,
}

fn main() {
    let workers = 8;
    // Batch 840 = lcm(1..8): every width the ladder can reach has a feasible
    // split, including the primes 7 and 5.
    let model = mlp(&MlpConfig { batch: 840, dims: vec![32, 32], classes: 8, with_updates: true })
        .expect("mlp builds");
    let g = &model.graph;
    let full_feeds = feeds(g);
    let part = PartitionOptions { workers, ..Default::default() };
    let every = (g.num_nodes() / 6).max(1);
    let recovery = RecoveryOptions {
        max_attempts: 1,
        backoff: Duration::ZERO,
        elastic: Some(ElasticPolicy::default()),
        ..Default::default()
    };
    // One warm cache across all rows, like a long-lived trainer would hold:
    // the first row's shrink searches cold, every later replan of the same
    // width is a cache lookup.
    let mut caches = SearchCaches::default();

    let victims: [(&[usize], &str); 3] = [(&[3], "1"), (&[1, 5], "2"), (&[0, 2, 4, 6], "4")];
    let phases: [(&'static str, usize); 3] = [("early", 5), ("mid", 45), ("late", 85)];

    println!(
        "{:<18} {:>14} {:>12} {:>12} {:>12} {:>14} {:>12} {:>6}",
        "case", "ladder", "detect µs", "replan µs", "reshard µs", "reshard bytes", "total µs", "exact"
    );
    println!("{}", "-".repeat(108));
    let mut rows: Vec<Row> = Vec::new();
    for (kills, ktag) in victims {
        for (phase, base) in phases {
            let mut faults = FaultPlan::none();
            for (i, &w) in kills.iter().enumerate() {
                faults = faults.with_permanent(Fault::Kill { worker: w, pos: base + 7 * i });
            }
            let opts = RunOptions {
                faults,
                checkpoint: Some(CheckpointPolicy::every_original(every)),
                recv_timeout: Duration::from_secs(5),
                ..Default::default()
            };
            let report = run_with_elastic_recovery(g, &full_feeds, &part, &opts, &recovery, &mut caches)
                .unwrap_or_else(|e| panic!("kill {ktag} {phase}: elastic recovery failed: {e}"));
            let exact = bit_identical(&report.output.values, &baseline_values(&report, &full_feeds));
            let detection_max = report
                .history
                .iter()
                .filter_map(|a| a.detection)
                .max()
                .unwrap_or(Duration::ZERO);
            let mut replan = Duration::ZERO;
            let mut reshard = Duration::ZERO;
            let mut reshard_bytes = 0u64;
            for a in &report.history {
                // Only shrink attempts count as replans; the full-width
                // partition exists with or without elasticity.
                if a.width < workers {
                    if let Some(d) = a.replan {
                        replan += d;
                    }
                }
                if let Some(d) = a.reshard {
                    reshard += d;
                }
                reshard_bytes += a.reshard_bytes;
            }
            let total: Duration = report.history.iter().map(|a| a.wall).sum();
            let row = Row {
                label: format!("kill {ktag} of 8 {phase}"),
                killed: kills.len(),
                phase,
                widths: report.widths.clone(),
                lost: report.lost.clone(),
                detection_max_us: detection_max.as_micros(),
                replan_us: replan.as_micros(),
                reshard_us: reshard.as_micros(),
                reshard_bytes,
                total_us: total.as_micros(),
                exact,
            };
            let ladder =
                row.widths.iter().map(|w| w.to_string()).collect::<Vec<_>>().join("→");
            println!(
                "{:<18} {:>14} {:>12} {:>12} {:>12} {:>14} {:>12} {:>6}",
                row.label,
                ladder,
                row.detection_max_us,
                row.replan_us,
                row.reshard_us,
                row.reshard_bytes,
                row.total_us,
                row.exact
            );
            rows.push(row);
        }
    }

    // Warm-vs-cold: repeating a width's search against an already-populated
    // cache must not be slower than the cold search — the DP subproblems are
    // memo lookups the second time. Measured directly (the per-row replan
    // latency above also includes the uncached graph expansion).
    let mut warm_ok = true;
    let mut warm_results: Vec<Json> = Vec::new();
    for width in [7usize, 6, 5, 4] {
        let po = PartitionOptions { workers: width, ..part };
        let fresh = SearchCaches::default();
        let t = Instant::now();
        tofu_core::partition_cached(g, &po, &fresh, None).expect("cold search");
        let cold = t.elapsed();
        let warm = (0..5)
            .map(|_| {
                let t = Instant::now();
                tofu_core::partition_cached(g, &po, &fresh, None).expect("warm search");
                t.elapsed()
            })
            .min()
            .expect("five warm samples");
        let ok = warm <= cold;
        println!(
            "replan @{width}: cold {} µs, warm best-of-5 {} µs",
            cold.as_micros(),
            warm.as_micros()
        );
        warm_ok &= ok;
        warm_results.push(Json::obj(vec![
            ("width", Json::from(width)),
            ("cold_us", Json::from(cold.as_micros() as f64)),
            ("warm_us", Json::from(warm.as_micros() as f64)),
        ]));
    }

    let results = rows
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("case", Json::from(r.label.as_str())),
                ("killed", Json::from(r.killed)),
                ("phase", Json::from(r.phase)),
                ("widths", Json::Arr(r.widths.iter().map(|&w| Json::from(w)).collect())),
                ("lost", Json::Arr(r.lost.iter().map(|&w| Json::from(w)).collect())),
                ("detection_max_us", Json::from(r.detection_max_us as f64)),
                ("replan_us", Json::from(r.replan_us as f64)),
                ("reshard_us", Json::from(r.reshard_us as f64)),
                ("reshard_bytes", Json::from(r.reshard_bytes as f64)),
                ("total_us", Json::from(r.total_us as f64)),
                ("exact", Json::Bool(r.exact)),
            ])
        })
        .collect();
    let doc = bench_report(
        "elastic_recovery",
        vec![
            ("workers", Json::from(workers)),
            ("nodes", Json::from(g.num_nodes())),
            ("checkpoint_every_original", Json::from(every)),
            ("warm_replans_not_slower", Json::Bool(warm_ok)),
            ("replan_warm_vs_cold", Json::Arr(warm_results)),
        ],
        results,
    );
    write_report("BENCH_elastic.json", &doc);
    let all_exact = rows.iter().all(|r| r.exact);
    println!("({} rows, all bit-identical to baseline: {all_exact}, warm replans ok: {warm_ok})", rows.len());
    if !all_exact || !warm_ok {
        std::process::exit(1);
    }
}
