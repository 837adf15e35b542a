//! Elastic degraded-mode recovery ledger: permanently kills 1 / 2 / 4 of 8
//! workers at an early / mid / late schedule position (9 rows), drives each
//! run through `run_with_elastic_recovery`, and records the width ladder,
//! the lost devices and whether the degraded output is exact, into
//! `BENCH_elastic.json`. The latency breakdown of every shrink — failure
//! detection, partition replan, checkpoint reshard (the last two read from
//! the run's trace spans) — is printed, not recorded: it does not repeat,
//! and neither do the bytes resharded (which barrier a shrink harvests is a
//! race).
//!
//! The bin exits non-zero unless (a) every degraded output is bit-identical
//! to an undisturbed run at the surviving width resumed from the same
//! snapshot, and (b) repeating a width's search against the caches that
//! already answered it is a request-memo hit every time.

use std::time::Duration;

use tofu_bench::{
    bench_report, bit_identical, feeds, span_durations, undisturbed_values, write_report, Json,
};
use tofu_core::{PartitionOptions, SearchCaches};
use tofu_models::{mlp, MlpConfig};
use tofu_obs::{Collector, Track};
use tofu_runtime::{
    run_with_elastic_recovery, CheckpointPolicy, Fault, FaultPlan, RecoveryOptions, RunOptions,
};

/// Repeats of each width's search in the request-memo check.
const REPEATS: u64 = 5;

struct Row {
    label: String,
    killed: usize,
    phase: &'static str,
    widths: Vec<usize>,
    /// Sorted: simultaneous kills are noticed in either order.
    lost: Vec<usize>,
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
    let recovery = RecoveryOptions { max_attempts: 1, backoff: Duration::ZERO };
    // One warm cache across all rows, like a long-lived trainer would hold:
    // the first row's shrink searches cold, every later replan of the same
    // width is a cache lookup.
    let mut caches = SearchCaches::default();

    let victims: [(&[usize], &str); 3] = [(&[3], "1"), (&[1, 5], "2"), (&[0, 2, 4, 6], "4")];
    let phases: [(&'static str, usize); 3] = [("early", 5), ("mid", 45), ("late", 85)];

    println!(
        "{:<18} {:>14} {:>12} {:>12} {:>12} {:>6}",
        "case", "ladder", "detect µs", "replan µs", "reshard µs", "exact"
    );
    println!("{}", "-".repeat(79));
    let mut rows: Vec<Row> = Vec::new();
    for (kills, ktag) in victims {
        for (phase, base) in phases {
            let mut faults = FaultPlan::none();
            for (i, &w) in kills.iter().enumerate() {
                faults = faults.with_permanent(Fault::Kill { worker: w, pos: base + 7 * i });
            }
            let collector = Collector::new();
            let opts = RunOptions {
                faults,
                checkpoint: Some(CheckpointPolicy::every_original(every)),
                recv_timeout: Duration::from_secs(5),
                collector: Some(collector.clone()),
                ..Default::default()
            };
            let report = run_with_elastic_recovery(g, &full_feeds, &part, &opts, &recovery, &mut caches)
                .unwrap_or_else(|e| panic!("kill {ktag} {phase}: elastic recovery failed: {e}"));
            let sharded = report.sharded.as_ref().expect("a re-planned run returns its plan");
            let baseline = undisturbed_values(sharded, report.snapshot.as_ref(), &full_feeds);
            let exact = bit_identical(&report.output.values, &baseline);
            let detection_max = report
                .history
                .iter()
                .filter_map(|a| a.detection)
                .max()
                .unwrap_or(Duration::ZERO);
            // Only shrinks count as replans; the first, full-width partition
            // exists with or without elasticity.
            let replans = span_durations(&collector, Track::search(), "elastic replan");
            let replan: Duration = replans.iter().skip(1).sum();
            let reshard: Duration =
                span_durations(&collector, Track::control(), "reshard checkpoint").iter().sum();
            let mut lost = report.lost.clone();
            lost.sort_unstable();
            let row = Row {
                label: format!("kill {ktag} of 8 {phase}"),
                killed: kills.len(),
                phase,
                widths: report.widths.clone(),
                lost,
                exact,
            };
            let ladder =
                row.widths.iter().map(|w| w.to_string()).collect::<Vec<_>>().join("→");
            println!(
                "{:<18} {:>14} {:>12} {:>12} {:>12} {:>6}",
                row.label,
                ladder,
                detection_max.as_micros(),
                replan.as_micros(),
                reshard.as_micros(),
                row.exact
            );
            rows.push(row);
        }
    }

    // Warm replans: repeating a width's search against the caches that
    // already answered it must be a whole-request memo hit every time — the
    // exact form of "a warm replan costs a lookup, not a search".
    let mut warm_ok = true;
    let mut warm_results: Vec<Json> = Vec::new();
    for width in [7usize, 6, 5, 4] {
        let po = PartitionOptions { workers: width, ..part };
        let mut fresh = SearchCaches::default();
        // The first call searches; the REPEATS after it must not.
        for _ in 0..=REPEATS {
            tofu_core::partition_cached(g, &po, &mut fresh, None).expect("search");
        }
        let stats = fresh.stats();
        println!(
            "replan @{width}: {} search, {} request-memo hits in {REPEATS} repeats",
            stats.request_misses, stats.request_hits
        );
        warm_ok &= stats.request_misses == 1 && stats.request_hits == REPEATS;
        warm_results.push(Json::obj(vec![
            ("width", Json::from(width)),
            ("searches", Json::from(stats.request_misses)),
            ("request_memo_hits", Json::from(stats.request_hits)),
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
            ("replan_repeats", Json::Arr(warm_results)),
        ],
        results,
    );
    write_report("BENCH_elastic.json", &doc);
    let all_exact = rows.iter().all(|r| r.exact);
    println!(
        "({} rows, all bit-identical to baseline: {all_exact}, warm replans all memo hits: {warm_ok})",
        rows.len()
    );
    if !all_exact || !warm_ok {
        std::process::exit(1);
    }
}
