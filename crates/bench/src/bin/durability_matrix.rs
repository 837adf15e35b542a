//! Durability matrix ledger: crashes a whole process at early / mid / late
//! durable commits, corrupts its checkpoint files with every disk-fault
//! family, and restarts — alternating between the original and half the
//! worker count — recording which checkpoint the restart resumed from, what
//! it rejected and why, the bytes written and restored, and whether recovery
//! was bit-identical, written to `BENCH_durability.json`. Write and recover
//! *time* is measured by `benchmark/` (`durable.write_s`, `durable.recover_s`).
//!
//! Matrix:
//! - crash after the early / mid / late durable commit
//!   × {clean, torn-write, bit-flip, missing-shard, stale-manifest} on the
//!   checkpoint the process died at,
//! - plus two crashes *before* a commit (the shard files exist but the
//!   manifest — the commit point — never did),
//! - plus two crashes in the middle of a churn ladder (device 1 leaves at
//!   once and rejoins later): one after the shrink with the join still
//!   pending, one after the grow. The fleet and the churn cursor survive
//!   the crash; the run must still end at the capacity width.
//!
//! Gates (exit 1 on violation):
//! - every restart finishes bit-identical to an undisturbed run at the
//!   restart width resumed from the same snapshot,
//! - every injected corruption is detected with a typed rejection — never
//!   silently resumed from,
//! - clean rows reject nothing.

use std::sync::Arc;

use tofu_bench::{bench_report, bit_identical, feeds, undisturbed_values, write_report, Json};
use tofu_core::{PartitionOptions, SearchCaches};
use tofu_models::{mlp, MlpConfig};
use tofu_runtime::{
    run_with_durable_recovery, CheckpointPolicy, ChurnPlan, CrashPoint, DirStore, DiskFault,
    DurableOptions, FaultPlan, RunOptions,
};

struct Row {
    label: String,
    crash: String,
    fault: &'static str,
    restart_workers: usize,
    resumed_from: Option<usize>,
    rejected: Vec<String>,
    written: usize,
    written_bytes: u64,
    restore_bytes: u64,
    recovered_exact: bool,
}

fn main() {
    let workers = 4usize;
    let model = mlp(&MlpConfig { batch: 16, dims: vec![64, 64], classes: 16, with_updates: true })
        .expect("mlp builds");
    let g = &model.graph;
    let full_feeds = feeds(g);
    let part = PartitionOptions { workers, ..Default::default() };
    let every = (g.num_nodes() / 4).max(1);
    let mut caches = SearchCaches::default();

    // A checkpoint the crash targets for early / mid / late; the cadence
    // above yields at least four barriers on this model.
    let fault_at = |k: usize| -> Vec<(&'static str, Option<DiskFault>)> {
        vec![
            ("clean", None),
            ("torn-write", Some(DiskFault::TornWrite { ckpt: k as u64, shard: 0, keep: 9 })),
            ("bit-flip", Some(DiskFault::BitFlip { ckpt: k as u64, shard: 0, bit: 123 })),
            ("missing-shard", Some(DiskFault::MissingShard { ckpt: k as u64, shard: 1 })),
            ("stale-manifest", Some(DiskFault::StaleManifest { ckpt: k as u64 })),
        ]
    };
    type Case = (String, CrashPoint, &'static str, Option<DiskFault>, ChurnPlan);
    let mut cases: Vec<Case> = Vec::new();
    for (tag, k) in [("early", 1usize), ("mid", 2), ("late", 3)] {
        for (fault_tag, fault) in fault_at(k) {
            cases.push((
                format!("crash after commit {k} ({tag}), {fault_tag}"),
                CrashPoint::AfterCommit(k),
                fault_tag,
                fault,
                ChurnPlan::none(),
            ));
        }
    }
    for k in [1usize, 2] {
        cases.push((
            format!("crash before commit {k}, clean"),
            CrashPoint::BeforeCommit(k),
            "clean",
            None,
            ChurnPlan::none(),
        ));
    }
    // Crash during churn: device 1 dies at its second step (nothing is
    // consistent yet at full width) and rejoins at barrier `join_at`.
    for (tag, join_at, k) in [("after the shrink", 3usize, 1usize), ("after the grow", 1, 3)] {
        cases.push((
            format!("churn: crash {tag} (commit {k}), clean"),
            CrashPoint::AfterCommit(k),
            "clean",
            None,
            ChurnPlan::none().with_leave(1, 1).with_join(1, join_at),
        ));
    }

    println!(
        "{:<42} {:>7} {:>7} {:>9} {:>8} {:>10} {:>10} {:>6}",
        "scenario", "restart", "resume", "rejected", "written", "written B", "restore B", "exact"
    );
    println!("{}", "-".repeat(106));
    let root = std::env::temp_dir()
        .join(format!("tofu-durability-matrix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut rows: Vec<Row> = Vec::new();
    for (i, (label, crash, fault_tag, fault, churn)) in cases.into_iter().enumerate() {
        // Alternate the restart width: even rows restart at the original
        // width, odd rows reshard the checkpoint onto half the fleet. Churn
        // rows script the fleet themselves and restart on it as it stands.
        let restart = if i % 2 == 0 { workers } else { workers / 2 };
        let restart_workers = churn.is_empty().then_some(restart);
        let dir = root.join(format!("row-{i:02}"));
        let store = Arc::new(DirStore::open(&dir).expect("open DirStore"));
        let mut faults = FaultPlan::none();
        if let Some(f) = fault {
            faults = faults.with_disk(f);
        }
        let opts = RunOptions {
            faults,
            churn,
            checkpoint: Some(CheckpointPolicy::every_original(every)),
            ..Default::default()
        };
        let durable = DurableOptions {
            crash: Some(crash),
            restart_workers,
            ..DurableOptions::new(store)
        };
        let report =
            run_with_durable_recovery(g, &full_feeds, &part, &opts, &durable, &mut caches)
                .unwrap_or_else(|e| panic!("{label}: durable run failed: {e}"));
        let sharded = report.sharded.as_ref().expect("a re-planned run returns its plan");
        let baseline = undisturbed_values(sharded, report.snapshot.as_ref(), &full_feeds);
        let recovered_exact = bit_identical(&report.output.values, &baseline);
        let last = report.history.last().expect("a finished run made an attempt");
        let row = Row {
            label,
            crash: format!("{crash:?}"),
            fault: fault_tag,
            restart_workers: last.width,
            resumed_from: last.resumed_from,
            rejected: report.rejected.iter().map(|r| r.reason.to_string()).collect(),
            written: report.written,
            written_bytes: report.written_bytes,
            restore_bytes: report.history.iter().map(|a| a.reshard_bytes).sum(),
            recovered_exact,
        };
        println!(
            "{:<42} {:>7} {:>7} {:>9} {:>8} {:>10} {:>10} {:>6}",
            row.label,
            row.restart_workers,
            row.resumed_from.map(|k| k.to_string()).unwrap_or_else(|| "-".into()),
            row.rejected.len(),
            row.written,
            row.written_bytes,
            row.restore_bytes,
            row.recovered_exact
        );
        rows.push(row);
    }
    let _ = std::fs::remove_dir_all(&root);

    let results = rows
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("scenario", Json::from(r.label.as_str())),
                ("crash", Json::from(r.crash.as_str())),
                ("fault", Json::from(r.fault)),
                ("restart_workers", Json::from(r.restart_workers)),
                (
                    "resumed_from",
                    r.resumed_from.map(Json::from).unwrap_or(Json::Null),
                ),
                (
                    "rejected",
                    Json::Arr(r.rejected.iter().map(|s| Json::from(s.as_str())).collect()),
                ),
                ("checkpoints_written", Json::from(r.written)),
                ("written_bytes", Json::from(r.written_bytes as f64)),
                ("restore_bytes", Json::from(r.restore_bytes as f64)),
                ("recovered_exact", Json::Bool(r.recovered_exact)),
            ])
        })
        .collect();
    let doc = bench_report(
        "durability_matrix",
        vec![
            ("workers", Json::from(workers)),
            ("nodes", Json::from(g.num_nodes())),
            ("checkpoint_every", Json::from(every)),
        ],
        results,
    );
    write_report("BENCH_durability.json", &doc);

    let all_exact = rows.iter().all(|r| r.recovered_exact);
    let faults_detected = rows.iter().filter(|r| r.fault != "clean").all(|r| !r.rejected.is_empty());
    let clean_quiet = rows.iter().filter(|r| r.fault == "clean").all(|r| r.rejected.is_empty());
    println!(
        "({} rows; all exact: {all_exact}, corruption detected: {faults_detected}, \
         clean rows quiet: {clean_quiet})",
        rows.len()
    );
    if !(all_exact && faults_detected && clean_quiet) {
        std::process::exit(1);
    }
}
