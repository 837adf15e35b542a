//! Fault matrix ledger: injects every fault class into a 4-worker MLP run
//! and records the typed cause and the recovery outcome of each, written to
//! `BENCH_faults.json`. Detection latency (fault trip → last peer observing
//! the abort) is printed, not recorded: it does not repeat, and which worker
//! is blamed first is a race between the victim and its peers.
//!
//! Matrix:
//! - kill each worker at an early / mid / late schedule position,
//! - drop / duplicate / corrupt one message on the busiest link,
//! - force one worker's buffer pool over budget.
//!
//! Every faulted run is then retried through `run_with_recovery` with
//! checkpoints every quarter of the global schedule; `recovered_exact`
//! records whether the retry reproduced the undisturbed output bit for bit.
//!
//! Two whole-process crash-restart rows ride along: the process dies just
//! before / just after a durable commit, and a fresh incarnation recovers
//! from disk (`run_with_durable_recovery`).
//!
//! The bin exits non-zero unless every injected fault is detected as a typed
//! `RunFailure` and every row recovers bit-identically; an undetected fault
//! is listed after the table and kept out of the ledger.

use std::sync::Arc;
use std::time::Duration;

use tofu_bench::{
    bench_report, bit_identical, feeds, scatter_feeds, undisturbed_values, write_report, Json,
};
use tofu_core::{generate, partition, GenOptions, PartitionOptions, SearchCaches};
use tofu_models::{mlp, MlpConfig};
use tofu_runtime::{
    run_with_durable_recovery, run_with_options, run_with_recovery, CheckpointPolicy, CrashPoint,
    DirStore, DurableOptions, Fault, FaultPlan, MessageFault, RecoveryOptions, RunFailure,
    RunOptions, RuntimeError,
};

struct Row {
    fault: String,
    cause: &'static str,
    recovered_exact: bool,
    recovery_attempts: usize,
}

impl Row {
    /// Prints the row, with the unrecorded race outcomes of `failure`
    /// (blamed worker, detection latency, observing peers) beside it.
    fn print(&self, failure: &RunFailure, detection: Duration) {
        println!(
            "{:<38} {:>8} {:>7} {:>10} {:>6} {:>9} {:>9}",
            self.fault,
            self.cause,
            failure.worker,
            detection.as_micros(),
            failure.detection.len(),
            self.recovered_exact,
            self.recovery_attempts
        );
    }
}

fn cause_label(e: &RuntimeError) -> &'static str {
    match e {
        RuntimeError::Injected { .. } => "injected",
        RuntimeError::Comm { .. } => "comm",
        RuntimeError::Pool { .. } => "pool",
        RuntimeError::WorkerPanic { .. } => "panic",
        RuntimeError::Exec { .. } => "exec",
        RuntimeError::MissingFeed { .. } => "missing-feed",
        _ => "other",
    }
}

fn main() {
    let workers = 4;
    let model = mlp(&MlpConfig { batch: 16, dims: vec![64, 64], classes: 16, with_updates: true })
        .expect("mlp builds");
    let g = &model.graph;
    let plan =
        partition(g, &PartitionOptions { workers, ..Default::default() }).expect("partition");
    let sharded = generate(g, &plan, &GenOptions::default()).expect("generate");
    let full_feeds = feeds(g);
    let shard_feeds = scatter_feeds(&sharded, &full_feeds);
    let baseline =
        run_with_options(&sharded, &shard_feeds, &RunOptions::default()).expect("healthy run");
    let busiest = baseline
        .trace
        .links
        .iter()
        .max_by_key(|l| l.messages)
        .expect("multi-worker run communicates");
    let every = (sharded.graph.num_nodes() / 4).max(1);

    let mut cases: Vec<(String, Fault)> = Vec::new();
    for w in 0..workers {
        let len = sharded.worker_schedule(w).len();
        for (tag, pos) in [("early", 0), ("mid", len / 2), ("late", len - 1)] {
            cases.push((format!("kill w{w} {tag}"), Fault::Kill { worker: w, pos }));
        }
    }
    for (tag, action) in [
        ("drop", MessageFault::Drop),
        ("duplicate", MessageFault::Duplicate),
        ("corrupt", MessageFault::Corrupt),
    ] {
        cases.push((
            format!("{tag} msg 0 on {}->{}", busiest.src, busiest.dst),
            Fault::Message { src: busiest.src, dst: busiest.dst, index: 0, action },
        ));
    }
    let mid1 = sharded.worker_schedule(1).len() / 2;
    cases.push(("pool over budget w1".to_string(), Fault::PoolOverBudget { worker: 1, pos: mid1 }));

    println!(
        "{:<38} {:>8} {:>7} {:>10} {:>6} {:>9} {:>9}",
        "fault", "cause", "blamed", "detect µs", "peers", "recovered", "attempts"
    );
    println!("{}", "-".repeat(93));
    let mut rows: Vec<Row> = Vec::new();
    let mut undetected: Vec<String> = Vec::new();
    for (label, fault) in cases {
        let opts = RunOptions {
            faults: FaultPlan::single(fault),
            checkpoint: Some(CheckpointPolicy::every(every)),
            recv_timeout: Duration::from_secs(5),
            ..Default::default()
        };
        let failure = match run_with_options(&sharded, &shard_feeds, &opts) {
            Err(RuntimeError::Failed(f)) => *f,
            Ok(_) => {
                undetected.push(format!("{label}: fault was not detected"));
                continue;
            }
            Err(e) => {
                undetected.push(format!("{label}: unexpected error {e}"));
                continue;
            }
        };
        let detection_max =
            failure.detection.iter().map(|&(_, d)| d).max().unwrap_or(Duration::ZERO);
        let report = run_with_recovery(
            &sharded,
            &shard_feeds,
            &opts,
            &RecoveryOptions { max_attempts: 3, backoff: Duration::from_millis(1), ..Default::default() },
        );
        let (recovered_exact, attempts) = match &report {
            Ok(r) => (bit_identical(&r.output.values, &baseline.values), r.attempts),
            Err(_) => (false, 0),
        };
        let row = Row {
            fault: label,
            cause: cause_label(&failure.cause),
            recovered_exact,
            recovery_attempts: attempts,
        };
        row.print(&failure, detection_max);
        rows.push(row);
    }

    // Whole-process crash-restart rows: the process dies around a durable
    // commit of checkpoint 2 and a fresh incarnation recovers from disk.
    let every_orig = (g.num_nodes() / 4).max(1);
    let part = PartitionOptions { workers, ..Default::default() };
    let mut caches = SearchCaches::default();
    let root =
        std::env::temp_dir().join(format!("tofu-fault-matrix-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for (label, crash) in [
        ("process crash before durable commit 2", CrashPoint::BeforeCommit(2)),
        ("process crash after durable commit 2", CrashPoint::AfterCommit(2)),
    ] {
        let dir = root.join(label.replace(' ', "-"));
        let opts = RunOptions {
            checkpoint: Some(CheckpointPolicy::every_original(every_orig)),
            ..Default::default()
        };
        let durable = DurableOptions {
            crash: Some(crash),
            ..DurableOptions::new(Arc::new(DirStore::open(&dir).expect("open DirStore")))
        };
        let report = run_with_durable_recovery(g, &full_feeds, &part, &opts, &durable, &mut caches)
            .unwrap_or_else(|e| panic!("{label}: durable run failed: {e}"));
        let failure = report.crashed.as_ref().expect("the first incarnation crashed");
        let baseline =
            undisturbed_values(&report.sharded, report.snapshot.as_ref(), &full_feeds);
        let row = Row {
            fault: label.to_string(),
            cause: cause_label(&failure.cause),
            recovered_exact: bit_identical(&report.output.values, &baseline),
            recovery_attempts: 2,
        };
        row.print(failure, report.detection.unwrap_or_default());
        rows.push(row);
    }
    let _ = std::fs::remove_dir_all(&root);

    let results = rows
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("fault", Json::from(r.fault.as_str())),
                ("cause", Json::from(r.cause)),
                ("recovered_exact", Json::Bool(r.recovered_exact)),
                ("recovery_attempts", Json::from(r.recovery_attempts)),
            ])
        })
        .collect();
    let doc = bench_report(
        "fault_matrix",
        vec![
            ("workers", Json::from(workers)),
            ("nodes", Json::from(sharded.graph.num_nodes())),
            ("checkpoint_every", Json::from(every)),
        ],
        results,
    );
    write_report("BENCH_faults.json", &doc);
    let all_recovered = rows.iter().all(|r| r.recovered_exact);
    println!("({} rows, all recovered bit-identical: {all_recovered})", rows.len());
    for line in &undetected {
        eprintln!("FAIL: {line}");
    }
    if !all_recovered || !undetected.is_empty() {
        std::process::exit(1);
    }
}
