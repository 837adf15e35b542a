//! Durable-checkpoint crash-restart tests: a simulated whole-process crash
//! drops every byte of in-memory state, and a fresh runtime must discover
//! the newest *valid* checkpoint on disk (skipping corrupt candidates with a
//! typed reason), reshard it onto the current fleet — possibly at a
//! different width — and finish bit-identical to an undisturbed run resumed
//! from the same cut. Every injected disk corruption must be detected at
//! recovery, never silently resumed from.

use std::collections::BTreeMap;
use std::sync::Arc;

use tofu_core::{PartitionOptions, SearchCaches};
use tofu_graph::{Graph, TensorId, TensorKind};
use tofu_models::{mlp, MlpConfig};
use tofu_runtime::{
    resume_from_snapshot, run_with_durable_recovery, run_with_options, BlobStore,
    CheckpointPolicy, ChurnPlan, CrashPoint, DirStore, DiskFault, DiskFaultPlan, DurableOptions,
    FaultPlan, MemStore, RecoveryReport, RejectReason, RunOptions, RuntimeError, TransitionKind,
};
use tofu_tensor::Tensor;

/// Batch 24 splits evenly at every width these tests restart at (2, 3, 4).
fn model() -> tofu_models::BuiltModel {
    mlp(&MlpConfig { batch: 24, dims: vec![12, 12], classes: 6, with_updates: true }).unwrap()
}

fn feeds(g: &Graph) -> Vec<(TensorId, Tensor)> {
    let mut out = Vec::new();
    for t in g.tensor_ids() {
        let meta = g.tensor(t);
        if meta.kind == TensorKind::Intermediate {
            continue;
        }
        let v = if meta.name.starts_with("labels") {
            let b = meta.shape.dim(0);
            Tensor::from_vec(meta.shape.clone(), (0..b).map(|i| (i % 3) as f32).collect())
                .unwrap()
        } else {
            Tensor::random(meta.shape.clone(), t.0 as u64 + 1, 0.5)
        };
        out.push((t, v));
    }
    out
}

/// A cadence that yields several barriers, so checkpoints 1 and 2 both
/// exist and a third one still gets committed after the restart.
fn cadence(g: &Graph) -> usize {
    (g.num_nodes() / 6).max(1)
}

fn checkpointed(g: &Graph, faults: FaultPlan) -> RunOptions {
    RunOptions {
        faults,
        checkpoint: Some(CheckpointPolicy::every_original(cadence(g))),
        ..Default::default()
    }
}

/// The spec's bit-identity baseline: an undisturbed run at the restart
/// width, resumed from the recovered snapshot when there is one (the only
/// meaningful baseline across a width change), from scratch otherwise.
fn baseline_values(
    report: &RecoveryReport,
    full_feeds: &[(TensorId, Tensor)],
) -> BTreeMap<TensorId, Tensor> {
    let clean = RunOptions::default();
    let sharded = report.sharded.as_ref().expect("a re-planned run returns its plan");
    match &report.snapshot {
        Some(snap) => {
            resume_from_snapshot(sharded, &clean, snap).expect("baseline resume").values
        }
        None => {
            let mut sf = Vec::new();
            for (t, v) in full_feeds {
                sf.extend(sharded.scatter(*t, v).unwrap());
            }
            run_with_options(sharded, &sf, &clean).expect("baseline run").values
        }
    }
}

fn assert_bit_identical(got: &BTreeMap<TensorId, Tensor>, want: &BTreeMap<TensorId, Tensor>) {
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "restarted run holds different tensors"
    );
    for (t, w) in want {
        let g = &got[t];
        assert_eq!(g.shape(), w.shape(), "tensor {t:?} changed shape");
        let gb: Vec<u32> = g.data().iter().map(|x| x.to_bits()).collect();
        let wb: Vec<u32> = w.data().iter().map(|x| x.to_bits()).collect();
        assert_eq!(gb, wb, "tensor {t:?} is not bit-identical to the baseline");
    }
}

/// The checkpoint the final (successful) attempt resumed from.
fn resumed_from(report: &RecoveryReport) -> Option<usize> {
    report.history.last().and_then(|a| a.resumed_from)
}

fn manifests(store: &dyn BlobStore) -> Vec<String> {
    store.list().unwrap().into_iter().filter(|n| n.ends_with(".manifest")).collect()
}

#[test]
fn clean_run_persists_commits_and_respects_retention() {
    let m = model();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 4, ..Default::default() };
    let mut caches = SearchCaches::default();
    let store: Arc<MemStore> = Arc::new(MemStore::default());
    let durable = DurableOptions::new(store.clone());
    let report = run_with_durable_recovery(
        &m.graph,
        &full_feeds,
        &part,
        &checkpointed(&m.graph, FaultPlan::none()),
        &durable,
        &mut caches,
    )
    .expect("clean durable run");
    assert!(report.crashed.is_none());
    assert_eq!(resumed_from(&report), None, "nothing on disk to resume from");
    assert!(report.rejected.is_empty());
    assert!(report.written >= 3, "expected several durable commits, got {}", report.written);
    assert!(report.written_bytes > 0);
    assert!(report.gc_removed > 0, "retention must have pruned superseded checkpoints");
    // Retention holds: only the newest two manifests survive the run.
    assert_eq!(manifests(&*store).len(), 2);

    let sharded = report.sharded.as_ref().unwrap();
    let mut sf = Vec::new();
    for (t, v) in &full_feeds {
        sf.extend(sharded.scatter(*t, v).unwrap());
    }
    let plain = run_with_options(sharded, &sf, &RunOptions::default())
        .expect("plain baseline");
    assert_bit_identical(&report.output.values, &plain.values);
}

#[test]
fn crash_after_commit_resumes_from_that_checkpoint() {
    let m = model();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 4, ..Default::default() };
    let mut caches = SearchCaches::default();
    let durable = DurableOptions {
        crash: Some(CrashPoint::AfterCommit(2)),
        ..DurableOptions::new(Arc::new(MemStore::default()))
    };
    let report = run_with_durable_recovery(
        &m.graph,
        &full_feeds,
        &part,
        &checkpointed(&m.graph, FaultPlan::none()),
        &durable,
        &mut caches,
    )
    .expect("crash-restart run");
    assert!(report.crashed.is_some(), "the first incarnation must have died");
    assert_eq!(resumed_from(&report), Some(2), "checkpoint 2 committed before the crash");
    assert!(report.rejected.is_empty(), "nothing was corrupt: {:?}", report.rejected);
    assert!(report.history.iter().map(|a| a.reshard_bytes).sum::<u64>() > 0);
    assert_bit_identical(&report.output.values, &baseline_values(&report, &full_feeds));
}

#[test]
fn crash_before_commit_falls_back_to_previous_checkpoint() {
    let m = model();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 4, ..Default::default() };
    let mut caches = SearchCaches::default();
    let durable = DurableOptions {
        crash: Some(CrashPoint::BeforeCommit(2)),
        ..DurableOptions::new(Arc::new(MemStore::default()))
    };
    let report = run_with_durable_recovery(
        &m.graph,
        &full_feeds,
        &part,
        &checkpointed(&m.graph, FaultPlan::none()),
        &durable,
        &mut caches,
    )
    .expect("crash-restart run");
    // Checkpoint 2's shards hit the disk but its manifest — the commit
    // point — never did: the orphans are invisible, not "rejected".
    assert_eq!(resumed_from(&report), Some(1));
    assert!(report.rejected.is_empty(), "orphan shards are not candidates: {:?}", report.rejected);
    assert_bit_identical(&report.output.values, &baseline_values(&report, &full_feeds));
}

#[test]
fn crash_before_first_commit_restarts_from_scratch() {
    let m = model();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 4, ..Default::default() };
    let mut caches = SearchCaches::default();
    let durable = DurableOptions {
        crash: Some(CrashPoint::BeforeCommit(1)),
        ..DurableOptions::new(Arc::new(MemStore::default()))
    };
    let report = run_with_durable_recovery(
        &m.graph,
        &full_feeds,
        &part,
        &checkpointed(&m.graph, FaultPlan::none()),
        &durable,
        &mut caches,
    )
    .expect("crash-restart run");
    assert_eq!(resumed_from(&report), None, "no checkpoint ever committed");
    assert!(report.snapshot.is_none());
    assert_bit_identical(&report.output.values, &baseline_values(&report, &full_feeds));
}

#[test]
fn restart_at_a_different_width_is_bit_identical() {
    let m = model();
    let full_feeds = feeds(&m.graph);
    let mut caches = SearchCaches::default();
    // Shrink 4 → 2 and grow 2 → 4: the durable checkpoint stores full
    // tensors keyed by original ids, so the restart reshards either way.
    for (before, after) in [(4usize, 2usize), (2, 4)] {
        let part = PartitionOptions { workers: before, ..Default::default() };
        let durable = DurableOptions {
            crash: Some(CrashPoint::AfterCommit(2)),
            restart_workers: Some(after),
            ..DurableOptions::new(Arc::new(MemStore::default()))
        };
        let report = run_with_durable_recovery(
            &m.graph,
            &full_feeds,
            &part,
            &checkpointed(&m.graph, FaultPlan::none()),
            &durable,
            &mut caches,
        )
        .unwrap_or_else(|e| panic!("{before}->{after}: crash-restart run failed: {e}"));
        let width = report.sharded.as_ref().map(|s| s.workers);
        assert_eq!(width, Some(after), "{before}->{after}: restarted at the new width");
        assert_eq!(report.history.last().map(|a| a.width), Some(after));
        assert_eq!(resumed_from(&report), Some(2));
        assert_bit_identical(&report.output.values, &baseline_values(&report, &full_feeds));
    }
}

/// One end-to-end scenario per disk-fault family: the doomed incarnation's
/// write of checkpoint 2 is corrupted, the process dies right after that
/// commit, and recovery must detect the corruption with the right typed
/// reason, fall back (to checkpoint 1, or to 2 itself when only a forged
/// newer manifest is bogus), and still finish bit-identical.
#[test]
fn every_disk_fault_family_is_detected_and_recovered_exactly() {
    let m = model();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 4, ..Default::default() };
    let mut caches = SearchCaches::default();
    struct Case {
        fault: DiskFault,
        expect_resume: usize,
        expect_rejected_ckpt: u64,
        check: fn(&RejectReason) -> bool,
        label: &'static str,
    }
    let cases = [
        Case {
            fault: DiskFault::TornWrite { ckpt: 2, shard: 0, keep: 9 },
            expect_resume: 1,
            expect_rejected_ckpt: 2,
            check: |r| matches!(r, RejectReason::SizeMismatch { .. }),
            label: "torn-write",
        },
        Case {
            fault: DiskFault::BitFlip { ckpt: 2, shard: 0, bit: 123 },
            expect_resume: 1,
            expect_rejected_ckpt: 2,
            check: |r| matches!(r, RejectReason::ShardCorrupt { .. }),
            label: "bit-flip",
        },
        Case {
            fault: DiskFault::MissingShard { ckpt: 2, shard: 1 },
            expect_resume: 1,
            expect_rejected_ckpt: 2,
            check: |r| matches!(r, RejectReason::MissingShard { .. }),
            label: "missing-shard",
        },
        Case {
            // The manifest committed but a shard it names vanished later.
            fault: DiskFault::StaleManifest { ckpt: 2 },
            expect_resume: 1,
            expect_rejected_ckpt: 2,
            check: |r| matches!(r, RejectReason::MissingShard { .. }),
            label: "stale-manifest",
        },
        Case {
            // A forged copy of checkpoint 2's manifest under ordinal 3:
            // recovery must reject the impostor and resume from the real 2.
            fault: DiskFault::DuplicateManifest { ckpt: 2 },
            expect_resume: 2,
            expect_rejected_ckpt: 3,
            check: |r| matches!(r, RejectReason::IdMismatch { name: 3, body: 2 }),
            label: "duplicate-manifest",
        },
    ];
    for case in cases {
        let durable = DurableOptions {
            crash: Some(CrashPoint::AfterCommit(2)),
            disk_faults: DiskFaultPlan::none().with(case.fault),
            ..DurableOptions::new(Arc::new(MemStore::default()))
        };
        let report = run_with_durable_recovery(
            &m.graph,
            &full_feeds,
            &part,
            &checkpointed(&m.graph, FaultPlan::none()),
            &durable,
            &mut caches,
        )
        .unwrap_or_else(|e| panic!("{}: crash-restart run failed: {e}", case.label));
        assert_eq!(
            resumed_from(&report),
            Some(case.expect_resume),
            "{}: wrong resume checkpoint",
            case.label
        );
        assert_eq!(report.rejected.len(), 1, "{}: exactly one candidate rejected", case.label);
        assert_eq!(report.rejected[0].ckpt, case.expect_rejected_ckpt, "{}", case.label);
        assert!(
            (case.check)(&report.rejected[0].reason),
            "{}: wrong rejection reason: {}",
            case.label,
            report.rejected[0].reason
        );
        assert_bit_identical(&report.output.values, &baseline_values(&report, &full_feeds));
    }
}

#[test]
fn dir_store_survives_a_crash_through_the_real_filesystem() {
    let m = model();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 3, ..Default::default() };
    let mut caches = SearchCaches::default();
    let root = std::env::temp_dir()
        .join(format!("tofu-durable-test-{}-dirstore", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = Arc::new(DirStore::open(&root).expect("open DirStore"));
    let durable = DurableOptions {
        crash: Some(CrashPoint::AfterCommit(2)),
        ..DurableOptions::new(store)
    };
    let report = run_with_durable_recovery(
        &m.graph,
        &full_feeds,
        &part,
        &checkpointed(&m.graph, FaultPlan::none()),
        &durable,
        &mut caches,
    )
    .expect("crash-restart through DirStore");
    assert_eq!(resumed_from(&report), Some(2));
    assert_bit_identical(&report.output.values, &baseline_values(&report, &full_feeds));
    std::fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn misconfiguration_is_rejected_up_front() {
    let m = model();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 4, ..Default::default() };
    let mut caches = SearchCaches::default();
    let invalid = |r: Result<RecoveryReport, RuntimeError>, what: &str| {
        match r {
            Err(RuntimeError::InvalidOptions(_)) => {}
            other => panic!("{what}: expected InvalidOptions, got {other:?}"),
        }
    };

    // No checkpoint cadence: nothing to persist.
    invalid(
        run_with_durable_recovery(
            &m.graph,
            &full_feeds,
            &part,
            &RunOptions::default(),
            &DurableOptions::new(Arc::new(MemStore::default())),
            &mut caches,
        ),
        "no checkpoint policy",
    );

    // Sharded-step barriers are plan-dependent; durable restart reshards.
    invalid(
        run_with_durable_recovery(
            &m.graph,
            &full_feeds,
            &part,
            &RunOptions { checkpoint: Some(CheckpointPolicy::every(5)), ..Default::default() },
            &DurableOptions::new(Arc::new(MemStore::default())),
            &mut caches,
        ),
        "sharded-step barriers",
    );

    // A crash point past the last barrier: the run would complete.
    invalid(
        run_with_durable_recovery(
            &m.graph,
            &full_feeds,
            &part,
            &checkpointed(&m.graph, FaultPlan::none()),
            &DurableOptions {
                crash: Some(CrashPoint::AfterCommit(1000)),
                ..DurableOptions::new(Arc::new(MemStore::default()))
            },
            &mut caches,
        ),
        "unreachable crash point",
    );

    // Zero restart width.
    invalid(
        run_with_durable_recovery(
            &m.graph,
            &full_feeds,
            &part,
            &checkpointed(&m.graph, FaultPlan::none()),
            &DurableOptions {
                restart_workers: Some(0),
                ..DurableOptions::new(Arc::new(MemStore::default()))
            },
            &mut caches,
        ),
        "zero restart width",
    );
}

/// The composition the single supervisor buys: a whole-process crash in the
/// middle of a shrink/grow ladder. Device 1 leaves at its second step —
/// before any barrier can become consistent at width 4 — so the run shrinks
/// to 3 from scratch; it rejoins at a later barrier and the run grows back.
/// The crash lands either between the two (at width 3, with the join still
/// pending) or after the grow. The fleet and the churn script's cursor are
/// the world and survive; everything in memory is rebuilt from disk. Either
/// way the run must end at the capacity width, bit-identical to an
/// undisturbed run at that width resumed from the reported snapshot.
#[test]
fn crash_during_churn_recovers_bit_identically() {
    let m = model();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 4, ..Default::default() };
    let mut caches = SearchCaches::default();
    // (join barrier, crash commit, barrier the final width resumes from)
    for (label, join_at, crash_at, resumed) in
        [("crash after the shrink", 3, 1, 3), ("crash after the grow", 2, 4, 4)]
    {
        let collector = tofu_obs::Collector::new();
        let opts = RunOptions {
            churn: ChurnPlan::none().with_leave(1, 1).with_join(1, join_at),
            collector: Some(collector.clone()),
            ..checkpointed(&m.graph, FaultPlan::none())
        };
        let durable = DurableOptions {
            crash: Some(CrashPoint::AfterCommit(crash_at)),
            ..DurableOptions::new(Arc::new(MemStore::default()))
        };
        let report =
            run_with_durable_recovery(&m.graph, &full_feeds, &part, &opts, &durable, &mut caches)
                .unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
        assert!(report.crashed.is_some(), "{label}: the process must have died");
        let width = report.sharded.as_ref().map(|s| s.workers);
        assert_eq!(width, Some(4), "{label}: ends at the capacity width");
        assert_eq!(resumed_from(&report), Some(resumed), "{label}");
        assert!(report.rejected.is_empty(), "{label}: nothing was corrupt: {:?}", report.rejected);
        let names: Vec<String> = collector.events().into_iter().map(|e| e.name).collect();
        assert!(names.iter().any(|n| n == "device 1 lost (permanent)"), "{label}: no shrink");
        assert_eq!(collector.totals().get("elastic/grows").copied(), Some(1.0), "{label}");
        assert_bit_identical(&report.output.values, &baseline_values(&report, &full_feeds));
    }
}

/// One churn ladder (device 1 leaves, then rejoins; the process crashes
/// after the grow) read back through the report and its trace. Every byte
/// count of a transition or a restore is the attempt's own, so the
/// relations below are what the report's `history` has to carry; the
/// replan and reshard before an attempt are spans of the attached
/// collector.
#[test]
fn a_churn_ladder_is_explained_by_its_attempt_history() {
    let m = model();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 4, ..Default::default() };
    let mut caches = SearchCaches::default();
    let collector = tofu_obs::Collector::new();
    let opts = RunOptions {
        churn: ChurnPlan::none().with_leave(1, 1).with_join(1, 2),
        collector: Some(collector.clone()),
        ..checkpointed(&m.graph, FaultPlan::none())
    };
    let durable = DurableOptions {
        crash: Some(CrashPoint::AfterCommit(4)),
        ..DurableOptions::new(Arc::new(MemStore::default()))
    };
    let report =
        run_with_durable_recovery(&m.graph, &full_feeds, &part, &opts, &durable, &mut caches)
            .expect("churn ladder with a crash after the grow");
    assert!(report.crashed.is_some(), "the process must have died after the grow");
    assert_eq!(report.attempts, report.history.len());
    let widths: Vec<usize> = report.history.iter().map(|a| a.width).collect();
    assert_eq!(widths, vec![4, 3, 4, 4], "leave, yield to the join, crash, reboot");

    // Each transition's attempt is the first at its new width, right after
    // the last at its old one, and it carries the reshard.
    let kinds: Vec<TransitionKind> = report.transitions.iter().map(|t| t.kind).collect();
    assert_eq!(kinds, vec![TransitionKind::Shrink, TransitionKind::Grow]);
    for t in &report.transitions {
        let i = t.attempt.expect("a shrink or grow opens a width");
        let (before, opened) = (&report.history[i - 1], &report.history[i]);
        assert_eq!((before.width, opened.width), (t.from_width, t.to_width), "{t:?}");
        assert_eq!(opened.reshard_bytes > 0, t.at_ckpt.is_some(), "{t:?}: reshard bytes");
        if t.kind == TransitionKind::Shrink {
            assert!(before.detection.is_some(), "{t:?}: the loss was never detected");
        }
    }

    // Every width is selected by a replan span (one attempt per width), and
    // every attempt that restored bytes by a reshard span before it.
    let spans = |prefix: &str| -> Vec<String> {
        let events = collector.events().into_iter();
        events.filter(|e| e.name.starts_with(prefix)).map(|e| e.name).collect()
    };
    let replans: Vec<String> =
        widths.iter().map(|w| format!("elastic replan ({w} workers)")).collect();
    assert_eq!(spans("elastic replan"), replans);
    let reshards: Vec<String> = report
        .history
        .iter()
        .filter(|a| a.reshard_bytes > 0)
        .map(|a| format!("reshard checkpoint {} → {} workers", a.resumed_from.unwrap(), a.width))
        .collect();
    assert_eq!(spans("reshard checkpoint"), reshards);

    // The bytes restored are the attempts' reshards, and nothing else.
    let restored: u64 = report.history.iter().map(|a| a.reshard_bytes).sum();
    let observed = collector.totals().get("elastic/reshard_bytes").copied();
    assert_eq!(observed, Some(restored as f64));
    let snapshot = report.snapshot.as_ref().expect("the reboot resumed from disk");
    let last = report.history.last().unwrap();
    assert_eq!((last.resumed_from, last.reshard_bytes), (Some(snapshot.ckpt), snapshot.bytes()));

    // The first attempt after the grow resumes at the grow's barrier.
    let grow = &report.transitions[1];
    assert_eq!(grow.at_ckpt, Some(2));
    assert_eq!(report.history[grow.attempt.unwrap()].resumed_from, grow.at_ckpt);
    assert_bit_identical(&report.output.values, &baseline_values(&report, &full_feeds));
}
