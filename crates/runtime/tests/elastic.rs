//! Elastic degraded-mode recovery tests: a device leaving for good must shrink
//! the worker set, reshard the last consistent checkpoint, and finish with
//! output bit-identical to an undisturbed run at the surviving width resumed
//! from the same snapshot — and losing every device must end in a typed
//! `Unrecoverable`, never a hang.

use std::collections::BTreeMap;
use std::time::Duration;

use tofu_core::{generate, partition, GenOptions, PartitionOptions, SearchCaches};
use tofu_graph::{Graph, TensorId, TensorKind};
use tofu_models::{mlp, MlpConfig};
use tofu_runtime::{
    resume_from_snapshot, run_with_elastic_recovery, run_with_options, run_with_recovery,
    ChurnPlan, CheckpointPolicy, Fault, FaultPlan, RecoveryOptions, RecoveryReport, RunOptions,
    RuntimeError,
};
use tofu_tensor::Tensor;

/// Batch 840 = lcm(1..8): a feasible split exists at every width the ladder
/// can reach from 8 workers, including the primes 7 and 5.
fn model() -> tofu_models::BuiltModel {
    mlp(&MlpConfig { batch: 840, dims: vec![16, 16], classes: 8, with_updates: true }).unwrap()
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

fn checkpointed(g: &Graph, faults: FaultPlan) -> RunOptions {
    RunOptions {
        faults,
        checkpoint: Some(CheckpointPolicy::every_original((g.num_nodes() / 6).max(1))),
        ..Default::default()
    }
}

/// Checkpointed options whose devices leave the fleet as `churn` scripts.
fn churned(g: &Graph, churn: ChurnPlan) -> RunOptions {
    RunOptions { churn, ..checkpointed(g, FaultPlan::none()) }
}

fn elastic_recovery(max_attempts: usize) -> RecoveryOptions {
    RecoveryOptions { max_attempts, backoff: Duration::ZERO }
}

/// The spec's baseline: an undisturbed run at the surviving width resumed
/// from the equivalent checkpoint cut (or from scratch when the ladder
/// carried no checkpoint across the shrink).
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

/// The physical devices the final attempt ran on.
fn active(report: &RecoveryReport) -> &[usize] {
    &report.history.last().expect("a finished run made an attempt").devices
}

fn assert_bit_identical(got: &BTreeMap<TensorId, Tensor>, want: &BTreeMap<TensorId, Tensor>) {
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "degraded run holds different tensors"
    );
    for (t, w) in want {
        let g = &got[t];
        assert_eq!(g.shape(), w.shape(), "tensor {t:?} changed shape");
        let gb: Vec<u32> = g.data().iter().map(|x| x.to_bits()).collect();
        let wb: Vec<u32> = w.data().iter().map(|x| x.to_bits()).collect();
        assert_eq!(gb, wb, "tensor {t:?} is not bit-identical to the baseline");
    }
}

#[test]
fn kill_one_of_eight_shrinks_and_matches_baseline_bit_for_bit() {
    let m = model();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 8, ..Default::default() };
    let mut caches = SearchCaches::default();
    // Early / mid / late loss relative to the victim's full-width schedule;
    // one warm cache across the loop, like a long-lived job would hold.
    for frac in [0usize, 1, 2] {
        let opts = churned(&m.graph, ChurnPlan::none().with_leave(3, frac * 40));
        let report = run_with_elastic_recovery(
            &m.graph,
            &full_feeds,
            &part,
            &opts,
            &elastic_recovery(1),
            &mut caches,
        )
        .unwrap_or_else(|e| panic!("kill@{frac}: elastic recovery failed: {e}"));
        assert_eq!(report.widths, vec![8, 7], "kill@{frac}: one shrink");
        assert_eq!(report.lost, vec![3], "kill@{frac}: physical device 3 lost");
        assert_eq!(active(&report), vec![0, 1, 2, 4, 5, 6, 7], "kill@{frac}: survivors");
        assert_eq!(report.plan.as_ref().map(|p| p.workers), Some(7));
        assert!(report.history.iter().any(|a| a.ok), "kill@{frac}: final attempt succeeded");
        let baseline = baseline_values(&report, &full_feeds);
        assert_bit_identical(&report.output.values, &baseline);
    }
}

#[test]
fn transient_fault_recovers_at_full_width_without_shrinking() {
    let m = model();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 4, ..Default::default() };
    let mut caches = SearchCaches::default();
    let healthy = run_with_elastic_recovery(
        &m.graph,
        &full_feeds,
        &part,
        &checkpointed(&m.graph, FaultPlan::none()),
        &elastic_recovery(1),
        &mut caches,
    )
    .expect("healthy elastic run");
    let report = run_with_elastic_recovery(
        &m.graph,
        &full_feeds,
        &part,
        &checkpointed(&m.graph, FaultPlan::single(Fault::Kill { worker: 1, pos: 30 })),
        &elastic_recovery(2),
        &mut caches,
    )
    .expect("transient fault must not need a shrink");
    assert_eq!(report.widths, vec![4], "no shrink happened");
    assert!(report.lost.is_empty());
    assert_eq!(report.attempts, 2, "one failure, one retry");
    assert_bit_identical(&report.output.values, &healthy.output.values);
}

#[test]
fn multiple_losses_walk_the_ladder_through_prime_widths() {
    let m = model();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 8, ..Default::default() };
    let mut caches = SearchCaches::default();

    // Two losses: 8 → 7 → 6.
    let two = churned(&m.graph, ChurnPlan::none().with_leave(1, 25).with_leave(5, 60));
    let report =
        run_with_elastic_recovery(&m.graph, &full_feeds, &part, &two, &elastic_recovery(1), &mut caches)
            .expect("two losses survive");
    assert_eq!(report.widths, vec![8, 7, 6]);
    assert_eq!(report.lost, vec![1, 5]);
    assert_eq!(active(&report), vec![0, 2, 3, 4, 6, 7]);
    assert_bit_identical(&report.output.values, &baseline_values(&report, &full_feeds));

    // Four losses: 8 → 7 → 6 → 5 → 4, crossing both primes.
    let four = churned(
        &m.graph,
        ChurnPlan::none().with_leave(0, 10).with_leave(2, 35).with_leave(4, 55).with_leave(6, 80),
    );
    let report =
        run_with_elastic_recovery(&m.graph, &full_feeds, &part, &four, &elastic_recovery(1), &mut caches)
            .expect("four losses survive");
    assert_eq!(report.widths, vec![8, 7, 6, 5, 4]);
    assert_eq!(report.lost, vec![0, 2, 4, 6]);
    assert_eq!(active(&report), vec![1, 3, 5, 7]);
    assert_bit_identical(&report.output.values, &baseline_values(&report, &full_feeds));
}

#[test]
fn losing_every_device_surfaces_typed_unrecoverable() {
    let m = model();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 2, ..Default::default() };
    // Both devices leave for good: the ladder shrinks 2 → 1, loses the
    // last device too, and has nothing left to run on.
    let leave_all = ChurnPlan::none().with_leave(0, 5).with_leave(1, 5);
    let mut caches = SearchCaches::default();
    let err = run_with_elastic_recovery(
        &m.graph,
        &full_feeds,
        &part,
        &churned(&m.graph, leave_all),
        &elastic_recovery(1),
        &mut caches,
    )
    .unwrap_err();
    match err {
        RuntimeError::Unrecoverable { ref lost, ref widths, ref cause } => {
            assert_eq!(lost, &vec![0, 1], "names both lost devices in loss order");
            assert_eq!(widths, &vec![2, 1], "names the whole ladder");
            assert!(matches!(**cause, RuntimeError::Failed(_)), "cause: {cause}");
        }
        other => panic!("expected Unrecoverable, got {other}"),
    }
}

#[test]
fn without_degrade_policy_permanent_loss_is_a_plain_failure() {
    let m = model();
    let part = PartitionOptions { workers: 2, ..Default::default() };
    let sharded = generate(&m.graph, &partition(&m.graph, &part).unwrap(), &GenOptions::default())
        .unwrap();
    let mut shard_feeds = Vec::new();
    for (t, v) in feeds(&m.graph) {
        shard_feeds.extend(sharded.scatter(t, &v).unwrap());
    }
    // One kill of device 0 per attempt, at increasing positions: each
    // attempt dies, and the fixed width has no device to drop.
    let recovery = RecoveryOptions { max_attempts: 2, backoff: Duration::ZERO };
    let kills = FaultPlan::single(Fault::Kill { worker: 0, pos: 3 })
        .with(Fault::Kill { worker: 0, pos: 4 });
    let err = run_with_recovery(&sharded, &shard_feeds, &checkpointed(&m.graph, kills), &recovery)
    .unwrap_err();
    assert!(matches!(err, RuntimeError::Failed(ref f) if f.worker == 0), "got {err}");
}

#[test]
fn elastic_requires_plan_independent_barriers() {
    let m = model();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 2, ..Default::default() };
    let opts = RunOptions {
        checkpoint: Some(CheckpointPolicy::every(4)), // sharded-step barriers
        ..Default::default()
    };
    let mut caches = SearchCaches::default();
    let err = run_with_elastic_recovery(
        &m.graph,
        &full_feeds,
        &part,
        &opts,
        &elastic_recovery(1),
        &mut caches,
    )
    .unwrap_err();
    assert!(matches!(err, RuntimeError::InvalidOptions(_)), "got {err}");
}

#[test]
fn ladder_is_fully_instrumented() {
    let m = model();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 4, ..Default::default() };
    let collector = tofu_obs::Collector::new();
    let mut opts = churned(&m.graph, ChurnPlan::none().with_leave(2, 20));
    opts.collector = Some(collector.clone());
    let mut caches = SearchCaches::default();
    let report = run_with_elastic_recovery(
        &m.graph,
        &full_feeds,
        &part,
        &opts,
        &elastic_recovery(1),
        &mut caches,
    )
    .expect("one loss survives");
    let names: Vec<String> = collector.events().into_iter().map(|e| e.name).collect();
    for want in [
        "elastic replan (4 workers)",
        "elastic replan (3 workers)",
        "device 2 lost (permanent)",
        "elastic/surviving_workers",
    ] {
        assert!(names.iter().any(|n| n == want), "missing event {want:?} in {names:?}");
    }
    // The replan and reshard latencies are these spans: one replan per
    // selected width, in ladder order, and one reshard per transition that
    // carried a checkpoint across.
    let replans: Vec<&String> = names.iter().filter(|n| n.starts_with("elastic replan")).collect();
    let want: Vec<String> =
        report.widths.iter().map(|w| format!("elastic replan ({w} workers)")).collect();
    assert_eq!(replans, want.iter().collect::<Vec<_>>());
    let reshards = names.iter().filter(|n| n.starts_with("reshard checkpoint")).count();
    let carried = report.transitions.iter().filter(|t| t.at_ckpt.is_some()).count();
    assert_eq!(reshards, carried, "one reshard span per carried checkpoint in {names:?}");
    let totals = collector.totals();
    assert_eq!(totals.get("elastic/replans").copied(), Some(1.0), "one shrink replan counted");
    assert!(totals.get("elastic/reshard_bytes").copied().unwrap_or(0.0) > 0.0);
}
