//! Elastic degraded-mode recovery tests: permanent device loss must shrink
//! the worker set, reshard the last consistent checkpoint, and finish with
//! output bit-identical to an undisturbed run at the surviving width resumed
//! from the same snapshot — and losing every device must end in a typed
//! `Unrecoverable`, never a hang.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use tofu_core::{PartitionOptions, SearchCaches};
use tofu_graph::{Graph, TensorId, TensorKind};
use tofu_models::{mlp, MlpConfig};
use tofu_runtime::{
    resume_from_snapshot, run_with_elastic_recovery, run_with_options, CheckpointPolicy,
    ElasticReport, Fault, FaultPlan, RecoveryOptions, RunOptions, RuntimeError,
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

fn elastic_recovery(max_attempts: usize) -> RecoveryOptions {
    RecoveryOptions { max_attempts, backoff: Duration::ZERO, elastic: true }
}

/// The spec's baseline: an undisturbed run at the surviving width resumed
/// from the equivalent checkpoint cut (or from scratch when the ladder
/// carried no checkpoint across the shrink).
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
                sf.extend(report.sharded.scatter(*t, v).unwrap());
            }
            run_with_options(&report.sharded, &sf, &clean).expect("baseline run").values
        }
    }
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
        let opts = checkpointed(
            &m.graph,
            FaultPlan::single_permanent(Fault::Kill { worker: 3, pos: frac * 40 }),
        );
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
        assert_eq!(report.devices, vec![0, 1, 2, 4, 5, 6, 7], "kill@{frac}: survivors");
        assert_eq!(report.plan.workers, 7);
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
fn multiple_permanent_losses_walk_the_ladder_through_prime_widths() {
    let m = model();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 8, ..Default::default() };
    let mut caches = SearchCaches::default();

    // Two losses: 8 → 7 → 6.
    let two = checkpointed(
        &m.graph,
        FaultPlan::none()
            .with_permanent(Fault::Kill { worker: 1, pos: 25 })
            .with_permanent(Fault::Kill { worker: 5, pos: 60 }),
    );
    let report =
        run_with_elastic_recovery(&m.graph, &full_feeds, &part, &two, &elastic_recovery(1), &mut caches)
            .expect("two losses survive");
    assert_eq!(report.widths, vec![8, 7, 6]);
    assert_eq!(
        report.lost.iter().collect::<BTreeSet<_>>(),
        [1usize, 5].iter().collect::<BTreeSet<_>>()
    );
    assert_eq!(report.devices, vec![0, 2, 3, 4, 6, 7]);
    assert_bit_identical(&report.output.values, &baseline_values(&report, &full_feeds));

    // Four losses: 8 → 7 → 6 → 5 → 4, crossing both primes.
    let four = checkpointed(
        &m.graph,
        FaultPlan::none()
            .with_permanent(Fault::Kill { worker: 0, pos: 10 })
            .with_permanent(Fault::Kill { worker: 2, pos: 35 })
            .with_permanent(Fault::Kill { worker: 4, pos: 55 })
            .with_permanent(Fault::Kill { worker: 6, pos: 80 }),
    );
    let report =
        run_with_elastic_recovery(&m.graph, &full_feeds, &part, &four, &elastic_recovery(1), &mut caches)
            .expect("four losses survive");
    assert_eq!(report.widths, vec![8, 7, 6, 5, 4]);
    assert_eq!(
        report.lost.iter().collect::<BTreeSet<_>>(),
        [0usize, 2, 4, 6].iter().collect::<BTreeSet<_>>()
    );
    assert_eq!(report.devices, vec![1, 3, 5, 7]);
    assert_bit_identical(&report.output.values, &baseline_values(&report, &full_feeds));
}

#[test]
fn losing_every_device_surfaces_typed_unrecoverable() {
    let m = model();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 2, ..Default::default() };
    // Both devices are dead for good: the ladder shrinks 2 → 1, loses the
    // last device too, and has nothing left to run on.
    let kill_all = FaultPlan::none()
        .with_permanent(Fault::Kill { worker: 0, pos: 5 })
        .with_permanent(Fault::Kill { worker: 1, pos: 5 });
    let mut caches = SearchCaches::default();
    let err = run_with_elastic_recovery(
        &m.graph,
        &full_feeds,
        &part,
        &checkpointed(&m.graph, kill_all),
        &elastic_recovery(1),
        &mut caches,
    )
    .unwrap_err();
    match err {
        RuntimeError::Unrecoverable { ref lost, ref widths, ref cause } => {
            assert_eq!(
                lost.iter().collect::<BTreeSet<_>>(),
                [0usize, 1].iter().collect::<BTreeSet<_>>(),
                "names both lost devices"
            );
            assert_eq!(widths, &vec![2, 1], "names the whole ladder");
            assert!(matches!(**cause, RuntimeError::Failed(_)), "cause: {cause}");
        }
        other => panic!("expected Unrecoverable, got {other}"),
    }
}

#[test]
fn without_degrade_policy_permanent_loss_is_a_plain_failure() {
    let m = model();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 2, ..Default::default() };
    let recovery = RecoveryOptions { max_attempts: 2, backoff: Duration::ZERO, elastic: false };
    let mut caches = SearchCaches::default();
    let err = run_with_elastic_recovery(
        &m.graph,
        &full_feeds,
        &part,
        &checkpointed(&m.graph, FaultPlan::single_permanent(Fault::Kill { worker: 0, pos: 3 })),
        &recovery,
        &mut caches,
    )
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
    let mut opts = checkpointed(
        &m.graph,
        FaultPlan::single_permanent(Fault::Kill { worker: 2, pos: 20 }),
    );
    opts.collector = Some(collector.clone());
    let mut caches = SearchCaches::default();
    run_with_elastic_recovery(&m.graph, &full_feeds, &part, &opts, &elastic_recovery(1), &mut caches)
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
    assert!(
        names.iter().any(|n| n.starts_with("reshard checkpoint")),
        "missing reshard span in {names:?}"
    );
    let totals = collector.totals();
    assert_eq!(totals.get("elastic/replans").copied(), Some(1.0), "one shrink replan counted");
    assert!(totals.get("elastic/reshard_bytes").copied().unwrap_or(0.0) > 0.0);
}
