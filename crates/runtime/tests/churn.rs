//! Fleet-churn tests: scripted leave/rejoin sequences must shrink and grow
//! the worker set deterministically, carry progress across every width
//! change through plan-independent snapshots, and finish bit-identical to an
//! undisturbed run at the final width resumed from the same snapshot cut.

use std::collections::BTreeMap;
use std::time::Duration;

use tofu_core::{generate, partition, GenOptions, PartitionOptions, SearchCaches};
use tofu_graph::{Graph, TensorId, TensorKind};
use tofu_models::{mlp, MlpConfig};
use tofu_runtime::{
    resume_from_snapshot, run_with_elastic_recovery, run_with_options, CheckpointPolicy, ChurnPlan,
    ElasticReport, FaultPlan, RecoveryOptions, RunOptions, RuntimeError, TransitionKind,
};
use tofu_tensor::Tensor;

/// Batch 840 = lcm(1..8): feasible at every width 1..=8.
fn model_840() -> tofu_models::BuiltModel {
    mlp(&MlpConfig { batch: 840, dims: vec![16, 16], classes: 8, with_updates: true }).unwrap()
}

/// Batch 504 = 8·63 = 9·56: feasible at 9 workers, so a fresh device can
/// grow a run beyond its starting width of 8.
fn model_504() -> tofu_models::BuiltModel {
    mlp(&MlpConfig { batch: 504, dims: vec![16, 16], classes: 8, with_updates: true }).unwrap()
}

/// Batch 48: infeasible at 5 and 7 workers — losing one of 8 devices must
/// step down to 6 with a spare, and a rejoin must climb back to 8.
fn model_48() -> tofu_models::BuiltModel {
    mlp(&MlpConfig { batch: 48, dims: vec![16, 16], classes: 8, with_updates: true }).unwrap()
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

fn churned(g: &Graph, churn: ChurnPlan) -> RunOptions {
    RunOptions {
        churn,
        checkpoint: Some(CheckpointPolicy::every_original((g.num_nodes() / 6).max(1))),
        ..Default::default()
    }
}

fn elastic() -> RecoveryOptions {
    RecoveryOptions { max_attempts: 1, backoff: Duration::ZERO, elastic: true }
}

/// The spec's baseline: an undisturbed run at the final width resumed from
/// the same snapshot cut the churned run last crossed.
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
    assert_eq!(got.keys().collect::<Vec<_>>(), want.keys().collect::<Vec<_>>());
    for (t, w) in want {
        let g = &got[t];
        assert_eq!(g.shape(), w.shape(), "tensor {t:?} changed shape");
        let gb: Vec<u32> = g.data().iter().map(|x| x.to_bits()).collect();
        let wb: Vec<u32> = w.data().iter().map(|x| x.to_bits()).collect();
        assert_eq!(gb, wb, "tensor {t:?} is not bit-identical to the baseline");
    }
}

fn kinds(report: &ElasticReport) -> Vec<TransitionKind> {
    report.transitions.iter().map(|t| t.kind).collect()
}

/// Every original tensor of the run, gathered to full shape. Which *piece*
/// (communication) tensors appear in `output.values` depends on the barrier
/// the run resumed from — a timing-dependent harvest — so cross-run
/// comparisons go through the original tensors, which are always complete.
fn gathered_originals(g: &Graph, report: &ElasticReport) -> BTreeMap<TensorId, Tensor> {
    let mut out = BTreeMap::new();
    for (&t, shards) in &report.sharded.shards {
        if shards.iter().all(|s| report.output.values.contains_key(s)) {
            let full = report
                .sharded
                .gather(t, &g.tensor(t).shape, &report.output.values)
                .expect("gather");
            out.insert(t, full);
        }
    }
    out
}

#[test]
fn leave_then_rejoin_shrinks_and_grows_back_bit_identically() {
    let m = model_840();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 8, ..Default::default() };
    let mut caches = SearchCaches::default();
    let churn = ChurnPlan::none().with_leave(3, 40).with_join(3, 1);
    let report = run_with_elastic_recovery(
        &m.graph,
        &full_feeds,
        &part,
        &churned(&m.graph, churn),
        &elastic(),
        &mut caches,
    )
    .expect("leave/rejoin survives");
    assert_eq!(report.widths, vec![8, 7, 8], "shrink then grow back");
    assert_eq!(report.lost, vec![3]);
    assert_eq!(report.joined, vec![3]);
    assert_eq!(report.devices, (0..8).collect::<Vec<_>>(), "device 3 is active again");
    assert!(report.spares.is_empty());
    assert_eq!(kinds(&report), vec![TransitionKind::Shrink, TransitionKind::Grow]);
    let grow = &report.transitions[1];
    assert_eq!((grow.from_width, grow.to_width), (7, 8));
    assert!(grow.at_ckpt.is_some(), "grow happens at a checkpoint barrier");
    assert!(grow.replan.is_some());
    let baseline = baseline_values(&report, &full_feeds);
    assert_bit_identical(&report.output.values, &baseline);
}

#[test]
fn a_fresh_device_grows_the_run_beyond_its_starting_width() {
    let m = model_504();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 8, ..Default::default() };
    let mut caches = SearchCaches::default();
    // Device 8 never existed in the initial fleet: a pure scale-up.
    let churn = ChurnPlan::none().with_join(8, 2);
    let report = run_with_elastic_recovery(
        &m.graph,
        &full_feeds,
        &part,
        &churned(&m.graph, churn),
        &elastic(),
        &mut caches,
    )
    .expect("pure join survives");
    assert_eq!(report.widths, vec![8, 9], "grew past the starting width");
    assert!(report.lost.is_empty());
    assert_eq!(report.joined, vec![8]);
    assert_eq!(report.devices, (0..9).collect::<Vec<_>>());
    assert_eq!(kinds(&report), vec![TransitionKind::Grow]);
    let baseline = baseline_values(&report, &full_feeds);
    assert_bit_identical(&report.output.values, &baseline);
}

#[test]
fn a_join_with_no_wider_feasible_width_idles_as_a_spare() {
    let m = model_48();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 6, ..Default::default() };
    let mut caches = SearchCaches::default();
    // Batch 48 has no 7-way split: the join raises capacity to 7, the run
    // pauses, re-selects 6 and resumes with the joiner as a spare.
    let churn = ChurnPlan::none().with_join(6, 1);
    let report = run_with_elastic_recovery(
        &m.graph,
        &full_feeds,
        &part,
        &churned(&m.graph, churn),
        &elastic(),
        &mut caches,
    )
    .expect("spare join survives");
    assert_eq!(kinds(&report), vec![TransitionKind::SpareJoin]);
    assert_eq!(report.joined, vec![6]);
    assert_eq!(report.spares, vec![6], "the joiner idles as a spare");
    assert_eq!(report.devices, (0..6).collect::<Vec<_>>());
    assert_bit_identical(&report.output.values, &baseline_values(&report, &full_feeds));
}

#[test]
fn infeasible_widths_step_down_to_capacity_and_climb_back_on_rejoin() {
    let m = model_48();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 8, ..Default::default() };
    let mut caches = SearchCaches::default();
    // Batch 48 has no 7-way split: losing one of 8 must step down to 6,
    // idling one survivor as a spare; the rejoin restores 8.
    let churn = ChurnPlan::none().with_leave(2, 30).with_join(2, 1);
    let report = run_with_elastic_recovery(
        &m.graph,
        &full_feeds,
        &part,
        &churned(&m.graph, churn),
        &elastic(),
        &mut caches,
    )
    .expect("step-down churn survives");
    assert_eq!(report.widths, vec![8, 6, 8], "7 is infeasible: capacity 7 runs 6 wide");
    assert_eq!(report.lost, vec![2]);
    assert_eq!(report.joined, vec![2]);
    assert_eq!(kinds(&report), vec![TransitionKind::Shrink, TransitionKind::Grow]);
    assert_eq!(report.transitions[0].to_width, 6);
    assert_eq!(report.transitions[1].to_width, 8);
    assert_eq!(report.devices, (0..8).collect::<Vec<_>>());
    assert!(report.spares.is_empty());
    assert_bit_identical(&report.output.values, &baseline_values(&report, &full_feeds));
}

#[test]
fn a_leave_of_an_idle_spare_does_not_disturb_the_run() {
    let m = model_48();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 8, ..Default::default() };
    let mut caches = SearchCaches::default();
    // After losing device 7 the run is 6 wide with device 6 spare; the
    // second leave hits that spare and must not trigger another reshard.
    let churn = ChurnPlan::none().with_leave(7, 30).with_leave(6, 60);
    let report = run_with_elastic_recovery(
        &m.graph,
        &full_feeds,
        &part,
        &churned(&m.graph, churn),
        &elastic(),
        &mut caches,
    )
    .expect("spare loss survives");
    assert_eq!(report.widths, vec![8, 6], "only the active loss changed the width");
    assert_eq!(report.lost, vec![7, 6]);
    assert_eq!(kinds(&report), vec![TransitionKind::Shrink, TransitionKind::SpareLoss]);
    assert_eq!(report.devices, (0..6).collect::<Vec<_>>());
    assert!(report.spares.is_empty());
    assert_bit_identical(&report.output.values, &baseline_values(&report, &full_feeds));
}

#[test]
fn seeded_churn_replays_identically_from_one_seed() {
    let m = model_840();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 8, ..Default::default() };
    let plan_a = ChurnPlan::seeded(0xC0FFEE, 4, 8, 100, 4);
    let plan_b = ChurnPlan::seeded(0xC0FFEE, 4, 8, 100, 4);
    assert_eq!(format!("{plan_a:?}"), format!("{plan_b:?}"), "same seed, same script");
    let run = |plan: ChurnPlan| {
        let mut caches = SearchCaches::default();
        run_with_elastic_recovery(
            &m.graph,
            &full_feeds,
            &part,
            &churned(&m.graph, plan),
            &elastic(),
            &mut caches,
        )
        .expect("seeded churn survives")
    };
    let a = run(plan_a);
    let b = run(plan_b);
    assert_eq!(a.widths, b.widths);
    assert_eq!(a.lost, b.lost);
    assert_eq!(a.joined, b.joined);
    assert_eq!(kinds(&a), kinds(&b));
    // The scripted events, the width ladder, and the set of lost/joined
    // devices replay identically from the seed. The *bits* of the two runs
    // are comparable only when both harvested the same checkpoint cuts
    // (which barrier a shrink carries is timing-dependent; a different cut
    // moves the width change and reorders the floating-point reductions) —
    // when the cuts agree, the outputs must agree bit for bit. Each run is
    // unconditionally bit-identical to an undisturbed run at its final
    // width resumed from its own snapshot cut.
    let cuts = |r: &ElasticReport| -> Vec<Option<usize>> {
        r.transitions.iter().map(|t| t.at_ckpt).collect()
    };
    if cuts(&a) == cuts(&b) {
        let originals = gathered_originals(&m.graph, &a);
        assert!(!originals.is_empty());
        assert_bit_identical(&originals, &gathered_originals(&m.graph, &b));
    }
    assert_bit_identical(&a.output.values, &baseline_values(&a, &full_feeds));
    assert_bit_identical(&b.output.values, &baseline_values(&b, &full_feeds));
}

#[test]
fn joins_require_a_checkpoint_cadence() {
    let m = model_840();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 4, ..Default::default() };
    let mut caches = SearchCaches::default();
    let opts = RunOptions { churn: ChurnPlan::none().with_join(4, 1), ..Default::default() };
    let err = run_with_elastic_recovery(
        &m.graph,
        &full_feeds,
        &part,
        &opts,
        &elastic(),
        &mut caches,
    )
    .unwrap_err();
    assert!(matches!(err, RuntimeError::InvalidOptions(ref m) if m.contains("checkpoint")),
        "got {err}");
}

#[test]
fn churn_requires_an_elastic_policy() {
    let m = model_840();
    let full_feeds = feeds(&m.graph);
    let part = PartitionOptions { workers: 4, ..Default::default() };
    let mut caches = SearchCaches::default();
    let opts = churned(&m.graph, ChurnPlan::none().with_leave(1, 10));
    let recovery = RecoveryOptions { max_attempts: 1, backoff: Duration::ZERO, elastic: false };
    let err =
        run_with_elastic_recovery(&m.graph, &full_feeds, &part, &opts, &recovery, &mut caches)
            .unwrap_err();
    assert!(matches!(err, RuntimeError::InvalidOptions(ref m) if m.contains("elastic")),
        "got {err}");
}

#[test]
fn plain_runs_reject_churn_plans() {
    let m = model_840();
    let part = PartitionOptions { workers: 2, ..Default::default() };
    let plan = partition(&m.graph, &part).unwrap();
    let sharded = generate(&m.graph, &plan, &GenOptions::default()).unwrap();
    let mut sf = Vec::new();
    for (t, v) in feeds(&m.graph) {
        sf.extend(sharded.scatter(t, &v).unwrap());
    }
    let opts = RunOptions {
        churn: ChurnPlan::none().with_leave(1, 5),
        faults: FaultPlan::none(),
        ..Default::default()
    };
    let err = run_with_options(&sharded, &sf, &opts).unwrap_err();
    assert!(matches!(err, RuntimeError::InvalidOptions(_)), "got {err}");
}
