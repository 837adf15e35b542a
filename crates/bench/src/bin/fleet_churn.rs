//! Fleet-churn ledger: drives MLP and WResNet training runs through scripted
//! leave/rejoin sequences on 8 workers and records, per scenario and pass,
//! the width ladder, the lost / joined / spare devices and every fleet
//! transition (kind, device, widths, whether its replan was a cache hit)
//! into `BENCH_churn.json`. The recovery-latency breakdown — failure
//! detection, then from the run's trace spans the partition replan, snapshot
//! reshard and first attempt at the new width — is printed, not recorded:
//! it does not repeat, and neither does the barrier a transition harvests
//! (`at_ckpt`, and with it the bytes resharded), which is a race between
//! the workers.
//!
//! Every scenario runs twice: a **cold** pass against a fresh `SearchCaches`
//! (replans pay the full search) and a **warm** pass reusing the cold pass's
//! caches (replans are request-memo lookups). The two passes must agree on the
//! whole ladder — widths, losses, joins — and both must finish bit-identical
//! to an undisturbed run at the final width resumed from the same snapshot
//! cut. When the two passes also harvested the *same* cuts, their outputs
//! must be bit-identical to each other; across different cuts the width
//! changes reorder the floating-point reductions, so only the per-pass
//! baseline check applies.
//!
//! The bin exits non-zero if any output diverges from its baseline, if no
//! grow event fired across the sweep, or (by assertion) if a warm-pass
//! replan was not a request-memo hit.

use std::collections::BTreeMap;
use std::time::Duration;

use tofu_bench::{
    bench_report, bit_identical, feeds, span_durations, undisturbed_values, write_report, Json,
};
use tofu_core::{PartitionOptions, SearchCaches};
use tofu_graph::{Graph, TensorId};
use tofu_models::{mlp, wresnet, MlpConfig, WResNetConfig};
use tofu_obs::{Collector, Track};
use tofu_runtime::{
    run_with_elastic_recovery, CheckpointPolicy, ChurnPlan, RecoveryOptions, RecoveryReport,
    RunOptions, TransitionKind,
};
use tofu_tensor::Tensor;

/// Every **original** tensor of the run, gathered to full shape. Which
/// *piece* (communication) tensors appear in `output.values` depends on the
/// barrier the run resumed from — a timing-dependent harvest — so cross-run
/// comparisons go through the original tensors, which are always complete.
fn gathered_originals(g: &Graph, report: &RecoveryReport) -> BTreeMap<TensorId, Tensor> {
    let sharded = report.sharded.as_ref().expect("a re-planned run returns its plan");
    let mut out = BTreeMap::new();
    for (&t, shards) in &sharded.shards {
        if shards.iter().all(|s| report.output.values.contains_key(s)) {
            let full =
                sharded.gather(t, &g.tensor(t).shape, &report.output.values).expect("gather");
            out.insert(t, full);
        }
    }
    out
}

struct Scenario {
    name: &'static str,
    graph: Graph,
    churn: ChurnPlan,
    /// Checkpoint cadence in original steps. Dense for the small MLPs so a
    /// late leave always strands barriers *after* its harvest for the next
    /// join to pause at; sparse for WResNet where each barrier clones a
    /// deep model's tensors.
    every: usize,
    /// Expected width ladder: every scenario must end at the width that
    /// matches the surviving fleet's capacity (largest feasible ≤ capacity).
    expect_widths: Vec<usize>,
}

fn kind_str(k: TransitionKind) -> &'static str {
    match k {
        TransitionKind::Shrink => "shrink",
        TransitionKind::Grow => "grow",
        TransitionKind::SpareJoin => "spare_join",
        TransitionKind::SpareLoss => "spare_loss",
    }
}

/// One churned run and the collector that traced it.
fn run_pass(
    s: &Scenario,
    full_feeds: &[(TensorId, Tensor)],
    caches: &mut SearchCaches,
) -> (RecoveryReport, Collector) {
    let part = PartitionOptions { workers: 8, ..Default::default() };
    let collector = Collector::new();
    let opts = RunOptions {
        churn: s.churn.clone(),
        checkpoint: Some(CheckpointPolicy::every_original(s.every)),
        recv_timeout: Duration::from_secs(10),
        collector: Some(collector.clone()),
        ..Default::default()
    };
    let recovery = RecoveryOptions { max_attempts: 1, backoff: Duration::ZERO };
    let report = run_with_elastic_recovery(&s.graph, full_feeds, &part, &opts, &recovery, caches)
        .unwrap_or_else(|e| panic!("{}: churn run failed: {e}", s.name));
    (report, collector)
}

fn main() {
    let mlp840 = || {
        mlp(&MlpConfig { batch: 840, dims: vec![32, 32], classes: 8, with_updates: true })
            .expect("mlp builds")
            .graph
    };
    // Batch 48 has no 5- or 7-way split: capacity 7 must run 6 wide.
    let mlp48 = || {
        mlp(&MlpConfig { batch: 48, dims: vec![32, 32], classes: 8, with_updates: true })
            .expect("mlp builds")
            .graph
    };
    // A small WResNet whose only feasible widths are the powers of two that
    // divide batch 8: losing one of 8 devices drops the run to 4 with three
    // survivors idling as spares.
    let wres = || {
        wresnet(&WResNetConfig {
            layers: 50,
            width: 1,
            batch: 8,
            image: 16,
            classes: 8,
            with_updates: true,
        })
        .expect("wresnet builds")
        .graph
    };

    let wres_graph = wres();
    let wres_every = (wres_graph.num_nodes() / 6).max(1);
    let scenarios = vec![
        Scenario {
            name: "mlp840 leave",
            graph: mlp840(),
            churn: ChurnPlan::none().with_leave(3, 40),
            every: 2,
            expect_widths: vec![8, 7],
        },
        Scenario {
            name: "mlp840 leave+rejoin",
            graph: mlp840(),
            churn: ChurnPlan::none().with_leave(3, 40).with_join(3, 1),
            every: 2,
            expect_widths: vec![8, 7, 8],
        },
        Scenario {
            name: "mlp840 double churn",
            graph: mlp840(),
            churn: ChurnPlan::none()
                .with_leave(1, 15)
                .with_join(1, 1)
                .with_leave(5, 40)
                .with_join(5, 2),
            every: 2,
            expect_widths: vec![8, 7, 8, 7, 8],
        },
        Scenario {
            name: "mlp840 2 leaves 2 rejoins",
            graph: mlp840(),
            churn: ChurnPlan::none()
                .with_leave(0, 10)
                .with_leave(4, 25)
                .with_join(0, 2)
                .with_join(4, 3),
            every: 2,
            expect_widths: vec![8, 7, 6, 7, 8],
        },
        Scenario {
            name: "mlp48 step-down+rejoin",
            graph: mlp48(),
            churn: ChurnPlan::none().with_leave(2, 30).with_join(2, 1),
            every: 2,
            expect_widths: vec![8, 6, 8],
        },
        Scenario {
            name: "wresnet leave+rejoin",
            graph: wres_graph,
            churn: ChurnPlan::none().with_leave(5, 20).with_join(5, 1),
            every: wres_every,
            expect_widths: vec![8, 4, 8],
        },
    ];

    println!(
        "{:<28} {:<6} {:>14} {:>10} {:>10} {:>12} {:>10} {:>6}",
        "scenario", "pass", "ladder", "detect µs", "replan µs", "reshard µs", "resume µs", "exact"
    );
    println!("{}", "-".repeat(104));

    let mut rows: Vec<Json> = Vec::new();
    let mut all_exact = true;
    let mut grows_total = 0usize;
    for s in &scenarios {
        let full_feeds = feeds(&s.graph);
        let mut caches = SearchCaches::default();
        let (cold, cold_trace) = run_pass(s, &full_feeds, &mut caches);
        let (warm, warm_trace) = run_pass(s, &full_feeds, &mut caches);

        // The two passes must replay the identical ladder.
        assert_eq!(cold.widths, warm.widths, "{}: passes diverged on widths", s.name);
        assert_eq!(cold.lost, warm.lost, "{}: passes diverged on losses", s.name);
        assert_eq!(cold.joined, warm.joined, "{}: passes diverged on joins", s.name);
        // When both passes harvested the same checkpoint cuts, the resume
        // chains are identical and the outputs must be bit-identical. When
        // the (timing-dependent) harvest picked different cuts, the width
        // changes happen at different barriers, so the floating-point
        // reduction order differs and cross-pass bits are not comparable —
        // each pass is still held to its own undisturbed baseline below.
        let cold_cuts: Vec<Option<usize>> = cold.transitions.iter().map(|t| t.at_ckpt).collect();
        let warm_cuts: Vec<Option<usize>> = warm.transitions.iter().map(|t| t.at_ckpt).collect();
        if cold_cuts == warm_cuts {
            let cold_originals = gathered_originals(&s.graph, &cold);
            assert!(!cold_originals.is_empty(), "{}: no original tensors gathered", s.name);
            assert!(
                bit_identical(&cold_originals, &gathered_originals(&s.graph, &warm)),
                "{}: passes harvested the same cuts {cold_cuts:?} but outputs differ",
                s.name
            );
        } else {
            println!(
                "{:<28} (cuts {cold_cuts:?} vs {warm_cuts:?}: cross-pass bits not comparable)",
                s.name
            );
        }
        assert_eq!(cold.widths, s.expect_widths, "{}: unexpected ladder", s.name);
        // In the warm pass every replanned width is a request-memo hit — the
        // exact form of "warm replans beat cold ones".
        assert!(
            warm.transitions.iter().filter(|t| t.attempt.is_some()).all(|t| t.replan_warm),
            "{}: warm pass hit a cold replan",
            s.name
        );

        grows_total +=
            cold.transitions.iter().filter(|t| t.kind == TransitionKind::Grow).count();
        for (pass, report, trace) in [("cold", &cold, &cold_trace), ("warm", &warm, &warm_trace)] {
            let sharded = report.sharded.as_ref().expect("a re-planned run returns its plan");
            let baseline = undisturbed_values(sharded, report.snapshot.as_ref(), &full_feeds);
            let exact = bit_identical(&report.output.values, &baseline);
            all_exact &= exact;
            // One attempt per width (`max_attempts: 1`), so the i-th replan
            // span selected the width the i-th attempt ran at.
            let attempts = span_durations(trace, Track::control(), "attempt");
            let replans = span_durations(trace, Track::search(), "elastic replan");
            assert_eq!(attempts.len(), report.history.len(), "{}: attempt spans", s.name);
            assert_eq!(replans.len(), report.history.len(), "{}: replan spans", s.name);
            // Every reshard restores a snapshot onto a width a transition
            // opened.
            let reshard: Duration =
                span_durations(trace, Track::control(), "reshard checkpoint").iter().sum();
            let mut detect = Duration::ZERO;
            let mut replan = Duration::ZERO;
            let mut resume = Duration::ZERO;
            let mut transitions: Vec<Json> = Vec::new();
            for t in &report.transitions {
                // A transition's latencies are those of the attempt that
                // opened its width; a shrink's detection is the failed
                // attempt's before it.
                if let Some(i) = t.attempt {
                    if t.kind == TransitionKind::Shrink {
                        detect += report.history[i - 1].detection.unwrap_or(Duration::ZERO);
                    }
                    replan += replans[i];
                    resume += attempts[i];
                }
                transitions.push(Json::obj(vec![
                    ("kind", Json::from(kind_str(t.kind))),
                    ("device", Json::from(t.device)),
                    ("from_width", Json::from(t.from_width)),
                    ("to_width", Json::from(t.to_width)),
                    ("replan_warm", Json::Bool(t.replan_warm)),
                ]));
            }
            let ladder =
                report.widths.iter().map(|w| w.to_string()).collect::<Vec<_>>().join("→");
            println!(
                "{:<28} {:<6} {:>14} {:>10} {:>10} {:>12} {:>10} {:>6}",
                s.name,
                pass,
                ladder,
                detect.as_micros(),
                replan.as_micros(),
                reshard.as_micros(),
                resume.as_micros(),
                exact
            );
            rows.push(Json::obj(vec![
                ("scenario", Json::from(s.name)),
                ("pass", Json::from(pass)),
                ("widths", Json::Arr(report.widths.iter().map(|&w| Json::from(w)).collect())),
                ("final_width", Json::from(*report.widths.last().unwrap())),
                ("lost", Json::Arr(report.lost.iter().map(|&d| Json::from(d)).collect())),
                ("joined", Json::Arr(report.joined.iter().map(|&d| Json::from(d)).collect())),
                ("spares", Json::Arr(report.spares.iter().map(|&d| Json::from(d)).collect())),
                ("attempts", Json::from(report.attempts)),
                ("transitions", Json::Arr(transitions)),
                ("exact", Json::Bool(exact)),
            ]));
        }
    }

    println!(
        "({} scenarios, all bit-identical: {all_exact}, grow events: {grows_total})",
        scenarios.len()
    );

    let doc = bench_report(
        "fleet_churn",
        vec![
            ("workers", Json::from(8usize)),
            ("scenarios", Json::from(scenarios.len())),
            ("grow_events", Json::from(grows_total)),
            ("all_exact", Json::Bool(all_exact)),
        ],
        rows,
    );
    write_report("BENCH_churn.json", &doc);
    if !all_exact || grows_total == 0 {
        eprintln!("FAIL: exact={all_exact} grows={grows_total}");
        std::process::exit(1);
    }
}
