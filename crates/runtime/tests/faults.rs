//! Fault-injection, fail-fast abort and checkpoint-restart tests.
//!
//! The matrix kills every worker of a 4-worker MLP at three schedule
//! positions and asserts (a) the run aborts in milliseconds — not the 60 s
//! receive timeout — with a post-mortem naming the injected worker and node,
//! and (b) `run_with_recovery` completes bit-identically to an undisturbed
//! run. Message tampering (drop / duplicate / corrupt) must always surface
//! as a typed `Comm` error, never as silent wrong output.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tofu_core::{generate, partition, GenOptions, PartitionOptions, ShardedGraph};
use tofu_graph::{Graph, TensorId, TensorKind};
use tofu_models::{mlp, MlpConfig};
use tofu_runtime::{
    run_with_options, run_with_recovery, CheckpointPolicy, Fault, FaultPlan, IntegrityLevel,
    MessageFault, RecoveryOptions, RunFailure, RunOptions, RuntimeError,
};
use tofu_tensor::Tensor;

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

fn shard(workers: usize) -> (ShardedGraph, Vec<(TensorId, Tensor)>) {
    let m = mlp(&MlpConfig { batch: 8, dims: vec![16, 16], classes: 8, with_updates: true })
        .unwrap();
    let plan = partition(&m.graph, &PartitionOptions { workers, ..Default::default() }).unwrap();
    let sharded = generate(&m.graph, &plan, &GenOptions::default()).unwrap();
    let mut shard_feeds = Vec::new();
    for (t, v) in feeds(&m.graph) {
        shard_feeds.extend(sharded.scatter(t, &v).unwrap());
    }
    (sharded, shard_feeds)
}

/// Recovered output must match the healthy run exactly — same keys, same
/// shapes, same f32 bit patterns.
fn assert_bit_identical(got: &BTreeMap<TensorId, Tensor>, want: &BTreeMap<TensorId, Tensor>) {
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "recovered run holds different tensors"
    );
    for (t, w) in want {
        let g = &got[t];
        assert_eq!(g.shape(), w.shape(), "tensor {t:?} changed shape");
        let gb: Vec<u32> = g.data().iter().map(|x| x.to_bits()).collect();
        let wb: Vec<u32> = w.data().iter().map(|x| x.to_bits()).collect();
        assert_eq!(gb, wb, "tensor {t:?} is not bit-identical after recovery");
    }
}

fn expect_failed(err: RuntimeError) -> RunFailure {
    match err {
        RuntimeError::Failed(f) => *f,
        other => panic!("expected Failed post-mortem, got {other}"),
    }
}

#[test]
fn kill_matrix_aborts_fast_and_recovers_bit_identically() {
    let workers = 4;
    let (sharded, shard_feeds) = shard(workers);
    let baseline = run_with_options(&sharded, &shard_feeds, &RunOptions::default())
        .expect("undisturbed run");
    let every = (sharded.graph.num_nodes() / 4).max(1);
    for w in 0..workers {
        let len = sharded.worker_schedule(w).len();
        assert!(len > 0, "worker {w} has an empty schedule");
        for pos in [0, len / 2, len - 1] {
            let opts = RunOptions {
                faults: FaultPlan::single(Fault::Kill { worker: w, pos }),
                checkpoint: Some(CheckpointPolicy::every(every)),
                ..Default::default()
            };
            let start = Instant::now();
            let failure =
                expect_failed(run_with_options(&sharded, &shard_feeds, &opts).unwrap_err());
            let wall = start.elapsed();
            // Fail-fast: nobody sat out the 60 s receive timeout.
            assert!(
                wall < Duration::from_secs(10),
                "kill w{w}@{pos}: abort took {wall:?}"
            );
            assert_eq!(failure.worker, w, "kill w{w}@{pos} blamed worker {}", failure.worker);
            let node = failure.node.unwrap_or_else(|| panic!("kill w{w}@{pos}: no node named"));
            assert_eq!(node, sharded.worker_schedule(w)[pos]);
            assert_eq!(failure.pos, Some(pos));
            assert!(
                matches!(*failure.cause, RuntimeError::Injected { worker, .. } if worker == w),
                "kill w{w}@{pos}: cause {}",
                failure.cause
            );
            for &(peer, latency) in &failure.detection {
                assert!(
                    latency < Duration::from_secs(1),
                    "kill w{w}@{pos}: worker {peer} observed the abort after {latency:?}"
                );
            }
            assert!(failure.trace.is_partial(), "kill w{w}@{pos}: trace claims completion");

            // The same transient fault, retried with checkpoints: recovery
            // must converge to the undisturbed output exactly.
            let report = run_with_recovery(
                &sharded,
                &shard_feeds,
                &opts,
                &RecoveryOptions { max_attempts: 3, backoff: Duration::from_millis(1) },
            )
            .unwrap_or_else(|e| panic!("kill w{w}@{pos}: recovery failed: {e}"));
            assert_eq!(report.attempts, 2, "kill w{w}@{pos}: one failure, one retry");
            assert_eq!(report.failures.len(), 1);
            assert_eq!(report.failures[0].worker, w);
            assert_bit_identical(&report.output.values, &baseline.values);
        }
    }
}

#[test]
fn late_kill_or_panic_resumes_from_checkpoint() {
    let (sharded, shard_feeds) = shard(4);
    let baseline =
        run_with_options(&sharded, &shard_feeds, &RunOptions::default()).unwrap();
    // Fail worker 0 at its last step; with a barrier every node, earlier
    // checkpoints are long consistent by then. A panic unwinds the worker
    // thread, and the retry takes the same checkpoint-store and abort locks
    // the dead attempt used — so it is recoverable exactly like a kill.
    let last = sharded.worker_schedule(0).len() - 1;
    for fault in [Fault::Kill { worker: 0, pos: last }, Fault::Panic { worker: 0, pos: last }] {
        let opts = RunOptions {
            faults: FaultPlan::single(fault.clone()),
            checkpoint: Some(CheckpointPolicy::every(1)),
            ..Default::default()
        };
        let report = run_with_recovery(&sharded, &shard_feeds, &opts, &RecoveryOptions::default())
            .unwrap_or_else(|e| panic!("{fault:?}: recovery failed: {e}"));
        assert_eq!(report.attempts, 2, "{fault:?}");
        assert_eq!(report.history[0].resumed_from, None, "{fault:?}: the first run starts fresh");
        let ckpt = report.history[1]
            .resumed_from
            .expect("a late fault must leave at least one consistent checkpoint");
        assert!(ckpt >= 1, "{fault:?}");
        // The retry's trace records where workers restarted.
        assert!(
            report.output.trace.workers.iter().any(|t| t.resume_pos.is_some()),
            "{fault:?}: no worker reports a resumed schedule position"
        );
        assert_bit_identical(&report.output.values, &baseline.values);
    }
}

#[test]
fn recovery_without_checkpoints_restarts_from_scratch() {
    let (sharded, shard_feeds) = shard(2);
    let baseline =
        run_with_options(&sharded, &shard_feeds, &RunOptions::default()).unwrap();
    let mid = sharded.worker_schedule(1).len() / 2;
    let opts = RunOptions {
        faults: FaultPlan::single(Fault::Kill { worker: 1, pos: mid }),
        ..Default::default()
    };
    let report = run_with_recovery(&sharded, &shard_feeds, &opts, &RecoveryOptions::default())
        .expect("recovery");
    assert_eq!(report.attempts, 2);
    let resumed: Vec<Option<usize>> = report.history.iter().map(|a| a.resumed_from).collect();
    assert_eq!(resumed, vec![None, None], "no checkpoints: clean restart");
    assert_bit_identical(&report.output.values, &baseline.values);
}

#[test]
fn injected_panic_is_caught_and_named() {
    let (sharded, shard_feeds) = shard(4);
    let opts = RunOptions {
        faults: FaultPlan::single(Fault::Panic { worker: 2, pos: 1 }),
        ..Default::default()
    };
    let failure = expect_failed(run_with_options(&sharded, &shard_feeds, &opts).unwrap_err());
    assert_eq!(failure.worker, 2);
    match *failure.cause {
        RuntimeError::WorkerPanic { worker, ref message } => {
            assert_eq!(worker, 2);
            assert!(message.contains("injected panic"), "panic message: {message}");
        }
        ref other => panic!("expected WorkerPanic, got {other}"),
    }
    // The panicked worker has no trace; the survivors' partial traces are
    // still collected.
    assert!(failure.trace.workers.iter().all(|t| t.device != 2));
    assert!(!failure.trace.workers.is_empty());
}

/// The first link of a healthy run that carries at least `min` messages.
fn busy_link(sharded: &ShardedGraph, shard_feeds: &[(TensorId, Tensor)], min: u64) -> (usize, usize) {
    let healthy = run_with_options(sharded, shard_feeds, &RunOptions::default()).unwrap();
    let l = healthy
        .trace
        .links
        .iter()
        .find(|l| l.messages >= min)
        .unwrap_or_else(|| panic!("no link carries {min} messages"));
    (l.src, l.dst)
}

#[test]
fn dropped_message_is_detected_as_comm_error() {
    let (sharded, shard_feeds) = shard(4);
    let (src, dst) = busy_link(&sharded, &shard_feeds, 2);
    let opts = RunOptions {
        faults: FaultPlan::single(Fault::Message {
            src,
            dst,
            index: 0,
            action: MessageFault::Drop,
        }),
        // Backstop for the case where the receiver stalls on the lost piece
        // before the gap-exposing successor arrives.
        recv_timeout: Duration::from_secs(2),
        ..Default::default()
    };
    let failure = expect_failed(run_with_options(&sharded, &shard_feeds, &opts).unwrap_err());
    assert_eq!(failure.worker, dst, "the receiver detects the loss");
    assert!(
        matches!(*failure.cause, RuntimeError::Comm { worker, .. } if worker == dst),
        "expected Comm on worker {dst}, got {}",
        failure.cause
    );
}

#[test]
fn duplicated_message_is_detected_as_comm_error() {
    let (sharded, shard_feeds) = shard(4);
    let (src, dst) = busy_link(&sharded, &shard_feeds, 2);
    let opts = RunOptions {
        faults: FaultPlan::single(Fault::Message {
            src,
            dst,
            index: 0,
            action: MessageFault::Duplicate,
        }),
        ..Default::default()
    };
    let failure = expect_failed(run_with_options(&sharded, &shard_feeds, &opts).unwrap_err());
    assert_eq!(failure.worker, dst);
    match *failure.cause {
        RuntimeError::Comm { worker, ref detail } => {
            assert_eq!(worker, dst);
            assert!(
                detail.contains("duplicated") || detail.contains("never consumed"),
                "detail: {detail}"
            );
        }
        ref other => panic!("expected Comm, got {other}"),
    }
}

#[test]
fn corrupted_message_is_detected_as_comm_error() {
    let (sharded, shard_feeds) = shard(4);
    let (src, dst) = busy_link(&sharded, &shard_feeds, 1);
    let opts = RunOptions {
        faults: FaultPlan::single(Fault::Message {
            src,
            dst,
            index: 0,
            action: MessageFault::Corrupt,
        }),
        ..Default::default()
    };
    let failure = expect_failed(run_with_options(&sharded, &shard_feeds, &opts).unwrap_err());
    assert_eq!(failure.worker, dst);
    match *failure.cause {
        RuntimeError::Comm { worker, ref detail } => {
            assert_eq!(worker, dst);
            assert!(detail.contains("checksum"), "detail: {detail}");
        }
        ref other => panic!("expected Comm, got {other}"),
    }
}

#[test]
fn delayed_message_only_slows_the_run() {
    let (sharded, shard_feeds) = shard(4);
    let baseline =
        run_with_options(&sharded, &shard_feeds, &RunOptions::default()).unwrap();
    let (src, dst) = busy_link(&sharded, &shard_feeds, 1);
    let opts = RunOptions {
        faults: FaultPlan::single(Fault::Message {
            src,
            dst,
            index: 0,
            action: MessageFault::Delay(Duration::from_millis(50)),
        }),
        ..Default::default()
    };
    let out = run_with_options(&sharded, &shard_feeds, &opts).expect("delay is not a failure");
    assert_bit_identical(&out.values, &baseline.values);
}

#[test]
fn pool_over_budget_fault_is_typed() {
    let (sharded, shard_feeds) = shard(4);
    let mid = sharded.worker_schedule(1).len() / 2;
    let opts = RunOptions {
        faults: FaultPlan::single(Fault::PoolOverBudget { worker: 1, pos: mid }),
        ..Default::default()
    };
    let failure = expect_failed(run_with_options(&sharded, &shard_feeds, &opts).unwrap_err());
    assert_eq!(failure.worker, 1);
    match *failure.cause {
        RuntimeError::Pool { worker, ref detail } => {
            assert_eq!(worker, 1);
            assert!(detail.contains("over budget"), "detail: {detail}");
        }
        ref other => panic!("expected Pool, got {other}"),
    }
}

#[test]
fn invalid_options_fail_before_spawning() {
    let (sharded, shard_feeds) = shard(2);
    let cases: Vec<RunOptions> = vec![
        RunOptions { recv_timeout: Duration::ZERO, ..Default::default() },
        RunOptions { checkpoint: Some(CheckpointPolicy::every(0)), ..Default::default() },
        RunOptions {
            faults: FaultPlan::single(Fault::Kill { worker: 9, pos: 0 }),
            ..Default::default()
        },
        RunOptions {
            faults: FaultPlan::single(Fault::Message {
                src: 0,
                dst: 0,
                index: 0,
                action: MessageFault::Drop,
            }),
            ..Default::default()
        },
        // Message faults rely on the integrity checks to be detected; a
        // lowered integrity level must be rejected, not silently miss them.
        RunOptions {
            faults: FaultPlan::single(Fault::Message {
                src: 0,
                dst: 1,
                index: 0,
                action: MessageFault::Drop,
            }),
            integrity: IntegrityLevel::Fast,
            ..Default::default()
        },
    ];
    for opts in cases {
        let err = run_with_options(&sharded, &shard_feeds, &opts).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidOptions(_)), "got {err}");
    }
    let err = run_with_recovery(
        &sharded,
        &shard_feeds,
        &RunOptions::default(),
        &RecoveryOptions { max_attempts: 0, backoff: Duration::ZERO },
    )
    .unwrap_err();
    assert!(matches!(err, RuntimeError::InvalidOptions(_)), "got {err}");
}

#[test]
fn permanent_kill_defeats_fixed_width_retry() {
    let (sharded, shard_feeds) = shard(4);
    let every = (sharded.graph.num_nodes() / 4).max(1);
    let pos = sharded.worker_schedule(1).len() / 2;
    let opts = RunOptions {
        faults: FaultPlan::single_permanent(Fault::Kill { worker: 1, pos }),
        checkpoint: Some(CheckpointPolicy::every(every)),
        ..Default::default()
    };
    // The device is gone for good: every fixed-width attempt re-hits the
    // fault, and retry alone (no degrade ladder) must exhaust and surface
    // the same worker in the post-mortem.
    let err = run_with_recovery(
        &sharded,
        &shard_feeds,
        &opts,
        &RecoveryOptions { max_attempts: 3, backoff: Duration::ZERO },
    )
    .unwrap_err();
    let failure = expect_failed(err);
    assert_eq!(failure.worker, 1, "post-mortem names the dead device");

    // Sanity contrast: the same fault marked transient fires once, so the
    // identical retry budget recovers bit-identically.
    let baseline =
        run_with_options(&sharded, &shard_feeds, &RunOptions::default()).expect("healthy run");
    let transient = RunOptions {
        faults: FaultPlan::single(Fault::Kill { worker: 1, pos }),
        ..opts.clone()
    };
    let report = run_with_recovery(
        &sharded,
        &shard_feeds,
        &transient,
        &RecoveryOptions { max_attempts: 3, backoff: Duration::ZERO },
    )
    .expect("transient fault recovers");
    assert_bit_identical(&report.output.values, &baseline.values);
    assert_eq!(report.history.len(), 2, "one failed attempt, one success");
    assert!(report.history[1].ok);
}

#[test]
fn poisoned_checkpoint_is_refused_with_a_typed_error() {
    let (sharded, mut shard_feeds) = shard(2);
    // Poison one fed weight shard with a NaN; the integrity guard must
    // refuse to commit the first checkpoint rather than persist it.
    let victim = shard_feeds
        .iter_mut()
        .find(|(t, _)| sharded.graph.tensor(*t).name.contains('w'))
        .expect("some weight shard");
    victim.1.data_mut()[0] = f32::NAN;
    let poisoned_name = sharded.graph.tensor(victim.0).name.clone();
    let opts = RunOptions {
        checkpoint: Some(CheckpointPolicy::every(1)),
        ..Default::default()
    };
    let failure =
        expect_failed(run_with_options(&sharded, &shard_feeds, &opts).unwrap_err());
    // The poisoned worker ships its NaN leaf shard at startup, so the peer
    // can hit its own poison guard on a downstream tensor and win the abort
    // race — either way the first failure must be a typed PoisonedCheckpoint
    // naming a tensor, and the owner (when blamed) names the fed one.
    match *failure.cause {
        RuntimeError::PoisonedCheckpoint { worker, ref tensor, .. } => {
            assert!(!tensor.is_empty(), "error names the poisoned tensor");
            if tensor == &poisoned_name {
                assert_eq!(worker, failure.worker, "blame matches the post-mortem");
            }
        }
        ref other => panic!("expected PoisonedCheckpoint, got {other}"),
    }
}
