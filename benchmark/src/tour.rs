//! The per-layer ledger of a traced run: the workload's own graph, at the
//! workload's own width, walked through every layer from outside.
//!
//! Each time row is the floor of repeated calls into one public function
//! (at least five, fewer only when a single call takes seconds); each count
//! row is read from a public output (`RunTrace`, `ServeCounters`,
//! `Collector::totals`). Nothing here is gated — the rows say where an
//! end-to-end metric's time goes and which counts sit behind it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tofu_core::{
    coarsen, generate, node_strategies, partition, partition_cached, partition_with_obs,
    request_fingerprint, GenOptions, PartitionOptions, SearchCaches, ShapeView,
};
use tofu_graph::{plan_buffers, TensorId};
use tofu_obs::{Collector, Phase};
use tofu_runtime::{
    run_with_durable_recovery, run_with_options, run_with_recovery, CheckpointPolicy, CrashPoint,
    DurableOptions, Fault, FaultPlan, IntegrityLevel, MemStore, RecoveryOptions, RunOptions,
};
use tofu_serve::protocol::{encode_partition, encode_plan_response, fingerprint_hex};
use tofu_serve::{PlanClient, PlanServer, Request, Response, ServeConfig};
use tofu_tensor::Tensor;

use crate::inputs::Kind;
use crate::workloads::{
    execute_single, nonce, peak_device_bytes, scatter_all, secs, simulate, Oracle, Tracer,
};

/// Ledger rows by metric name.
pub type Rows = BTreeMap<&'static str, f64>;

/// Floor seconds of repeated calls to `f`, and the fastest call's result.
/// Repeats until five calls and 0.2 s are both spent, and stops early once a
/// row has cost 1.5 s (decoding the 313 KB LSTM request takes 0.8 s a call).
fn best_of<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let started = Instant::now();
    let mut best: Option<(f64, R)> = None;
    let mut calls = 0;
    loop {
        let t0 = Instant::now();
        let r = black_box(f());
        let dt = secs(t0);
        if best.as_ref().is_none_or(|(b, _)| dt < *b) {
            best = Some((dt, r));
        }
        calls += 1;
        let spent = secs(started);
        if (calls >= 5 && spent >= 0.2) || spent >= 1.5 {
            return best.expect("at least one call ran");
        }
    }
}

/// Times one row: the floor goes into `rows`, one benchmark-side span
/// covering all its calls into the trace.
fn row<R>(rows: &mut Rows, tracer: &Tracer, name: &'static str, f: impl FnMut() -> R) -> R {
    let start = tracer.main.now_us();
    let (best, r) = best_of(f);
    tracer.span(name, 0, start, tracer.main.now_us());
    rows.insert(name, best);
    r
}

fn bit_identical_subset(
    got: &BTreeMap<TensorId, Tensor>,
    want: &BTreeMap<TensorId, Tensor>,
) -> bool {
    got.iter().all(|(t, g)| {
        want.get(t).is_some_and(|w| {
            g.data()
                .iter()
                .map(|x| x.to_bits())
                .eq(w.data().iter().map(|x| x.to_bits()))
        })
    })
}

/// Walks every layer; `Err` when a layer's output is wrong.
pub fn tour(oracle: &Oracle, tracer: &Tracer) -> Result<Rows, String> {
    let mut rows = Rows::new();
    let r = &mut rows;
    let g = &oracle.model.graph;
    let opts = oracle.opts;
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("tour: {what}: {e}");

    // models
    let built = row(r, tracer, "models.build_s", || oracle.spec.model.build())?;
    r.insert("models.nodes", built.graph.num_nodes() as f64);

    // core: strategy discovery, coarsening, the search, plan generation
    let view = ShapeView::from_graph(g);
    let enumerated = row(r, tracer, "core.strategies_s", || {
        g.node_ids()
            .map(|id| node_strategies(g, id, &view).map_or(0, |s| s.len()))
            .sum::<usize>()
    });
    r.insert("core.strategies_enumerated", enumerated as f64);
    let coarse = row(r, tracer, "core.coarsen_s", || coarsen(g));
    r.insert("core.coarsen_groups", coarse.num_groups() as f64);
    row(r, tracer, "core.partition_s", || partition(g, &opts))
        .map_err(|e| fail("partition", &e))?;
    let search = Collector::new();
    partition_with_obs(g, &opts, Some(&search)).map_err(|e| fail("partition_with_obs", &e))?;
    let totals = search.totals();
    r.insert(
        "core.dp_states_explored",
        totals.get("dp/states_explored").copied().unwrap_or(0.0),
    );
    r.insert(
        "core.dp_prune_dominated",
        totals.get("dp/prune_dominated").copied().unwrap_or(0.0),
    );
    let mut caches = SearchCaches::new();
    partition_cached(g, &opts, &mut caches, None).map_err(|e| fail("partition_cached", &e))?;
    row(r, tracer, "core.partition_warm_s", || {
        partition_cached(g, &opts, &mut caches, None)
    })
    .map_err(|e| fail("partition_cached (warm)", &e))?;
    r.insert("core.plan_comm_bytes", oracle.plan.total_comm_bytes());
    let sharded = row(r, tracer, "core.generate_s", || {
        generate(g, &oracle.plan, &GenOptions::default())
    })
    .map_err(|e| fail("generate", &e))?;
    r.insert("core.sharded_nodes", sharded.graph.num_nodes() as f64);
    r.insert("core.comm_edges", oracle.edges as f64);
    row(r, tracer, "core.scatter_s", || {
        scatter_all(&sharded, &oracle.feeds)
    })?;
    let fp = row(r, tracer, "core.fingerprint_s", || {
        request_fingerprint(g, &opts)
    });

    // sim
    let sim = row(r, tracer, "sim.simulate_s", || simulate(&sharded, false));
    if sim.comm_bytes != oracle.edge_bytes as f64 {
        return Err(format!(
            "tour: simulated {} B, comm_edges() {} B",
            sim.comm_bytes, oracle.edge_bytes
        ));
    }
    r.insert("sim.comm_bytes", sim.comm_bytes);
    r.insert(
        "sim.compute_only_sim_ns",
        simulate(&sharded, true).makespan * 1e9,
    );
    row(r, tracer, "sim.memory_s", || peak_device_bytes(&sharded));

    let schedule0 = sharded.worker_schedule(0);
    row(r, tracer, "graph.plan_buffers_s", || {
        plan_buffers(&sharded.graph, &schedule0, true)
    });

    // serve: the four codec directions from outside, then a live server
    let request = row(r, tracer, "serve.encode_request_s", || {
        encode_partition(1, "tour", g, &opts, None)
    });
    r.insert("serve.request_bytes", request.len() as f64);
    row(r, tracer, "serve.decode_request_s", || {
        Request::from_bytes(&request)
    })
    .map_err(|e| fail("decode request", &e))?;
    let fp_hex = fingerprint_hex(fp);
    let response = row(r, tracer, "serve.encode_response_s", || {
        encode_plan_response(1, true, &fp_hex, &oracle.plan_json)
    });
    r.insert("serve.response_bytes", response.len() as f64);
    row(r, tracer, "serve.decode_response_s", || {
        Response::from_bytes(&response)
    })
    .map_err(|e| fail("decode response", &e))?;
    let solves = Collector::new();
    let cfg = ServeConfig {
        solver_threads: 1,
        collector: Some(solves.clone()),
        ..Default::default()
    };
    let server = PlanServer::bind("127.0.0.1:0", cfg).map_err(|e| fail("bind", &e))?;
    let mut client = PlanClient::connect(server.addr()).map_err(|e| fail("connect", &e))?;
    row(r, tracer, "serve.ping_s", || client.ping()).map_err(|e| fail("ping", &e))?;
    // Misses: the first is cold, the rest solve on a warm strategy memo.
    let mut k = 0;
    best_of(|| {
        k += 1;
        let miss = PartitionOptions {
            state_bound: opts.state_bound + nonce(oracle.seed, k),
            ..opts
        };
        client.partition("tour", g, &miss, None)
    })
    .1
    .map_err(|e| fail("miss", &e))?;
    let solve_s = solves
        .events()
        .iter()
        .filter_map(|e| match (e.cat, e.phase) {
            ("serve", Phase::Complete { dur_us }) => Some(dur_us * 1e-6),
            _ => None,
        })
        .fold(f64::INFINITY, f64::min);
    r.insert("serve.solve_s", solve_s);
    let miss1 = PartitionOptions {
        state_bound: opts.state_bound + nonce(oracle.seed, 1),
        ..opts
    };
    let (hit_s, served) = best_of(|| client.partition("tour", g, &miss1, None));
    let served = served.map_err(|e| fail("hit", &e))?;
    if !served.cached || served.plan.to_json() != oracle.plan_json {
        return Err("tour: repeated request was not a cache hit with the local plan".into());
    }
    let codec: f64 = [
        "serve.encode_request_s",
        "serve.decode_request_s",
        "core.fingerprint_s",
        "serve.encode_response_s",
        "serve.decode_response_s",
        "serve.ping_s",
    ]
    .iter()
    .map(|n| r[n])
    .sum();
    r.insert("serve.hit_residual_s", hit_s - codec);
    let c = server.counters();
    for (name, v) in [
        ("serve.hits", &c.hits),
        ("serve.misses", &c.misses),
        ("serve.joined", &c.joined),
        ("serve.rejected", &c.rejected),
    ] {
        r.insert(name, v.load(Ordering::Relaxed) as f64);
    }
    drop(client);
    server.shutdown();

    if oracle.spec.kind == Kind::Step {
        step_rows(oracle, tracer, r)?;
    }
    Ok(rows)
}

/// The rows only a step workload has (see [`crate::schema::STEP_ONLY`]):
/// the plain single-device baseline, the floor step and its breakdown, and
/// the runtime used differently, one extra run each.
fn step_rows(oracle: &Oracle, tracer: &Tracer, r: &mut Rows) -> Result<(), String> {
    let g = &oracle.model.graph;
    let sharded = &oracle.sharded;
    let shard_feeds = scatter_all(sharded, &oracle.feeds)?;
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("tour: {what}: {e}");

    row(r, tracer, "graph.exec_single_s", || {
        execute_single(&oracle.model, &oracle.feeds)
    })?;

    // The floor step untraced, and what its `RunTrace` says about it.
    let fast = RunOptions {
        integrity: IntegrityLevel::Fast,
        ..Default::default()
    };
    let healthy = row(r, tracer, "runtime.step_s", || {
        run_with_options(sharded, &shard_feeds, &fast)
    })
    .map_err(|e| fail("run_with_options", &e))?;
    let step_s = r["runtime.step_s"];
    let trace = &healthy.trace;
    if trace.comm_bytes() != oracle.edge_bytes {
        return Err(format!(
            "tour: runtime moved {} B, comm_edges() {} B",
            trace.comm_bytes(),
            oracle.edge_bytes
        ));
    }
    let busy: Vec<f64> = trace.workers.iter().map(|w| w.busy.as_secs_f64()).collect();
    r.insert("runtime.busy_s", busy.iter().copied().fold(0.0, f64::max));
    r.insert(
        "runtime.idle_share",
        1.0 - busy.iter().sum::<f64>() / (busy.len() as f64 * trace.wall.as_secs_f64()),
    );
    r.insert("runtime.ops_executed", trace.ops_executed() as f64);
    r.insert(
        "runtime.us_per_op",
        step_s / trace.ops_executed().max(1) as f64 * 1e6,
    );
    r.insert(
        "runtime.messages",
        trace.links.iter().map(|l| l.messages).sum::<u64>() as f64,
    );
    r.insert("runtime.comm_bytes", trace.comm_bytes() as f64);
    r.insert(
        "runtime.transport_copy_bytes",
        trace
            .workers
            .iter()
            .map(|w| w.transport_copy_bytes)
            .sum::<u64>() as f64,
    );
    r.insert(
        "runtime.pool_peak_bytes",
        trace
            .workers
            .iter()
            .map(|w| w.pool_peak_bytes)
            .max()
            .unwrap_or(0) as f64,
    );
    // Recv waits are spans, so they come from traced steps: the floor, over
    // a few steps, of the longest any one worker waited.
    let (_, recv_wait) = best_of(|| {
        let spans = Collector::new();
        let traced = RunOptions {
            collector: Some(spans.clone()),
            ..fast.clone()
        };
        run_with_options(sharded, &shard_feeds, &traced).map(|_| {
            let mut waited = vec![0.0f64; sharded.workers];
            for e in spans.events() {
                if let (Phase::Complete { dur_us }, "wait", Some(d)) =
                    (e.phase, e.cat, e.track.device())
                {
                    waited[d] += dur_us * 1e-6;
                }
            }
            waited.iter().copied().fold(0.0, f64::max)
        })
    });
    r.insert(
        "runtime.recv_wait_s",
        recv_wait.map_err(|e| fail("traced step", &e))?,
    );
    let healthy = &healthy.values;

    let full = RunOptions {
        integrity: IntegrityLevel::Full,
        ..Default::default()
    };
    row(r, tracer, "runtime.step_full_s", || {
        run_with_options(sharded, &shard_feeds, &full)
    })
    .map_err(|e| fail("Full step", &e))?;

    let plan1 = partition(
        g,
        &PartitionOptions {
            workers: 1,
            ..oracle.opts
        },
    )
    .map_err(|e| fail("partition w=1", &e))?;
    let sharded1 =
        generate(g, &plan1, &GenOptions::default()).map_err(|e| fail("generate w=1", &e))?;
    let feeds1 = scatter_all(&sharded1, &oracle.feeds)?;
    row(r, tracer, "runtime.step_w1_s", || {
        run_with_options(&sharded1, &feeds1, &fast)
    })
    .map_err(|e| fail("w=1 step", &e))?;

    let quarter = (sharded.graph.num_nodes() / 4).max(1);
    let ckpt = RunOptions {
        checkpoint: Some(CheckpointPolicy::every(quarter)),
        ..fast.clone()
    };
    row(r, tracer, "runtime.step_ckpt_s", || {
        run_with_options(sharded, &shard_feeds, &ckpt)
    })
    .map_err(|e| fail("checkpointed step", &e))?;

    let killed = RunOptions {
        faults: FaultPlan::single(Fault::Kill {
            worker: 1,
            pos: sharded.worker_schedule(1).len() / 2,
        }),
        recv_timeout: Duration::from_secs(5),
        ..ckpt.clone()
    };
    let retry = RecoveryOptions {
        max_attempts: 3,
        backoff: Duration::from_millis(1),
        ..Default::default()
    };
    let report = row(r, tracer, "runtime.recover_s", || {
        run_with_recovery(sharded, &shard_feeds, &killed, &retry)
    })
    .map_err(|e| fail("run_with_recovery", &e))?;
    if report.attempts < 2 || !bit_identical_subset(healthy, &report.output.values) {
        return Err("tour: recovery after an injected kill was not bit-identical".into());
    }

    let quarter_orig = (g.num_nodes() / 4).max(1);
    let durable_opts = RunOptions {
        checkpoint: Some(CheckpointPolicy::every_original(quarter_orig)),
        ..fast
    };
    let mut caches = SearchCaches::new();
    let mut write_s = f64::INFINITY;
    let report = row(r, tracer, "durable.recover_s", || {
        let durable = DurableOptions {
            crash: Some(CrashPoint::AfterCommit(2)),
            ..DurableOptions::new(Arc::new(MemStore::new()))
        };
        let report = run_with_durable_recovery(
            g,
            &oracle.feeds,
            &oracle.opts,
            &durable_opts,
            &durable,
            &mut caches,
        );
        if let Ok(rep) = &report {
            write_s = write_s.min(rep.write_wall.as_secs_f64());
        }
        report
    })
    .map_err(|e| fail("run_with_durable_recovery", &e))?;
    r.insert("durable.write_s", write_s);
    if report.crashed.is_none() || !bit_identical_subset(&report.output.values, healthy) {
        return Err("tour: restart after a process crash was not bit-identical".into());
    }
    Ok(())
}
