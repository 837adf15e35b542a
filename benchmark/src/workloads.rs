//! Set-up, operation and output check of each workload.
//!
//! Everything here reaches the program through the crates' public
//! functions only. An [`Oracle`] is built once per run, untimed: it holds
//! the references the checks compare against (local plan bytes, the
//! single-device executor's values, the simulator's bytes), so a set-up can
//! start from fresh state every time and a wrong output never depends on
//! the path being timed.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::Instant;

use tofu_core::{
    generate, partition, partition_cached, partition_with_obs, GenOptions, PartitionOptions,
    PartitionPlan, SearchCaches, ShardedGraph,
};
use tofu_graph::{Executor, TensorId};
use tofu_models::BuiltModel;
use tofu_obs::{Arg, Collector, Event, Phase, Track, PID_CONTROL};
use tofu_runtime::{run_with_options, IntegrityLevel, RunOptions};
use tofu_serve::{plan_to_json, PlanClient, PlanServer, ServeConfig};
use tofu_sim::{
    per_device_memory, run_partitioned, simulate_with_leaf_devices, Machine, SimResult,
    TofuSimOptions,
};
use tofu_tensor::Tensor;

use crate::inputs::{feeds, Kind, Rng, Spec};

/// Seconds between two instants of the run's clock.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Span sink of a traced run. The benchmark's own spans — one around each
/// call into a layer, tagged with the operation's number — go on one lane;
/// what the layers record themselves (runtime op spans, search steps, serve
/// solves) is merged in for the first few operations only, so the written
/// trace stays a few megabytes on the 6,320-node workload.
pub struct Tracer {
    /// Everything the trace file will hold.
    pub main: Collector,
    absorbed: Cell<u32>,
}

/// Operations whose layer-internal spans are kept in the trace file.
const KEEP_INNER_OPS: u32 = 3;

impl Tracer {
    /// A sink whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            main: Collector::new(),
            absorbed: Cell::new(0),
        }
    }

    /// Records the benchmark-side span `[start_us, end_us)` of operation `op`.
    pub fn span(&self, name: &str, op: u64, start_us: f64, end_us: f64) {
        self.main.record(Event {
            name: name.to_string(),
            cat: "bench",
            ts_us: start_us,
            track: Track {
                pid: PID_CONTROL,
                tid: 1,
            },
            phase: Phase::Complete {
                dur_us: (end_us - start_us).max(0.0),
            },
            args: vec![("op", Arg::U64(op))],
        });
    }

    /// Merges what a layer recorded into `inner` (whose clock started at
    /// `offset_us` on this sink's clock) for the first few operations.
    pub fn absorb(&self, inner: &Collector, offset_us: f64) {
        if self.absorbed.get() >= KEEP_INNER_OPS {
            return;
        }
        self.absorbed.set(self.absorbed.get() + 1);
        let mut events = inner.events();
        for e in &mut events {
            e.ts_us += offset_us;
        }
        self.main.record_all(events);
    }
}

/// The untimed references of one run.
pub struct Oracle {
    /// The workload.
    pub spec: Spec,
    /// The run's seed.
    pub seed: u64,
    /// The model, built once for the references.
    pub model: BuiltModel,
    /// The workload's partition request.
    pub opts: PartitionOptions,
    /// A local `partition_cached` of that request.
    pub plan: PartitionPlan,
    /// Its canonical bytes, which every served or re-searched plan must equal.
    pub plan_json: String,
    /// `generate` of the local plan.
    pub sharded: ShardedGraph,
    /// Sum of `comm_edges()` bytes of that graph.
    pub edge_bytes: u64,
    /// Number of `comm_edges()`.
    pub edges: usize,
    /// `simulate_with_leaf_devices` on `Machine::p2_8xlarge()`.
    pub sim: SimResult,
    /// Largest per-device peak of `per_device_memory`.
    pub peak_device_bytes: u64,
    /// The seed's feeds for the original graph.
    pub feeds: Vec<(TensorId, Tensor)>,
    /// `Executor::run` on those feeds (step workloads only: it costs 3 s on
    /// WResNet, where nothing compares against it).
    pub baseline: Option<BTreeMap<TensorId, Tensor>>,
}

/// The simulator's view of a sharded graph: one step on the paper's machine.
pub fn simulate(sharded: &ShardedGraph, free_transfers: bool) -> SimResult {
    simulate_with_leaf_devices(
        &sharded.graph,
        &sharded.device_of_node,
        &sharded.device_of_tensor,
        &Machine::p2_8xlarge(),
        free_transfers,
    )
}

/// Largest per-device peak bytes of a sharded graph (buffer reuse on, the
/// 3W optimizer rule).
pub fn peak_device_bytes(sharded: &ShardedGraph) -> u64 {
    per_device_memory(
        &sharded.graph,
        &sharded.device_of_node,
        Machine::p2_8xlarge().gpus,
        true,
        1.0,
    )
    .iter()
    .map(|m| m.peak_bytes)
    .max()
    .unwrap_or(0)
}

/// Unpartitioned single-device execution of the model on `feeds`.
pub fn execute_single(
    model: &BuiltModel,
    feeds: &[(TensorId, Tensor)],
) -> Result<BTreeMap<TensorId, Tensor>, String> {
    let mut exec = Executor::new();
    for (t, v) in feeds {
        exec.feed(*t, v.clone());
    }
    exec.run(&model.graph)
        .map_err(|e| format!("Executor::run: {e}"))
}

/// Splits the original feeds into per-worker shard feeds.
pub fn scatter_all(
    sharded: &ShardedGraph,
    feeds: &[(TensorId, Tensor)],
) -> Result<Vec<(TensorId, Tensor)>, String> {
    let mut out = Vec::new();
    for (t, v) in feeds {
        out.extend(
            sharded
                .scatter(*t, v)
                .map_err(|e| format!("scatter: {e}"))?,
        );
    }
    Ok(out)
}

impl Oracle {
    /// Builds the references; fails when the layers disagree with each
    /// other (simulated bytes must equal the `comm_edges()` sum exactly).
    pub fn build(spec: Spec, seed: u64) -> Result<Oracle, String> {
        let model = spec.model.build()?;
        let opts = PartitionOptions {
            workers: spec.workers,
            ..Default::default()
        };
        let mut caches = SearchCaches::new();
        let plan = partition_cached(&model.graph, &opts, &mut caches, None)
            .map_err(|e| format!("partition_cached: {e}"))?;
        let plan_json = plan_to_json(&plan).to_json();
        if spec.kind == Kind::ServeMiss {
            // The miss workload varies `state_bound` to defeat the caches;
            // that is only a fair miss if the bound never changes the plan.
            let probe = PartitionOptions {
                state_bound: opts.state_bound + nonce(seed, 0),
                ..opts
            };
            let other = partition_cached(&model.graph, &probe, &mut caches, None)
                .map_err(|e| format!("partition_cached (nonce): {e}"))?;
            if plan_to_json(&other).to_json() != plan_json {
                return Err("state_bound changed the plan: serve_miss is not a pure miss".into());
            }
        }
        let sharded = generate(&model.graph, &plan, &GenOptions::default())
            .map_err(|e| format!("generate: {e}"))?;
        let comm = sharded.comm_edges();
        let edge_bytes: u64 = comm.iter().map(|e| e.bytes()).sum();
        let sim = simulate(&sharded, false);
        if sim.comm_bytes != edge_bytes as f64 {
            return Err(format!(
                "simulator moved {} B but comm_edges() sum to {edge_bytes} B",
                sim.comm_bytes
            ));
        }
        let feeds = feeds(&model.graph, seed);
        let baseline = match spec.kind {
            Kind::Step => Some(execute_single(&model, &feeds)?),
            _ => None,
        };
        Ok(Oracle {
            spec,
            seed,
            opts,
            plan_json,
            edge_bytes,
            edges: comm.len(),
            peak_device_bytes: peak_device_bytes(&sharded),
            sim,
            sharded,
            plan,
            feeds,
            baseline,
            model,
        })
    }
}

/// The `k`-th miss nonce of a seed: an odd-multiplier walk over 2^20
/// values, so no two operations of a run share one and the seed sets the
/// order.
pub fn nonce(seed: u64, k: u64) -> usize {
    let mut rng = Rng::new(seed, 0x6e6f_6e63);
    let (a, b) = (rng.next() | 1, rng.next());
    1 + (a.wrapping_mul(k).wrapping_add(b) & 0xf_ffff) as usize
}

/// A workload set up and ready for timed operations.
pub trait Workload {
    /// Runs operation number `k` and checks its output. `Ok` carries the
    /// seconds the program's calls took (the check is outside them); `Err`
    /// says what was wrong, and the operation then counts as failed.
    fn op(&mut self, k: u64, tracer: Option<&Tracer>) -> Result<f64, String>;

    /// Checks the set-up's first operation against the oracle where that
    /// takes long enough to distort `setup_s` (step workloads). Called once,
    /// after the last set-up, outside every timer.
    fn check_first(&self) -> Result<(), String> {
        Ok(())
    }

    /// `comm_bytes` as this workload observes it: runtime-measured where a
    /// step runs, the `comm_edges()` sum of the set-up's graph otherwise.
    fn comm_bytes(&self) -> u64;

    /// Plan-service counters `(requests, hits, misses, joined, rejected)`.
    fn serve_counters(&self) -> Option<[u64; 5]> {
        None
    }
}

/// One complete set-up from fresh state, warm-up operations included.
/// `first_op` numbers the first warm-up; operation numbers label spans and
/// pick miss nonces, so a run never reuses one.
pub fn setup<'a>(
    oracle: &'a Oracle,
    first_op: u64,
    tracer: Option<&Tracer>,
) -> Result<Box<dyn Workload + 'a>, String> {
    let mut w: Box<dyn Workload + 'a> = match oracle.spec.kind {
        Kind::PlanCold => Box::new(PlanCold::setup(oracle)?),
        Kind::Step => Box::new(Step::setup(oracle)?),
        Kind::ServeHit | Kind::ServeMiss => Box::new(Serve::setup(oracle, tracer)?),
    };
    for k in first_op..first_op + oracle.spec.warmup {
        w.op(k, tracer)
            .map_err(|e| format!("warm-up op {k}: {e}"))?;
    }
    Ok(w)
}

// ---------------------------------------------------------------------------
// plan_cold
// ---------------------------------------------------------------------------

struct PlanCold<'a> {
    oracle: &'a Oracle,
    model: BuiltModel,
    machine: Machine,
    /// Plan bytes of the set-up's cold search; every operation must repeat them.
    plan_json: String,
    /// `comm_edges()` sum of the set-up's `generate`.
    edge_bytes: u64,
}

impl<'a> PlanCold<'a> {
    fn setup(oracle: &'a Oracle) -> Result<PlanCold<'a>, String> {
        let model = oracle.spec.model.build()?;
        let plan = partition(&model.graph, &oracle.opts).map_err(|e| format!("partition: {e}"))?;
        let plan_json = plan_to_json(&plan).to_json();
        if plan_json != oracle.plan_json {
            return Err("cold plan differs from the local partition_cached".into());
        }
        let sharded = generate(&model.graph, &plan, &GenOptions::default())
            .map_err(|e| format!("generate: {e}"))?;
        let edge_bytes = sharded.comm_edges().iter().map(|e| e.bytes()).sum();
        Ok(PlanCold {
            oracle,
            model,
            machine: Machine::p2_8xlarge(),
            plan_json,
            edge_bytes,
        })
    }
}

impl Workload for PlanCold<'_> {
    fn op(&mut self, k: u64, tracer: Option<&Tracer>) -> Result<f64, String> {
        let g = &self.model.graph;
        let inner = tracer.map(|t| (Collector::new(), t.main.now_us()));
        let t0 = Instant::now();
        // `partition` is `partition_with_obs(.., None)`: fresh caches each call.
        let plan = partition_with_obs(g, &self.oracle.opts, inner.as_ref().map(|(c, _)| c))
            .map_err(|e| format!("partition: {e}"))?;
        let t_plan = secs(t0);
        let run = run_partitioned(
            g,
            &plan,
            self.model.batch,
            &self.machine,
            &TofuSimOptions::default(),
        )
        .map_err(|e| format!("run_partitioned: {e}"))?;
        let dt = secs(t0);
        if let (Some(t), Some((c, start))) = (tracer, &inner) {
            t.span("core.partition", k, *start, start + t_plan * 1e6);
            t.span(
                "sim.run_partitioned",
                k,
                start + t_plan * 1e6,
                start + dt * 1e6,
            );
            t.absorb(c, *start);
        }
        if plan_to_json(&plan).to_json() != self.plan_json {
            return Err("plan bytes differ from the set-up's plan".into());
        }
        if run.comm_bytes != self.edge_bytes as f64 {
            return Err(format!(
                "simulated {} B, set-up's comm_edges() sum to {} B",
                run.comm_bytes, self.edge_bytes
            ));
        }
        Ok(dt)
    }

    fn comm_bytes(&self) -> u64 {
        self.edge_bytes
    }
}

// ---------------------------------------------------------------------------
// step_compute, step_comm
// ---------------------------------------------------------------------------

/// A 4-lane multiply-xor hash over every value's bit pattern, in tensor-id
/// order: equal exactly when two steps produced bit-identical values.
fn bits_hash(values: &BTreeMap<TensorId, Tensor>) -> u64 {
    const P: u64 = 0x0000_0100_0000_01b3;
    let mut lanes = [
        0xcbf2_9ce4_8422_2325u64,
        0x9e37_79b9_7f4a_7c15,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
    ];
    for (t, v) in values {
        lanes[0] = (lanes[0] ^ t.0 as u64).wrapping_mul(P);
        let mut chunks = v.data().chunks_exact(4);
        for c in &mut chunks {
            for (lane, x) in lanes.iter_mut().zip(c) {
                *lane = (*lane ^ u64::from(x.to_bits())).wrapping_mul(P);
            }
        }
        for x in chunks.remainder() {
            lanes[1] = (lanes[1] ^ u64::from(x.to_bits())).wrapping_mul(P);
        }
    }
    lanes.iter().fold(0, |h, l| (h ^ l).wrapping_mul(P))
}

struct Step<'a> {
    oracle: &'a Oracle,
    model: BuiltModel,
    sharded: ShardedGraph,
    shard_feeds: Vec<(TensorId, Tensor)>,
    /// Values and hash of the set-up's first step.
    first: Option<(BTreeMap<TensorId, Tensor>, u64)>,
    /// Bytes the last step moved between workers (`RunTrace::comm_bytes`).
    moved: u64,
}

impl<'a> Step<'a> {
    fn setup(oracle: &'a Oracle) -> Result<Step<'a>, String> {
        let model = oracle.spec.model.build()?;
        let plan = partition(&model.graph, &oracle.opts).map_err(|e| format!("partition: {e}"))?;
        let sharded = generate(&model.graph, &plan, &GenOptions::default())
            .map_err(|e| format!("generate: {e}"))?;
        let shard_feeds = scatter_all(&sharded, &feeds(&model.graph, oracle.seed))?;
        Ok(Step {
            oracle,
            model,
            sharded,
            shard_feeds,
            first: None,
            moved: 0,
        })
    }
}

impl Workload for Step<'_> {
    fn op(&mut self, k: u64, tracer: Option<&Tracer>) -> Result<f64, String> {
        let inner = tracer.map(|t| (Collector::new(), t.main.now_us()));
        let opts = RunOptions {
            integrity: IntegrityLevel::Fast,
            collector: inner.as_ref().map(|(c, _)| c.clone()),
            ..Default::default()
        };
        let t0 = Instant::now();
        let out = run_with_options(&self.sharded, &self.shard_feeds, &opts)
            .map_err(|e| format!("run_with_options: {e}"))?;
        let dt = secs(t0);
        if let (Some(t), Some((c, start))) = (tracer, &inner) {
            t.span("runtime.run_with_options", k, *start, start + dt * 1e6);
            t.absorb(c, *start);
        }
        self.moved = out.trace.comm_bytes();
        if self.moved as f64 != self.oracle.sim.comm_bytes {
            return Err(format!(
                "runtime moved {} B, simulator predicts {} B",
                self.moved, self.oracle.sim.comm_bytes
            ));
        }
        let hash = bits_hash(&out.values);
        match &self.first {
            None => self.first = Some((out.values, hash)),
            Some((_, first)) if *first != hash => {
                return Err("step values are not bit-identical to the first step".into())
            }
            Some(_) => {}
        }
        Ok(dt)
    }

    fn check_first(&self) -> Result<(), String> {
        let (values, _) = self.first.as_ref().ok_or("no step ran during set-up")?;
        let baseline = self
            .oracle
            .baseline
            .as_ref()
            .ok_or("oracle has no executor baseline")?;
        // One worker repeats the executor's op sequence; more re-associate
        // f32 sums in partitioned reductions.
        let tol = if self.sharded.workers == 1 {
            1e-6
        } else {
            1e-4
        };
        let outputs =
            std::iter::once(self.model.loss).chain(self.model.grads.iter().map(|&(_, gw)| gw));
        for t in outputs {
            let expect = &baseline[&t];
            let got = self
                .sharded
                .gather(t, expect.shape(), values)
                .map_err(|e| format!("gather: {e}"))?;
            if !got.allclose(expect, tol) {
                return Err(format!(
                    "tensor {} is not within {tol} of Executor::run",
                    self.model.graph.tensor(t).name
                ));
            }
        }
        Ok(())
    }

    fn comm_bytes(&self) -> u64 {
        self.moved
    }
}

// ---------------------------------------------------------------------------
// serve_hit, serve_miss
// ---------------------------------------------------------------------------

struct Serve<'a> {
    oracle: &'a Oracle,
    model: BuiltModel,
    // Declared before the server so the connection closes first.
    client: PlanClient,
    server: PlanServer,
    tenants: [String; 3],
    rng: Rng,
}

impl<'a> Serve<'a> {
    fn setup(oracle: &'a Oracle, tracer: Option<&Tracer>) -> Result<Serve<'a>, String> {
        let model = oracle.spec.model.build()?;
        // One solver thread: client and solver alternate, so at most one
        // thread is runnable besides the blocked one.
        let cfg = ServeConfig {
            solver_threads: 1,
            collector: tracer.map(|t| t.main.clone()),
            ..Default::default()
        };
        let server = PlanServer::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
        let client = PlanClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let mut rng = Rng::new(oracle.seed, 0x7465_6e61);
        let tenants = [0; 3].map(|_| format!("tenant-{:04x}", rng.next() & 0xffff));
        let mut serve = Serve {
            oracle,
            model,
            client,
            server,
            tenants,
            rng,
        };
        if oracle.spec.kind == Kind::ServeHit {
            // The priming request: the cold miss every later hit reads.
            let served = serve
                .client
                .partition("prime", &serve.model.graph, &oracle.opts, None)
                .map_err(|e| format!("priming request: {e}"))?;
            if served.cached || served.plan.to_json() != oracle.plan_json {
                return Err("priming request was cached or returned a different plan".into());
            }
        }
        Ok(serve)
    }
}

impl Workload for Serve<'_> {
    fn op(&mut self, k: u64, tracer: Option<&Tracer>) -> Result<f64, String> {
        let hit = self.oracle.spec.kind == Kind::ServeHit;
        let tenant = &self.tenants[(self.rng.next() % 3) as usize];
        let mut opts = self.oracle.opts;
        if !hit {
            // Hashed into the request and step-plan keys, never binding: a
            // full miss of identical cost on a warm strategy memo.
            opts.state_bound += nonce(self.oracle.seed, k);
        }
        let start = tracer.map(|t| t.main.now_us());
        let t0 = Instant::now();
        let served = self
            .client
            .partition(tenant, &self.model.graph, &opts, None)
            .map_err(|e| format!("partition request: {e}"))?;
        let dt = secs(t0);
        if let (Some(t), Some(start)) = (tracer, start) {
            t.span("serve.client.partition", k, start, start + dt * 1e6);
        }
        if served.cached != hit {
            return Err(format!("cached == {}, expected {hit}", served.cached));
        }
        if served.plan.to_json() != self.oracle.plan_json {
            return Err("served plan bytes differ from the local partition_cached".into());
        }
        Ok(dt)
    }

    fn comm_bytes(&self) -> u64 {
        self.oracle.edge_bytes
    }

    fn serve_counters(&self) -> Option<[u64; 5]> {
        let c = self.server.counters();
        Some(
            [&c.requests, &c.hits, &c.misses, &c.joined, &c.rejected]
                .map(|a| a.load(Ordering::Relaxed)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofu_tensor::Shape;

    #[test]
    fn nonces_are_distinct_within_a_run_and_ordered_by_seed() {
        let a: Vec<usize> = (0..2000).map(|k| nonce(1, k)).collect();
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len());
        assert!(a.iter().all(|&n| n >= 1));
        assert_ne!(a[..8], (0..8).map(|k| nonce(2, k)).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn bits_hash_sees_a_single_flipped_bit() {
        let t = |v: Vec<f32>| Tensor::from_vec(Shape::new(vec![v.len()]), v).unwrap();
        let a = BTreeMap::from([(TensorId(0), t(vec![1.0, 2.0, 3.0, 4.0, 5.0]))]);
        let mut flipped = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        flipped[4] = f32::from_bits(5.0f32.to_bits() ^ 1);
        let b = BTreeMap::from([(TensorId(0), t(flipped))]);
        assert_eq!(bits_hash(&a), bits_hash(&a.clone()));
        assert_ne!(bits_hash(&a), bits_hash(&b));
    }
}
