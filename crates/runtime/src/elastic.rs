//! Bidirectional elastic recovery: survive permanent device loss by
//! re-partitioning onto the survivors, and grow back onto rejoining devices
//! at a checkpoint barrier — resharding progress across every width change.
//!
//! This module holds the *policy* side — [`ElasticPolicy`], the transition
//! and report types, and width selection ([`select_width`]) — plus the
//! [`run_with_elastic_recovery`] adaptor. The ladder itself is the crate's
//! one recovery supervisor (`supervisor.rs`; DESIGN.md "Failure model → The
//! recovery supervisor" has the state diagram). The transitions an
//! [`ElasticPolicy`] turns on:
//!
//! - **Shrink.** When a width exhausts its attempts, the worker the last
//!   failure blames is classified as *permanently lost*: its physical
//!   device leaves the fleet, the partition search re-runs for the survivor
//!   count through [`partition_cached`] (warm [`SearchCaches`] make the
//!   replan a cache lookup, not a cold search), the last consistent
//!   checkpoint is reassembled into a plan-independent
//!   [`FullSnapshot`](crate::FullSnapshot) and resharded onto the new plan,
//!   and execution resumes at the same original-graph barrier.
//! - **Grow.** When the [`ChurnPlan`](crate::ChurnPlan) announces a
//!   (re)joining device, the run *yields*: every worker stops cleanly right
//!   after recording the next checkpoint barrier at or past the join's
//!   `at_ckpt` plus the policy's `grow_hysteresis`. The pause barrier is
//!   consistent by construction, so it is harvested into the carried
//!   snapshot, the device enters the fleet, and the search re-selects the
//!   widest feasible worker count ≤ the new capacity — resuming bit-exact
//!   at the grown width.
//! - **Capacity tracking with spares.** Not every device count is a
//!   feasible width (no tensor dimension may divide by it) and the policy
//!   may cap width; width selection steps down to the widest worker count
//!   the search can actually split — surplus devices idle as *spares* and
//!   are folded back in at the next transition.
//! - **Typed surrender.** When the policy forbids any feasible width the
//!   ladder ends with [`RuntimeError::Unrecoverable`] naming the whole
//!   width ladder, every lost device and the terminal cause — never a
//!   hang.
//!
//! Fault worker indices name **physical** devices: active workers keep
//! their physical identity across transitions (`devices[logical] =
//! physical`), so a permanent fault follows its device through shrinks,
//! spares and rejoins, while faults on survivors keep firing at any width.

use std::time::{Duration, Instant};

use tofu_core::{
    generate, partition_cached, CoreError, GenOptions, PartitionOptions, PartitionPlan,
    SearchCaches, ShardedGraph,
};
use tofu_graph::{plan_buffers, Graph, TensorId};
use tofu_obs::{Collector, Track};
use tofu_tensor::Tensor;

use crate::checkpoint::{AttemptRecord, RecoveryOptions};
use crate::error::{RunFailure, RuntimeError};
use crate::reshard::FullSnapshot;
use crate::supervisor::{supervise, PlanSource};
use crate::{Result, RunOptions, RunOutput};

/// Bounds on how far elastic recovery may reshape the worker set, in both
/// directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElasticPolicy {
    /// Fewest active workers the run may degrade to (inclusive; values
    /// below 1 mean 1).
    pub min_workers: usize,
    /// Most active workers a grow may reach (inclusive). Joining devices
    /// beyond the cap are kept as spares.
    pub max_workers: usize,
    /// Maximum number of shrink events (device removals).
    pub max_shrink_steps: usize,
    /// Maximum number of grow events (width increases). Joins past the cap
    /// are absorbed as spares.
    pub max_grow_steps: usize,
    /// Extra checkpoint barriers to wait past a join's `at_ckpt` before
    /// pausing the run to grow. Growing costs a yield + reshard + resume;
    /// hysteresis keeps a flapping device from buying that cost the moment
    /// it reappears, and — because the effective barrier is
    /// `clamp(at_ckpt + hysteresis, next-barrier ..= last-barrier)` —
    /// the grow point stays deterministic for a given plan.
    pub grow_hysteresis: usize,
    /// Per-device byte budget every candidate plan's static footprint
    /// (buffer-plan peak + persistent shards, the bytes the pools will
    /// actually hold) is checked against; over-budget widths are stepped
    /// past like infeasible ones.
    pub per_device_budget: Option<u64>,
}

impl Default for ElasticPolicy {
    fn default() -> Self {
        ElasticPolicy {
            min_workers: 1,
            max_workers: usize::MAX,
            max_shrink_steps: usize::MAX,
            max_grow_steps: usize::MAX,
            grow_hysteresis: 0,
            per_device_budget: None,
        }
    }
}

/// What kind of fleet transition a ladder step was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionKind {
    /// A device was lost and the active width stepped down.
    Shrink,
    /// A device joined and the active width stepped up.
    Grow,
    /// A device joined but the width could not increase (policy cap or no
    /// wider feasible width): it idles as a spare.
    SpareJoin,
    /// A scripted leave hit a device that was not active (a spare): the
    /// fleet shrank but the running width did not change.
    SpareLoss,
}

/// One fleet transition of an elastic run, with its recovery-latency
/// breakdown: detect (failure observation, shrinks only) → replan
/// (partition search at the new width, warm or cold) → reshard (snapshot
/// scatter onto the new plan) → resume (first attempt at the new width).
#[derive(Debug, Clone)]
pub struct ElasticTransition {
    /// What happened.
    pub kind: TransitionKind,
    /// Physical device that left or joined.
    pub device: usize,
    /// Active width before the transition.
    pub from_width: usize,
    /// Active width after it.
    pub to_width: usize,
    /// Checkpoint barrier the transition happened at: the yield barrier for
    /// grows, the carried snapshot's barrier for shrinks (`None` = the new
    /// width started from scratch).
    pub at_ckpt: Option<usize>,
    /// Slowest peer abort-detection latency of the triggering failure
    /// (shrinks only; grows are voluntary).
    pub detection: Option<Duration>,
    /// Partition-search time for the new width (includes stepped-past
    /// infeasible probes, excludes program lowering — lowering costs the
    /// same warm or cold).
    pub replan: Option<Duration>,
    /// Whether the new width's plan came out of the warm request memo.
    pub replan_warm: bool,
    /// Snapshot reshard time onto the new plan.
    pub reshard: Option<Duration>,
    /// Bytes of full-tensor snapshot moved by that reshard.
    pub reshard_bytes: u64,
    /// Wall-clock of the first attempt at the new width.
    pub resume_wall: Option<Duration>,
}

/// What an elastic run hands back: the final output plus the whole ladder's
/// history. `output.values` is keyed by `sharded`'s tensor ids — gather
/// originals with [`ShardedGraph::gather`] on the returned `sharded`.
#[derive(Debug)]
pub struct ElasticReport {
    /// The successful run's output, on the final worker set.
    pub output: RunOutput,
    /// The sharded graph of the final (successful) plan.
    pub sharded: ShardedGraph,
    /// The final partition plan.
    pub plan: PartitionPlan,
    /// Active physical devices of the final width, in logical-worker order.
    pub devices: Vec<usize>,
    /// Fleet members idling as spares at the end (in the fleet but not
    /// active: policy caps or no feasible width used them).
    pub spares: Vec<usize>,
    /// Physical devices classified as permanently lost, in loss order.
    pub lost: Vec<usize>,
    /// Physical devices that (re)joined the fleet, in join order.
    pub joined: Vec<usize>,
    /// Worker counts attempted, ladder order (full width first).
    pub widths: Vec<usize>,
    /// Total attempts consumed across all widths.
    pub attempts: usize,
    /// The failure of every aborted attempt, in order.
    pub failures: Vec<RunFailure>,
    /// Per attempt: the checkpoint it resumed from (`None` = from scratch).
    pub resumed_from: Vec<Option<usize>>,
    /// Per attempt: worker set, resume point and latency breakdown.
    pub history: Vec<AttemptRecord>,
    /// Every fleet transition (shrink/grow/spare) with its detect → replan
    /// → reshard → resume latency split.
    pub transitions: Vec<ElasticTransition>,
    /// The plan-independent snapshot the final width resumed from, if any —
    /// feed it to [`resume_from_snapshot`](crate::resume_from_snapshot) at
    /// the final width to reproduce the output bit for bit.
    pub snapshot: Option<FullSnapshot>,
}

/// Worst per-device static memory footprint of a plan: buffer-plan peak
/// plus persistent shard bytes, per worker — the same accounting the
/// runtime's pools replay.
fn worst_device_footprint(sharded: &ShardedGraph, buffer_reuse: bool) -> u64 {
    (0..sharded.workers)
        .map(|w| {
            let schedule = sharded.worker_schedule(w);
            plan_buffers(&sharded.graph, &schedule, buffer_reuse).mem.total_bytes()
        })
        .max()
        .unwrap_or(0)
}

/// A committed width choice: the widest feasible worker count ≤ capacity.
pub(crate) struct Selection {
    pub(crate) width: usize,
    /// The plan and its lowering (`None` when the caller's fixed plan runs).
    pub(crate) planned: Option<(PartitionPlan, ShardedGraph)>,
    /// Search time, stepped-past probes included (`None` = nothing searched).
    pub(crate) replan: Option<Duration>,
    /// The selected width's plan was a warm request-memo hit.
    pub(crate) warm: bool,
}

/// Why no width could be selected.
pub(crate) enum SelectErr {
    /// A real error (generator failure, search blowup) — propagate as-is.
    Hard(RuntimeError),
    /// Every width in the permitted range is infeasible (no strategy) or
    /// over budget; carries the terminal cause.
    Infeasible(RuntimeError),
}

/// Selects the widest feasible worker count ≤ `cap` under `policy`: worker
/// counts the search cannot split ([`CoreError::NoStrategy`]) or whose
/// static footprint exceeds the per-device budget are stepped past (width
/// tracks capacity; surplus devices idle as spares). With no policy the
/// width is exact — `cap` or error.
pub(crate) fn select_width(
    g: &Graph,
    base: &PartitionOptions,
    caches: &mut SearchCaches,
    obs: Option<&Collector>,
    policy: Option<&ElasticPolicy>,
    cap: usize,
    buffer_reuse: bool,
) -> std::result::Result<Selection, SelectErr> {
    let (floor, ceil, budget) = match policy {
        Some(p) => (p.min_workers.max(1), cap.min(p.max_workers.max(1)), p.per_device_budget),
        None => (cap, cap, None),
    };
    let t0 = Instant::now();
    let obs_t0 = obs.map(|c| c.now_us()).unwrap_or(0.0);
    let mut terminal: Option<RuntimeError> = None;
    let mut w = ceil;
    while w >= floor && w >= 1 {
        // A replan is *warm* when the request memo answers for the selected
        // width — a finished plan served without any search. A first-ever
        // request at this width runs the whole search, strategy discovery
        // included.
        let hits_before = caches.stats().request_hits;
        match partition_cached(g, &PartitionOptions { workers: w, ..*base }, caches, obs) {
            Ok(plan) => {
                let warm = caches.stats().request_hits > hits_before;
                // Replan time is the *search* (including every stepped-past
                // infeasible probe) — program lowering below costs the same
                // warm or cold and would drown the cache signal.
                let replan = t0.elapsed();
                let sharded = match generate(g, &plan, &GenOptions::default()) {
                    Ok(s) => s,
                    Err(e) => return Err(SelectErr::Hard(e.into())),
                };
                if let Some(b) = budget {
                    let worst = worst_device_footprint(&sharded, buffer_reuse);
                    if worst > b {
                        if let Some(c) = obs {
                            c.instant(
                                Track::control(),
                                "elastic",
                                &format!("width {w} over budget ({worst} > {b} bytes/device)"),
                            );
                        }
                        terminal = Some(RuntimeError::Pool {
                            worker: 0,
                            detail: format!(
                                "plan for {w} workers needs {worst} bytes/device, budget is {b}"
                            ),
                        });
                        if w == 1 {
                            break;
                        }
                        w -= 1;
                        continue;
                    }
                }
                if let Some(c) = obs {
                    c.complete(
                        Track::search(),
                        "search",
                        &format!("elastic replan ({w} workers)"),
                        obs_t0,
                        c.now_us(),
                    );
                }
                return Ok(Selection {
                    width: w,
                    planned: Some((plan, sharded)),
                    replan: Some(replan),
                    warm,
                });
            }
            Err(e @ (CoreError::NoStrategy { .. } | CoreError::BadWorkerCount(_)))
                if policy.is_some() =>
            {
                if let Some(c) = obs {
                    c.instant(Track::control(), "elastic", &format!("width {w} infeasible"));
                }
                terminal = Some(e.into());
                if w == 1 {
                    break;
                }
                w -= 1;
            }
            Err(e) => return Err(SelectErr::Hard(e.into())),
        }
    }
    Err(SelectErr::Infeasible(terminal.unwrap_or_else(|| {
        RuntimeError::InvalidOptions(format!(
            "elastic policy permits no worker count (capacity {cap})"
        ))
    })))
}

/// [`run_with_recovery`](crate::run_with_recovery) extended with the elastic
/// ladder: takes the **original** graph and full-tensor feeds (partitioning
/// and scattering are re-done per width), retries transient failures at the
/// current width, shrinks past permanent losses, grows onto devices a
/// [`ChurnPlan`](crate::ChurnPlan) rejoins, and reshards checkpoints across
/// plans so progress survives every width change. See the module docs for
/// the ladder.
pub fn run_with_elastic_recovery(
    g: &Graph,
    feeds: &[(TensorId, Tensor)],
    part_opts: &PartitionOptions,
    opts: &RunOptions,
    recovery: &RecoveryOptions,
    caches: &mut SearchCaches,
) -> Result<ElasticReport> {
    let source = PlanSource::Replan { graph: g, part: part_opts, caches };
    let s = supervise(source, feeds, opts, recovery, None)?;
    let (plan, sharded) = s.planned.expect("a re-planning source returns its final plan");
    Ok(ElasticReport {
        output: s.output,
        sharded,
        plan,
        devices: s.devices,
        spares: s.spares,
        lost: s.log.lost,
        joined: s.log.joined,
        widths: s.log.widths,
        attempts: s.log.history.len(),
        failures: s.log.failures,
        resumed_from: s.log.history.iter().map(|a| a.resumed_from).collect(),
        history: s.log.history,
        transitions: s.log.transitions,
        snapshot: s.snapshot,
    })
}
