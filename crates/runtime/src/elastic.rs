//! Bidirectional elastic recovery: survive permanent device loss by
//! re-partitioning onto the survivors, and grow back onto rejoining devices
//! at a checkpoint barrier — resharding progress across every width change.
//!
//! This module holds the transition types, width selection
//! ([`select_width`]) and the [`run_with_elastic_recovery`] adaptor. The
//! ladder itself is the crate's one recovery supervisor (`supervisor.rs`;
//! DESIGN.md "Failure model → The recovery supervisor" has the state
//! diagram). The transitions [`run_with_elastic_recovery`] turns on:
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
//!   after recording the first checkpoint barrier at or past the join's
//!   `at_ckpt`. The pause barrier is consistent by construction, so it is
//!   harvested into the carried snapshot, the device enters the fleet, and
//!   the search re-selects the widest feasible worker count ≤ the new
//!   capacity — resuming bit-exact at the grown width.
//! - **Capacity tracking with spares.** Not every device count is a
//!   feasible width (no tensor dimension may divide by it); width selection
//!   steps down to the widest worker count the search can actually split —
//!   surplus devices idle as *spares* and are folded back in at the next
//!   transition.
//! - **Typed surrender.** When no device is left to run on, the ladder ends
//!   with [`RuntimeError::Unrecoverable`] naming the whole width ladder,
//!   every lost device and the terminal cause — never a hang.
//!
//! Fault worker indices name **physical** devices: active workers keep
//! their physical identity across transitions (`devices[logical] =
//! physical`), so a permanent fault follows its device through shrinks,
//! spares and rejoins, while faults on survivors keep firing at any width.

use tofu_core::{
    generate, partition_cached, CoreError, GenOptions, PartitionOptions, PartitionPlan,
    SearchCaches, ShardedGraph,
};
use tofu_graph::{Graph, TensorId};
use tofu_obs::{Collector, Track};
use tofu_tensor::Tensor;

use crate::checkpoint::RecoveryOptions;
use crate::error::RuntimeError;
use crate::supervisor::{supervise, PlanSource, RecoveryReport};
use crate::{Result, RunOptions};

/// What kind of fleet transition a ladder step was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionKind {
    /// A device was lost and the active width stepped down.
    Shrink,
    /// A device joined and the active width stepped up.
    Grow,
    /// A device joined but no wider width is feasible: it idles as a spare.
    SpareJoin,
    /// A scripted leave hit a device that was not active (a spare): the
    /// fleet shrank but the running width did not change.
    SpareLoss,
}

/// One fleet transition of an elastic run. A shrink's detection latency is
/// the failed attempt before it, `history[attempt - 1].detection` (of the
/// [`RecoveryReport`]); the replan, reshard and resume latencies are the
/// spans an attached [`Collector`] records for them (see
/// [`AttemptRecord`](crate::AttemptRecord)).
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
    /// `history` index of the first attempt at the width this transition
    /// selected (`None` for a spare loss, which selects no width).
    pub attempt: Option<usize>,
    /// Whether the new width's plan came out of the warm request memo.
    pub replan_warm: bool,
}

/// A committed width choice: the widest feasible worker count ≤ capacity.
pub(crate) struct Selection {
    pub(crate) width: usize,
    /// The plan and its lowering (`None` when the caller's fixed plan runs).
    pub(crate) planned: Option<(PartitionPlan, ShardedGraph)>,
    /// The selected width's plan was a warm request-memo hit.
    pub(crate) warm: bool,
}

/// Why no width could be selected.
pub(crate) enum SelectErr {
    /// A real error (generator failure, search blowup) — propagate as-is.
    Hard(RuntimeError),
    /// Every width from `cap` down to 1 is infeasible (no strategy), or no
    /// device is left; carries the terminal cause.
    Infeasible(RuntimeError),
}

/// Selects the widest feasible worker count ≤ `cap`. Under an elastic
/// mandate, worker counts the search cannot split
/// ([`CoreError::NoStrategy`]) are stepped past down to 1 (width tracks
/// capacity; surplus devices idle as spares). Without one the width is
/// exact — `cap` or error.
pub(crate) fn select_width(
    g: &Graph,
    base: &PartitionOptions,
    caches: &mut SearchCaches,
    obs: Option<&Collector>,
    elastic: bool,
    cap: usize,
) -> std::result::Result<Selection, SelectErr> {
    let floor = if elastic { 1 } else { cap.max(1) };
    let obs_t0 = obs.map(|c| c.now_us()).unwrap_or(0.0);
    let mut terminal: Option<RuntimeError> = None;
    let mut w = cap;
    while w >= floor {
        // A replan is *warm* when the request memo answers for the selected
        // width — a finished plan served without any search. A first-ever
        // request at this width runs the whole search, strategy discovery
        // included.
        let hits_before = caches.stats().request_hits;
        match partition_cached(g, &PartitionOptions { workers: w, ..*base }, caches, obs) {
            Ok(plan) => {
                let warm = caches.stats().request_hits > hits_before;
                // The replan span is the *search* (including every
                // stepped-past infeasible probe) — program lowering below
                // costs the same warm or cold and would drown the cache
                // signal.
                if let Some(c) = obs {
                    c.complete(
                        Track::search(),
                        "search",
                        &format!("elastic replan ({w} workers)"),
                        obs_t0,
                        c.now_us(),
                    );
                }
                let sharded = generate(g, &plan, &GenOptions::default())
                    .map_err(|e| SelectErr::Hard(e.into()))?;
                return Ok(Selection { width: w, planned: Some((plan, sharded)), warm });
            }
            Err(e @ (CoreError::NoStrategy { .. } | CoreError::BadWorkerCount(_))) if elastic => {
                if let Some(c) = obs {
                    c.instant(Track::control(), "elastic", &format!("width {w} infeasible"));
                }
                terminal = Some(e.into());
                w -= 1;
            }
            Err(e) => return Err(SelectErr::Hard(e.into())),
        }
    }
    Err(SelectErr::Infeasible(terminal.unwrap_or_else(|| {
        RuntimeError::InvalidOptions(format!("no worker count fits a fleet of {cap} devices"))
    })))
}

/// [`run_with_recovery`](crate::run_with_recovery) extended with the elastic
/// ladder: takes the **original** graph and full-tensor feeds (partitioning
/// and scattering are re-done per width), retries transient failures at the
/// current width, shrinks past permanent losses, grows onto devices a
/// [`ChurnPlan`](crate::ChurnPlan) rejoins, and reshards checkpoints across
/// plans so progress survives every width change. See the module docs for
/// the ladder. The report's `plan` and `sharded` are the final width's;
/// `output.values` is keyed by that sharded graph's tensor ids.
pub fn run_with_elastic_recovery(
    g: &Graph,
    feeds: &[(TensorId, Tensor)],
    part_opts: &PartitionOptions,
    opts: &RunOptions,
    recovery: &RecoveryOptions,
    caches: &mut SearchCaches,
) -> Result<RecoveryReport> {
    let source = PlanSource::Replan { graph: g, part: part_opts, caches };
    supervise(source, feeds, opts, recovery, None, true)
}
