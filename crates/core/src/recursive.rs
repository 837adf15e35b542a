//! Recursive partitioning (§5.2).
//!
//! The basic DP partitions a graph between *two* worker groups. To reach
//! `k = k1·k2·…·km` workers (`ki ≥ ki+1`), the search is applied recursively:
//! each step runs the DP on the current (already scaled) graph, then *applies*
//! the chosen basic plan — every tensor's shape shrinks along its chosen
//! dimension, and the regions a group must fetch from its sibling become
//! extra input tensors of the consuming operators (Fig. 6), so later steps
//! account for partitioning the fetched buffers too.
//!
//! Theorem 2 of the paper (per-step costs are non-decreasing,
//! `δᵢ ≤ δᵢ₊₁`) is exposed via [`PartitionPlan::step_costs`] and verified in
//! the test suite; it is also why the recursion maps well onto hierarchical
//! interconnects — the early (cheapest-per-group) cuts land on the slowest
//! links.
//!
//! One recursion serves both DP engines: every `partition*` entry point runs
//! it over [`search`], and [`unoptimized_partition`] runs it over the
//! reference [`unoptimized_search`]. Which engine runs is the caller's
//! choice of function, never an option, so [`PartitionOptions`] holds only
//! what a request asks for.

use std::collections::HashSet;
use std::sync::Arc;

use tofu_graph::{Graph, TensorId};
use tofu_obs::{Collector, Track};
use tofu_tensor::Shape;

use crate::cache::{request_fingerprint, SearchCaches};
use crate::coarsen::coarsen;
use crate::dp::{
    ewise_req, search, unoptimized_search, ExtraInputs, NodeChoice, StepFn, StepPlan,
};
use crate::error::CoreError;
use crate::spec::{ConcreteOut, ConcreteReq, TensorSpec};
use crate::strategies::ShapeView;
use crate::Result;

/// Options controlling the full recursive search. Every field is part of
/// the request: [`request_fingerprint`] hashes each one and the plan
/// service's wire codec carries each one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionOptions {
    /// Total number of workers.
    pub workers: usize,
    /// When false, Case-2 (output-reduction) strategies are excluded —
    /// modeling the ICML18 baseline of §7.3.
    pub allow_reduce: bool,
    /// Upper bound on DP states per cut before the search aborts.
    pub state_bound: usize,
    /// Upper bound on enumerated assignments of the bundles a group
    /// introduces. When their cartesian product exceeds it, only the default
    /// assignment and its single-coordinate variations are tried, so the
    /// search is no longer exhaustive; each cut where that happens adds one
    /// to the `dp/assignments_bounded` total. A bound of 0 enumerates
    /// nothing and fails with [`CoreError::SearchSpaceExceeded`].
    pub internal_bound: usize,
    /// Beam width: at most this many DP states are kept per cut (the
    /// cheapest by `(cost, key)`). Truncation is lossy — the plan is proven
    /// optimal only when `dp/prune_beam` stays 0 — and it binds on wide
    /// fork-join frontiers (2,864 states per WResNet-50-1 step at the
    /// default 512). A width of 0 keeps nothing and fails with
    /// [`CoreError::SearchSpaceExceeded`].
    pub beam: usize,
    /// Ignore fetch buffers smaller than this (bytes) when propagating extra
    /// inputs to later steps — keeps the bookkeeping proportional to what
    /// actually matters.
    pub fetch_buffer_floor: u64,
}

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions {
            workers: 8,
            allow_reduce: true,
            state_bound: 200_000,
            internal_bound: 1024,
            beam: 512,
            fetch_buffer_floor: 1 << 20,
        }
    }
}

/// One recursion step's record.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Group count of this step (`ki`).
    pub ways: usize,
    /// Number of worker groups existing *before* this step
    /// (`k1·…·k(i-1)`).
    pub groups_before: usize,
    /// The basic plan chosen by the DP.
    pub plan: StepPlan,
}

impl StepRecord {
    /// Total communication δᵢ of this step across all groups.
    pub fn delta(&self) -> f64 {
        self.plan.comm_bytes * self.groups_before as f64
    }
}

/// The full multi-step partition plan.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    /// Worker count the plan targets.
    pub workers: usize,
    /// One record per recursion step.
    pub steps: Vec<StepRecord>,
    /// Per original tensor: the per-step split dimension (or `None` when the
    /// tensor was replicated at that step).
    pub tiling: Vec<Vec<Option<usize>>>,
    /// Wall time the search took.
    pub search_time: std::time::Duration,
}

impl PartitionPlan {
    /// Total communication bytes over all steps and groups.
    pub fn total_comm_bytes(&self) -> f64 {
        self.steps.iter().map(StepRecord::delta).sum()
    }

    /// The per-step total costs `δ₁, …, δm` (Theorem 2: non-decreasing).
    pub fn step_costs(&self) -> Vec<f64> {
        self.steps.iter().map(StepRecord::delta).collect()
    }

    /// The per-worker shard shape of a tensor under the final plan.
    pub fn shard_shape(&self, original: &Shape, t: TensorId) -> Shape {
        let mut dims = original.dims().to_vec();
        for (step, spec) in self.tiling[t.0].iter().enumerate() {
            if let Some(d) = spec {
                dims[*d] /= self.steps[step].ways;
            }
        }
        Shape::new(dims)
    }

    /// Fraction of the original tensor each worker stores (1 / k when the
    /// tensor was split at every step).
    pub fn shard_fraction(&self, t: TensorId) -> f64 {
        let mut f = 1.0;
        for (step, spec) in self.tiling[t.0].iter().enumerate() {
            if spec.is_some() {
                f /= self.steps[step].ways as f64;
            }
        }
        f
    }
}

/// Factorizes the worker count as `k1 ≥ k2 ≥ … ≥ km` (prime factors, largest
/// first), per §5.2.
pub fn factorize(workers: usize) -> Result<Vec<usize>> {
    if workers == 0 {
        return Err(CoreError::BadWorkerCount(0));
    }
    let mut n = workers;
    let mut factors = Vec::new();
    let mut p = 2;
    while p * p <= n {
        while n.is_multiple_of(p) {
            factors.push(p);
            n /= p;
        }
        p += 1;
    }
    if n > 1 {
        factors.push(n);
    }
    factors.sort_unstable_by(|a, b| b.cmp(a));
    Ok(factors)
}

/// Runs the full recursive search on a training graph, without a request
/// memo (so a one-shot call pays no request fingerprint).
///
/// # Examples
///
/// ```
/// use tofu_core::recursive::{partition, PartitionOptions};
/// use tofu_graph::{autodiff, Attrs, Graph};
/// use tofu_tensor::Shape;
///
/// let mut g = Graph::new();
/// let x = g.add_input("x", Shape::new(vec![16, 32]));
/// let w = g.add_weight("w", Shape::new(vec![32, 8]));
/// let labels = g.add_input("labels", Shape::new(vec![16]));
/// let y = g.add_op("matmul", "fc", &[x, w], Attrs::new()).unwrap();
/// let loss = g.add_op("softmax_ce", "loss", &[y, labels], Attrs::new()).unwrap();
/// autodiff::backward(&mut g, loss, &[w]).unwrap();
/// let plan = partition(&g, &PartitionOptions { workers: 4, ..Default::default() }).unwrap();
/// assert_eq!(plan.steps.len(), 2);
/// ```
pub fn partition(g: &Graph, opts: &PartitionOptions) -> Result<PartitionPlan> {
    partition_with_obs(g, opts, None)
}

/// [`partition`] that reports the statistics of [`partition_with_factors`]
/// into `obs`.
pub fn partition_with_obs(
    g: &Graph,
    opts: &PartitionOptions,
    obs: Option<&Collector>,
) -> Result<PartitionPlan> {
    partition_with_factors(g, &factorize(opts.workers)?, opts, obs)
}

/// [`partition`] behind a caller-owned request memo ([`SearchCaches`]), so
/// whole requests are answered *across* calls: repeating a request — or
/// probing a width already proven infeasible — costs no search. A request
/// the memo has not seen runs the whole search, strategy discovery
/// included. Hits and misses surface as `cache/request_{hit,miss}`.
///
/// The memo is borrowed mutably, so one caller uses it at a time. A hit
/// returns the stored outcome of an identical request, which is a pure
/// function of its exact structural key, so memoized results are
/// bit-identical to a fresh search.
pub fn partition_cached(
    g: &Graph,
    opts: &PartitionOptions,
    caches: &mut SearchCaches,
    obs: Option<&Collector>,
) -> Result<PartitionPlan> {
    // Whole-request memo: a repeated request skips even coarsening, and a
    // width the search already proved infeasible is rejected immediately —
    // the warm path an elastic runtime's width-ladder probes rely on.
    let key = request_fingerprint(g, opts);
    if let Some(outcome) = caches.requests.get(&key) {
        caches.hits += 1;
        if let Some(c) = obs {
            c.add_total("cache/request_hit", 1.0);
        }
        return outcome.clone();
    }
    caches.misses += 1;
    if let Some(c) = obs {
        c.add_total("cache/request_miss", 1.0);
    }
    let result = factorize(opts.workers).and_then(|f| partition_with_factors(g, &f, opts, obs));
    if result.as_ref().err().is_none_or(CoreError::is_provable) {
        caches.requests.insert(key, result.clone());
    }
    result
}

/// The recursion itself, over a caller-chosen factor sequence (`partition*`
/// pass [`factorize`]`(opts.workers)`; baselines and the theorem tests pass
/// their own): coarsens `g` (which analyses each distinct operator's
/// strategies once), then searches and applies one basic step per factor.
///
/// Reports into `obs`: coarsening totals (`coarsen/groups`,
/// `coarsen/classes`, `coarsen/nodes`, and `coarsen/strategy_analyses`, the
/// distinct strategy analyses every step shares), one span per recursion
/// step on [`Track::search`], per-step `dp/step_comm_bytes` counters, and
/// everything [`search`] records.
pub fn partition_with_factors(
    g: &Graph,
    factors: &[usize],
    opts: &PartitionOptions,
    obs: Option<&Collector>,
) -> Result<PartitionPlan> {
    recurse(g, factors, opts, obs, search)
}

/// [`partition_with_obs`] over the reference engine,
/// [`crate::dp::unoptimized_search`]: the differential-testing oracle the
/// optimized search is held to. It returns the same plan, or the same
/// error, for every request (`crates/core/tests/differential.rs`,
/// `tests/golden_plans.rs`, the `search_scaling` ledger).
pub fn unoptimized_partition(
    g: &Graph,
    opts: &PartitionOptions,
    obs: Option<&Collector>,
) -> Result<PartitionPlan> {
    recurse(g, &factorize(opts.workers)?, opts, obs, unoptimized_search)
}

fn recurse(
    g: &Graph,
    factors: &[usize],
    opts: &PartitionOptions,
    obs: Option<&Collector>,
    step_fn: StepFn,
) -> Result<PartitionPlan> {
    let started = std::time::Instant::now();
    let cg = &coarsen(g);
    if let Some(c) = obs {
        c.add_total("coarsen/nodes", g.num_nodes() as f64);
        c.add_total("coarsen/groups", cg.groups.len() as f64);
        c.add_total("coarsen/classes", cg.class_nodes.iter().filter(|m| !m.is_empty()).count() as f64);
        let analyses: HashSet<_> = cg.analysis.iter().flatten().map(Arc::as_ptr).collect();
        c.add_total("coarsen/strategy_analyses", analyses.len() as f64);
    }
    let mut view = ShapeView::from_graph(g);
    let mut extra = ExtraInputs::new();
    let mut steps: Vec<StepRecord> = Vec::with_capacity(factors.len());
    let mut tiling: Vec<Vec<Option<usize>>> = vec![Vec::new(); g.num_tensors()];
    let mut groups_before = 1usize;

    for (step, &ways) in factors.iter().enumerate() {
        let step_start = obs.map(|c| c.now_us());
        let plan = step_fn(g, &view, cg, &extra, ways, opts, obs)?;
        if let Some(c) = obs {
            let end = c.now_us();
            let name = format!("step {step}: {ways}-way dp over {} groups", cg.groups.len());
            c.complete(Track::search(), "search", &name, step_start.unwrap_or(end), end);
            c.counter(
                Track::search(),
                "dp/step_comm_bytes",
                end,
                plan.comm_bytes * groups_before as f64,
            );
        }

        // Record tiling for original tensors.
        for t in g.tensor_ids() {
            tiling[t.0].push(plan.spec(t).dim());
        }

        // Apply the plan: scale every tensor (graph + extras).
        for t in 0..view.len() {
            if let TensorSpec::Split(d) = plan.tensor_spec[t] {
                let scaled = view
                    .shape(TensorId(t))
                    .split_dim(d, ways)
                    .map_err(|e| CoreError::Internal(format!("applying step: {e}")))?;
                view.set(TensorId(t), scaled);
            }
        }

        // Materialize fetch buffers as extra inputs (Fig. 6): the regions a
        // group pulled from its siblings become leaf tensors that later
        // steps must also partition.
        let mut new_buffers: Vec<(tofu_graph::NodeId, usize, Shape)> = Vec::new();
        for id in g.node_ids() {
            let node = g.node(id);
            match &plan.node_choice[id.0] {
                NodeChoice::Strategy(st) => {
                    for (i, &t) in node.inputs.iter().enumerate() {
                        let spec = plan.spec(t);
                        let req = st.inputs.get(i).cloned().unwrap_or(ConcreteReq::Unused);
                        if let Some(shape) =
                            fetch_buffer_shape(view.shape(t), spec, &req, ways)
                        {
                            if shape.bytes() >= opts.fetch_buffer_floor {
                                new_buffers.push((id, i, shape));
                            }
                        }
                    }
                    if let ConcreteOut::Reduce = st.out {
                        // The reduce-scatter buffer: each worker receives the
                        // partial slabs of its final output shard.
                        let shape = view.shape(node.output).clone();
                        if shape.bytes() >= opts.fetch_buffer_floor {
                            new_buffers.push((id, usize::MAX, shape));
                        }
                    }
                }
                NodeChoice::Ewise(class_spec) => {
                    for (i, &t) in node.inputs.iter().enumerate() {
                        let spec = plan.spec(t);
                        let shape = view.shape(t);
                        let req = ewise_req(*class_spec, shape);
                        if let Some(shape) = fetch_buffer_shape(shape, spec, &req, ways) {
                            if shape.bytes() >= opts.fetch_buffer_floor {
                                new_buffers.push((id, i, shape));
                            }
                        }
                    }
                }
            }
        }
        for (node, for_input, shape) in new_buffers {
            let pseudo = TensorId(view.len());
            view.push(shape);
            extra.push(node, for_input.min(g.node(node).inputs.len().saturating_sub(1)), pseudo);
        }

        steps.push(StepRecord { ways, groups_before, plan });
        groups_before *= ways;
    }

    Ok(PartitionPlan { workers: opts.workers, steps, tiling, search_time: started.elapsed() })
}

/// Shape of the per-worker buffer fetched for one input under one strategy,
/// or `None` when nothing is fetched. All shapes are at post-step scale.
fn fetch_buffer_shape(
    scaled: &Shape,
    spec: TensorSpec,
    req: &ConcreteReq,
    ways: usize,
) -> Option<Shape> {
    match (spec, req) {
        (_, ConcreteReq::Unused) => None,
        (TensorSpec::Replicated, _) => None,
        (TensorSpec::Split(a), ConcreteReq::Replicated) => {
            // The rest of the tensor: (ways-1) x the local shard along a.
            scaled.with_dim(a, scaled.dim(a) * (ways - 1)).ok()
        }
        (TensorSpec::Split(a), ConcreteReq::Split { dim, halo }) => {
            if a == *dim {
                if *halo <= 0.0 {
                    None
                } else {
                    let h = (*halo).ceil() as usize;
                    scaled.with_dim(a, h.min(scaled.dim(a).max(1))).ok()
                }
            } else {
                // Cross split: the worker swaps (ways-1)/ways of its slab.
                let keep = scaled.dim(a).max(1);
                scaled.with_dim(a, keep.saturating_sub(keep / ways).max(1)).ok()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofu_graph::{autodiff, Attrs};

    fn mlp(batch: usize, dims: &[usize]) -> Graph {
        let mut g = Graph::new();
        let mut t = g.add_input("x", Shape::new(vec![batch, dims[0]]));
        let mut weights = Vec::new();
        for (i, w) in dims.windows(2).enumerate() {
            let wt = g.add_weight(&format!("w{i}"), Shape::new(vec![w[0], w[1]]));
            weights.push(wt);
            t = g.add_op("matmul", &format!("fc{i}"), &[t, wt], Attrs::new()).unwrap();
            t = g.add_op("relu", &format!("act{i}"), &[t], Attrs::new()).unwrap();
        }
        let labels = g.add_input("labels", Shape::new(vec![batch]));
        let loss = g.add_op("softmax_ce", "loss", &[t, labels], Attrs::new()).unwrap();
        let info = autodiff::backward(&mut g, loss, &weights).unwrap();
        for (i, &w) in weights.iter().enumerate() {
            let gw = info.grad(w).unwrap();
            g.add_op("sgd_update", &format!("upd{i}"), &[w, gw], Attrs::new()).unwrap();
        }
        g
    }

    #[test]
    fn factorization_is_sorted_descending() {
        assert_eq!(factorize(8).unwrap(), vec![2, 2, 2]);
        assert_eq!(factorize(6).unwrap(), vec![3, 2]);
        assert_eq!(factorize(12).unwrap(), vec![3, 2, 2]);
        assert_eq!(factorize(7).unwrap(), vec![7]);
        assert_eq!(factorize(1).unwrap(), Vec::<usize>::new());
        assert!(factorize(0).is_err());
    }

    #[test]
    fn eight_workers_three_steps() {
        let g = mlp(32, &[64, 64, 16]);
        let plan = partition(&g, &PartitionOptions::default()).unwrap();
        assert_eq!(plan.steps.len(), 3);
        assert_eq!(plan.workers, 8);
        assert!(plan.total_comm_bytes().is_finite());
        // Every original tensor has one tiling entry per step.
        assert!(plan.tiling.iter().all(|t| t.len() == 3));
    }

    #[test]
    fn theorem_2_step_costs_non_decreasing() {
        // δᵢ ≤ δᵢ₊₁ (paper appendix A.3). Allow a small numerical slack for
        // the fetch-buffer bookkeeping.
        for g in [mlp(64, &[128, 128, 32]), mlp(16, &[512, 256]), mlp(256, &[64, 64, 64, 16])] {
            let plan = partition(&g, &PartitionOptions::default()).unwrap();
            let costs = plan.step_costs();
            for pair in costs.windows(2) {
                assert!(
                    pair[0] <= pair[1] * 1.05 + 1024.0,
                    "step costs decreased: {costs:?}"
                );
            }
        }
    }

    #[test]
    fn shard_shapes_divide_by_workers() {
        let g = mlp(32, &[64, 64, 16]);
        let plan = partition(&g, &PartitionOptions::default()).unwrap();
        // Most tensors should end up split at every step: their shard volume
        // is 1/8 of the original (the per-GPU memory claim of §2).
        let mut full_split = 0;
        let mut total = 0;
        for t in g.tensor_ids() {
            let original = &g.tensor(t).shape;
            if original.rank() == 0 {
                continue;
            }
            total += 1;
            if (plan.shard_fraction(t) - 1.0 / 8.0).abs() < 1e-9 {
                full_split += 1;
                let shard = plan.shard_shape(original, t);
                assert_eq!(shard.volume() * 8, original.volume());
            }
        }
        assert!(full_split * 2 > total, "only {full_split}/{total} tensors fully split");
    }

    #[test]
    fn non_power_of_two_worker_counts() {
        let g = mlp(36, &[72, 36]);
        let plan = partition(&g, &PartitionOptions { workers: 6, ..Default::default() }).unwrap();
        assert_eq!(plan.steps.len(), 2);
        assert_eq!(plan.steps[0].ways, 3);
        assert_eq!(plan.steps[1].ways, 2);
    }

    #[test]
    fn one_worker_is_a_noop_plan() {
        let g = mlp(8, &[16, 8]);
        let plan = partition(&g, &PartitionOptions { workers: 1, ..Default::default() }).unwrap();
        assert!(plan.steps.is_empty());
        assert_eq!(plan.total_comm_bytes(), 0.0);
    }

    #[test]
    fn recursion_beats_or_matches_single_flat_chop() {
        // EqualChop-style single 8-way step vs the 3-step recursion: the
        // recursion can express multi-dimensional tilings and must not be
        // worse.
        let g = mlp(64, &[256, 256, 64]);
        let recursive = partition(&g, &PartitionOptions::default()).unwrap();
        let flat = partition_with_factors(&g, &[8], &PartitionOptions::default(), None).unwrap();
        assert!(recursive.total_comm_bytes() <= flat.total_comm_bytes() * 1.01 + 1024.0);
    }

    #[test]
    fn search_time_is_recorded() {
        let g = mlp(16, &[32, 16]);
        let plan = partition(&g, &PartitionOptions::default()).unwrap();
        assert!(plan.search_time.as_nanos() > 0);
    }

    #[test]
    fn request_memo_remembers_feasible_and_infeasible_widths() {
        // Batch 36 divides by 1/2/3/4/6 but not 5 or 7: probing the whole
        // ladder must yield a plan for the feasible subset and a typed
        // rejection for the rest.
        let g = mlp(36, &[72, 36]);
        let mut caches = SearchCaches::new();
        let obs = Collector::new();
        let mut at = |w: usize| {
            let opts = PartitionOptions { workers: w, ..Default::default() };
            partition_cached(&g, &opts, &mut caches, Some(&obs))
        };
        let feasible: Vec<usize> = (1..=7).filter(|&w| at(w).is_ok()).collect();
        assert_eq!(feasible, vec![1, 2, 3, 4, 6]);
        // Every width — feasible plan or proven infeasibility — is now a
        // warm request-memo hit: no repeat costs a search.
        for &w in &feasible {
            at(w).unwrap();
        }
        for w in [5usize, 7] {
            at(w).unwrap_err();
        }
        let stats = caches.stats();
        assert_eq!(stats.request_hits, feasible.len() as u64 + 2);
        assert_eq!(stats.request_misses, 7, "one search per probed width, ever");
        assert_eq!(stats.request_entries, 7);
        // The collector's totals are the memo's own tallies.
        let totals = obs.totals();
        let total = |k: &str| totals.get(k).copied().unwrap_or(0.0);
        assert_eq!(total("cache/request_hit"), stats.request_hits as f64);
        assert_eq!(total("cache/request_miss"), stats.request_misses as f64);
    }
}
