//! The dynamic-programming search for one basic partition step (§5).
//!
//! The DP walks the coarsened groups in forward order and tracks, as its
//! state, the partition spec of every *bundle* crossing the current cut. A
//! bundle is a set of tensors forced to share one spec: the outputs of one
//! strategy class (all timestep instances of a cell operator, or a coalesced
//! element-wise run), or a single leaf tensor. For the chain-like coarsened
//! graphs of MLPs, CNNs and RNNs the cut width is tiny (one activation
//! tensor-group, i.e. a forward tensor and its gradient), which is what makes
//! the search fast; fork-join regions (residual blocks) briefly widen the
//! frontier and are handled by the same machinery.
//!
//! Within a group the member classes are searched combinatorially (§5.1
//! "brute-force combinatorial search among all member operators/tensors"):
//! once every touched bundle's spec is fixed, each class independently picks
//! its cheapest strategy, so the brute force ranges only over the group's
//! internal bundles (weights, weight gradients, temporaries).
//!
//! Two functions implement the same recurrence, and both take the same
//! parameters: the step's `ways` and the request's [`PartitionOptions`]
//! (its `workers` is the recursion's, not the step's, and is not read here):
//!
//! * [`unoptimized_search`] — the straightforward seed implementation, kept
//!   alive as the differential-testing reference (the recursion over it is
//!   [`crate::recursive::unoptimized_partition`]);
//! * [`search`], the optimized engine every `partition*` runs — a
//!   transition factored over the bundles a group actually reads (each
//!   distinct projection of the frontier is costed once, then states relax
//!   into a dense table), one dense class-cost table per cut, and strategies
//!   concretised from the analysis [`crate::coarsen()`] ran once per request
//!   where the reference rediscovers them at every step (see DESIGN.md
//!   "Search performance" for the exactness argument). Every one is exact:
//!   the ranking, the beam and the typed errors are the reference's.
//!
//! The `crates/core/tests` differential harness asserts that both return the
//! same plan, or the same error, on randomized graphs at every option
//! setting — including where the beam and bounded enumeration bind.

use std::collections::BTreeMap;

use tofu_graph::{Graph, NodeId, TensorId};
use tofu_obs::{Collector, Track};
use tofu_tensor::Shape;

use crate::cache::FastMap;
use crate::coarsen::CoarseGraph;
use crate::error::CoreError;
use crate::recursive::PartitionOptions;
use crate::spec::{
    input_fetch_bytes, legal_specs, output_bytes, respec_bytes, ConcreteOut, ConcreteReq,
    TensorSpec,
};
use crate::strategies::{node_strategies, strategy_feasible, NodeStrategy, ShapeView};
use crate::Result;

/// Extra leaf inputs attached to nodes by earlier recursion steps (the
/// remote-fetch buffers of Fig. 6). `for_input` names the node input whose
/// required region the buffer carries.
#[derive(Debug, Clone, Default)]
pub struct ExtraInputs {
    entries: Vec<(NodeId, usize, TensorId)>,
}

impl ExtraInputs {
    /// Creates an empty table.
    pub fn new() -> ExtraInputs {
        ExtraInputs::default()
    }

    /// Registers a fetch buffer for `(node, for_input)`.
    pub fn push(&mut self, node: NodeId, for_input: usize, tensor: TensorId) {
        self.entries.push((node, for_input, tensor));
    }

    /// Buffers attached to one node.
    fn of_node(&self, node: NodeId) -> impl Iterator<Item = (usize, TensorId)> + '_ {
        self.entries
            .iter()
            .filter(move |(n, _, _)| *n == node)
            .map(|&(_, i, t)| (i, t))
    }

    /// All registered buffer tensors.
    pub fn tensors(&self) -> impl Iterator<Item = TensorId> + '_ {
        self.entries.iter().map(|&(_, _, t)| t)
    }
}

/// The signature both engines share, [`search`] and [`unoptimized_search`]:
/// one `ways`-way basic step.
pub(crate) type StepFn = fn(
    &Graph,
    &ShapeView,
    &CoarseGraph,
    &ExtraInputs,
    usize,
    &PartitionOptions,
    Option<&Collector>,
) -> Result<StepPlan>;

/// How one node is executed under the chosen basic plan.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeChoice {
    /// A discovered strategy (with concrete requirements).
    Strategy(NodeStrategy),
    /// An element-wise (or coalesced) node: everything follows the class
    /// spec.
    Ewise(TensorSpec),
}

impl NodeChoice {
    /// What this choice needs from input `i` of `shape`: a strategy's
    /// requirement (`Unused` for an input it does not list), or, for an
    /// element-wise choice split by `class_spec`, the same split, or the
    /// whole tensor when the input has no such dimension.
    pub(crate) fn req(&self, i: usize, shape: &Shape) -> ConcreteReq {
        match self {
            NodeChoice::Strategy(st) => st.inputs.get(i).cloned().unwrap_or(ConcreteReq::Unused),
            NodeChoice::Ewise(class_spec) => ewise_req(*class_spec, shape),
        }
    }
}

/// The basic partition plan of one step.
#[derive(Debug, Clone)]
pub struct StepPlan {
    /// Group count of this step.
    pub ways: usize,
    /// Spec per tensor (graph tensors first, then extra-input tensors).
    pub tensor_spec: Vec<TensorSpec>,
    /// Execution choice per node.
    pub node_choice: Vec<NodeChoice>,
    /// Total communication bytes incurred by this step (per worker-group
    /// pair; the recursion scales it by the number of groups).
    pub comm_bytes: f64,
}

impl StepPlan {
    /// Spec of a tensor.
    pub fn spec(&self, t: TensorId) -> TensorSpec {
        self.tensor_spec[t.0]
    }
}

type StateKey = Vec<(usize, TensorSpec)>; // sorted (bundle, spec)

struct Bundles {
    /// Bundle id per tensor (graph + extra tensors).
    of_tensor: Vec<usize>,
    /// Representative shapes per bundle (for legal-spec computation the
    /// intersection over members is used).
    legal: Vec<Vec<TensorSpec>>,
    /// First and last group touching each bundle.
    first: Vec<usize>,
    last: Vec<usize>,
    count: usize,
}

fn build_bundles(
    g: &Graph,
    view: &ShapeView,
    cg: &CoarseGraph,
    extra: &ExtraInputs,
    ways: usize,
) -> Bundles {
    let total_tensors = view.len();
    let mut of_tensor = vec![usize::MAX; total_tensors];
    let mut members: Vec<Vec<TensorId>> = Vec::new();

    // Class-keyed bundles for produced tensors.
    let mut class_bundle: BTreeMap<usize, usize> = BTreeMap::new();
    for id in g.node_ids() {
        let out = g.node(id).output;
        let class = cg.class_of[id.0];
        let b = *class_bundle.entry(class).or_insert_with(|| {
            members.push(Vec::new());
            members.len() - 1
        });
        of_tensor[out.0] = b;
        members[b].push(out);
    }
    // Leaf bundles for everything else (inputs, weights, extra buffers).
    for (t, bundle) in of_tensor.iter_mut().enumerate() {
        if *bundle == usize::MAX {
            members.push(vec![TensorId(t)]);
            *bundle = members.len() - 1;
        }
    }

    let count = members.len();
    // Legal specs: intersection over member tensors.
    let mut legal: Vec<Vec<TensorSpec>> = Vec::with_capacity(count);
    for m in &members {
        let mut acc: Option<Vec<TensorSpec>> = None;
        for &t in m {
            let specs = legal_specs(view.shape(t), ways);
            acc = Some(match acc {
                None => specs,
                Some(prev) => prev.into_iter().filter(|s| specs.contains(s)).collect(),
            });
        }
        let mut specs = acc.unwrap_or_default();
        if specs.is_empty() {
            specs.push(TensorSpec::Replicated);
        }
        legal.push(specs);
    }

    // Group touch ranges.
    let mut first = vec![usize::MAX; count];
    let mut last = vec![0usize; count];
    let mut touch = |b: usize, gi: usize| {
        if first[b] == usize::MAX || gi < first[b] {
            first[b] = gi;
        }
        if gi > last[b] {
            last[b] = gi;
        }
    };
    for id in g.node_ids() {
        let gi = cg.group_of[id.0];
        let node = g.node(id);
        touch(of_tensor[node.output.0], gi);
        for &t in &node.inputs {
            touch(of_tensor[t.0], gi);
        }
        for (_, t) in extra.of_node(id) {
            touch(of_tensor[t.0], gi);
        }
    }
    // Untouched bundles (dangling tensors): pin to group 0.
    for b in 0..count {
        if first[b] == usize::MAX {
            first[b] = 0;
            last[b] = 0;
        }
    }

    Bundles { of_tensor, legal, first, last, count }
}

/// Per-class preprocessed data.
struct ClassInfo {
    rep: NodeId,
    members: Vec<NodeId>,
    /// The choices open to the class: the representative's feasible
    /// strategies, or for an element-wise class one per legal spec of its
    /// output bundle, of which [`class_cost`] tries the one the bundle has.
    strategies: Vec<NodeChoice>,
    /// Every bundle this class touches, sorted — the memoization key domain.
    touched: Vec<usize>,
}

/// Preprocesses every strategy class: enumerates (concretising the class's
/// [`CoarseGraph`] analysis when `reuse_analysis`, else discovering afresh),
/// filters for feasibility, and records touched bundles.
/// Shared by both search engines; only the reference discovers afresh, so
/// the differential tests also compare analyse-once with per-step discovery.
#[allow(clippy::too_many_arguments)]
fn build_classes(
    g: &Graph,
    view: &ShapeView,
    cg: &CoarseGraph,
    extra: &ExtraInputs,
    bundles: &Bundles,
    ways: usize,
    opts: &PartitionOptions,
    reuse_analysis: bool,
    obs: Option<&Collector>,
) -> Result<Vec<Option<ClassInfo>>> {
    let mut classes: Vec<Option<ClassInfo>> = Vec::with_capacity(cg.class_nodes.len());
    for (ci, members) in cg.class_nodes.iter().enumerate() {
        if members.is_empty() {
            classes.push(None);
            continue;
        }
        let rep = members[0];
        let own_bundle = bundles.of_tensor[g.node(rep).output.0];
        let strategies = if cg.class_is_ewise[ci] {
            bundles.legal[own_bundle].iter().map(|&s| NodeChoice::Ewise(s)).collect()
        } else {
            let out_shape = view.shape(g.node(rep).output).clone();
            let analysed = cg.analysis[ci].as_deref().filter(|_| reuse_analysis);
            let enumerated = match analysed {
                Some(a) => a.concretise(g, rep, view)?,
                None => node_strategies(g, rep, view)?,
            };
            if let Some(c) = obs {
                c.add_total("dp/strategies_enumerated", enumerated.len() as f64);
            }
            let feasible: Vec<NodeStrategy> = enumerated
                .into_iter()
                .filter(|s| strategy_feasible(s, &out_shape, ways))
                .collect();
            let filtered: Vec<NodeStrategy> = feasible
                .iter()
                .filter(|s| opts.allow_reduce || !matches!(s.out, ConcreteOut::Reduce))
                .cloned()
                .collect();
            // The ICML18 baseline lacks output-reduction as an *option*; an
            // operator whose only strategies are reductions (e.g. the scalar
            // loss) is still computed, just not partitioned differently.
            let kept = if filtered.is_empty() { feasible } else { filtered };
            if let Some(c) = obs {
                c.add_total("dp/strategies_feasible", kept.len() as f64);
            }
            kept.into_iter().map(NodeChoice::Strategy).collect()
        };
        let mut touched: Vec<usize> = Vec::new();
        for &m in members {
            let node = g.node(m);
            touched.push(bundles.of_tensor[node.output.0]);
            for &t in &node.inputs {
                touched.push(bundles.of_tensor[t.0]);
            }
            for (_, t) in extra.of_node(m) {
                touched.push(bundles.of_tensor[t.0]);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        classes.push(Some(ClassInfo {
            rep,
            members: members.clone(),
            strategies,
            touched,
        }));
    }
    Ok(classes)
}

/// The unoptimized seed implementation of the DP, kept alive as the
/// differential-testing reference. Rediscovers every class's strategies
/// with `node_strategies` and explores the full `states × combos` product at
/// every cut with `Vec`-keyed memo maps; [`search`] returns its plan, or its
/// error, at every option setting. Tests, and the recursion
/// [`crate::recursive::unoptimized_partition`], call it directly.
pub fn unoptimized_search(
    g: &Graph,
    view: &ShapeView,
    cg: &CoarseGraph,
    extra: &ExtraInputs,
    ways: usize,
    opts: &PartitionOptions,
    obs: Option<&Collector>,
) -> Result<StepPlan> {
    if ways < 2 {
        return Err(CoreError::BadWorkerCount(ways));
    }
    if opts.internal_bound == 0 {
        // No assignment may be enumerated: a mis-set bound, as an empty beam.
        return Err(CoreError::SearchSpaceExceeded { states: 0, bound: 0 });
    }
    let bundles = build_bundles(g, view, cg, extra, ways);
    let classes = build_classes(g, view, cg, extra, &bundles, ways, opts, false, obs)?;

    // Class-cost memoization: specs of a class's touched bundles fully
    // determine its cost, so (class, spec-key) results are cached across the
    // state x combo product.
    type ClassCostCache = std::collections::HashMap<(usize, Vec<u8>), Option<(f64, usize)>>;
    let mut cost_cache: ClassCostCache = ClassCostCache::new();
    const REP: u8 = u8::MAX;
    let enc = TensorSpec::enc;
    let dec = TensorSpec::dec;

    // DP over groups.
    let mut states: BTreeMap<StateKey, (f64, usize)> = BTreeMap::new();
    states.insert(Vec::new(), (0.0, usize::MAX));
    // Backtracking: per group, per resulting state key, the winning local
    // assignment (bundle -> spec for every bundle resolved at this group)
    // plus per-class strategy indices, plus predecessor state key.
    struct Trace {
        prev: StateKey,
        resolved: Vec<(usize, TensorSpec)>,
        class_choice: Vec<(usize, usize)>, // (class, choice index)
    }
    let mut traces: Vec<BTreeMap<StateKey, Trace>> = Vec::with_capacity(cg.groups.len());

    for (gi, group) in cg.groups.iter().enumerate() {
        let mut touched: Vec<usize> = Vec::new();
        for &n in &group.nodes {
            let node = g.node(n);
            touched.push(bundles.of_tensor[node.output.0]);
            for &t in &node.inputs {
                touched.push(bundles.of_tensor[t.0]);
            }
            for (_, t) in extra.of_node(n) {
                touched.push(bundles.of_tensor[t.0]);
            }
        }
        touched.sort_unstable();
        touched.dedup();

        // Bundles resolved at this group: those first touched here.
        let fresh: Vec<usize> =
            touched.iter().copied().filter(|&b| bundles.first[b] == gi).collect();
        let carried: Vec<usize> =
            touched.iter().copied().filter(|&b| bundles.first[b] < gi).collect();

        // Enumerate fresh-bundle assignments (bounded).
        let combos = enumerate_assignments(&fresh, &bundles.legal, opts.internal_bound);

        let mut next: BTreeMap<StateKey, (f64, usize)> = BTreeMap::new();
        let mut trace: BTreeMap<StateKey, Trace> = BTreeMap::new();

        let mut spec_arr: Vec<u8> = vec![REP; bundles.count];
        for (state_key, &(base_cost, _)) in &states {
            if !carried
                .iter()
                .all(|b| state_key.iter().any(|(sb, _)| sb == b))
            {
                return Err(CoreError::Internal(format!(
                    "bundle carried into group {gi} missing from DP state"
                )));
            }
            for &(b, spec) in state_key {
                spec_arr[b] = enc(spec);
            }
            for combo in &combos {
                for &(b, spec) in combo {
                    spec_arr[b] = enc(spec);
                }
                // Per-class independent optimization with memoization.
                let mut total = 0.0f64;
                let mut choices: Vec<(usize, usize)> = Vec::new();
                let mut feasible = true;
                for &ci in &group.classes {
                    let Some(info) = &classes[ci] else { continue };
                    let key: Vec<u8> = info.touched.iter().map(|&b| spec_arr[b]).collect();
                    let cached = cost_cache
                        .entry((ci, key))
                        .or_insert_with(|| {
                            let spec = |t: TensorId| dec(spec_arr[bundles.of_tensor[t.0]]);
                            class_cost(g, view, extra, info, &spec, ways)
                        });
                    match cached {
                        Some((c, idx)) => {
                            total += *c;
                            choices.push((ci, *idx));
                        }
                        None => {
                            feasible = false;
                            break;
                        }
                    }
                }
                if feasible {
                    let cost = base_cost + total;
                    // New state: bundles still crossing after this group.
                    let mut key: StateKey = state_key
                        .iter()
                        .copied()
                        .filter(|&(b, _)| bundles.last[b] > gi)
                        .chain(
                            combo
                                .iter()
                                .copied()
                                .filter(|&(b, _)| bundles.last[b] > gi),
                        )
                        .collect();
                    key.sort_unstable();
                    let entry =
                        next.entry(key.clone()).or_insert((f64::INFINITY, usize::MAX));
                    if cost < entry.0 {
                        *entry = (cost, 0);
                        trace.insert(
                            key,
                            Trace {
                                prev: state_key.clone(),
                                resolved: combo.clone(),
                                class_choice: choices,
                            },
                        );
                    }
                }
                for &(b, _) in combo {
                    spec_arr[b] = REP;
                }
            }
            for &(b, _) in state_key {
                spec_arr[b] = REP;
            }
        }
        if next.is_empty() {
            return Err(CoreError::NoStrategy {
                node: format!("group {gi}"),
                detail: "no feasible configuration".into(),
            });
        }
        if next.len() > opts.state_bound {
            return Err(CoreError::SearchSpaceExceeded {
                states: next.len(),
                bound: opts.state_bound,
            });
        }
        if opts.beam == 0 {
            // An empty beam is a mis-set bound, not an infeasible graph.
            return Err(CoreError::SearchSpaceExceeded { states: next.len(), bound: 0 });
        }
        if next.len() > opts.beam {
            // Beam pruning: keep the cheapest states.
            let mut ranked: Vec<(StateKey, (f64, usize))> = next.into_iter().collect();
            ranked.sort_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("finite costs"));
            ranked.truncate(opts.beam);
            next = ranked.into_iter().collect();
            trace.retain(|k, _| next.contains_key(k));
        }
        if let Some(c) = obs {
            let ts = c.now_us();
            c.add_total("dp/states_explored", (states.len() * combos.len()) as f64);
            let width = next.keys().map(|k| k.len()).max().unwrap_or(0) as f64;
            c.counter(Track::search(), "dp/frontier states", ts, next.len() as f64);
            c.counter(Track::search(), "dp/frontier width", ts, width);
            c.max_total("dp/frontier_width_max", width);
        }
        states = next;
        traces.push(trace);
    }

    // Reconstruct: final state should be the single empty key (or the best).
    let (mut key, (total_cost, _)) = states
        .iter()
        .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("finite costs"))
        .map(|(k, v)| (k.clone(), *v))
        .expect("states nonempty");

    let mut bundle_spec: Vec<TensorSpec> = vec![TensorSpec::Replicated; bundles.count];
    let mut class_choice: BTreeMap<usize, usize> = BTreeMap::new();
    for gi in (0..cg.groups.len()).rev() {
        let t = traces[gi]
            .get(&key)
            .ok_or_else(|| CoreError::Internal(format!("missing trace at group {gi}")))?;
        for &(b, s) in &t.resolved {
            bundle_spec[b] = s;
        }
        // Specs of bundles alive in this state.
        for &(b, s) in &key {
            bundle_spec[b] = s;
        }
        for &(ci, idx) in &t.class_choice {
            class_choice.insert(ci, idx);
        }
        key = t.prev.clone();
    }

    // Materialize per-tensor and per-node plans.
    let tensor_spec: Vec<TensorSpec> =
        (0..view.len()).map(|t| bundle_spec[bundles.of_tensor[t]]).collect();
    let mut node_choice: Vec<NodeChoice> = Vec::with_capacity(g.num_nodes());
    for id in g.node_ids() {
        let ci = cg.class_of[id.0];
        let info = classes[ci].as_ref().expect("class exists");
        let idx = class_choice.get(&ci).copied().ok_or_else(|| {
            CoreError::Internal(format!("no strategy recorded for class {ci}"))
        })?;
        node_choice.push(info.strategies[idx].clone());
    }

    Ok(StepPlan { ways, tensor_spec, node_choice, comm_bytes: total_cost })
}

// ---------------------------------------------------------------------------
// Optimized engine
// ---------------------------------------------------------------------------

/// One DP state in the optimized engine: its cost, the index of the state it
/// came from in the previous cut's frontier, and the index of the combo it
/// took there. Its key — the canonical byte encoding of each crossing
/// bundle's spec, aligned with the cut's sorted crossing-bundle list — is
/// not stored here: a cut keeps its frontier's keys in one byte array of
/// stride `width`, the `i`-th state's key at `[i * width..][..width]` (see
/// [`key_at`]).
#[derive(Clone, Copy)]
struct Cand {
    cost: f64,
    prev: u32,
    combo: u32,
}

/// Per-cut record kept for plan reconstruction: the cut's combos and its
/// surviving states in key order. Reconstruction follows `prev` and `combo`
/// only, so the keys are not kept.
struct CutRecord {
    combos: Vec<Vec<(usize, TensorSpec)>>,
    kept: Vec<Cand>,
}

/// The key of the `i`-th state in a key array of stride `width`.
#[inline]
fn key_at(keys: &[u8], width: usize, i: usize) -> &[u8] {
    &keys[i * width..][..width]
}

/// Per-(cut, class) layout and cost table. A class lies in one group, so
/// its cost at the cut depends on two spec tuples only: the *fresh* one,
/// read from the combo, and the *carried* one, read from the state. Each is
/// numbered densely per class, and the cost of (carried id, fresh id) sits
/// in the cut's cost arena at `bases[carried id] + fresh id`.
#[derive(Default)]
struct CutClass {
    ci: usize,
    /// (bundle, index into the cut's fresh list), in bundle order.
    fresh_fields: Vec<(usize, usize)>,
    /// (bundle, position in the previous cut's crossing list).
    carried_fields: Vec<(usize, usize)>,
    /// Distinct fresh tuples at this cut: each carried id's arena stride.
    n_fresh: usize,
    /// Dense ids of the carried tuples seen so far, and each one's arena
    /// base (one base, allocated up front, when there are no carried
    /// fields).
    carried_ids: FastMap<Vec<u8>, usize>,
    bases: Vec<usize>,
}

/// A cost-arena entry not yet evaluated.
const UNSET: f64 = f64::NAN;

/// One step of a cell's staircase: a combo whose group cost is strictly
/// below that of every earlier combo offered to the same cell, linked to the
/// step before it.
struct Stair {
    total: f64,
    combo: u32,
    prev: u32,
}

const NO_STAIR: u32 = u32::MAX;

/// The tables of one cut's factored transition, kept across cuts so their
/// allocations are reused.
///
/// A *row* is one distinct projection of the frontier onto the carried
/// bundles the group's classes read: every state with that projection gets
/// the same f64 group cost for every combo, so the row is costed once. An
/// *assignment* is one distinct spec tuple of the fresh bundles that survive
/// the cut; combos that differ only in bundles closed here compete inside
/// one `(row, assignment)` cell. A *group* is one distinct spec tuple of the
/// surviving carried bundles; `(group, assignment)` is exactly a next-state
/// key, so states relax into a dense `groups × assignments` table.
#[derive(Default)]
struct CutTables {
    /// Dense indices of the distinct rows and groups seen at this cut, keyed
    /// by their spec tuples.
    rows: FastMap<Vec<u8>, usize>,
    groups: FastMap<Vec<u8>, usize>,
    /// Assignment of each combo (see [`project`]).
    combo_assign: Vec<u32>,
    /// The fresh id (see [`CutClass`]) of combo `c` for the cut's `k`-th
    /// class, at `k * combos + c`.
    fresh_ids: Vec<u32>,
    /// The classes' costs, `UNSET` until first touched and `INFINITY` where
    /// a class has no feasible strategy.
    costs: Vec<f64>,
    /// Row of each state.
    state_row: Vec<usize>,
    /// Per `(row, assignment)`: least group cost (`INFINITY` when every
    /// combo is infeasible) and the staircase step that reached it.
    min_total: Vec<f64>,
    head: Vec<u32>,
    stairs: Vec<Stair>,
    /// Per `(group, assignment)`: least cost into that next state and the
    /// first state reaching it.
    best_cost: Vec<f64>,
    best_src: Vec<u32>,
}

impl CutTables {
    fn clear(&mut self) {
        self.rows.clear();
        self.groups.clear();
        self.combo_assign.clear();
        self.fresh_ids.clear();
        self.costs.clear();
        self.state_row.clear();
        self.min_total.clear();
        self.head.clear();
        self.stairs.clear();
        self.best_cost.clear();
        self.best_src.clear();
    }

    /// Offers `combo` at group cost `total` to a `(row, assignment)` cell.
    /// Combos arrive in enumeration order and only a strict improvement adds
    /// a step, so the staircase is strictly descending in cost and ascending
    /// in combo index.
    fn offer(&mut self, cell: usize, total: f64, combo: u32) {
        if total < self.min_total[cell] {
            self.stairs.push(Stair { total, combo, prev: self.head[cell] });
            self.head[cell] = (self.stairs.len() - 1) as u32;
            self.min_total[cell] = total;
        }
    }

    /// The combo a state of cost `base` takes into a finite cell: the
    /// *first* staircase step whose sum equals `base + min_total`. That is
    /// not always the cheapest step — f64 addition is monotone but not
    /// injective, so a larger group cost can round to the same sum, and the
    /// reference's strict `<` scan then keeps the earlier combo. Sums are
    /// non-increasing along the staircase, so the steps reaching the minimum
    /// are a suffix, walked from the end. A combo that never made a step
    /// cannot be first: an earlier one costs no more, hence sums no higher.
    fn first_combo_reaching(&self, cell: usize, base: f64) -> u32 {
        let cost = base + self.min_total[cell];
        let mut step = &self.stairs[self.head[cell] as usize];
        while step.prev != NO_STAIR && base + self.stairs[step.prev as usize].total == cost {
            step = &self.stairs[step.prev as usize];
        }
        step.combo
    }
}

/// Index of `key` among the distinct keys seen so far, and whether it is new.
fn intern(ids: &mut FastMap<Vec<u8>, usize>, key: &[u8]) -> (usize, bool) {
    if let Some(&id) = ids.get(key) {
        return (id, false);
    }
    let id = ids.len();
    ids.insert(key.to_vec(), id);
    (id, true)
}

/// Numbers the distinct projections of the cut's combos onto the fresh
/// positions `fields` densely, in order of first appearance, into `ids`
/// (one per combo), and returns how many there are. `digits[c * radix.len() + f]`
/// is the index of combo `c`'s spec among the legal specs of fresh bundle
/// `f`, which has `radix[f]` of them. The projection is refined one field
/// at a time, each combo's id so far and its digit indexing a dense table,
/// so no tuple is built or hashed.
fn project(
    digits: &[u8],
    radix: &[usize],
    fields: impl Iterator<Item = usize>,
    ids: &mut [u32],
    table: &mut Vec<u32>,
) -> usize {
    ids.fill(0);
    let mut n = 1;
    for f in fields {
        table.clear();
        table.resize(n * radix[f], u32::MAX);
        n = 0;
        for (c, id) in ids.iter_mut().enumerate() {
            let digit = usize::from(digits[c * radix.len() + f]);
            let slot = &mut table[*id as usize * radix[f] + digit];
            if *slot == u32::MAX {
                *slot = n as u32;
                n += 1;
            }
            *id = *slot;
        }
    }
    n
}

/// Runs the DP for one basic step, returning the optimal [`StepPlan`].
///
/// This is the optimized engine — identical recurrence, ranking, beam
/// truncation and tie-breaking to [`unoptimized_search`], with the
/// transition factored over the carried bundles each group reads (see
/// `CutTables`), one dense class-cost table per cut (see `CutClass`), and
/// each class's strategies concretised from the analysis `cg` carries
/// rather than rediscovered. It returns the
/// reference's plan, or the reference's error, at every option setting,
/// including where [`PartitionOptions::beam`] and
/// [`PartitionOptions::internal_bound`] bind (enforced by the differential
/// harness). It takes exactly [`unoptimized_search`]'s parameters. Every
/// call searches: repeated requests are answered one level up, by the
/// request memo in [`crate::recursive::partition_cached`].
///
/// Statistics go to `obs`: running totals `dp/strategies_enumerated`,
/// `dp/strategies_feasible`, `dp/frontier_width_max`; the work totals
/// `dp/states_explored` ((state, assignment) pairs whose group cost was
/// evaluated: Σ rows × combos here, Σ states × combos in the reference),
/// `dp/relaxations` (Σ states × surviving assignments, one add-compare
/// each, infeasible cells included) and `dp/class_evals` (class costs
/// computed, one per distinct (class, specs) pair a cut reaches);
/// `dp/assignments_bounded` (cuts where
/// [`PartitionOptions::internal_bound`] made enumeration non-exhaustive;
/// absent when it never fires); the pruning total `dp/prune_beam` (states
/// the beam truncated); plus per-cut `dp/frontier states` and
/// `dp/frontier width` counter samples on [`Track::search`] (frontier
/// width = bundles crossing the cut, the quantity §5 argues stays tiny on
/// chain-like coarsened graphs).
pub fn search(
    g: &Graph,
    view: &ShapeView,
    cg: &CoarseGraph,
    extra: &ExtraInputs,
    ways: usize,
    opts: &PartitionOptions,
    obs: Option<&Collector>,
) -> Result<StepPlan> {
    if ways < 2 {
        return Err(CoreError::BadWorkerCount(ways));
    }
    if opts.internal_bound == 0 {
        // No assignment may be enumerated: a mis-set bound, as an empty beam.
        return Err(CoreError::SearchSpaceExceeded { states: 0, bound: 0 });
    }

    let bundles = build_bundles(g, view, cg, extra, ways);
    let classes = build_classes(g, view, cg, extra, &bundles, ways, opts, true, obs)?;

    // Costs one class, its fresh bundles' specs read from `combo` and its
    // carried ones' from the state key `specs`: the table-miss path.
    let mut class_evals = 0u64;
    let mut eval_spec = vec![TensorSpec::Replicated; bundles.count];
    let mut eval = |cc: &CutClass, combo: &[(usize, TensorSpec)], specs: &[u8]| -> f64 {
        class_evals += 1;
        for &(b, f) in &cc.fresh_fields {
            eval_spec[b] = combo[f].1;
        }
        for &(b, p) in &cc.carried_fields {
            eval_spec[b] = TensorSpec::dec(specs[p]);
        }
        let info = classes[cc.ci].as_ref().expect("class exists");
        let spec = |t: TensorId| eval_spec[bundles.of_tensor[t.0]];
        class_cost(g, view, extra, info, &spec, ways).map_or(f64::INFINITY, |(c, _)| c)
    };

    let root = [Cand { cost: 0.0, prev: u32::MAX, combo: u32::MAX }];
    let mut records: Vec<CutRecord> = Vec::with_capacity(cg.groups.len());
    // The frontier's keys, stride `prev_cross.len()` (the root's one key is
    // empty).
    let mut keys: Vec<u8> = Vec::new();
    let mut prev_cross: Vec<usize> = Vec::new();
    let mut tables = CutTables::default();
    // Per-cut buffers, refilled at every cut so their allocations are reused
    // like `tables`'. `class_pool` keeps as many per-class field layouts as
    // the most classes a cut has had; a cut uses its first entries.
    let mut touched: Vec<usize> = Vec::new();
    let mut fresh: Vec<usize> = Vec::new();
    let mut next_cross: Vec<usize> = Vec::new();
    let mut class_pool: Vec<CutClass> = Vec::new();
    let mut radix: Vec<usize> = Vec::new();
    let mut digits: Vec<u8> = Vec::new();
    let mut id_table: Vec<u32> = Vec::new();
    let mut row_base: Vec<usize> = Vec::new();
    let mut cands: Vec<Cand> = Vec::new();
    let mut cand_keys: Vec<u8> = Vec::new();
    let mut order: Vec<(u128, u32)> = Vec::new();
    let mut tuple: Vec<u8> = Vec::new();
    let mut pruned_beam = 0u64;

    for (gi, group) in cg.groups.iter().enumerate() {
        // The frontier entering this cut, in key order.
        let cur: &[Cand] = records.last().map_or(&root, |r| &r.kept);
        let prev_width = prev_cross.len();
        touched.clear();
        for &n in &group.nodes {
            let node = g.node(n);
            touched.push(bundles.of_tensor[node.output.0]);
            for &t in &node.inputs {
                touched.push(bundles.of_tensor[t.0]);
            }
            for (_, t) in extra.of_node(n) {
                touched.push(bundles.of_tensor[t.0]);
            }
        }
        touched.sort_unstable();
        touched.dedup();

        fresh.clear();
        fresh.extend(touched.iter().copied().filter(|&b| bundles.first[b] == gi));
        let combos = enumerate_assignments(&fresh, &bundles.legal, opts.internal_bound);

        // Bundles crossing the cut after this group, sorted (fresh and
        // prev_cross are disjoint: first == gi vs first < gi).
        next_cross.clear();
        next_cross.extend(
            prev_cross
                .iter()
                .copied()
                .filter(|&b| bundles.last[b] > gi)
                .chain(fresh.iter().copied().filter(|&b| bundles.last[b] > gi)),
        );
        next_cross.sort_unstable();
        let width = next_cross.len();

        // Position maps for O(1) next-state assembly.
        let pos_in = |list: &[usize], b: usize| list.binary_search(&b).ok();
        let surviving_prev: Vec<(usize, usize)> = prev_cross
            .iter()
            .enumerate()
            .filter(|&(_, &b)| bundles.last[b] > gi)
            .map(|(p, &b)| (p, pos_in(&next_cross, b).expect("crossing bundle")))
            .collect();
        let surviving_fresh: Vec<(usize, usize)> = fresh
            .iter()
            .enumerate()
            .filter(|&(_, &b)| bundles.last[b] > gi)
            .map(|(f, &b)| (f, pos_in(&next_cross, b).expect("crossing bundle")))
            .collect();

        // Each combo's spec of each fresh bundle as its index among the
        // bundle's legal specs: the digits `project` numbers tuples by.
        radix.clear();
        radix.extend(fresh.iter().map(|&b| bundles.legal[b].len()));
        digits.clear();
        for combo in &combos {
            digits.extend(combo.iter().map(|&(b, s)| {
                bundles.legal[b].iter().position(|&l| l == s).expect("legal spec") as u8
            }));
        }
        let n_combos = combos.len();
        tables.clear();
        tables.combo_assign.resize(n_combos, 0);
        let fields = surviving_fresh.iter().map(|&(f, _)| f);
        let n_assign =
            project(&digits, &radix, fields, &mut tables.combo_assign, &mut id_table);

        // Per-class layout at this cut, the fresh id of every combo, and
        // the whole table of a class with no carried fields, which reads no
        // state.
        let mut n_classes = 0;
        for &ci in &group.classes {
            let Some(info) = &classes[ci] else { continue };
            if n_classes == class_pool.len() {
                class_pool.push(CutClass::default());
            }
            let cc = &mut class_pool[n_classes];
            n_classes += 1;
            cc.ci = ci;
            cc.fresh_fields.clear();
            cc.carried_fields.clear();
            cc.carried_ids.clear();
            cc.bases.clear();
            for &b in &info.touched {
                if let Some(f) = pos_in(&fresh, b) {
                    cc.fresh_fields.push((b, f));
                } else {
                    let Some(p) = pos_in(&prev_cross, b) else {
                        return Err(CoreError::Internal(format!(
                            "bundle carried into group {gi} missing from DP state"
                        )));
                    };
                    cc.carried_fields.push((b, p));
                }
            }
            let at = tables.fresh_ids.len();
            tables.fresh_ids.resize(at + n_combos, 0);
            let fields = cc.fresh_fields.iter().map(|&(_, f)| f);
            let ids = &mut tables.fresh_ids[at..];
            cc.n_fresh = project(&digits, &radix, fields, ids, &mut id_table);
            if cc.carried_fields.is_empty() {
                let base = tables.costs.len();
                cc.bases.push(base);
                tables.costs.resize(base + cc.n_fresh, UNSET);
                for (combo, &id) in combos.iter().zip(&tables.fresh_ids[at..]) {
                    let cost = &mut tables.costs[base + id as usize];
                    if cost.is_nan() {
                        *cost = eval(cc, combo, &[]);
                    }
                }
            }
        }
        let cut_classes = &mut class_pool[..n_classes];
        row_base.resize(n_classes, 0);

        // Transition, factored (see `CutTables`): cost each distinct
        // projection of the frontier onto the carried bundles the classes
        // read once, then relax every state into the dense table of next
        // keys. The winner of a next key is the lexicographically first
        // (state, combo) reaching the minimum sum under strict `<`, as in
        // the reference (states iterate in key order, combos in enumeration
        // order).
        let mut read_pos: Vec<usize> = cut_classes
            .iter()
            .flat_map(|cc| cc.carried_fields.iter().map(|&(_, p)| p))
            .collect();
        read_pos.sort_unstable();
        read_pos.dedup();

        for (si, st) in cur.iter().enumerate() {
            let specs = key_at(&keys, prev_width, si);
            tuple.clear();
            tuple.extend(read_pos.iter().map(|&p| specs[p]));
            let (row, new_row) = intern(&mut tables.rows, &tuple);
            tables.state_row.push(row);
            if new_row {
                tables.min_total.resize((row + 1) * n_assign, f64::INFINITY);
                tables.head.resize((row + 1) * n_assign, NO_STAIR);
                // Each class's block of the arena for this row's carried
                // tuple, allocated when the tuple is new at the cut.
                for (base, cc) in row_base.iter_mut().zip(cut_classes.iter_mut()) {
                    if cc.carried_fields.is_empty() {
                        *base = cc.bases[0];
                        continue;
                    }
                    tuple.clear();
                    tuple.extend(cc.carried_fields.iter().map(|&(_, p)| specs[p]));
                    let (id, new) = intern(&mut cc.carried_ids, &tuple);
                    if new {
                        cc.bases.push(tables.costs.len());
                        tables.costs.resize(tables.costs.len() + cc.n_fresh, UNSET);
                    }
                    *base = cc.bases[id];
                }
                for (combo_i, combo) in combos.iter().enumerate() {
                    let mut total = 0.0f64;
                    for (k, cc) in cut_classes.iter().enumerate() {
                        let id = tables.fresh_ids[k * n_combos + combo_i];
                        let cost = &mut tables.costs[row_base[k] + id as usize];
                        if cost.is_nan() {
                            *cost = eval(cc, combo, specs);
                        }
                        total += *cost;
                        // An infeasible class ends the combo: `offer`'s
                        // strict `<` never admits an infinite total.
                        if *cost == f64::INFINITY {
                            break;
                        }
                    }
                    let cell = row * n_assign + tables.combo_assign[combo_i] as usize;
                    tables.offer(cell, total, combo_i as u32);
                }
            }

            tuple.clear();
            tuple.extend(surviving_prev.iter().map(|&(p, _)| specs[p]));
            let (group, new_group) = intern(&mut tables.groups, &tuple);
            if new_group {
                tables.best_cost.resize((group + 1) * n_assign, f64::INFINITY);
                tables.best_src.resize((group + 1) * n_assign, 0);
            }
            let totals = &tables.min_total[row * n_assign..][..n_assign];
            let costs = &mut tables.best_cost[group * n_assign..][..n_assign];
            let srcs = &mut tables.best_src[group * n_assign..][..n_assign];
            for ((&total, best), src) in totals.iter().zip(costs).zip(srcs) {
                let cost = st.cost + total;
                if cost < *best {
                    *best = cost;
                    *src = si as u32;
                }
            }
        }

        // One candidate per finite cell, its key materialised into the
        // cut's key array `cand_keys` (stride `width`). A key is exactly its
        // cell's (group, assignment) pair, so the keys are unique and the
        // candidates' order here is free.
        cands.clear();
        cand_keys.clear();
        for (cell, (&cost, &src)) in tables.best_cost.iter().zip(&tables.best_src).enumerate() {
            if cost == f64::INFINITY {
                continue;
            }
            let specs = key_at(&keys, prev_width, src as usize);
            let from = tables.state_row[src as usize] * n_assign + cell % n_assign;
            let combo_i = tables.first_combo_reaching(from, cur[src as usize].cost);
            let at = cand_keys.len();
            cand_keys.resize(at + width, 0);
            let key = &mut cand_keys[at..];
            for &(p, q) in &surviving_prev {
                key[q] = specs[p];
            }
            let combo = &combos[combo_i as usize];
            for &(f, q) in &surviving_fresh {
                key[q] = combo[f].1.enc();
            }
            cands.push(Cand { cost, prev: src, combo: combo_i });
        }

        if cands.is_empty() {
            return Err(CoreError::NoStrategy {
                node: format!("group {gi}"),
                detail: "no feasible configuration".into(),
            });
        }
        if cands.len() > opts.state_bound {
            return Err(CoreError::SearchSpaceExceeded {
                states: cands.len(),
                bound: opts.state_bound,
            });
        }
        if opts.beam == 0 {
            // An empty beam is a mis-set bound, not an infeasible graph.
            return Err(CoreError::SearchSpaceExceeded { states: cands.len(), bound: 0 });
        }

        // Select the beam, then key-sort the survivors. The reference keeps
        // the first `beam` states of a stable cost sort over key-ordered
        // states, i.e. the `beam` least under (cost, key); keys are unique,
        // so that order is total and the selected set is the same however
        // the selection breaks its own ties. The survivors go on in key
        // order (the reference iterates its BTreeMap in key order).
        //
        // `order` pairs each candidate's index with its key's first 16 bytes
        // read as a big-endian integer, so most key comparisons are one
        // integer compare; equal heads compare the rest of the keys (every
        // key at a cut has the same width).
        let head_len = width.min(16);
        order.clear();
        order.extend((0..cands.len()).map(|i| {
            let mut head = [0u8; 16];
            head[..head_len].copy_from_slice(&key_at(&cand_keys, width, i)[..head_len]);
            (u128::from_be_bytes(head), i as u32)
        }));
        let tail = |i: u32| &key_at(&cand_keys, width, i as usize)[head_len..];
        let by_key = |a: &(u128, u32), b: &(u128, u32)| {
            a.0.cmp(&b.0).then_with(|| tail(a.1).cmp(tail(b.1)))
        };
        if order.len() > opts.beam {
            pruned_beam += (order.len() - opts.beam) as u64;
            order.select_nth_unstable_by(opts.beam - 1, |a, b| {
                let (x, y) = (cands[a.1 as usize].cost, cands[b.1 as usize].cost);
                x.partial_cmp(&y).expect("finite costs").then_with(|| by_key(a, b))
            });
            order.truncate(opts.beam);
        }
        order.sort_unstable_by(by_key);
        keys.clear();
        let mut kept: Vec<Cand> = Vec::with_capacity(order.len());
        for &(_, i) in &order {
            keys.extend_from_slice(key_at(&cand_keys, width, i as usize));
            kept.push(cands[i as usize]);
        }

        if let Some(c) = obs {
            let ts = c.now_us();
            c.add_total("dp/states_explored", (tables.rows.len() * combos.len()) as f64);
            c.add_total("dp/relaxations", (cur.len() * n_assign) as f64);
            if assignments_exceed(&fresh, &bundles.legal, opts.internal_bound) {
                c.add_total("dp/assignments_bounded", 1.0);
            }
            c.counter(Track::search(), "dp/frontier states", ts, kept.len() as f64);
            c.counter(Track::search(), "dp/frontier width", ts, width as f64);
            c.max_total("dp/frontier_width_max", width as f64);
        }

        records.push(CutRecord { combos, kept });
        std::mem::swap(&mut prev_cross, &mut next_cross);
    }
    let cur: &[Cand] = records.last().map_or(&root, |r| &r.kept);

    if let Some(c) = obs {
        c.add_total("dp/prune_beam", pruned_beam as f64);
        c.add_total("dp/class_evals", class_evals as f64);
    }

    // Final state: minimum cost, last-minimum in key order (matches the
    // reference's `min_by` over a BTreeMap).
    let mut best = 0usize;
    for (i, cand) in cur.iter().enumerate() {
        if cand.cost.partial_cmp(&cur[best].cost).expect("finite costs").is_le() {
            best = i;
        }
    }
    let total_cost = cur[best].cost;

    // Walk the winning path backwards; every bundle is fresh at exactly one
    // cut, so applying each cut's combo resolves every touched bundle.
    let mut bundle_spec: Vec<TensorSpec> = vec![TensorSpec::Replicated; bundles.count];
    let mut idx = best;
    for gi in (0..cg.groups.len()).rev() {
        let rec = &records[gi];
        let cand = &rec.kept[idx];
        for &(b, s) in &rec.combos[cand.combo as usize] {
            bundle_spec[b] = s;
        }
        idx = cand.prev as usize;
    }

    // Recompute each class's winning strategy from the final specs: the
    // same deterministic first-minimum scan the DP ran, on the same specs,
    // yields the same index.
    let spec_of = |t: TensorId| bundle_spec[bundles.of_tensor[t.0]];
    let tensor_spec: Vec<TensorSpec> =
        (0..view.len()).map(|t| bundle_spec[bundles.of_tensor[t]]).collect();
    let mut class_pick: Vec<Option<usize>> = vec![None; classes.len()];
    let mut node_choice: Vec<NodeChoice> = Vec::with_capacity(g.num_nodes());
    for id in g.node_ids() {
        let ci = cg.class_of[id.0];
        let info = classes[ci].as_ref().expect("class exists");
        let idx = match class_pick[ci] {
            Some(i) => i,
            None => {
                let (_, i) = class_cost(g, view, extra, info, &spec_of, ways).ok_or_else(|| {
                    CoreError::Internal(format!("winning plan infeasible for class {ci}"))
                })?;
                class_pick[ci] = Some(i);
                i
            }
        };
        node_choice.push(info.strategies[idx].clone());
    }

    Ok(StepPlan { ways, tensor_spec, node_choice, comm_bytes: total_cost })
}

/// True when the cartesian product of the bundles' legal-spec sets exceeds
/// `bound`, i.e. when [`enumerate_assignments`] is not exhaustive.
fn assignments_exceed(
    bundles_to_assign: &[usize],
    legal: &[Vec<TensorSpec>],
    bound: usize,
) -> bool {
    let mut product = 1usize;
    for &b in bundles_to_assign {
        product = product.saturating_mul(legal[b].len());
        if product > bound {
            break;
        }
    }
    product > bound
}

/// Enumerates assignments over the given bundles, at most `bound` of them;
/// falls back to the default assignment and its single-coordinate
/// variations when the product exceeds the bound.
fn enumerate_assignments(
    bundles_to_assign: &[usize],
    legal: &[Vec<TensorSpec>],
    bound: usize,
) -> Vec<Vec<(usize, TensorSpec)>> {
    if !assignments_exceed(bundles_to_assign, legal, bound) {
        // Full cartesian product.
        let mut out: Vec<Vec<(usize, TensorSpec)>> = vec![Vec::new()];
        for &b in bundles_to_assign {
            let mut next = Vec::with_capacity(out.len() * legal[b].len());
            for partial in &out {
                for &s in &legal[b] {
                    let mut p = partial.clone();
                    p.push((b, s));
                    next.push(p);
                }
            }
            out = next;
        }
        out
    } else {
        // Bounded: vary one bundle at a time, in bundle order, around a
        // default assignment (first legal spec each), stopping at the bound.
        // This loses optimality but keeps the search tractable for
        // degenerate graphs.
        let default: Vec<(usize, TensorSpec)> =
            bundles_to_assign.iter().map(|&b| (b, legal[b][0])).collect();
        let variations = bundles_to_assign.iter().enumerate().flat_map(|(i, &b)| {
            legal[b].iter().skip(1).map(move |&s| (i, (b, s)))
        });
        let varied = variations.map(|(i, bs)| {
            let mut v = default.clone();
            v[i] = bs;
            v
        });
        std::iter::once(default.clone()).chain(varied).take(bound).collect()
    }
}

/// Cost of one class under a full spec assignment, and the index of its
/// cheapest choice; `None` when no feasible choice exists. The class's
/// members share one choice, costed summed over them (first/last timesteps
/// may read different bundles than interior ones).
fn class_cost(
    g: &Graph,
    view: &ShapeView,
    extra: &ExtraInputs,
    info: &ClassInfo,
    spec: &impl Fn(TensorId) -> TensorSpec,
    ways: usize,
) -> Option<(f64, usize)> {
    let out_spec = spec(g.node(info.rep).output);
    let mut best: Option<(f64, usize)> = None;
    for (idx, choice) in info.strategies.iter().enumerate() {
        // An element-wise class computes its outputs in its bundle's spec.
        if matches!(choice, NodeChoice::Ewise(s) if *s != out_spec) {
            continue;
        }
        let mut total = 0.0;
        for &m in &info.members {
            node_cost(g, view, extra, m, choice, &|t| Some(spec(t)), ways, &mut total);
        }
        if best.map(|(b, _)| total < b).unwrap_or(true) {
            best = Some((total, idx));
        }
    }
    best
}

/// Adds to `total` the bytes node `m` moves under `choice` (§5, Lemma 1):
/// each input, then each Fig. 6 buffer attached to the node, then a
/// strategy's output — a respec to the output's spec, or a reduction. An
/// element-wise choice computes its output in the class spec, so its
/// output is free. `spec` gives each tensor's spec at this step; a tensor
/// without one costs nothing. The DP, the Fig. 6 recursion's buffers and
/// the Fig. 10 baselines all cost a choice here, in this order, so their
/// sums agree bit for bit.
#[allow(clippy::too_many_arguments)]
pub(crate) fn node_cost(
    g: &Graph,
    view: &ShapeView,
    extra: &ExtraInputs,
    m: NodeId,
    choice: &NodeChoice,
    spec: &impl Fn(TensorId) -> Option<TensorSpec>,
    ways: usize,
    total: &mut f64,
) {
    let node = g.node(m);
    // A buffer is a slab of the input it serves: splitting it the way the
    // choice needs that input is free; anything else costs like the input.
    let inputs = node.inputs.iter().copied().enumerate();
    for (i, t) in inputs.chain(extra.of_node(m)) {
        if let Some(s) = spec(t) {
            let shape = view.shape(t);
            *total += input_fetch_bytes(shape, s, &choice.req(i, shape), ways);
        }
    }
    if let NodeChoice::Strategy(st) = choice {
        let out_shape = view.shape(node.output);
        match st.out {
            ConcreteOut::Split(c) => {
                if let Some(s) = spec(node.output) {
                    *total += respec_bytes(out_shape, TensorSpec::Split(c), s, ways);
                }
            }
            ConcreteOut::Reduce => *total += output_bytes(out_shape, ConcreteOut::Reduce, ways),
        }
    }
}

/// What an element-wise class split by `class_spec` requires of an input of
/// `shape`: the same split, or the whole tensor when the input has no such
/// dimension.
fn ewise_req(class_spec: TensorSpec, shape: &Shape) -> ConcreteReq {
    match class_spec {
        TensorSpec::Split(d) if d < shape.rank() => ConcreteReq::Split { dim: d, halo: 0.0 },
        _ => ConcreteReq::Replicated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarsen::coarsen;
    use tofu_graph::{autodiff, Attrs};

    fn matmul_chain(batch: usize, dims: &[usize]) -> (Graph, Vec<TensorId>) {
        let mut g = Graph::new();
        let mut t = g.add_input("x", Shape::new(vec![batch, dims[0]]));
        let mut weights = Vec::new();
        for (i, w) in dims.windows(2).enumerate() {
            let wt = g.add_weight(&format!("w{i}"), Shape::new(vec![w[0], w[1]]));
            weights.push(wt);
            t = g.add_op("matmul", &format!("fc{i}"), &[t, wt], Attrs::new()).unwrap();
        }
        let labels = g.add_input("labels", Shape::new(vec![batch]));
        let loss = g.add_op("softmax_ce", "loss", &[t, labels], Attrs::new()).unwrap();
        autodiff::backward(&mut g, loss, &weights).unwrap();
        (g, weights)
    }

    /// One `ways`-way step of `engine` at the graph's declared shapes,
    /// without extra inputs.
    fn step(engine: StepFn, g: &Graph, ways: usize, opts: &PartitionOptions) -> Result<StepPlan> {
        engine(g, &ShapeView::from_graph(g), &coarsen(g), &ExtraInputs::new(), ways, opts, None)
    }

    fn dp(g: &Graph, ways: usize, opts: &PartitionOptions) -> Result<StepPlan> {
        step(search, g, ways, opts)
    }

    fn run_dp(g: &Graph) -> StepPlan {
        dp(g, 2, &PartitionOptions::default()).unwrap()
    }

    #[test]
    fn single_matmul_training_step_has_plan() {
        let (g, _) = matmul_chain(8, &[16, 10]);
        let plan = run_dp(&g);
        assert_eq!(plan.ways, 2);
        assert_eq!(plan.node_choice.len(), g.num_nodes());
        assert!(plan.comm_bytes.is_finite());
        // Every tensor received a spec.
        assert_eq!(plan.tensor_spec.len(), g.num_tensors());
    }

    #[test]
    fn deep_chain_plan_cost_is_reasonable() {
        let (g, _) = matmul_chain(8, &[32, 64, 64, 10]);
        let plan = run_dp(&g);
        // The plan must be cheaper than all-replication of all weights.
        let weight_bytes: u64 = g.weight_bytes();
        assert!(plan.comm_bytes < 3.0 * weight_bytes as f64 + 1e6);
    }

    #[test]
    fn batch_split_is_chosen_for_data_parallel_friendly_graph() {
        // With a big batch and small weights, splitting the batch dimension
        // everywhere (data parallelism within the group) is optimal: weights
        // replicated (their fetch is cheap), activations split along dim 0.
        let (g, _) = matmul_chain(1024, &[4, 4]);
        let plan = run_dp(&g);
        let x = g.tensor_by_name("x").unwrap();
        assert_eq!(plan.spec(x), TensorSpec::Split(0));
    }

    #[test]
    fn huge_weights_prefer_model_parallelism() {
        // Tiny batch, enormous weight: the weight must not be replicated;
        // the DP should split it and pay for the small activations instead.
        let (g, weights) = matmul_chain(2, &[2048, 2048]);
        let plan = run_dp(&g);
        let w_spec = plan.spec(weights[0]);
        assert!(matches!(w_spec, TensorSpec::Split(_)), "weight replicated: {w_spec:?}");
    }

    #[test]
    fn disallowing_reduce_increases_cost() {
        let (g, _) = matmul_chain(64, &[256, 256, 10]);
        let with = run_dp(&g);
        let opts = PartitionOptions { allow_reduce: false, ..PartitionOptions::default() };
        let without = dp(&g, 2, &opts).unwrap();
        assert!(without.comm_bytes >= with.comm_bytes);
    }

    #[test]
    fn four_way_step_works() {
        let (g, _) = matmul_chain(16, &[32, 32]);
        let plan = dp(&g, 4, &PartitionOptions::default()).unwrap();
        assert_eq!(plan.ways, 4);
    }

    #[test]
    fn one_way_step_is_rejected() {
        let (g, _) = matmul_chain(4, &[4, 4]);
        for engine in [search as StepFn, unoptimized_search] {
            let err = step(engine, &g, 1, &PartitionOptions::default()).unwrap_err();
            assert!(matches!(err, CoreError::BadWorkerCount(1)));
        }
    }

    #[test]
    fn bounded_enumeration_returns_at_most_the_bound() {
        let legal: Vec<Vec<TensorSpec>> = [1usize, 3, 2, 4, 3]
            .iter()
            .map(|&n| {
                let mut specs: Vec<TensorSpec> = (0..n - 1).map(TensorSpec::Split).collect();
                specs.push(TensorSpec::Replicated);
                specs
            })
            .collect();
        let all: Vec<usize> = (0..legal.len()).collect();
        for bound in 1..=5 {
            for bundles in [&all[..], &all[1..3], &all[3..]] {
                let combos = enumerate_assignments(bundles, &legal, bound);
                assert!(!combos.is_empty() && combos.len() <= bound, "bound {bound}");
            }
        }
        let (g, _) = matmul_chain(4, &[4, 4]);
        let opts = PartitionOptions { internal_bound: 0, ..PartitionOptions::default() };
        for engine in [search as StepFn, unoptimized_search] {
            let err = step(engine, &g, 2, &opts).unwrap_err();
            assert!(matches!(err, CoreError::SearchSpaceExceeded { bound: 0, .. }), "{err}");
        }
    }

    #[test]
    fn extra_inputs_participate() {
        let (g, _) = matmul_chain(8, &[16, 10]);
        let cg = coarsen(&g);
        let mut view = ShapeView::from_graph(&g);
        // Attach a fetch buffer for fc0's weight input.
        let fc0 = g.producer(g.tensor_by_name("fc0:out").unwrap()).unwrap();
        let pseudo = TensorId(g.num_tensors());
        let mut extra = ExtraInputs::new();
        extra.push(fc0, 1, pseudo);
        view.push(Shape::new(vec![8, 10]));
        let plan = search(&g, &view, &cg, &extra, 2, &PartitionOptions::default(), None).unwrap();
        assert_eq!(plan.tensor_spec.len(), g.num_tensors() + 1);
    }

    #[test]
    fn optimized_matches_reference_on_chains() {
        for (batch, dims) in
            [(8usize, vec![16usize, 10]), (64, vec![128, 64, 32]), (2, vec![512, 512])]
        {
            let (g, _) = matmul_chain(batch, &dims);
            let opt = run_dp(&g);
            let reference =
                step(unoptimized_search, &g, 2, &PartitionOptions::default()).unwrap();
            assert_eq!(
                opt.comm_bytes.to_bits(),
                reference.comm_bytes.to_bits(),
                "cost mismatch at batch={batch} dims={dims:?}"
            );
            assert_eq!(opt.tensor_spec, reference.tensor_spec);
        }
    }

    #[test]
    fn sums_that_round_together_keep_the_earlier_combo() {
        let mut t = CutTables::default();
        t.min_total.push(f64::INFINITY);
        t.head.push(NO_STAIR);
        t.offer(0, 4.0, 0);
        t.offer(0, 1.0, 1);
        t.offer(0, 2.0, 2); // no improvement: never a step
        t.offer(0, 0.5, 3);
        assert_eq!(t.stairs.len(), 3);
        // A state cost that separates the group costs takes the cheapest.
        assert_eq!(t.first_combo_reaching(0, 8.0), 3);
        // At 2^53 the spacing of f64 is 2: adding 1.0 and adding 0.5 both
        // round back to 2^53, the reference's `<` scan keeps combo 1, and so
        // must the staircase — while 4.0 still lands above the minimum.
        let base = (1u64 << 53) as f64;
        assert_eq!(base + 1.0, base + 0.5);
        assert!(base + 4.0 > base + 0.5);
        assert_eq!(t.first_combo_reaching(0, base), 1);
    }
}
