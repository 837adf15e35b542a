//! Partitioned-graph generation (§6).
//!
//! Expands the original graph into a `k`-worker graph following a
//! [`PartitionPlan`]: each operator becomes `k` device-tagged instances;
//! remote input regions are gathered by fused [`multi_fetch`] nodes (the
//! paper's MultiFetch kernel, which also materializes convolution padding as
//! zero fill); a worker reads what it holds: an input region inside its own
//! shard is read from the shard itself wherever the op can express the
//! offset (a `slice_axis` rebased onto the shard, a convolution padding the
//! shard itself), and through a local `multi_fetch` copy only elsewhere
//! (`conv2d_bwd_filter`'s prefix read stays a copy: the simulator rates
//! reading the whole shard slower); Case-2 partial outputs are combined by
//! a spread reduction, in which every worker reduces only its own output
//! shard, in one fused fetch-reduce: a single `multi_fetch` copies the first
//! reduce-peer class's pieces of the shard and folds every later class's
//! into them, in class order, with the reducer's own scalar op; and extra
//! control dependencies re-serialize each worker's sub-schedule so the
//! memory planner keeps reusing buffers (Fig. 7).
//!
//! The per-worker input regions are *derived from the TDL descriptions* by
//! the same §4.2 region analysis strategy discovery runs
//! ([`tofu_tdl::access_regions`]): a worker's range for every index variable
//! is narrowed step by step according to the chosen strategies, and the
//! analysis, bound to those ranges as constant intervals, yields exactly the
//! regions to fetch — halos, padding and strides included. Every node and
//! tensor is placed on the worker that emits it as it is added, so the
//! device tables stay in step with the graph.
//!
//! [`multi_fetch`]: tofu_graph::ops::data

use std::borrow::Borrow;
use std::collections::BTreeMap;

use tofu_graph::{
    fetch_pieces, Attrs, Graph, NodeId, NodeTags, Served, TensorId, TensorKind, TransferIndex,
};
use tofu_tdl::analysis::DimAccess;
use tofu_tdl::{access_regions, bind_extents, AffineForm, Reducer, SymInterval};
use tofu_tensor::{Shape, Tensor};

use crate::dp::NodeChoice;
use crate::error::CoreError;
use crate::execplan::ExecCell;
use crate::recursive::PartitionPlan;
use crate::spec::ConcreteOut;
use crate::strategies::describe;
use crate::Result;

/// A half-open block `[lo, hi)` per dimension, in element coordinates of the
/// original tensor. May extend outside the tensor for materialized padding.
pub type Region = Vec<(i64, i64)>;

/// Options for graph generation.
#[derive(Debug, Clone, Copy)]
pub struct GenOptions {
    /// Insert the §6 control dependencies that mirror the original
    /// dependencies within each worker (Fig. 7). Turning this off models the
    /// naive generation whose memory planner cannot reuse buffers.
    pub control_deps: bool,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions { control_deps: true }
    }
}

/// The generated multi-worker graph plus the bookkeeping needed to feed,
/// validate and simulate it. A hand-made one starts from `default()` with
/// its public fields assigned.
#[derive(Debug, Default)]
pub struct ShardedGraph {
    /// The per-worker expanded graph.
    pub graph: Graph,
    /// Worker count.
    pub workers: usize,
    /// Per original tensor: its per-worker shard tensors in the new graph.
    pub shards: BTreeMap<TensorId, Vec<TensorId>>,
    /// Per original tensor: the per-worker shard regions (the final grid
    /// tiling; workers replicated at some step share overlapping regions).
    pub regions: BTreeMap<TensorId, Vec<Region>>,
    /// Device executing each new node.
    pub device_of_node: Vec<usize>,
    /// Device owning each new tensor (None for nothing in practice).
    pub device_of_tensor: Vec<Option<usize>>,
    /// For each generated node, the original node it expands. Every original
    /// node's expansion (fetch/compute/gather/reduce across all workers) is
    /// emitted contiguously, so for any worker the generated nodes whose
    /// origin precedes original node `n` form a prefix of that worker's
    /// schedule — the property plan-independent checkpoint barriers rely on.
    pub origin_of_node: Vec<NodeId>,
    /// Whether sharded execution is numerically exact. Strategies that split
    /// the spatial variables of strided *backward* convolutions (or of
    /// global pooling) change kernel semantics in ways the generator does
    /// not compensate; such graphs are still structurally correct for the
    /// simulator but are excluded from numeric validation.
    pub exact: bool,
    /// The execution plan, built by the first [`exec_plan`](Self::exec_plan).
    pub(crate) exec: ExecCell,
}

/// One cross-device transfer of the sharded graph: a box of `tensor`, which
/// lives on `src`, crossing to `dst` once for every `multi_fetch` on `dst`
/// whose piece overlaps it (by construction only `multi_fetch` nodes read
/// remote tensors). Transfers are cut as [`TransferIndex`] defines: the box
/// is the part of its first reader's piece no earlier transfer to `dst`
/// moved, so it is owned, not any reader's piece.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommEdge {
    /// The remote tensor being read.
    pub tensor: TensorId,
    /// Device producing (owning) the tensor.
    pub src: usize,
    /// Device executing the readers.
    pub dst: usize,
    /// Start of the box inside `tensor`.
    pub src_begin: Vec<i64>,
    /// Box extent per dimension.
    pub len: Vec<i64>,
    /// Every `(multi_fetch node, input index)` whose piece overlaps the box,
    /// in node order: the first entry is the reader that triggers it.
    pub readers: Vec<(NodeId, usize)>,
}

impl CommEdge {
    /// Bytes moved over the `src → dst` link.
    pub fn bytes(&self) -> u64 {
        self.len.iter().product::<i64>().max(0) as u64 * 4
    }
}

impl ShardedGraph {
    /// Number of nodes in the original (pre-expansion) graph — one more than
    /// the largest origin, or zero for an empty graph.
    pub fn original_nodes(&self) -> usize {
        self.origin_of_node.iter().map(|n| n.0 + 1).max().unwrap_or(0)
    }

    /// The nodes device `w` executes, in schedule (insertion/topological)
    /// order — each worker's serial sub-schedule.
    pub fn worker_schedule(&self, w: usize) -> Vec<NodeId> {
        self.graph
            .node_ids()
            .filter(|&id| self.device_of_node[id.0] == w)
            .collect()
    }

    /// Every cross-device transfer, in first-reader schedule order, each
    /// naming all the reads it serves; a read whose piece spans several
    /// transfers is named by each. By construction every read tensor has
    /// an owner in the fleet and every remote read enters a `multi_fetch`
    /// node; both are asserted here so a violated invariant fails loudly
    /// rather than dropping or misrouting a transfer.
    pub fn comm_edges(&self) -> Vec<CommEdge> {
        let mut out: Vec<CommEdge> = Vec::new();
        let mut index = TransferIndex::default();
        for id in self.graph.node_ids() {
            let node = self.graph.node(id);
            let dst = self.device_of_node[id.0];
            let mut pieces = fetch_pieces(&self.graph, id);
            for (i, &t) in node.inputs.iter().enumerate() {
                let piece = pieces.as_mut().and_then(Iterator::next);
                let src = match self.device_of_tensor[t.0] {
                    Some(d) if d == dst => continue,
                    Some(d) if d < self.workers => d,
                    d => panic!(
                        "node {id:?} ({}) reads tensor {t:?}, which is on device {d:?} of {}",
                        node.op, self.workers
                    ),
                };
                let piece = piece.unwrap_or_else(|| {
                    panic!("cross-device edge into non-fetch node {id:?} ({})", node.op)
                });
                let Served { old, new } = index.read(&self.graph, t, dst, Some(piece));
                for &x in old {
                    out[x].readers.push((id, i));
                }
                for x in new {
                    let (src_begin, len) = index.block(x);
                    let (src_begin, len) = (src_begin.to_vec(), len.to_vec());
                    let readers = vec![(id, i)];
                    out.push(CommEdge { tensor: t, src, dst, src_begin, len, readers });
                }
            }
        }
        out
    }

    /// The per-worker regions and shard tensors of `original`.
    fn layout(&self, original: TensorId) -> Result<(&[Region], &[TensorId])> {
        match (self.regions.get(&original), self.shards.get(&original)) {
            (Some(r), Some(s)) if r.len() == s.len() => Ok((r, s)),
            _ => Err(CoreError::Internal(format!("{original:?} has no shard layout"))),
        }
    }

    /// Splits a full tensor value into per-worker shard feeds: worker `w`
    /// gets the block of `value` its region covers.
    pub fn scatter(&self, original: TensorId, value: &Tensor) -> Result<Vec<(TensorId, Tensor)>> {
        let (regions, shards) = self.layout(original)?;
        let mut out = Vec::with_capacity(regions.len());
        for (region, &shard) in regions.iter().zip(shards) {
            let (lo, len) = region_block(region);
            let mut piece = Tensor::zeros(Shape::new(len.iter().map(|&l| l.max(0) as usize).collect()));
            piece
                .copy_block(value, &lo, &vec![0; lo.len()], &len)
                .map_err(|e| CoreError::Internal(format!("scatter {original:?}: {e}")))?;
            out.push((shard, piece));
        }
        Ok(out)
    }

    /// Reassembles a full tensor from per-worker shard values (the dual of
    /// [`scatter`](Self::scatter)). Workers replicated at some step hold
    /// bit-identical copies, so their overlapping writes are idempotent.
    /// Generic over the map's value type so plain tensors and `Arc`-shared
    /// checkpoint payloads both gather without an intermediate deep copy.
    pub fn gather<V: Borrow<Tensor>>(
        &self,
        original: TensorId,
        full_shape: &Shape,
        values: &BTreeMap<TensorId, V>,
    ) -> Result<Tensor> {
        let (regions, shards) = self.layout(original)?;
        let mut out = Tensor::zeros(full_shape.clone());
        for (w, (region, shard)) in regions.iter().zip(shards).enumerate() {
            let piece = values.get(shard).map(Borrow::borrow).ok_or_else(|| {
                CoreError::Internal(format!("gather {original:?}: worker {w} shard missing"))
            })?;
            let (lo, len) = region_block(region);
            if !piece.shape().dims().iter().map(|&d| d as i64).eq(len.iter().copied()) {
                return Err(CoreError::Internal(format!(
                    "gather {original:?}: worker {w} shard is {} but its region is {region:?}",
                    piece.shape()
                )));
            }
            out.copy_block(piece, &vec![0; lo.len()], &lo, &len)
                .map_err(|e| CoreError::Internal(format!("gather {original:?} worker {w}: {e}")))?;
        }
        Ok(out)
    }
}

/// A region as the `(begin, len)` block the copier takes.
fn region_block(region: &Region) -> (Vec<i64>, Vec<i64>) {
    region.iter().map(|&(lo, hi)| (lo, hi - lo)).unzip()
}

/// Mixed-radix digit of worker `w` at recursion step `s` given the per-step
/// group counts.
fn digit(w: usize, s: usize, factors: &[usize]) -> usize {
    let suffix: usize = factors[s + 1..].iter().product();
    (w / suffix) % factors[s]
}

fn narrow(range: (f64, f64), digit: usize, ways: usize) -> (f64, f64) {
    let span = range.1 - range.0;
    (
        range.0 + span * digit as f64 / ways as f64,
        range.0 + span * (digit + 1) as f64 / ways as f64,
    )
}

/// Variables whose narrowing makes sharded kernel semantics inexact.
fn sensitive_vars(op: &str) -> &'static [usize] {
    match op {
        "conv1d_bwd_data" => &[2, 4],
        "conv1d_bwd_filter" => &[2, 4],
        "conv2d_bwd_data" => &[2, 3, 5, 6],
        "conv2d_bwd_filter" => &[2, 3, 5, 6],
        "pool2d_grad" => &[2, 3, 4, 5],
        "global_avg_pool" => &[2, 3],
        "gap_grad" => &[2, 3],
        _ => &[],
    }
}

/// Operators whose remote gathers materialize out-of-bounds reads as zeros
/// (convolution padding); a worker that fetches its data input runs with
/// `pad` zeroed, one that reads its shard in place keeps it.
fn materializes_padding(op: &str) -> bool {
    matches!(op, "conv1d" | "conv2d")
}

/// Whether the worker's own shard of input `i`, covering `held`, can stand
/// in for the `region` of it the op reads, the op expressing the offset:
/// `slice_axis` slices a shard equal to its region off the slice axis and
/// containing it on it; a convolution computing its whole spatial output
/// pads, with its own `pad`, a data shard that holds the whole spatial input
/// and the batch and channels it reads.
fn reads_in_place(
    g: &Graph,
    node: &tofu_graph::Node,
    i: usize,
    held: &Region,
    region: &Region,
    block: &Region,
) -> bool {
    // Whether `r` spans the spatial dimensions (2..) of `t` whole.
    let spatial = |r: &Region, t: TensorId| {
        r[2..].iter().zip(&g.tensor(t).shape.dims()[2..]).all(|(&r, &e)| r == (0, e as i64))
    };
    match node.op.as_str() {
        "slice_axis" => {
            let axis = node.attrs.int_or("axis", 0) as usize;
            let inside = |d: usize| held[d].0 <= region[d].0 && region[d].1 <= held[d].1;
            (0..held.len()).all(|d| held[d] == region[d] || (d == axis && inside(d)))
        }
        op if materializes_padding(op) && i == 0 => {
            held[..2] == region[..2] && spatial(held, node.inputs[0]) && spatial(block, node.output)
        }
        _ => false,
    }
}

/// Computes the per-worker shard region of a tensor from the plan's tiling.
fn shard_region(shape: &Shape, tiling: &[Option<usize>], factors: &[usize], w: usize) -> Region {
    let mut region: Region = shape.dims().iter().map(|&e| (0i64, e as i64)).collect();
    for (s, spec) in tiling.iter().enumerate() {
        if let Some(d) = spec {
            let g = digit(w, s, factors) as i64;
            let ways = factors[s] as i64;
            let span = region[*d].1 - region[*d].0;
            let lo = region[*d].0;
            region[*d] = (lo + span * g / ways, lo + span * (g + 1) / ways);
        }
    }
    region
}

/// The graph being generated and the device of everything in it: each
/// method places what it adds on the worker `w` that emits it, so the two
/// device tables stay in step with the graph.
#[derive(Default)]
struct Emit {
    graph: Graph,
    device_of_node: Vec<usize>,
    device_of_tensor: Vec<Option<usize>>,
    /// Scratch of [`Emit::fetch`], reused across fetches: one source's
    /// intersection with the target, and the blocks its class placed so
    /// far, `rank` `(lo, hi)` pairs per block.
    isect: Vec<(i64, i64)>,
    covered: Vec<(i64, i64)>,
}

impl Emit {
    /// Places every node and tensor added since the last call on worker `w`.
    fn place(&mut self, w: usize, t: TensorId) -> TensorId {
        self.device_of_node.resize(self.graph.num_nodes(), w);
        self.device_of_tensor.resize(self.graph.num_tensors(), Some(w));
        t
    }

    /// Emits one operator on worker `w`.
    fn op(
        &mut self,
        w: usize,
        op: &str,
        name: &str,
        inputs: &[TensorId],
        attrs: Attrs,
        tags: NodeTags,
    ) -> Result<TensorId> {
        let t = self.graph.add_op_tagged(op, name, inputs, attrs, tags);
        Ok(self.place(w, t.map_err(CoreError::Graph)?))
    }

    /// Emits one multi_fetch node on worker `w` assembling `target` from
    /// classes of `(tensor, region it covers)` sources, each input a
    /// source's intersection with the target. The first class's pieces are
    /// copied, zero-filling uncovered coordinates (materialized padding).
    /// With a `reducer`, every later class's pieces are folded into the
    /// output in class order (spread reduction), so each class must tile the
    /// target: an element it missed or held twice would be reduced wrongly.
    fn fetch<'a, S>(
        &mut self,
        w: usize,
        classes: impl IntoIterator<Item = S>,
        reducer: Option<Reducer>,
        target: &Region,
        name: &str,
    ) -> Result<TensorId>
    where
        S: IntoIterator<Item = (TensorId, &'a Region)>,
    {
        let rank = target.len();
        let out_dims: Vec<i64> = target.iter().map(|&(lo, hi)| hi - lo).collect();
        let volume: i64 = out_dims.iter().product();
        let mut inputs: Vec<TensorId> = Vec::new();
        let mut pieces: Vec<i64> = Vec::new();
        let mut combine = None;
        for (class, sources) in classes.into_iter().enumerate() {
            if class == 1 {
                combine = Some(inputs.len());
            }
            self.covered.clear();
            let (mut tiled, mut overlapping) = (0, false);
            for (src, region) in sources {
                if rank == 0 {
                    // A scalar: the first source covers it whole.
                    inputs.push(src);
                    tiled = 1;
                    break;
                }
                // Intersection of the source region with the target.
                self.isect.clear();
                let dims = region.iter().zip(target).map(|(r, t)| (r.0.max(t.0), r.1.min(t.1)));
                self.isect.extend(dims.take_while(|&(lo, hi)| lo < hi));
                let isect = &self.isect;
                if isect.len() < rank {
                    continue;
                }
                // Avoid copying a block some earlier source of the class
                // already covers entirely (replicated shards overlap).
                let holds = |c: &[(i64, i64)]| {
                    c.iter().zip(isect).all(|(c, i)| c.0 <= i.0 && i.1 <= c.1)
                };
                let meets = |c: &[(i64, i64)]| {
                    c.iter().zip(isect).all(|(c, i)| c.0.max(i.0) < c.1.min(i.1))
                };
                if self.covered.chunks_exact(rank).any(holds) {
                    continue;
                }
                overlapping |= self.covered.chunks_exact(rank).any(meets);
                tiled += isect.iter().map(|&(lo, hi)| hi - lo).product::<i64>();
                pieces.extend(isect.iter().zip(region).map(|(i, r)| i.0 - r.0)); // src_begin
                pieces.extend(isect.iter().zip(target).map(|(i, t)| i.0 - t.0)); // dst_begin
                pieces.extend(isect.iter().map(|&(lo, hi)| hi - lo)); // len
                self.covered.extend_from_slice(isect);
                inputs.push(src);
            }
            if reducer.is_some() && (overlapping || tiled != volume) {
                return Err(CoreError::Internal(format!(
                    "{name}: reduce-peer class {class} does not tile {target:?}"
                )));
            }
        }
        let mut attrs = Attrs::new().with_ints("out_dims", out_dims).with_ints("pieces", pieces);
        if let Some(reducer) = reducer {
            let combine = combine.unwrap_or(inputs.len()) as i64;
            attrs = attrs.with_int("combine", combine).with_str("reducer", &reducer.to_string());
        }
        self.op(w, "multi_fetch", name, &inputs, attrs, NodeTags::default())
    }
}

/// The region of an input of `shape` that one access footprint covers, in
/// element coordinates. An interval's constant bounds are inclusive; a `:`
/// spans the whole dimension. Unless `materialize` keeps out-of-bounds
/// coordinates for zero fill, the region is clipped to the tensor.
fn input_region(
    footprint: Option<&tofu_tdl::Region>,
    shape: &Shape,
    materialize: bool,
) -> Region {
    let Some(footprint) = footprint else {
        return shape.dims().iter().map(|&e| (0, e as i64)).collect();
    };
    let dim = |(d, access): (usize, &DimAccess)| {
        let e = shape.dim(d) as f64;
        let (lo, hi) = match access {
            DimAccess::Full => (0.0, e),
            DimAccess::Interval(i) => (i.lo().constant_term(), i.hi().constant_term() + 1.0),
        };
        let (lo, hi) = if materialize {
            (lo, hi)
        } else {
            // Clip to the tensor; a region entirely out of bounds (e.g. a
            // pad gradient whose block maps below index 0) collapses to
            // empty.
            let lo = lo.clamp(0.0, e);
            (lo, hi.clamp(lo, e))
        };
        let lo = lo.floor() as i64;
        (lo, ((hi - 1e-9).ceil() as i64).max(lo))
    };
    footprint.0.iter().enumerate().map(dim).collect()
}

/// Generates the `k`-worker graph for a plan.
pub fn generate(g: &Graph, plan: &PartitionPlan, opts: &GenOptions) -> Result<ShardedGraph> {
    let k = plan.workers;
    let factors: Vec<usize> = plan.steps.iter().map(|s| s.ways).collect();
    let mut out = Emit::default();
    let mut exact = true;

    // Shard regions and leaf shard tensors.
    let mut regions: BTreeMap<TensorId, Vec<Region>> = BTreeMap::new();
    let mut shards: BTreeMap<TensorId, Vec<TensorId>> = BTreeMap::new();
    let mut origin_of_node: Vec<NodeId> = Vec::new();
    // Per original node (by id): its compute node on every worker.
    let mut compute_nodes: Vec<Vec<NodeId>> = Vec::with_capacity(g.num_nodes());

    for t in g.tensor_ids() {
        let meta = g.tensor(t);
        let per_worker: Vec<Region> = (0..k)
            .map(|w| shard_region(&meta.shape, &plan.tiling[t.0], &factors, w))
            .collect();
        if meta.kind != TensorKind::Intermediate {
            let mut ids = Vec::with_capacity(k);
            for (w, region) in per_worker.iter().enumerate() {
                let dims: Vec<usize> =
                    region.iter().map(|&(lo, hi)| (hi - lo) as usize).collect();
                let name = format!("w{w}/{}", meta.name);
                let id = if meta.kind == TensorKind::Weight {
                    out.graph.add_weight(&name, Shape::new(dims))
                } else {
                    out.graph.add_input(&name, Shape::new(dims))
                };
                ids.push(out.place(w, id));
            }
            shards.insert(t, ids);
        }
        regions.insert(t, per_worker);
    }

    // Per original node, expand.
    for id in g.node_ids() {
        let node = g.node(id);
        let desc = describe(g, id, |t| &g.tensor(t).shape)?;
        let in_dims: Vec<Vec<usize>> =
            node.inputs.iter().map(|&t| g.tensor(t).shape.dims().to_vec()).collect();
        let extents = bind_extents(&desc, g.tensor(node.output).shape.dims(), &in_dims)?;

        // Which steps reduce, and with which reducer.
        let mut reduce_steps: Vec<usize> = Vec::new();
        let mut reducer: Option<Reducer> = None;
        for (s, step) in plan.steps.iter().enumerate() {
            if let NodeChoice::Strategy(st) = &step.plan.node_choice[id.0] {
                if matches!(st.out, ConcreteOut::Reduce) {
                    reduce_steps.push(s);
                    if reducer.is_none() {
                        reducer = st.reducer;
                    } else if reducer != st.reducer {
                        exact = false; // Mixed reducers: approximate with the first.
                    }
                }
            }
        }

        // Per-worker variable ranges and computed blocks.
        let mut var_ranges: Vec<Vec<(f64, f64)>> = Vec::with_capacity(k);
        for w in 0..k {
            let mut ranges: Vec<(f64, f64)> =
                extents.iter().map(|&e| (0.0, e as f64)).collect();
            for (s, step) in plan.steps.iter().enumerate() {
                let ways = step.ways;
                let dgt = digit(w, s, &factors);
                match &step.plan.node_choice[id.0] {
                    NodeChoice::Strategy(st) => {
                        if st.var < ranges.len() {
                            ranges[st.var] = narrow(ranges[st.var], dgt, ways);
                            if sensitive_vars(&node.op).contains(&st.var) {
                                exact = false;
                            }
                        }
                    }
                    NodeChoice::Ewise(spec) => {
                        if let Some(d) = spec.dim() {
                            if d < desc.output_rank() {
                                ranges[d] = narrow(ranges[d], dgt, ways);
                            }
                        }
                    }
                }
            }
            var_ranges.push(ranges);
        }

        // Pass 1: compute each worker's raw output (and remember its block).
        // A worker's variable ranges, inclusive, are the constant binding
        // under which the §4.2 region analysis yields the regions it reads.
        let materialize = materializes_padding(&node.op);
        let mut raw_outputs: Vec<TensorId> = Vec::with_capacity(k);
        let mut blocks: Vec<Region> = Vec::with_capacity(k);
        let mut computes: Vec<NodeId> = Vec::with_capacity(k);
        for (w, ranges) in var_ranges.iter().enumerate() {
            let constant = |lo: f64, hi: f64| {
                SymInterval::new(AffineForm::constant(lo), AffineForm::constant(hi - 1.0))
            };
            let binding: Vec<SymInterval> =
                ranges.iter().map(|&(lo, hi)| constant(lo, hi)).collect();
            let footprints = access_regions(&desc, &binding)?;
            let block: Region = (0..desc.output_rank())
                .map(|v| (ranges[v].0.round() as i64, ranges[v].1.round() as i64))
                .collect();
            let mut new_inputs: Vec<TensorId> = Vec::with_capacity(node.inputs.len());
            let mut input_regions: Vec<Region> = Vec::with_capacity(node.inputs.len());
            let mut pads_itself = false;
            for (i, &t) in node.inputs.iter().enumerate() {
                let mut region =
                    input_region(footprints[i].as_ref(), &g.tensor(t).shape, materialize);
                let held = &regions[&t][w];
                if *held != region && reads_in_place(g, node, i, held, &region, &block) {
                    pads_itself |= materialize;
                    region = held.clone();
                }
                new_inputs.push(if *held == region {
                    shards[&t][w]
                } else {
                    let sources = shards[&t].iter().copied().zip(&regions[&t]);
                    let name = format!("w{w}/fetch/{}/{i}", node.name);
                    out.fetch(w, [sources], None, &region, &name)?
                });
                input_regions.push(region);
            }

            // Adjusted attributes per worker.
            let zero_pad = materialize && !pads_itself;
            let attrs = adjust_attrs(&node.op, &node.attrs, &block, &input_regions, zero_pad);
            let name = format!("w{w}/{}", node.name);
            let out_t = out.op(w, &node.op, &name, &new_inputs, attrs, node.tags.clone())?;
            let expect: Vec<usize> = block.iter().map(|&(lo, hi)| (hi - lo) as usize).collect();
            if out.graph.tensor(out_t).shape.dims() != expect.as_slice() {
                return Err(CoreError::Internal(format!(
                    "node {}: worker {w} produced {} but block is {expect:?}",
                    node.name,
                    out.graph.tensor(out_t).shape
                )));
            }
            raw_outputs.push(out_t);
            blocks.push(block);
            computes.push(NodeId(out.graph.num_nodes() - 1));
        }
        compute_nodes.push(computes);

        // Pass 2: assemble each worker's final output shard.
        let out_regions = &regions[&node.output];
        let mut shard_ids: Vec<TensorId> = Vec::with_capacity(k);
        for w in 0..k {
            let target = &out_regions[w];
            if reduce_steps.is_empty() && blocks[w] == *target {
                shard_ids.push(raw_outputs[w]);
                continue;
            }
            // One fused fetch assembles the shard (spread reduction: every
            // worker reduces only its own shard). Its inputs come class by
            // class, one reduce-peer class per combo of reduce-step digits
            // (a mixed-radix number over their ways): the workers whose
            // reduce-step digits match the combo and whose computed block
            // overlaps the target shard (their blocks tile the output space
            // across the non-reduce digits).
            let reduce_ways: Vec<usize> = reduce_steps.iter().map(|&s| factors[s]).collect();
            let combos: usize = reduce_ways.iter().product();
            let (reduce_steps, factors, ways) = (&reduce_steps, &factors, &reduce_ways);
            let class = |combo: usize| {
                (0..k)
                    .filter(move |&p| {
                        reduce_steps.iter().enumerate().all(|(pos, &rs)| {
                            digit(p, rs, factors) == digit(combo, pos, ways)
                        })
                    })
                    .filter(|&p| {
                        blocks[p].iter().zip(target).all(|(b, t)| b.0.max(t.0) < b.1.min(t.1))
                    })
                    .map(|p| (raw_outputs[p], &blocks[p]))
            };
            let (reducer, name) = if reduce_steps.is_empty() {
                (None, format!("w{w}/gather/{}", node.name))
            } else {
                (Some(reducer.unwrap_or(Reducer::Sum)), format!("w{w}/reduce/{}", node.name))
            };
            shard_ids.push(out.fetch(w, (0..combos).map(class), reducer, target, &name)?);
        }
        shards.insert(node.output, shard_ids);
        // Everything emitted while expanding this original node — fetches,
        // computes, gathers, reduces, on every worker — originates from it.
        origin_of_node.resize(out.graph.num_nodes(), id);
    }

    // Pass 3: control dependencies mirroring original direct dependencies
    // within each worker (Fig. 7).
    if opts.control_deps {
        for id in g.node_ids() {
            for &t in &g.node(id).inputs {
                if let Some(p) = g.producer(t) {
                    // Worker by worker, in worker order.
                    for (&after, &before) in compute_nodes[id.0].iter().zip(&compute_nodes[p.0]) {
                        out.graph.add_control_dep(after, before);
                    }
                }
            }
        }
    }

    let Emit { graph, device_of_node, device_of_tensor, .. } = out;
    debug_assert_eq!(origin_of_node.len(), graph.num_nodes());
    Ok(ShardedGraph {
        graph,
        workers: k,
        shards,
        regions,
        device_of_node,
        device_of_tensor,
        origin_of_node,
        exact,
        exec: ExecCell::new(),
    })
}

/// Per-worker attribute adjustments: materialized padding zeroes the pad,
/// backward convolutions pin their output extents to the worker's block, and
/// offset-sensitive data ops are rebased onto their assembled input region.
fn adjust_attrs(
    op: &str,
    attrs: &Attrs,
    block: &Region,
    input_regions: &[Region],
    zero_pad: bool,
) -> Attrs {
    let mut a = attrs.clone();
    if zero_pad {
        a = a.with_int("pad", 0);
    }
    match op {
        "conv2d_bwd_data" => {
            a = a.with_int("in_h", block[2].1 - block[2].0);
            a = a.with_int("in_w", block[3].1 - block[3].0);
        }
        "conv1d_bwd_data" => {
            a = a.with_int("in_x", block[2].1 - block[2].0);
        }
        "conv2d_bwd_filter" => {
            a = a.with_int("kh", block[2].1 - block[2].0);
            a = a.with_int("kw", block[3].1 - block[3].0);
        }
        "conv1d_bwd_filter" => {
            a = a.with_int("dx", block[2].1 - block[2].0);
        }
        "slice_axis" => {
            // The assembled input is exactly the region the slice needs:
            // rebase `[begin, end)` from original coordinates onto it.
            let axis = attrs.int_or("axis", 0) as usize;
            let begin = attrs.int_or("begin", 0);
            let new_begin = begin + block[axis].0 - input_regions[0][axis].0;
            a = a
                .with_int("begin", new_begin)
                .with_int("end", new_begin + (block[axis].1 - block[axis].0));
        }
        "pad" => {
            // out[j] = x[j - before]: the assembled (clipped) input region
            // determines how many zeros pad each side of the block. An empty
            // region means the whole block is padding.
            let axis = attrs.int_or("axis", 0) as usize;
            let before = attrs.int_or("before", 0);
            let (rlo, rhi) = input_regions[0][axis];
            let block_len = block[axis].1 - block[axis].0;
            let (new_before, new_after) = if rhi <= rlo {
                (block_len, 0)
            } else {
                (
                    (rlo - (block[axis].0 - before)).max(0),
                    ((block[axis].1 - before) - rhi).max(0),
                )
            };
            a = a.with_int("before", new_before).with_int("after", new_after);
        }
        // `flip` reverses the whole assembled region, which is exactly the
        // mirrored block: no change needed.
        _ => {}
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{run, Algorithm};
    use crate::recursive::{partition, PartitionOptions};
    use tofu_graph::{autodiff, Executor, Node};

    /// Trains one step of a small MLP; returns the graph plus tensors whose
    /// values validation compares.
    fn mlp(batch: usize, hidden: usize) -> (Graph, Vec<TensorId>) {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![batch, hidden]));
        let w1 = g.add_weight("w1", Shape::new(vec![hidden, hidden]));
        let w2 = g.add_weight("w2", Shape::new(vec![hidden, 8]));
        let labels = g.add_input("labels", Shape::new(vec![batch]));
        let h = g.add_op("matmul", "fc1", &[x, w1], Attrs::new()).unwrap();
        let a = g.add_op("tanh", "act1", &[h], Attrs::new()).unwrap();
        let y = g.add_op("matmul", "fc2", &[a, w2], Attrs::new()).unwrap();
        let loss = g.add_op("softmax_ce", "loss", &[y, labels], Attrs::new()).unwrap();
        let info = autodiff::backward(&mut g, loss, &[w1, w2]).unwrap();
        let g1 = info.grad(w1).unwrap();
        let g2 = info.grad(w2).unwrap();
        (g, vec![loss, g1, g2])
    }

    fn feeds(g: &Graph) -> Vec<(TensorId, Tensor)> {
        let mut out = Vec::new();
        for t in g.tensor_ids() {
            let meta = g.tensor(t);
            match meta.kind {
                TensorKind::Input | TensorKind::Weight => {
                    let v = if meta.name.starts_with("labels") {
                        let b = meta.shape.dim(0);
                        Tensor::from_vec(
                            meta.shape.clone(),
                            (0..b).map(|i| (i % 3) as f32).collect(),
                        )
                        .unwrap()
                    } else {
                        Tensor::random(meta.shape.clone(), t.0 as u64 + 1, 0.5)
                    };
                    out.push((t, v));
                }
                TensorKind::Intermediate => {}
            }
        }
        out
    }

    /// Runs original and sharded graphs and asserts the checked tensors agree.
    fn validate(g: &Graph, plan: &PartitionPlan, check: &[TensorId], tol: f32) {
        let sharded = generate(g, plan, &GenOptions::default()).unwrap();
        assert!(sharded.exact, "plan should be exactly executable");

        let mut base = Executor::new();
        let mut part = Executor::new();
        for (t, v) in feeds(g) {
            base.feed(t, v.clone());
            for (shard, piece) in sharded.scatter(t, &v).unwrap() {
                part.feed(shard, piece);
            }
        }
        let base_vals = base.run(g).unwrap();
        let part_vals = part.run(&sharded.graph).unwrap();
        for &t in check {
            let expect = &base_vals[&t];
            let got = sharded.gather(t, expect.shape(), &part_vals).unwrap();
            assert!(
                got.allclose(expect, tol),
                "tensor {} diverged: {:?} vs {:?}",
                g.tensor(t).name,
                &got.data()[..got.data().len().min(4)],
                &expect.data()[..expect.data().len().min(4)]
            );
        }
    }

    #[test]
    fn two_worker_mlp_matches_single_device() {
        let (g, check) = mlp(8, 16);
        let plan = partition(&g, &PartitionOptions { workers: 2, ..Default::default() }).unwrap();
        validate(&g, &plan, &check, 1e-4);
    }

    #[test]
    fn four_worker_mlp_matches_single_device() {
        let (g, check) = mlp(8, 16);
        let plan = partition(&g, &PartitionOptions { workers: 4, ..Default::default() }).unwrap();
        validate(&g, &plan, &check, 1e-4);
    }

    #[test]
    fn eight_worker_mlp_matches_single_device() {
        let (g, check) = mlp(16, 32);
        let plan = partition(&g, &PartitionOptions { workers: 8, ..Default::default() }).unwrap();
        validate(&g, &plan, &check, 1e-3);
    }

    #[test]
    fn baseline_plans_also_execute_correctly() {
        let (g, check) = mlp(8, 16);
        for alg in [Algorithm::AllRowGreedy, Algorithm::EqualChop, Algorithm::Icml18] {
            let plan = run(&g, alg, 4).unwrap();
            validate(&g, &plan, &check, 1e-4);
        }
    }

    #[test]
    fn sharded_graph_places_every_node_and_adds_control_deps() {
        let (g, _) = mlp(8, 16);
        let plan = partition(&g, &PartitionOptions { workers: 2, ..Default::default() }).unwrap();
        let with = generate(&g, &plan, &GenOptions { control_deps: true }).unwrap();
        let without = generate(&g, &plan, &GenOptions { control_deps: false }).unwrap();
        let count = |s: &ShardedGraph| {
            s.graph.node_ids().map(|n| s.graph.node(n).control_deps.len()).sum::<usize>()
        };
        assert!(count(&with) > count(&without));
        // Every node is placed on one of the plan's workers.
        assert_eq!(with.device_of_node.len(), with.graph.num_nodes());
        assert!(with.device_of_node.iter().all(|&w| w < with.workers));
    }

    /// Fig. 7: on every worker, the compute node of each original node
    /// control-depends on the compute nodes of its original producers — and
    /// nothing else carries a control dependency. The oracle finds compute
    /// nodes by their `w{w}/{name}` names; `generate` wires them by id.
    #[test]
    fn control_deps_mirror_original_edges_on_every_worker() {
        let (g, _) = mlp(8, 16);
        let plan = partition(&g, &PartitionOptions { workers: 4, ..Default::default() }).unwrap();
        let sharded = generate(&g, &plan, &GenOptions::default()).unwrap();
        let out = &sharded.graph;
        let by_name: BTreeMap<&str, NodeId> =
            out.node_ids().map(|n| (out.node(n).name.as_str(), n)).collect();
        let compute = |id: NodeId, w: usize| by_name[format!("w{w}/{}", g.node(id).name).as_str()];
        let mut expect: Vec<Vec<NodeId>> = vec![Vec::new(); out.num_nodes()];
        for id in g.node_ids() {
            for p in g.node(id).inputs.iter().filter_map(|&t| g.producer(t)) {
                for w in 0..sharded.workers {
                    let (after, before) = (compute(id, w), compute(p, w));
                    if !expect[after.0].contains(&before) {
                        expect[after.0].push(before);
                    }
                }
            }
        }
        assert!(expect.iter().any(|d| !d.is_empty()));
        for n in out.node_ids() {
            assert_eq!(out.node(n).control_deps, expect[n.0], "node {}", out.node(n).name);
        }
    }

    #[test]
    fn worker_schedules_partition_the_graph() {
        let (g, _) = mlp(8, 16);
        let plan = partition(&g, &PartitionOptions { workers: 4, ..Default::default() }).unwrap();
        let sharded = generate(&g, &plan, &GenOptions::default()).unwrap();
        let mut seen = vec![false; sharded.graph.num_nodes()];
        for w in 0..sharded.workers {
            for id in sharded.worker_schedule(w) {
                assert_eq!(sharded.device_of_node[id.0], w);
                assert!(!seen[id.0], "node {id:?} scheduled twice");
                seen[id.0] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every node belongs to some worker");
    }

    #[test]
    fn comm_edges_cover_all_remote_reads() {
        let (g, _) = mlp(8, 16);
        let plan = partition(&g, &PartitionOptions { workers: 2, ..Default::default() }).unwrap();
        let sharded = generate(&g, &plan, &GenOptions::default()).unwrap();
        let g = &sharded.graph;
        let edges = sharded.comm_edges();
        assert!(!edges.is_empty(), "2-worker MLP must communicate");
        // Elements shared by a box and edge `e`'s box.
        let shared = |begin: &[i64], len: &[i64], e: &CommEdge| {
            (0..len.len())
                .map(|d| {
                    let end = (begin[d] + len[d]).min(e.src_begin[d] + e.len[d]);
                    (end - begin[d].max(e.src_begin[d])).max(0)
                })
                .product::<i64>()
        };
        // Per remote read: the elements of its piece the edges serving it
        // deliver.
        let mut served: BTreeMap<(NodeId, usize), i64> = BTreeMap::new();
        for (x, e) in edges.iter().enumerate() {
            // Every edge moves a real part of the remote tensor, and no
            // element crosses to a device twice.
            assert_ne!(e.src, e.dst);
            assert_eq!(Some(e.src), sharded.device_of_tensor[e.tensor.0]);
            assert!(e.bytes() > 0);
            assert!(e.bytes() <= g.tensor(e.tensor).shape.bytes());
            for other in &edges[..x] {
                if (other.tensor, other.dst) == (e.tensor, e.dst) {
                    assert_eq!(shared(&other.src_begin, &other.len, e), 0, "{other:?} and {e:?}");
                }
            }
            // Only multi_fetch nodes read remote tensors (the §6 invariant
            // comm_edges itself asserts); every reader is one, on `dst`,
            // reading part of this box, and the first one triggers it.
            assert_eq!(e.readers[0], *e.readers.iter().min().unwrap());
            for &(reader, i) in &e.readers {
                assert_eq!(g.node(reader).op, "multi_fetch");
                let dst = sharded.device_of_node[reader.0];
                assert_eq!((g.node(reader).inputs[i], dst), (e.tensor, e.dst));
                let piece = fetch_pieces(g, reader).unwrap().nth(i).unwrap();
                let part = shared(piece.src_begin, piece.len, e);
                assert!(part > 0, "{reader:?} input {i} reads nothing of {e:?}");
                *served.entry((reader, i)).or_default() += part;
            }
        }
        // Every remote read found by brute force is tiled exactly by the
        // transfers serving it.
        let mut reads = 0;
        for id in g.node_ids() {
            for (i, t) in g.node(id).inputs.iter().enumerate() {
                if sharded.device_of_tensor[t.0] != Some(sharded.device_of_node[id.0]) {
                    let piece = fetch_pieces(g, id).unwrap().nth(i).unwrap();
                    let volume = piece.len.iter().product::<i64>();
                    assert_eq!(served.get(&(id, i)), Some(&volume), "{id:?} input {i}");
                    reads += 1;
                }
            }
        }
        assert_eq!(served.len(), reads);
    }

    /// A read whose tensor has no owner, or an owner outside the fleet, is
    /// no transfer `comm_edges` can count: it panics instead of dropping the
    /// read or naming a source no worker runs.
    #[test]
    fn comm_edges_reject_an_ownerless_or_out_of_fleet_read() {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![4, 8]));
        let pieces = vec![0, 0, 0, 0, 2, 8];
        let attrs = Attrs::new().with_ints("out_dims", vec![2, 8]).with_ints("pieces", pieces);
        g.add_op("multi_fetch", "top", &[x], attrs).unwrap();
        let mut sharded = ShardedGraph {
            graph: g,
            workers: 2,
            device_of_node: vec![1],
            device_of_tensor: vec![Some(0), Some(1)],
            origin_of_node: vec![NodeId(0)],
            ..Default::default()
        };
        assert_eq!(sharded.comm_edges().len(), 1);
        for owner in [None, Some(2)] {
            sharded.device_of_tensor[0] = owner;
            let message = format!("reads tensor TensorId(0), which is on device {owner:?} of 2");
            let err = std::panic::catch_unwind(|| sharded.comm_edges().len()).unwrap_err();
            let err = err.downcast_ref::<String>().unwrap();
            assert!(err.contains(&message), "{err}");
        }
    }

    /// A spread reduction is one node per worker and reduced tensor: every
    /// `w*/reduce/*` node is a single folding `multi_fetch` named after its
    /// origin, and every other node is a fetch or its origin's own compute
    /// node, so no combiner reads a `/gather/` partial — on an MLP and a
    /// small LSTM at w=2/4/8.
    #[test]
    fn every_reduction_is_one_fused_fetch() {
        let lstm = tofu_models::rnn(&tofu_models::RnnConfig {
            layers: 1,
            hidden: 32,
            batch: 8,
            steps: 3,
            embed: 16,
            vocab: 16,
            with_updates: true,
        })
        .unwrap()
        .graph;
        for (model, g) in [("mlp", mlp(8, 16).0), ("lstm", lstm)] {
            for workers in [2, 4, 8] {
                let opts = PartitionOptions { workers, ..Default::default() };
                let plan = partition(&g, &opts).unwrap();
                let sharded = generate(&g, &plan, &GenOptions::default()).unwrap();
                let out = &sharded.graph;
                let mut reduces = 0;
                for id in out.node_ids() {
                    let node = out.node(id);
                    let w = sharded.device_of_node[id.0];
                    let origin = g.node(sharded.origin_of_node[id.0]);
                    let kind = node.name.strip_prefix(&format!("w{w}/")).unwrap();
                    if node.op != "multi_fetch" {
                        assert_eq!((&node.op, kind), (&origin.op, origin.name.as_str()));
                    } else if let Some(reduced) = kind.strip_prefix("reduce/") {
                        assert_eq!(reduced, origin.name);
                        let combine = node.attrs.int("combine").unwrap() as usize;
                        assert!(node.attrs.str("reducer").is_some());
                        assert!(combine > 0 && combine < node.inputs.len(), "{}", node.name);
                        reduces += 1;
                    } else {
                        assert!(kind.starts_with("fetch/") || kind.starts_with("gather/"));
                        assert_eq!(node.attrs.int("combine"), None, "{}", node.name);
                    }
                }
                assert!(reduces > 0, "{model} w={workers} reduces nothing");
            }
        }
    }

    /// A folded class must tile the reduced shard: a class that misses an
    /// element, or holds one twice, is an internal error, not a wrong sum.
    #[test]
    fn a_reduce_class_that_does_not_tile_is_an_internal_error() {
        let mut out = Emit::default();
        let ids: Vec<TensorId> =
            (0..3).map(|i| out.graph.add_input(&format!("p{i}"), Shape::new(vec![3]))).collect();
        let [whole, head, left, right]: [Region; 4] =
            [vec![(0, 3)], vec![(0, 1)], vec![(0, 2)], vec![(1, 3)]];
        for (why, second, ok) in [
            ("misses", vec![(ids[1], &left)], false),
            ("doubles", vec![(ids[1], &left), (ids[2], &right)], false),
            ("tiles", vec![(ids[1], &head), (ids[2], &right)], true),
        ] {
            let classes = [vec![(ids[0], &whole)], second];
            let got = out.fetch(0, classes, Some(Reducer::Max), &whole, why);
            assert_eq!(got.is_ok(), ok, "{why}: {got:?}");
            assert!(ok || matches!(got, Err(CoreError::Internal(_))), "{why}");
        }
    }

    /// A graph of one `op` on an input `x` and, if given, a weight `f`.
    fn one_op(op: &str, x: &[usize], f: Option<&[usize]>, attrs: Attrs) -> (Graph, Vec<TensorId>) {
        let mut g = Graph::new();
        let mut inputs = vec![g.add_input("x", Shape::new(x.to_vec()))];
        inputs.extend(f.map(|f| g.add_weight("f", Shape::new(f.to_vec()))));
        let y = g.add_op(op, "op", &inputs, attrs).unwrap();
        (g, vec![y])
    }

    /// Generates `g` under `plan`; returns the graph, its `multi_fetch`
    /// count and each worker's compute node.
    fn generate_one_op(g: &Graph, plan: &PartitionPlan) -> (ShardedGraph, usize, Vec<Node>) {
        let sharded = generate(g, plan, &GenOptions::default()).unwrap();
        let out = &sharded.graph;
        let fetches = out.node_ids().filter(|&n| out.node(n).op == "multi_fetch").count();
        let by_name = |w: usize| out.node_ids().find(|&n| out.node(n).name == format!("w{w}/op"));
        let computes = (0..plan.workers).map(|w| out.node(by_name(w).unwrap()).clone()).collect();
        (sharded, fetches, computes)
    }

    /// The LSTM's gate slice under the AllRow-Greedy plan at w=2 (each
    /// tensor split on dim 0 where that divides, else on its first divisible
    /// dim): split by batch, `slice_axis` of a `[b, 4h]`
    /// tensor reads each worker's own shard, `begin` rebased onto it, with
    /// no `multi_fetch`. Split along the sliced axis, the worker holding the
    /// gate reads its shard at the rebased offset and the other fetches.
    #[test]
    fn a_gate_slice_reads_the_shard_it_holds() {
        let gate = Attrs::new().with_int("axis", 1).with_int("begin", 8).with_int("end", 12);
        for (batch, fetches, begins) in [(4, 0, [Some(8), Some(8)]), (1, 1, [None, Some(2)])] {
            let (g, check) = one_op("slice_axis", &[batch, 16], None, gate.clone());
            let plan = run(&g, Algorithm::AllRowGreedy, 2).unwrap();
            let (sharded, got, computes) = generate_one_op(&g, &plan);
            assert_eq!(got, fetches, "batch {batch}");
            let x = &sharded.shards[&TensorId(0)];
            for (w, node) in computes.iter().enumerate() {
                let held = node.inputs[0] == x[w];
                assert_eq!(held.then(|| node.attrs.int("begin").unwrap()), begins[w], "w{w}");
            }
            validate(&g, &plan, &check, 0.0);
        }
    }

    /// Split by batch, a padded `conv2d` (or `conv1d`) pads the data shard
    /// it holds itself: no fetch, `pad` kept. Split spatially (batch 1),
    /// each worker still assembles its halo in a zero-filling `multi_fetch`
    /// and convolves with `pad = 0`.
    #[test]
    fn a_padded_conv_pads_its_own_shard_unless_split_spatially() {
        let attrs = Attrs::new().with_int("stride", 1).with_int("pad", 1);
        for (op, x, fetches, pad) in [
            ("conv2d", &[4, 3, 6, 6][..], 0, 1),
            ("conv2d", &[1, 3, 6, 6], 2, 0),
            ("conv1d", &[4, 3, 6], 0, 1),
            ("conv1d", &[1, 3, 6], 2, 0),
        ] {
            let (g, check) = one_op(op, x, Some(&[3; 4][..x.len()]), attrs.clone());
            let plan = run(&g, Algorithm::AllRowGreedy, 2).unwrap();
            let (_, got, computes) = generate_one_op(&g, &plan);
            assert_eq!(got, fetches, "{op} {x:?}");
            for node in &computes {
                assert_eq!(node.attrs.int("pad"), Some(pad), "{op} {x:?}");
            }
            validate(&g, &plan, &check, 0.0);
        }
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let (g, _) = mlp(8, 16);
        let plan = partition(&g, &PartitionOptions { workers: 4, ..Default::default() }).unwrap();
        let sharded = generate(&g, &plan, &GenOptions::default()).unwrap();
        let x = g.tensor_by_name("x").unwrap();
        let v = Tensor::random(g.tensor(x).shape.clone(), 9, 1.0);
        let pieces = sharded.scatter(x, &v).unwrap();
        let values: BTreeMap<TensorId, Tensor> = pieces.into_iter().collect();
        let back = sharded.gather(x, v.shape(), &values).unwrap();
        assert!(back.allclose(&v, 0.0));
    }

    #[test]
    fn origins_are_contiguous_and_complete() {
        let (g, _) = mlp(8, 16);
        let plan = partition(&g, &PartitionOptions { workers: 4, ..Default::default() }).unwrap();
        let sharded = generate(&g, &plan, &GenOptions::default()).unwrap();
        assert_eq!(sharded.origin_of_node.len(), sharded.graph.num_nodes());
        assert_eq!(sharded.original_nodes(), g.num_nodes());
        // Each original node's expansion is one contiguous run of generated
        // nodes, in original-schedule order — so any per-worker "origin < n"
        // filter selects a prefix of that worker's schedule.
        let mut prev = NodeId(0);
        for id in sharded.graph.node_ids() {
            let o = sharded.origin_of_node[id.0];
            assert!(o.0 >= prev.0, "origins must be non-decreasing");
            prev = o;
        }
        for w in 0..sharded.workers {
            let sched = sharded.worker_schedule(w);
            for barrier in 0..g.num_nodes() {
                let cut =
                    sched.iter().take_while(|&&n| sharded.origin_of_node[n.0].0 < barrier).count();
                for (i, &n) in sched.iter().enumerate() {
                    assert_eq!(i < cut, sharded.origin_of_node[n.0].0 < barrier);
                }
            }
        }
    }
}
