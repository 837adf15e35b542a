//! Partitioned-graph generation (§6).
//!
//! Expands the original graph into a `k`-worker graph following a
//! [`PartitionPlan`]: each operator becomes `k` device-tagged instances;
//! remote input regions are gathered by fused [`multi_fetch`] nodes (the
//! paper's MultiFetch kernel, which also materializes convolution padding as
//! zero fill); Case-2 partial outputs are combined by a spread reduction
//! (every worker assembles and reduces only its own output shard); and extra
//! control dependencies re-serialize each worker's sub-schedule so the
//! memory planner keeps reusing buffers (Fig. 7).
//!
//! The per-worker input regions are *derived from the TDL descriptions*: a
//! worker's range for every index variable is narrowed step by step
//! according to the chosen strategies, and evaluating the description's
//! affine accesses over those ranges yields exactly the regions to fetch —
//! halos, padding and strides included.
//!
//! [`multi_fetch`]: tofu_graph::ops::data

use std::borrow::Borrow;
use std::collections::BTreeMap;

pub use tofu_graph::{fetch_pieces, FetchPiece};
use tofu_graph::{Attrs, Graph, NodeId, TensorId, TensorKind, TransferIndex};
use tofu_tdl::{bind_extents, IndexExpr, Reducer, TdlDesc};
use tofu_tensor::{Shape, Tensor};

use crate::dp::NodeChoice;
use crate::error::CoreError;
use crate::execplan::ExecCell;
use crate::recursive::PartitionPlan;
use crate::spec::ConcreteOut;
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

/// One cross-device transfer of the sharded graph: a block of `tensor`,
/// which lives on `src`, crossing to `dst` once for every `multi_fetch` on
/// `dst` that reads it (by construction only `multi_fetch` nodes read
/// remote tensors). Transfers are keyed as [`TransferIndex`] defines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommEdge<'a> {
    /// The remote tensor being read.
    pub tensor: TensorId,
    /// Device producing (owning) the tensor.
    pub src: usize,
    /// Device executing the readers.
    pub dst: usize,
    /// The block transferred (a sub-block of `tensor`), as the first reader
    /// decodes it; later readers share `src_begin` and `len` and land it at
    /// their own `dst_begin`.
    pub piece: FetchPiece<'a>,
    /// Every `(multi_fetch node, input index)` the transfer serves, in node
    /// order: the first entry is the reader that triggers it.
    pub readers: Vec<(NodeId, usize)>,
}

impl CommEdge<'_> {
    /// Bytes moved over the `src → dst` link.
    pub fn bytes(&self) -> u64 {
        self.piece.bytes()
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
    /// naming all the reads it serves. By construction every remote read
    /// enters a `multi_fetch` node; this is asserted here so a violated
    /// invariant fails loudly rather than executing with stale remote reads.
    pub fn comm_edges(&self) -> Vec<CommEdge<'_>> {
        let mut out: Vec<CommEdge> = Vec::new();
        let mut index = TransferIndex::default();
        for id in self.graph.node_ids() {
            let node = self.graph.node(id);
            let dst = self.device_of_node[id.0];
            let mut pieces = fetch_pieces(&self.graph, id);
            for (i, &t) in node.inputs.iter().enumerate() {
                let piece = pieces.as_mut().and_then(Iterator::next);
                let src = match self.device_of_tensor[t.0] {
                    Some(d) if d != dst => d,
                    _ => continue,
                };
                let piece = piece.unwrap_or_else(|| {
                    panic!("cross-device edge into non-fetch node {id:?} ({})", node.op)
                });
                match index.read(&self.graph, t, dst, Some(piece)) {
                    (_, true) => {
                        out.push(CommEdge { tensor: t, src, dst, piece, readers: vec![(id, i)] })
                    }
                    (x, false) => out[x].readers.push((id, i)),
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
/// (convolution padding); their `pad` attribute is zeroed per worker.
fn materializes_padding(op: &str) -> bool {
    matches!(op, "conv1d" | "conv2d")
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

/// Evaluates the per-input required regions of a description over concrete
/// variable ranges (inclusive-exclusive, in f64), returning one optional
/// region per input.
fn required_regions(
    desc: &TdlDesc,
    ranges: &[(f64, f64)],
) -> Vec<Option<Vec<(f64, f64)>>> {
    let mut out: Vec<Option<Vec<(f64, f64)>>> = vec![None; desc.input_ranks().len()];
    desc.body().for_each_access(&mut |input, indices| {
        let mut dims: Vec<(f64, f64)> = Vec::with_capacity(indices.len());
        for ie in indices {
            match ie {
                IndexExpr::Full => {
                    // The access spans the full input dimension. Its extent
                    // is not a variable, so push an infinite sentinel; the
                    // caller patches it with the input's own extent.
                    dims.push((0.0, f64::INFINITY));
                }
                IndexExpr::Affine(a) => {
                    let mut lo = a.constant;
                    let mut hi = a.constant;
                    for &(v, c) in &a.terms {
                        // Inclusive value range of the variable: [lo, hi-1].
                        let (vlo, vhi) = (ranges[v].0, ranges[v].1 - 1.0);
                        if c >= 0.0 {
                            lo += c * vlo;
                            hi += c * vhi;
                        } else {
                            lo += c * vhi;
                            hi += c * vlo;
                        }
                    }
                    dims.push((lo, hi + 1.0));
                }
            }
        }
        match &mut out[input] {
            Some(existing) => {
                for (e, n) in existing.iter_mut().zip(dims) {
                    e.0 = e.0.min(n.0);
                    e.1 = e.1.max(n.1);
                }
            }
            slot @ None => *slot = Some(dims),
        }
    });
    out
}

/// Generates the `k`-worker graph for a plan.
pub fn generate(g: &Graph, plan: &PartitionPlan, opts: &GenOptions) -> Result<ShardedGraph> {
    let k = plan.workers;
    let factors: Vec<usize> = plan.steps.iter().map(|s| s.ways).collect();
    let mut out = Graph::new();
    let mut exact = true;

    // Shard regions and leaf shard tensors.
    let mut regions: BTreeMap<TensorId, Vec<Region>> = BTreeMap::new();
    let mut shards: BTreeMap<TensorId, Vec<TensorId>> = BTreeMap::new();
    let mut device_of_tensor: Vec<Option<usize>> = Vec::new();
    let mut device_of_node: Vec<usize> = Vec::new();
    let mut origin_of_node: Vec<NodeId> = Vec::new();
    // Per original node (by id): its compute node on every worker.
    let mut compute_nodes: Vec<Vec<NodeId>> = Vec::with_capacity(g.num_nodes());

    for t in g.tensor_ids() {
        let meta = g.tensor(t);
        let per_worker: Vec<Region> = (0..k)
            .map(|w| shard_region(&meta.shape, &plan.tiling[t.0], &factors, w))
            .collect();
        regions.insert(t, per_worker.clone());
        if meta.kind != TensorKind::Intermediate {
            let mut ids = Vec::with_capacity(k);
            for (w, region) in per_worker.iter().enumerate() {
                let dims: Vec<usize> =
                    region.iter().map(|&(lo, hi)| (hi - lo) as usize).collect();
                let name = format!("w{w}/{}", meta.name);
                let id = if meta.kind == TensorKind::Weight {
                    out.add_weight(&name, Shape::new(dims))
                } else {
                    out.add_input(&name, Shape::new(dims))
                };
                device_of_tensor.resize(out.num_tensors(), Some(w));
                ids.push(id);
            }
            shards.insert(t, ids);
        }
    }

    // Per original node, expand.
    for id in g.node_ids() {
        let node = g.node(id);
        let def = tofu_graph::lookup(&node.op)?;
        let in_shapes: Vec<Shape> =
            node.inputs.iter().map(|&t| g.tensor(t).shape.clone()).collect();
        let tdl_fn = def.tdl.ok_or_else(|| CoreError::NotDescribable {
            node: node.name.clone(),
            op: node.op.clone(),
        })?;
        let desc = tdl_fn(&in_shapes, &node.attrs).ok_or_else(|| CoreError::NotDescribable {
            node: node.name.clone(),
            op: node.op.clone(),
        })?;
        let out_dims = g.tensor(node.output).shape.dims().to_vec();
        let in_dims: Vec<Vec<usize>> = in_shapes.iter().map(|s| s.dims().to_vec()).collect();
        let extents = bind_extents(&desc, &out_dims, &in_dims)?;

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
        let mut raw_outputs: Vec<TensorId> = Vec::with_capacity(k);
        let mut blocks: Vec<Region> = Vec::with_capacity(k);
        let mut computes: Vec<NodeId> = Vec::with_capacity(k);
        for (w, ranges) in var_ranges.iter().enumerate() {
            let materialize = materializes_padding(&node.op);
            let req = required_regions(&desc, ranges);
            let mut new_inputs: Vec<TensorId> = Vec::with_capacity(node.inputs.len());
            let mut input_regions: Vec<Region> = Vec::with_capacity(node.inputs.len());
            for (i, &t) in node.inputs.iter().enumerate() {
                let in_shape = &g.tensor(t).shape;
                let region: Region = match &req[i] {
                    None => in_shape.dims().iter().map(|&e| (0, e as i64)).collect(),
                    Some(dims) => dims
                        .iter()
                        .enumerate()
                        .map(|(d, &(lo, hi))| {
                            let e = in_shape.dim(d) as f64;
                            let (lo, hi) = if lo.is_infinite() || hi.is_infinite() {
                                (0.0, e)
                            } else if materialize {
                                (lo, hi)
                            } else {
                                // Clip to the tensor; a region entirely out
                                // of bounds (e.g. a pad gradient whose block
                                // maps below index 0) collapses to empty.
                                let lo = lo.clamp(0.0, e);
                                (lo, hi.clamp(lo, e))
                            };
                            let lo = lo.floor() as i64;
                            (lo, ((hi - 1e-9).ceil() as i64).max(lo))
                        })
                        .collect(),
                };
                new_inputs.push(fetch_region(
                    &mut out,
                    &mut device_of_tensor,
                    &mut device_of_node,
                    &shards[&t],
                    &regions[&t],
                    &region,
                    w,
                    &format!("w{w}/fetch/{}/{i}", node.name),
                )?);
                input_regions.push(region);
            }

            // Adjusted attributes per worker.
            let block: Region = (0..desc.output_rank())
                .map(|v| (ranges[v].0.round() as i64, ranges[v].1.round() as i64))
                .collect();
            let attrs =
                adjust_attrs(&node.op, &node.attrs, &block, &input_regions, materialize);
            let out_t = out
                .add_op_tagged(
                    &node.op,
                    &format!("w{w}/{}", node.name),
                    &new_inputs,
                    attrs,
                    node.tags.clone(),
                )
                .map_err(CoreError::Graph)?;
            device_of_tensor.resize(out.num_tensors(), Some(w));
            device_of_node.resize(out.num_nodes(), w);
            let expect: Vec<usize> = block.iter().map(|&(lo, hi)| (hi - lo) as usize).collect();
            if out.tensor(out_t).shape.dims() != expect.as_slice() {
                return Err(CoreError::Internal(format!(
                    "node {}: worker {w} produced {} but block is {expect:?}",
                    node.name,
                    out.tensor(out_t).shape
                )));
            }
            raw_outputs.push(out_t);
            blocks.push(block);
            computes.push(NodeId(out.num_nodes() - 1));
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
            // Enumerate reduce-peer classes: one gathered piece per combo of
            // reduce-step digits, then combine with the reducer (spread
            // reduction: every worker reduces only its own shard).
            let mut combos: Vec<Vec<usize>> = vec![Vec::new()];
            for &s in &reduce_steps {
                let mut next = Vec::new();
                for c in &combos {
                    for d in 0..factors[s] {
                        let mut c2 = c.clone();
                        c2.push(d);
                        next.push(c2);
                    }
                }
                combos = next;
            }
            let mut partials: Vec<TensorId> = Vec::with_capacity(combos.len());
            for combo in &combos {
                // Contributors: workers whose reduce-step digits match this
                // combo and whose computed block overlaps the target shard
                // (their blocks tile the output space across the non-reduce
                // digits).
                let peers: Vec<usize> = (0..k)
                    .filter(|&p| {
                        reduce_steps
                            .iter()
                            .enumerate()
                            .all(|(pos, &rs)| digit(p, rs, &factors) == combo[pos])
                    })
                    .filter(|&p| {
                        blocks[p]
                            .iter()
                            .zip(target)
                            .all(|(b, t)| b.0.max(t.0) < b.1.min(t.1))
                    })
                    .collect();
                let sources: Vec<TensorId> = peers.iter().map(|&p| raw_outputs[p]).collect();
                let source_regions: Vec<Region> =
                    peers.iter().map(|&p| blocks[p].clone()).collect();
                let piece = gather_into(
                    &mut out,
                    &mut device_of_tensor,
                    &mut device_of_node,
                    &sources,
                    &source_regions,
                    target,
                    w,
                    &format!("w{w}/gather/{}/{}", node.name, partials.len()),
                )?;
                partials.push(piece);
            }
            let shard = if partials.len() == 1 {
                partials[0]
            } else {
                combine(
                    &mut out,
                    &mut device_of_tensor,
                    &mut device_of_node,
                    &partials,
                    reducer.unwrap_or(Reducer::Sum),
                    w,
                    &format!("w{w}/reduce/{}", node.name),
                )?
            };
            shard_ids.push(shard);
        }
        shards.insert(node.output, shard_ids);
        // Everything emitted while expanding this original node — fetches,
        // computes, gathers, reduces, on every worker — originates from it.
        origin_of_node.resize(out.num_nodes(), id);
    }

    // Pass 3: control dependencies mirroring original direct dependencies
    // within each worker (Fig. 7).
    if opts.control_deps {
        for id in g.node_ids() {
            for &t in &g.node(id).inputs {
                if let Some(p) = g.producer(t) {
                    // Worker by worker, in worker order.
                    for (&after, &before) in compute_nodes[id.0].iter().zip(&compute_nodes[p.0]) {
                        out.add_control_dep(after, before);
                    }
                }
            }
        }
    }

    device_of_node.resize(out.num_nodes(), 0);
    debug_assert_eq!(origin_of_node.len(), out.num_nodes());
    Ok(ShardedGraph {
        graph: out,
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
    materialize: bool,
) -> Attrs {
    let mut a = attrs.clone();
    if materialize {
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

/// Emits the nodes assembling `target` (a region of some original tensor)
/// on worker `w` from the available shards. Returns the assembled tensor.
/// When the target matches worker `w`'s own shard exactly, no node is
/// emitted.
#[allow(clippy::too_many_arguments)]
fn fetch_region(
    out: &mut Graph,
    device_of_tensor: &mut Vec<Option<usize>>,
    device_of_node: &mut Vec<usize>,
    shard_ids: &[TensorId],
    shard_regions: &[Region],
    target: &Region,
    w: usize,
    name: &str,
) -> Result<TensorId> {
    if &shard_regions[w] == target {
        return Ok(shard_ids[w]);
    }
    gather_into(
        out,
        device_of_tensor,
        device_of_node,
        shard_ids,
        shard_regions,
        target,
        w,
        name,
    )
}

/// Emits one multi_fetch node assembling `target` from the given source
/// tensors (each covering `source_regions[i]`), zero-filling uncovered
/// coordinates (materialized padding).
#[allow(clippy::too_many_arguments)]
fn gather_into(
    out: &mut Graph,
    device_of_tensor: &mut Vec<Option<usize>>,
    device_of_node: &mut Vec<usize>,
    sources: &[TensorId],
    source_regions: &[Region],
    target: &Region,
    w: usize,
    name: &str,
) -> Result<TensorId> {
    let rank = target.len();
    let out_dims: Vec<i64> = target.iter().map(|&(lo, hi)| hi - lo).collect();
    let mut inputs: Vec<TensorId> = Vec::new();
    let mut pieces: Vec<i64> = Vec::new();
    let mut covered: Vec<Region> = Vec::new();
    for (src, region) in sources.iter().zip(source_regions) {
        // Intersection of the source region with the target.
        let mut isect: Region = Vec::with_capacity(rank);
        let mut nonempty = true;
        for d in 0..rank {
            let lo = region[d].0.max(target[d].0);
            let hi = region[d].1.min(target[d].1);
            if lo >= hi {
                nonempty = false;
                break;
            }
            isect.push((lo, hi));
        }
        if !nonempty {
            continue;
        }
        // Avoid copying a block some earlier source already covers entirely
        // (replicated shards overlap).
        if covered.iter().any(|c| {
            (0..rank).all(|d| c[d].0 <= isect[d].0 && isect[d].1 <= c[d].1)
        }) {
            continue;
        }
        for d in 0..rank {
            pieces.push(isect[d].0 - region[d].0); // src_begin
        }
        for d in 0..rank {
            pieces.push(isect[d].0 - target[d].0); // dst_begin
        }
        for s in &isect {
            pieces.push(s.1 - s.0); // len
        }
        covered.push(isect);
        inputs.push(*src);
    }
    let attrs = Attrs::new().with_ints("out_dims", out_dims).with_ints("pieces", pieces);
    let t = out.add_op("multi_fetch", name, &inputs, attrs).map_err(CoreError::Graph)?;
    device_of_tensor.resize(out.num_tensors(), Some(w));
    device_of_node.resize(out.num_nodes(), w);
    Ok(t)
}

/// Emits the reducer combining partial shards (spread reduction).
fn combine(
    out: &mut Graph,
    device_of_tensor: &mut Vec<Option<usize>>,
    device_of_node: &mut Vec<usize>,
    partials: &[TensorId],
    reducer: Reducer,
    w: usize,
    name: &str,
) -> Result<TensorId> {
    let result = match reducer {
        Reducer::Sum => {
            out.add_op("add_n", name, partials, Attrs::new()).map_err(CoreError::Graph)?
        }
        Reducer::Max | Reducer::Min | Reducer::Prod => {
            let op = match reducer {
                Reducer::Max => "maximum",
                Reducer::Min => "minimum",
                _ => "mul",
            };
            let mut acc = partials[0];
            for (i, &p) in partials.iter().enumerate().skip(1) {
                acc = out
                    .add_op(op, &format!("{name}/{i}"), &[acc, p], Attrs::new())
                    .map_err(CoreError::Graph)?;
            }
            acc
        }
    };
    device_of_tensor.resize(out.num_tensors(), Some(w));
    device_of_node.resize(out.num_nodes(), w);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{run, Algorithm};
    use crate::recursive::{partition, PartitionOptions};
    use tofu_graph::{autodiff, Executor};

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
        let mut served = BTreeMap::new();
        let mut keys = BTreeMap::new();
        for (x, e) in edges.iter().enumerate() {
            // Every edge moves a real piece of the remote tensor, and no two
            // edges move the same block to the same device.
            assert_ne!(e.src, e.dst);
            assert_eq!(Some(e.src), sharded.device_of_tensor[e.tensor.0]);
            assert!(e.bytes() > 0);
            assert!(e.bytes() <= g.tensor(e.tensor).shape.bytes());
            let key = (e.tensor, e.dst, e.piece.src_begin, e.piece.len);
            assert_eq!(keys.insert(key, x), None, "two transfers share {key:?}");
            // Only multi_fetch nodes read remote tensors (the §6 invariant
            // comm_edges itself asserts); every reader is one, on `dst`,
            // reading exactly this block, and the first one triggers it.
            assert_eq!(e.readers[0], *e.readers.iter().min().unwrap());
            for &(reader, i) in &e.readers {
                assert_eq!(g.node(reader).op, "multi_fetch");
                let dst = sharded.device_of_node[reader.0];
                assert_eq!((g.node(reader).inputs[i], dst), (e.tensor, e.dst));
                let piece = fetch_pieces(g, reader).unwrap().nth(i).unwrap();
                assert_eq!((piece.src_begin, piece.len), (e.piece.src_begin, e.piece.len));
                assert_eq!(served.insert((reader, i), x), None, "{reader:?} input {i} served twice");
            }
        }
        // Every remote read found by brute force is served by exactly one
        // transfer.
        let mut reads = 0;
        for id in g.node_ids() {
            for (i, t) in g.node(id).inputs.iter().enumerate() {
                if sharded.device_of_tensor[t.0] != Some(sharded.device_of_node[id.0]) {
                    assert!(served.contains_key(&(id, i)), "{id:?} input {i} is not served");
                    reads += 1;
                }
            }
        }
        assert_eq!(served.len(), reads);
        assert_eq!(edges.iter().map(|e| e.readers.len()).sum::<usize>(), reads);
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
