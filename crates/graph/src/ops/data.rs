//! Data-movement operators, opaque-function operators and the sparse
//! operators TDL cannot describe (§4.1).
//!
//! `slice_axis` and `concat` are the primitives partitioned graphs use to
//! extract remote input regions and reassemble them (§6); MXNet ships the
//! same trio (`copy` lives in the element-wise family). Generated graphs use
//! `multi_fetch` instead, the fused kernel that assembles a region from
//! pieces of several tensors in one launch and, for a spread reduction,
//! folds the later reduce-peer classes' pieces into the first's.

use tofu_tdl::{builder::Idx, DescBuilder, TdlDesc};
use tofu_tensor::{ReduceKind, Shape, Tensor};

use crate::attrs::Attrs;
use crate::graph::{Graph, NodeId, TensorId};
use crate::ops::flops_per_elem;
use crate::registry::{GradCtx, GraphError, Kernel, OpCategory, OpDef};
use crate::Result;

/// One piece of a `multi_fetch` node, borrowed from its `pieces` attribute:
/// input `i` contributes the block of `len` elements starting at
/// `src_begin` (source coordinates), landing at `dst_begin` of the fetch
/// output — copied there, or folded into what is there with `fold`'s scalar
/// op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchPiece<'a> {
    /// Start of the copied block inside the source tensor.
    pub src_begin: &'a [i64],
    /// Start of the block inside the fetch output.
    pub dst_begin: &'a [i64],
    /// Block extent per dimension.
    pub len: &'a [i64],
    /// `None` copies the block; a reducer folds it into the output.
    pub fold: Option<ReduceKind>,
}

impl<'a> FetchPiece<'a> {
    /// Bytes the piece transfers (f32 elements).
    pub fn bytes(&self) -> u64 {
        self.len.iter().product::<i64>().max(0) as u64 * 4
    }

    /// Piece `i` of a flat `pieces` list of rank-`rank` descriptors, folded
    /// from input `combine` on.
    fn at(flat: &'a [i64], rank: usize, i: usize, (combine, kind): Combine) -> FetchPiece<'a> {
        let desc = &flat[i * 3 * rank..(i + 1) * 3 * rank];
        FetchPiece {
            src_begin: &desc[..rank],
            dst_begin: &desc[rank..2 * rank],
            len: &desc[2 * rank..],
            fold: (i >= combine).then_some(kind),
        }
    }
}

/// The first input a `multi_fetch` folds, and the fold.
type Combine = (usize, ReduceKind);

/// The reducer names of a folding `multi_fetch`: `tofu_tdl::Reducer`'s.
const REDUCERS: [(&str, ReduceKind); 4] = [
    ("sum", ReduceKind::Sum),
    ("max", ReduceKind::Max),
    ("min", ReduceKind::Min),
    ("prod", ReduceKind::Prod),
];

/// The `combine` and `reducer` attributes of a `multi_fetch` with `inputs`
/// inputs: both or neither (nothing folds: `combine` is past the inputs).
fn decode_combine(attrs: &Attrs, inputs: usize) -> std::result::Result<Combine, String> {
    match (attrs.int("combine"), attrs.str("reducer")) {
        (None, None) => Ok((usize::MAX, ReduceKind::Sum)),
        (Some(c), Some(r)) => {
            let kind = REDUCERS.iter().find(|(name, _)| *name == r).map(|&(_, k)| k);
            let kind = kind.ok_or_else(|| format!("multi_fetch has unknown reducer {r:?}"))?;
            match usize::try_from(c) {
                Ok(c) if c <= inputs => Ok((c, kind)),
                _ => Err(format!("multi_fetch combine {c} is outside its {inputs} inputs")),
            }
        }
        _ => Err("multi_fetch needs both combine and reducer, or neither".into()),
    }
}

/// Decodes a `multi_fetch` attribute set against its input shapes: the
/// output shape plus one [`FetchPiece`] per input, in input order.
///
/// Attribute layout: `out_dims` gives the output shape (rank r); `pieces` is
/// a flat integer list with 3·r entries per input — `src_begin[r]`,
/// `dst_begin[r]`, `len[r]`; a spread reduction adds `reducer` (`"sum"`,
/// `"max"`, `"min"` or `"prod"`) and `combine`, the first input folded
/// rather than copied. This is the only reader of that layout, and it
/// rejects anything the kernel, the simulator or the runtime could not
/// execute: a `pieces` list of the wrong length, a negative entry, a source
/// block outside its input, a destination block outside `out_dims`, an
/// unknown reducer or a `combine` past the inputs.
fn decode_multi_fetch<'a, 's>(
    inputs: impl ExactSizeIterator<Item = &'s Shape>,
    attrs: &'a Attrs,
) -> std::result::Result<(Shape, Vec<FetchPiece<'a>>), String> {
    let out_dims = attrs.ints("out_dims").ok_or("multi_fetch missing out_dims")?;
    if let Some(d) = out_dims.iter().find(|&&d| d < 0) {
        return Err(format!("multi_fetch out_dims has negative extent {d}"));
    }
    let out = Shape::new(out_dims.iter().map(|&d| d as usize).collect());
    let rank = out.rank();
    let flat = attrs.ints("pieces").unwrap_or(&[]);
    if flat.len() != inputs.len() * 3 * rank {
        return Err(format!(
            "multi_fetch expects {} piece integers ({} inputs × 3 × rank {rank}), got {}",
            inputs.len() * 3 * rank,
            inputs.len(),
            flat.len()
        ));
    }
    let combine = decode_combine(attrs, inputs.len())?;
    let mut pieces = Vec::with_capacity(inputs.len());
    for (i, src) in inputs.enumerate() {
        let piece = FetchPiece::at(flat, rank, i, combine);
        src.check_block(piece.src_begin, piece.len)
            .map_err(|e| format!("multi_fetch piece {i} source (shape {src}): {e}"))?;
        out.check_block(piece.dst_begin, piece.len)
            .map_err(|e| format!("multi_fetch piece {i} destination (shape {out}): {e}"))?;
        pieces.push(piece);
    }
    Ok((out, pieces))
}

/// The fused remote-gather kernel of §6: assembles an output region from
/// pieces of several source tensors in one launch, zero-filling anything not
/// covered (which is how partitioned convolutions materialize padding). A
/// spread reduction folds its later reduce-peer classes' pieces into the
/// first class's, in input order.
fn kernel_multi_fetch(ins: &[&Tensor], attrs: &Attrs, _: &Shape) -> Result<Tensor> {
    let (out_shape, pieces) =
        decode_multi_fetch(ins.iter().map(|t| t.shape()), attrs).map_err(GraphError::Exec)?;
    let mut out = Tensor::zeros(out_shape);
    for (src, p) in ins.iter().zip(&pieces) {
        match p.fold {
            None => out.copy_block(src, p.src_begin, p.dst_begin, p.len)?,
            Some(kind) => out.fold_block(src, p.src_begin, p.dst_begin, p.len, kind)?,
        }
    }
    Ok(out)
}

/// The pieces of `multi_fetch` node `id`, one per input in input order,
/// borrowed from the attribute `decode_multi_fetch` validated when the
/// node was added; `None` for any other operator.
pub fn fetch_pieces(
    g: &Graph,
    id: NodeId,
) -> Option<impl ExactSizeIterator<Item = FetchPiece<'_>> + '_> {
    let node = g.node(id);
    if node.op != "multi_fetch" {
        return None;
    }
    let rank = g.tensor(node.output).shape.rank();
    let flat = node.attrs.ints("pieces").unwrap_or(&[]);
    let combine = decode_combine(&node.attrs, node.inputs.len()).ok()?;
    Some((0..node.inputs.len()).map(move |i| FetchPiece::at(flat, rank, i, combine)))
}

/// The transfers of a device-tagged graph, numbered densely in creation
/// order.
///
/// A transfer is a box of one tensor crossing to one device, and an element
/// crosses to a device once. A read of block `b` of tensor `t` on device `d`
/// is served by every earlier transfer of `t` to `d` that `b` overlaps, and
/// only the remainder of `b` — what those transfers do not cover — becomes
/// new transfers: disjoint boxes, cut one dimension at a time (a box less
/// one box it overlaps is at most 2·rank boxes). So however many nodes on
/// `d` read the same
/// elements, each crosses once, as with TensorFlow's canonical Send/Recv
/// pairs; identical blocks share one transfer, a half read after its whole
/// moves nothing, and a whole read after its half moves the other half. The
/// transfers of one (tensor, device) are pairwise disjoint and tile the
/// union of its reads. A `multi_fetch` input reads its piece; any other
/// remote read reads the whole tensor. An empty block moves nothing.
///
/// The simulator, `ShardedGraph::comm_edges` and the runtime's routing table
/// all number transfers through this index, which is why their byte and
/// message counts agree. Each tensor chains its transfers, so a read costs a
/// walk over the boxes of its own tensor already sent, which stops once they
/// cover the block; the index keeps its scratch between reads, so a read
/// that overlaps nothing allocates nothing beyond the entry its transfer
/// appends.
#[derive(Debug, Default)]
pub struct TransferIndex {
    /// Per tensor: its most recent transfer, `NONE` before the first.
    head: Vec<usize>,
    /// Per transfer: destination, rank, start of its box in `boxes`, and the
    /// previous transfer of the same tensor.
    entries: Vec<Entry>,
    /// Every transfer's box, `begin` then `len`, back to back.
    boxes: Vec<i64>,
    /// Scratch for one read: the earlier transfers it overlaps, and what is
    /// left of its block, `pieces` boxes in `rest` (`next` is the second
    /// buffer of each cut).
    served: Vec<usize>,
    rest: Vec<i64>,
    next: Vec<i64>,
    pieces: usize,
    /// Scratch of [`subtract`].
    cut: Vec<i64>,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    dst: usize,
    rank: usize,
    at: usize,
    prev: usize,
}

const NONE: usize = usize::MAX;

/// The transfers serving one read (see [`TransferIndex::read`]).
#[derive(Debug, PartialEq, Eq)]
pub struct Served<'i> {
    /// Earlier transfers the read overlaps, most recent first.
    pub old: &'i [usize],
    /// The transfers the read creates: the remainder of its block.
    pub new: std::ops::Range<usize>,
}

/// Whether boxes `a` and `b` (`begin` then `len`) share an element.
fn overlaps(a: &[i64], b: &[i64]) -> bool {
    let ((a0, al), (b0, bl)) = (a.split_at(a.len() / 2), b.split_at(b.len() / 2));
    let a = a0.iter().zip(al);
    a.zip(b0.iter().zip(bl)).all(|((&a0, &al), (&b0, &bl))| a0.max(b0) < (a0 + al).min(b0 + bl))
}

/// Appends `a` minus `b` to `out` as disjoint boxes, one dimension at a
/// time: the part of `a` before `b` along dimension 0, the part after it,
/// then the same along dimension 1 within `b`'s extent of dimension 0, and
/// so on. Returns how many boxes it appended (at most 2·rank). `cur` is
/// scratch.
fn subtract(a: &[i64], b: &[i64], cur: &mut Vec<i64>, out: &mut Vec<i64>) -> usize {
    let r = a.len() / 2;
    cur.clear();
    cur.extend_from_slice(a);
    let mut n = 0;
    for d in 0..r {
        let (lo, hi) = (cur[d].max(b[d]), (cur[d] + cur[r + d]).min(b[d] + b[r + d]));
        for (begin, end) in [(cur[d], lo), (hi, cur[d] + cur[r + d])] {
            if begin < end {
                let at = out.len();
                out.extend_from_slice(cur);
                (out[at + d], out[at + r + d]) = (begin, end - begin);
                n += 1;
            }
        }
        (cur[d], cur[r + d]) = (lo, hi - lo);
    }
    n
}

impl TransferIndex {
    /// Records a read of `block` of tensor `t` (`None`: the whole tensor) by
    /// device `dst` of `g`, and returns the transfers that serve it: the
    /// earlier ones it overlaps, and the new ones that move the rest of the
    /// block. Transfers are numbered 0, 1, … in creation order.
    pub fn read(
        &mut self,
        g: &Graph,
        t: TensorId,
        dst: usize,
        block: Option<FetchPiece<'_>>,
    ) -> Served<'_> {
        if self.head.len() < g.num_tensors() {
            self.head.resize(g.num_tensors(), NONE);
        }
        let dims = g.tensor(t).shape.dims();
        let (rank, w) = (dims.len(), 2 * dims.len());
        self.rest.clear();
        match block {
            Some(p) => {
                self.rest.extend_from_slice(p.src_begin);
                self.rest.extend_from_slice(p.len);
            }
            None => {
                self.rest.resize(rank, 0);
                self.rest.extend(dims.iter().map(|&d| d as i64));
            }
        }
        // An empty block has no elements to move.
        self.pieces = usize::from(self.rest[rank..].iter().all(|&l| l > 0));
        // Walk the tensor's transfers, cutting each one to `dst` that
        // overlaps what is left of the block out of it. They are disjoint,
        // so once nothing is left no other one overlaps the block.
        self.served.clear();
        let mut x = self.head[t.0];
        while x != NONE && self.pieces > 0 {
            let (e, y) = (self.entries[x], x);
            x = e.prev;
            if e.dst != dst {
                continue;
            }
            let other = &self.boxes[e.at..][..w];
            let rest = || (0..self.pieces).map(|i| &self.rest[w * i..][..w]);
            if !rest().any(|piece| overlaps(piece, other)) {
                continue;
            }
            self.served.push(y);
            self.next.clear();
            let mut kept = 0;
            for piece in rest() {
                kept += if overlaps(piece, other) {
                    subtract(piece, other, &mut self.cut, &mut self.next)
                } else {
                    self.next.extend_from_slice(piece);
                    1
                };
            }
            self.pieces = kept;
            std::mem::swap(&mut self.rest, &mut self.next);
        }
        let first = self.entries.len();
        for piece in (0..self.pieces).map(|i| &self.rest[w * i..][..w]) {
            self.entries.push(Entry { dst, rank, at: self.boxes.len(), prev: self.head[t.0] });
            self.head[t.0] = self.entries.len() - 1;
            self.boxes.extend_from_slice(piece);
        }
        Served { old: &self.served, new: first..self.entries.len() }
    }

    /// The box transfer `x` moves: its `begin` and `len` per dimension.
    pub fn block(&self, x: usize) -> (&[i64], &[i64]) {
        let Entry { rank, at, .. } = self.entries[x];
        (&self.boxes[at..at + rank], &self.boxes[at + rank..at + 2 * rank])
    }
}

/// Gradient of `slice_axis`: zero-pad the output gradient back to the input
/// extent (used heavily by LSTM gate slicing).
fn grad_slice_axis(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let axis = ctx.attrs.int_or("axis", 0);
    let begin = ctx.attrs.int_or("begin", 0);
    let in_extent = ctx.shape(ctx.inputs[0]).dim(axis as usize) as i64;
    let end = ctx.attrs.int_or("end", in_extent);
    let dx = ctx.op(
        "pad",
        &[ctx.out_grad],
        Attrs::new()
            .with_int("axis", axis)
            .with_int("before", begin)
            .with_int("after", in_extent - end),
    )?;
    Ok(vec![Some(dx)])
}

// ---- Shape inference ---------------------------------------------------------

fn shape_slice_axis(ins: &[Shape], attrs: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 1 {
        return Err("slice_axis expects one input".into());
    }
    let rank = ins[0].rank();
    let axis = attrs.int_or("axis", 0);
    if axis < 0 || axis as usize >= rank {
        return Err(format!("axis {axis} out of range for rank {rank}"));
    }
    let begin = attrs.int_or("begin", 0);
    let end = attrs.int_or("end", ins[0].dim(axis as usize) as i64);
    if begin < 0 || end < begin || end as usize > ins[0].dim(axis as usize) {
        return Err(format!("invalid slice [{begin}, {end})"));
    }
    ins[0].with_dim(axis as usize, (end - begin) as usize).map_err(|e| e.to_string())
}

fn shape_concat(ins: &[Shape], attrs: &Attrs) -> std::result::Result<Shape, String> {
    let first = ins.first().ok_or("concat of zero tensors")?;
    let axis = attrs.int_or("axis", 0);
    if axis < 0 || axis as usize >= first.rank() {
        return Err(format!("axis {axis} out of range"));
    }
    let axis = axis as usize;
    let mut total = 0;
    for s in ins {
        if s.rank() != first.rank() {
            return Err("rank mismatch in concat".into());
        }
        for d in 0..s.rank() {
            if d != axis && s.dim(d) != first.dim(d) {
                return Err(format!("extent mismatch in concat: {first} vs {s}"));
            }
        }
        total += s.dim(axis);
    }
    first.with_dim(axis, total).map_err(|e| e.to_string())
}

fn shape_pad(ins: &[Shape], attrs: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 1 {
        return Err("pad expects one input".into());
    }
    let axis = attrs.int_or("axis", 0) as usize;
    let before = attrs.int_or("before", 0) as usize;
    let after = attrs.int_or("after", 0) as usize;
    if axis >= ins[0].rank() {
        return Err("axis out of range".into());
    }
    ins[0]
        .with_dim(axis, ins[0].dim(axis) + before + after)
        .map_err(|e| e.to_string())
}

fn shape_flip(ins: &[Shape], attrs: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 1 {
        return Err("flip expects one input".into());
    }
    let axis = attrs.int_or("axis", 0) as usize;
    if axis >= ins[0].rank() {
        return Err("axis out of range".into());
    }
    Ok(ins[0].clone())
}

fn shape_repeat(ins: &[Shape], attrs: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 1 {
        return Err("repeat expects one input".into());
    }
    let axis = attrs.int_or("axis", 0) as usize;
    let k = attrs.int_or("repeats", 2).max(1) as usize;
    if axis >= ins[0].rank() {
        return Err("axis out of range".into());
    }
    ins[0].with_dim(axis, ins[0].dim(axis) * k).map_err(|e| e.to_string())
}

fn shape_tile(ins: &[Shape], attrs: &Attrs) -> std::result::Result<Shape, String> {
    shape_repeat(ins, attrs)
}

fn shape_batch_square(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    // (b, n, n) -> (b, n, n) for batched matrix decompositions.
    if ins.len() != 1 || ins[0].rank() != 3 || ins[0].dim(1) != ins[0].dim(2) {
        return Err("expects one (b, n, n) input".into());
    }
    Ok(ins[0].clone())
}

fn shape_square_mat(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 1 || ins[0].rank() != 2 || ins[0].dim(0) != ins[0].dim(1) {
        return Err("expects one square matrix".into());
    }
    Ok(ins[0].clone())
}

fn shape_sparse(_: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    Err("sparse operators are not supported by the dense executor".into())
}

// ---- TDL descriptions -----------------------------------------------------------

fn tdl_slice_axis(ins: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    let rank = ins.first()?.rank();
    let axis = attrs.int_or("axis", 0) as usize;
    let begin = attrs.int_or("begin", 0);
    let mut b = DescBuilder::new("slice_axis", &[rank]);
    let vars: Vec<_> = (0..rank).map(|d| b.output_var(format!("d{d}"))).collect();
    let coords: Vec<_> = vars
        .iter()
        .enumerate()
        .map(|(d, v)| if d == axis { v.at() + begin } else { v.at() })
        .collect();
    let body = b.input(0, &coords);
    b.build(body).ok()
}

fn tdl_pad(ins: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    let rank = ins.first()?.rank();
    let axis = attrs.int_or("axis", 0) as usize;
    let before = attrs.int_or("before", 0);
    let mut b = DescBuilder::new("pad", &[rank]);
    let vars: Vec<_> = (0..rank).map(|d| b.output_var(format!("d{d}"))).collect();
    let coords: Vec<_> = vars
        .iter()
        .enumerate()
        .map(|(d, v)| if d == axis { v.at() - before } else { v.at() })
        .collect();
    let body = b.input(0, &coords);
    b.build(body).ok()
}

fn tdl_flip(ins: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    // out[i] = x[N - 1 - i]; the constant is shape-dependent, which is fine
    // because descriptions are instantiated per node.
    let shape = ins.first()?;
    let rank = shape.rank();
    let axis = attrs.int_or("axis", 0) as usize;
    let n = shape.dim(axis) as i64;
    let mut b = DescBuilder::new("flip", &[rank]);
    let vars: Vec<_> = (0..rank).map(|d| b.output_var(format!("d{d}"))).collect();
    let coords: Vec<_> = vars
        .iter()
        .enumerate()
        .map(|(d, v)| if d == axis { v.at() * -1 + (n - 1) } else { v.at() })
        .collect();
    let body = b.input(0, &coords);
    b.build(body).ok()
}

fn tdl_repeat(ins: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    // out[i] = x[i / k]: rational coefficient, region-exact.
    let rank = ins.first()?.rank();
    let axis = attrs.int_or("axis", 0) as usize;
    let k = attrs.int_or("repeats", 2).max(1);
    let mut b = DescBuilder::new("repeat", &[rank]);
    let vars: Vec<_> = (0..rank).map(|d| b.output_var(format!("d{d}"))).collect();
    let coords: Vec<_> = vars
        .iter()
        .enumerate()
        .map(|(d, v)| if d == axis { v.at().div(k) } else { v.at() })
        .collect();
    let body = b.input(0, &coords);
    b.build(body).ok()
}

fn tdl_batch_cholesky(_: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    // Fig. 3 of the paper: lambda b, i, j: Cholesky(batch_mat[b, :, :])[i, j].
    let mut b = DescBuilder::new("batch_cholesky", &[3]);
    let (bb, i, j) = (b.output_var("b"), b.output_var("i"), b.output_var("j"));
    let slice = b.input(0, &[bb.at(), Idx::full(), Idx::full()]);
    let body = b.opaque("cholesky", vec![slice], &[i, j]);
    b.build(body).ok()
}

fn tdl_batch_inverse(_: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    let mut b = DescBuilder::new("batch_inverse", &[3]);
    let (bb, i, j) = (b.output_var("b"), b.output_var("i"), b.output_var("j"));
    let slice = b.input(0, &[bb.at(), Idx::full(), Idx::full()]);
    let body = b.opaque("inverse", vec![slice], &[i, j]);
    b.build(body).ok()
}

// ---- Kernels ---------------------------------------------------------------------

fn kernel_slice_axis(ins: &[&Tensor], attrs: &Attrs, _: &Shape) -> Result<Tensor> {
    let axis = attrs.int_or("axis", 0) as usize;
    let begin = attrs.int_or("begin", 0) as usize;
    let end = attrs.int_or("end", ins[0].shape().dim(axis) as i64) as usize;
    Ok(ins[0].slice(axis, begin, end)?)
}

fn kernel_pad(ins: &[&Tensor], attrs: &Attrs, _: &Shape) -> Result<Tensor> {
    let axis = attrs.int_or("axis", 0) as usize;
    let before = attrs.int_or("before", 0) as usize;
    let after = attrs.int_or("after", 0) as usize;
    let mut parts = Vec::new();
    if before > 0 {
        parts.push(Tensor::zeros(ins[0].shape().with_dim(axis, before)?));
    }
    parts.push(ins[0].clone());
    if after > 0 {
        parts.push(Tensor::zeros(ins[0].shape().with_dim(axis, after)?));
    }
    Ok(Tensor::concat(&parts, axis)?)
}

fn kernel_flip(ins: &[&Tensor], attrs: &Attrs, _: &Shape) -> Result<Tensor> {
    let axis = attrs.int_or("axis", 0) as usize;
    let n = ins[0].shape().dim(axis);
    let mut parts = Vec::with_capacity(n);
    for i in (0..n).rev() {
        parts.push(ins[0].slice(axis, i, i + 1)?);
    }
    Ok(Tensor::concat(&parts, axis)?)
}

fn kernel_repeat(ins: &[&Tensor], attrs: &Attrs, _: &Shape) -> Result<Tensor> {
    let axis = attrs.int_or("axis", 0) as usize;
    let k = attrs.int_or("repeats", 2).max(1) as usize;
    let n = ins[0].shape().dim(axis);
    let mut parts = Vec::with_capacity(n * k);
    for i in 0..n {
        let s = ins[0].slice(axis, i, i + 1)?;
        for _ in 0..k {
            parts.push(s.clone());
        }
    }
    Ok(Tensor::concat(&parts, axis)?)
}

fn kernel_tile(ins: &[&Tensor], attrs: &Attrs, _: &Shape) -> Result<Tensor> {
    let axis = attrs.int_or("axis", 0) as usize;
    let k = attrs.int_or("repeats", 2).max(1) as usize;
    let parts = vec![ins[0].clone(); k];
    Ok(Tensor::concat(&parts, axis)?)
}

/// Batched lower-triangular Cholesky factorization.
fn batch_cholesky(t: &Tensor) -> Result<Tensor> {
    let (b, n) = (t.shape().dim(0), t.shape().dim(1));
    let mut out = Tensor::zeros(t.shape().clone());
    for ib in 0..b {
        for i in 0..n {
            for j in 0..=i {
                let mut sum = t.at(&[ib, i, j]);
                for k in 0..j {
                    sum -= out.at(&[ib, i, k]) * out.at(&[ib, j, k]);
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(GraphError::Exec(format!(
                            "matrix {ib} is not positive definite (pivot {sum})"
                        )));
                    }
                    out.set(&[ib, i, j], sum.sqrt());
                } else {
                    out.set(&[ib, i, j], sum / out.at(&[ib, j, j]));
                }
            }
        }
    }
    Ok(out)
}

/// Batched Gauss-Jordan matrix inverse.
fn batch_inverse(t: &Tensor) -> Result<Tensor> {
    let (b, n) = (t.shape().dim(0), t.shape().dim(1));
    let mut out = Tensor::zeros(t.shape().clone());
    for ib in 0..b {
        // Augmented [A | I] elimination.
        let mut a = vec![vec![0.0f32; 2 * n]; n];
        for (i, row) in a.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().take(n).enumerate() {
                *v = t.at(&[ib, i, j]);
            }
            row[n + i] = 1.0;
        }
        for col in 0..n {
            // Partial pivot.
            let pivot_row = (col..n)
                .max_by(|&r1, &r2| a[r1][col].abs().partial_cmp(&a[r2][col].abs()).unwrap())
                .unwrap();
            if a[pivot_row][col].abs() < 1e-12 {
                return Err(GraphError::Exec(format!("matrix {ib} is singular")));
            }
            a.swap(col, pivot_row);
            let pivot = a[col][col];
            for v in a[col].iter_mut() {
                *v /= pivot;
            }
            let col_vals = a[col].clone();
            for (row, r) in a.iter_mut().enumerate() {
                if row != col {
                    let factor = r[col];
                    if factor != 0.0 {
                        for (v, cv) in r.iter_mut().zip(&col_vals) {
                            *v -= factor * cv;
                        }
                    }
                }
            }
        }
        for (i, row) in a.iter().enumerate() {
            for j in 0..n {
                out.set(&[ib, i, j], row[n + j]);
            }
        }
    }
    Ok(out)
}

/// Un-batched Cholesky: the batched kernel on a batch of one.
fn kernel_cholesky(ins: &[&Tensor], _: &Attrs, _: &Shape) -> Result<Tensor> {
    let d = ins[0].shape().dims();
    let lifted = ins[0].reshape(Shape::new(vec![1, d[0], d[1]]))?;
    let out = batch_cholesky(&lifted)?;
    Ok(out.reshape(ins[0].shape().clone())?)
}

// ---- Definitions --------------------------------------------------------------------

/// Returns data-movement, opaque and sparse operator definitions.
pub(crate) fn defs() -> Vec<OpDef> {
    let mut out = vec![
        OpDef {
            name: "slice_axis",
            category: OpCategory::Data,
            infer_shape: shape_slice_axis,
            tdl: Some(tdl_slice_axis),
            gradient: Some(grad_slice_axis),
            flops: flops_per_elem,
            kernel: Some(Kernel::General(kernel_slice_axis)),
        },
        OpDef {
            name: "concat",
            category: OpCategory::Data,
            infer_shape: shape_concat,
            // Concatenation is piecewise, which TDL's single lambda body
            // cannot express; MXNet's concat is likewise special-cased.
            tdl: None,
            gradient: None,
            flops: flops_per_elem,
            kernel: Some(Kernel::General(|ins, attrs, _| {
                Ok(Tensor::concat(ins, attrs.int_or("axis", 0) as usize)?)
            })),
        },
        OpDef {
            name: "pad",
            category: OpCategory::Data,
            infer_shape: shape_pad,
            tdl: Some(tdl_pad),
            gradient: None,
            flops: flops_per_elem,
            kernel: Some(Kernel::General(kernel_pad)),
        },
        OpDef {
            name: "flip",
            category: OpCategory::Data,
            infer_shape: shape_flip,
            tdl: Some(tdl_flip),
            gradient: None,
            flops: flops_per_elem,
            kernel: Some(Kernel::General(kernel_flip)),
        },
        OpDef {
            name: "repeat",
            category: OpCategory::Data,
            infer_shape: shape_repeat,
            tdl: Some(tdl_repeat),
            gradient: None,
            flops: flops_per_elem,
            kernel: Some(Kernel::General(kernel_repeat)),
        },
        OpDef {
            name: "tile",
            category: OpCategory::Data,
            infer_shape: shape_tile,
            // out[i] = x[i mod n] is not affine.
            tdl: None,
            gradient: None,
            flops: flops_per_elem,
            kernel: Some(Kernel::General(kernel_tile)),
        },
        // Opaque-function operators (2, matching §4.1's MXNet count).
        OpDef {
            name: "batch_cholesky",
            category: OpCategory::Opaque,
            infer_shape: shape_batch_square,
            tdl: Some(tdl_batch_cholesky),
            gradient: None,
            flops: |ins, _, _| {
                let n = ins[0].dim(1) as f64;
                ins[0].dim(0) as f64 * n * n * n / 3.0
        },
            kernel: Some(Kernel::General(|ins, _, _| batch_cholesky(ins[0]))),
        },
        OpDef {
            name: "batch_inverse",
            category: OpCategory::Opaque,
            infer_shape: shape_batch_square,
            tdl: Some(tdl_batch_inverse),
            gradient: None,
            flops: |ins, _, _| {
                let n = ins[0].dim(1) as f64;
                ins[0].dim(0) as f64 * n * n * n
        },
            kernel: Some(Kernel::General(|ins, _, _| batch_inverse(ins[0]))),
        },
        // Un-batched Cholesky cannot be parallelized by partition-n-reduce at
        // all (§3.1) — no TDL description exists.
        OpDef {
            name: "cholesky",
            category: OpCategory::Linalg,
            infer_shape: shape_square_mat,
            tdl: None,
            gradient: None,
            flops: |ins, _, _| {
                let n = ins[0].dim(0) as f64;
                n * n * n / 3.0
        },
            kernel: Some(Kernel::General(kernel_cholesky)),
        },
    ];
    out.push(OpDef {
        name: "multi_fetch",
        category: OpCategory::Data,
        infer_shape: |ins, attrs| decode_multi_fetch(ins.iter(), attrs).map(|(out, _)| out),
        tdl: None,
        gradient: None,
        flops: flops_per_elem,
        kernel: Some(Kernel::General(kernel_multi_fetch)),
    });
    // Sparse operators: describable in TDL in principle, but unsupported by
    // Tofu due to load imbalance (§9); we register them undescribed like the
    // paper's coverage count does, and without a kernel: the executor is
    // dense.
    const SPARSE: [&str; 4] = ["sparse_dot", "sparse_retain", "cast_storage", "sparse_embedding"];
    for name in SPARSE {
        out.push(OpDef {
            name,
            category: OpCategory::Sparse,
            infer_shape: shape_sparse,
            tdl: None,
            gradient: None,
            flops: flops_per_elem,
            kernel: None,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::ProptestConfig;
    use tofu_tdl::{discover_strategies, InputRequirement};

    /// A `multi_fetch` the kernel, the simulator and the runtime could not
    /// decode is refused when it is added, with a typed error, rather than
    /// panicking on a slice index in whichever layer reads it first.
    #[test]
    fn malformed_multi_fetch_is_rejected_by_add_op() {
        use crate::{Graph, GraphError};
        let attrs = |pieces: Vec<i64>| {
            Attrs::new().with_ints("out_dims", vec![4, 4]).with_ints("pieces", pieces)
        };
        let mut g = Graph::new();
        let a = g.add_input("a", Shape::new(vec![2, 4]));
        let b = g.add_input("b", Shape::new(vec![2, 4]));
        let good = vec![0, 0, 0, 0, 2, 4, /* b */ 0, 0, 2, 0, 2, 4];
        let f = g.add_op("multi_fetch", "ok", &[a, b], attrs(good.clone())).unwrap();
        assert_eq!(g.tensor(f).shape.dims(), &[4, 4]);
        let pieces: Vec<_> = fetch_pieces(&g, g.producer(f).unwrap()).unwrap().collect();
        assert_eq!(pieces[1].dst_begin, [2, 0]);
        assert_eq!(pieces[1].bytes(), 32);

        for (why, pieces) in [
            ("short", good[..9].to_vec()),
            ("long", [good.clone(), vec![0]].concat()),
            ("negative offset", vec![0, -1, 0, 0, 2, 4, 0, 0, 2, 0, 2, 4]),
            ("negative extent", vec![0, 0, 0, 0, -2, 4, 0, 0, 2, 0, 2, 4]),
            ("source overrun", vec![1, 0, 0, 0, 2, 4, 0, 0, 2, 0, 2, 4]),
            ("destination overrun", vec![0, 0, 0, 0, 2, 4, 0, 0, 3, 0, 2, 4]),
        ] {
            let err = g.add_op("multi_fetch", why, &[a, b], attrs(pieces)).unwrap_err();
            assert!(matches!(err, GraphError::ShapeInference { .. }), "{why}: {err}");
        }
        let no_dims = Attrs::new().with_ints("pieces", good.clone());
        assert!(g.add_op("multi_fetch", "no out_dims", &[a, b], no_dims).is_err());

        // A spread reduction names a known reducer and a first combining
        // input no further than one past the last.
        let reduce = |combine: Option<i64>, reducer: Option<&str>| {
            let mut attrs = attrs(good.clone());
            if let Some(c) = combine {
                attrs = attrs.with_int("combine", c);
            }
            if let Some(r) = reducer {
                attrs = attrs.with_str("reducer", r);
            }
            attrs
        };
        for (why, combine, reducer) in [
            ("combine past the inputs", Some(3), Some("sum")),
            ("negative combine", Some(-1), Some("max")),
            ("unknown reducer", Some(1), Some("mean")),
            ("combine without a reducer", Some(1), None),
            ("reducer without combine", None, Some("prod")),
        ] {
            let err = g.add_op("multi_fetch", why, &[a, b], reduce(combine, reducer)).unwrap_err();
            assert!(matches!(err, GraphError::ShapeInference { .. }), "{why}: {err}");
        }
        assert_eq!(g.num_nodes(), 1, "a rejected node leaves the graph untouched");
        for combine in [1, 2] {
            let attrs = reduce(Some(combine), Some("min"));
            g.add_op("multi_fetch", &format!("folds from {combine}"), &[a, b], attrs).unwrap();
        }
        let folds = fetch_pieces(&g, NodeId(1)).unwrap().map(|p| p.fold);
        assert_eq!(folds.collect::<Vec<_>>(), [None, Some(ReduceKind::Min)]);
    }

    /// A spread reduction in one `multi_fetch` is bit-identical to what it
    /// replaced — one gathering `multi_fetch` per reduce-peer class, then
    /// `add_n` or a chain of `maximum`, `minimum` or `mul` — for every
    /// reducer, over signed zeros, a NaN, a rank-0 scalar and 2-D blocks:
    /// class 0 is two column halves, class 1 one whole block, class 2 a
    /// block cut from a taller source.
    #[test]
    fn a_combining_fetch_equals_gathers_then_the_combiner() {
        use crate::{Executor, Graph};
        const SPECIAL: [f32; 8] = [-0.0, 0.0, f32::NAN, 1.5, -2.0, -0.0, 3.25, 0.5];
        let value = |shape: &Shape, seed: usize| {
            let data = (0..shape.volume()).map(|i| SPECIAL[(i * 3 + seed) % SPECIAL.len()]);
            Tensor::from_vec(shape.clone(), data.collect()).unwrap()
        };
        // Per class: `(source shape, piece)` per source.
        type Class = Vec<(Vec<usize>, Vec<i64>)>;
        let blocks: Vec<Class> = vec![
            vec![(vec![2, 2], vec![0, 0, 0, 0, 2, 2]), (vec![2, 2], vec![0, 0, 0, 2, 2, 2])],
            vec![(vec![2, 4], vec![0, 0, 0, 0, 2, 4])],
            vec![(vec![3, 4], vec![1, 0, 0, 0, 2, 4])],
        ];
        let scalars: Vec<Class> = vec![vec![(vec![], vec![])]; 3];
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (out_dims, classes) in [(vec![2, 4], blocks), (vec![], scalars)] {
            for (reducer, combiner) in
                [("sum", "add_n"), ("max", "maximum"), ("min", "minimum"), ("prod", "mul")]
            {
                let mut g = Graph::new();
                let mut exec = Executor::new();
                let fetch = |pieces: Vec<i64>| {
                    Attrs::new().with_ints("out_dims", out_dims.clone()).with_ints("pieces", pieces)
                };
                let (mut all_inputs, mut all_pieces, mut partials) = (vec![], vec![], vec![]);
                for (c, class) in classes.iter().enumerate() {
                    let (mut inputs, mut pieces) = (vec![], vec![]);
                    for (s, (dims, piece)) in class.iter().enumerate() {
                        let shape = Shape::new(dims.clone());
                        let x = g.add_input(&format!("x{c}{s}"), shape.clone());
                        exec.feed(x, value(&shape, 3 * c + s));
                        inputs.push(x);
                        pieces.extend_from_slice(piece);
                    }
                    let name = format!("gather {c}");
                    partials.push(g.add_op("multi_fetch", &name, &inputs, fetch(pieces.clone())));
                    all_inputs.extend(inputs);
                    all_pieces.extend(pieces);
                }
                let partials: Vec<TensorId> = partials.into_iter().map(Result::unwrap).collect();
                let old = if combiner == "add_n" {
                    g.add_op("add_n", "add_n", &partials, Attrs::new()).unwrap()
                } else {
                    let (first, rest) = partials.split_first().unwrap();
                    rest.iter().enumerate().fold(*first, |acc, (i, &p)| {
                        let name = format!("{combiner} {i}");
                        g.add_op(combiner, &name, &[acc, p], Attrs::new()).unwrap()
                    })
                };
                let combine = classes[0].len() as i64;
                let attrs = fetch(all_pieces).with_int("combine", combine);
                let attrs = attrs.with_str("reducer", reducer);
                let fused = g.add_op("multi_fetch", "fused", &all_inputs, attrs).unwrap();
                let values = exec.run(&g).unwrap();
                let (old, fused) = (&values[&old], &values[&fused]);
                assert!(fused.shape().dims().iter().map(|&d| d as i64).eq(out_dims.clone()));
                assert_eq!(bits(fused), bits(old), "{reducer} over rank {}", out_dims.len());
            }
        }
    }

    /// The transfers serving one read: the earlier ones it overlaps, in id
    /// order, and the ones it creates.
    fn serve(
        index: &mut TransferIndex,
        g: &Graph,
        t: TensorId,
        dst: usize,
        block: Option<FetchPiece<'_>>,
    ) -> (Vec<usize>, Vec<usize>) {
        let Served { old, new } = index.read(g, t, dst, block);
        let mut old = old.to_vec();
        old.sort_unstable();
        (old, new.collect())
    }

    fn block<'a>(src_begin: &'a [i64], len: &'a [i64]) -> Option<FetchPiece<'a>> {
        Some(FetchPiece { src_begin, dst_begin: src_begin, len, fold: None })
    }

    /// A transfer is keyed by (tensor, destination, elements): the landing
    /// offset is the reader's own business, an identical block shares its
    /// transfer, and a whole-tensor read is the block that covers the
    /// tensor.
    #[test]
    fn transfers_are_keyed_by_tensor_destination_and_source_block() {
        let mut g = Graph::new();
        let a = g.add_input("a", Shape::new(vec![2, 4]));
        let b = g.add_input("b", Shape::new(vec![2, 4]));
        let piece =
            |src_begin, dst_begin, len| Some(FetchPiece { src_begin, dst_begin, len, fold: None });
        let top = piece(&[0, 0][..], &[0, 0][..], &[1, 4][..]);
        let top_elsewhere = piece(&[0, 0][..], &[1, 0][..], &[1, 4][..]);
        let bottom = piece(&[1, 0][..], &[0, 0][..], &[1, 4][..]);
        let all = piece(&[0, 0][..], &[0, 0][..], &[2, 4][..]);
        let mut index = TransferIndex::default();
        let mut read = |t, dst, block| serve(&mut index, &g, t, dst, block);
        assert_eq!(read(a, 1, top), (vec![], vec![0]));
        assert_eq!(read(a, 1, top_elsewhere), (vec![0], vec![]));
        assert_eq!(read(a, 2, top), (vec![], vec![1]), "another destination");
        assert_eq!(read(a, 1, bottom), (vec![], vec![2]), "another block");
        assert_eq!(read(b, 1, top), (vec![], vec![3]), "another tensor");
        assert_eq!(read(b, 1, None), (vec![3], vec![4]), "the rest of the whole tensor");
        assert_eq!(read(b, 1, all), (vec![3, 4], vec![]), "the whole tensor");
        assert_eq!(read(b, 1, None), (vec![3, 4], vec![]));
        assert_eq!(read(a, 1, bottom), (vec![2], vec![]));
        assert_eq!(read(a, 1, piece(&[0, 0][..], &[0, 0][..], &[0, 4][..])), (vec![], vec![]));
    }

    /// Half a tensor read after the whole is served by the whole; the whole
    /// read after its half moves only the other half.
    #[test]
    fn a_half_and_its_whole_cross_once_in_either_order() {
        let mut g = Graph::new();
        let a = g.add_input("a", Shape::new(vec![4, 8]));
        let b = g.add_input("b", Shape::new(vec![4, 8]));
        let mut index = TransferIndex::default();
        assert_eq!(serve(&mut index, &g, a, 1, None), (vec![], vec![0]));
        assert_eq!(serve(&mut index, &g, a, 1, block(&[2, 0], &[2, 8])), (vec![0], vec![]));
        assert_eq!(serve(&mut index, &g, b, 1, block(&[0, 0], &[2, 8])), (vec![], vec![1]));
        assert_eq!(serve(&mut index, &g, b, 1, block(&[0, 0], &[4, 8])), (vec![1], vec![2]));
        assert_eq!(index.block(2), (&[2, 0][..], &[2, 8][..]));
    }

    /// A middle third, then the whole: the whole moves the two outer thirds
    /// as two boxes.
    #[test]
    fn a_middle_third_then_the_whole_moves_two_boxes() {
        let mut g = Graph::new();
        let a = g.add_input("a", Shape::new(vec![6, 4]));
        let mut index = TransferIndex::default();
        assert_eq!(serve(&mut index, &g, a, 0, block(&[2, 0], &[2, 4])), (vec![], vec![0]));
        assert_eq!(serve(&mut index, &g, a, 0, block(&[0, 0], &[6, 4])), (vec![0], vec![1, 2]));
        assert_eq!(index.block(1), (&[0, 0][..], &[2, 4][..]));
        assert_eq!(index.block(2), (&[4, 0][..], &[2, 4][..]));
    }

    /// Disjoint blocks of one tensor are separate transfers, and a later
    /// non-fetch read of the whole tensor is served by both plus the rest.
    #[test]
    fn disjoint_blocks_then_a_whole_tensor_read() {
        let mut g = Graph::new();
        let a = g.add_input("a", Shape::new(vec![3, 4]));
        let mut index = TransferIndex::default();
        assert_eq!(serve(&mut index, &g, a, 1, block(&[0, 0], &[1, 2])), (vec![], vec![0]));
        assert_eq!(serve(&mut index, &g, a, 1, block(&[2, 2], &[1, 2])), (vec![], vec![1]));
        let (old, new) = serve(&mut index, &g, a, 1, None);
        assert_eq!(old, vec![0, 1]);
        let moved: i64 = new.iter().map(|&x| index.block(x).1.iter().product::<i64>()).sum();
        assert_eq!(moved, 12 - 2 - 2, "the whole tensor less what already crossed");
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Over random reads of one tensor by two devices: per device the
        /// transfers are pairwise disjoint, every read is tiled exactly by
        /// the transfers serving it, and the bytes moved are the volume of
        /// the union of the reads.
        #[test]
        fn every_element_read_crosses_exactly_once(
            dims in vec(1i64..5, 0..4),
            reads in 1usize..12,
            dsts in vec(0usize..2, 12..13),
            corners in vec(0i64..5, 72..73),
            wholes in vec(0u8..8, 12..13),
        ) {
            let mut g = Graph::new();
            let shape = Shape::new(dims.iter().map(|&d| d as usize).collect());
            let a = g.add_input("a", shape.clone());
            let rank = dims.len();
            let mut index = TransferIndex::default();
            let mut dst_of: Vec<usize> = Vec::new();
            let mut union = vec![vec![false; shape.volume()]; 2];
            // Elements of box (`begin`, `len`) shared with transfer `x`.
            let shared = |index: &TransferIndex, begin: &[i64], len: &[i64], x: usize| {
                let (b, l) = index.block(x);
                (0..rank)
                    .map(|d| ((begin[d] + len[d]).min(b[d] + l[d]) - begin[d].max(b[d])).max(0))
                    .product::<i64>()
            };
            for r in 0..reads {
                // A box inside the shape, or the whole tensor one time in eight.
                let (dst, whole, corners) = (dsts[r], wholes[r] == 0, &corners[6 * r..]);
                let (begin, len): (Vec<i64>, Vec<i64>) = if whole {
                    (vec![0; rank], dims.clone())
                } else {
                    (0..rank)
                        .map(|d| {
                            let corner = |c: i64| c % (dims[d] + 1);
                            let (p, q) = (corner(corners[d]), corner(corners[3 + d]));
                            (p.min(q), (p - q).abs())
                        })
                        .unzip()
                };
                let read = if whole { None } else { block(&begin, &len) };
                let (old, new) = serve(&mut index, &g, a, dst, read);
                dst_of.extend(new.iter().map(|_| dst));
                let volume: i64 = len.iter().product();
                let served: Vec<i64> =
                    old.iter().chain(&new).map(|&x| shared(&index, &begin, &len, x)).collect();
                proptest::prop_assert!(served.iter().all(|&v| v > 0), "a transfer serves nothing");
                proptest::prop_assert_eq!(served.iter().sum::<i64>(), volume, "read not tiled");
                for &x in &new {
                    let volume = index.block(x).1.iter().product::<i64>();
                    proptest::prop_assert_eq!(shared(&index, &begin, &len, x), volume);
                }
                if volume > 0 {
                    for (i, index) in shape.indices().enumerate() {
                        let inside = (0..rank).all(|d| {
                            (begin[d]..begin[d] + len[d]).contains(&(index[d] as i64))
                        });
                        union[dst][i] |= inside;
                    }
                }
            }
            for x in 0..dst_of.len() {
                let (b, l) = index.block(x);
                for y in 0..x {
                    if dst_of[y] == dst_of[x] {
                        let overlap = shared(&index, b, l, y);
                        proptest::prop_assert_eq!(overlap, 0, "{x} and {y} overlap");
                    }
                }
            }
            for (dst, cells) in union.iter().enumerate() {
                let moved: i64 = (0..dst_of.len())
                    .filter(|&x| dst_of[x] == dst)
                    .map(|x| index.block(x).1.iter().product::<i64>())
                    .sum();
                proptest::prop_assert_eq!(moved as usize, cells.iter().filter(|&&c| c).count());
            }
        }
    }

    #[test]
    fn slice_axis_shapes() {
        let x = Shape::new(vec![4, 8]);
        let attrs = Attrs::new().with_int("axis", 1).with_int("begin", 2).with_int("end", 6);
        assert_eq!(shape_slice_axis(std::slice::from_ref(&x), &attrs).unwrap().dims(), &[4, 4]);
        let bad = Attrs::new().with_int("axis", 1).with_int("begin", 6).with_int("end", 2);
        assert!(shape_slice_axis(&[x], &bad).is_err());
    }

    #[test]
    fn concat_shapes() {
        let a = Shape::new(vec![2, 3]);
        let b = Shape::new(vec![5, 3]);
        let attrs = Attrs::new().with_int("axis", 0);
        assert_eq!(shape_concat(&[a.clone(), b], &attrs).unwrap().dims(), &[7, 3]);
        let c = Shape::new(vec![5, 4]);
        assert!(shape_concat(&[a, c], &attrs).is_err());
    }

    #[test]
    fn flip_strategies_still_split() {
        // Flip reverses order: halves map to halves (in swapped order).
        let desc = tdl_flip(&[Shape::new(vec![8])], &Attrs::new()).unwrap();
        let s = discover_strategies(&desc).unwrap();
        assert!(matches!(s[0].inputs[0], InputRequirement::Split { dim: 0, .. }));
    }

    #[test]
    fn batch_cholesky_matches_paper_example() {
        let desc = tdl_batch_cholesky(&[], &Attrs::new()).unwrap();
        assert!(desc.has_opaque());
        let s = discover_strategies(&desc).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].id, "split:b");
    }

    #[test]
    fn sparse_ops_are_not_describable() {
        let ops = defs();
        let sparse: Vec<_> =
            ops.iter().filter(|d| d.category == OpCategory::Sparse).collect();
        assert_eq!(sparse.len(), 4);
        assert!(sparse.iter().all(|d| d.tdl.is_none()));
    }

    #[test]
    fn repeat_region_is_rational() {
        let desc =
            tdl_repeat(&[Shape::new(vec![4])], &Attrs::new().with_int("repeats", 2)).unwrap();
        let s = discover_strategies(&desc).unwrap();
        assert!(matches!(s[0].inputs[0], InputRequirement::Split { dim: 0, .. }));
    }

    #[test]
    fn cholesky_reconstructs_input() {
        // A = L·Lᵀ for a positive-definite A.
        let a = Tensor::from_vec(
            Shape::new(vec![1, 2, 2]),
            vec![4., 2., 2., 3.],
        )
        .unwrap();
        let l = batch_cholesky(&a).unwrap();
        // Reconstruct.
        let l0 = l.slice(0, 0, 1).unwrap().reshape(Shape::new(vec![2, 2])).unwrap();
        let rec = l0.matmul(&l0, tofu_tensor::Transpose::NT).unwrap();
        assert!(rec.allclose(&a.reshape(Shape::new(vec![2, 2])).unwrap(), 1e-5));
    }

    #[test]
    fn cholesky_rejects_non_positive_definite() {
        let a = Tensor::from_vec(Shape::new(vec![1, 2, 2]), vec![0., 0., 0., 0.]).unwrap();
        assert!(batch_cholesky(&a).is_err());
    }

    #[test]
    fn inverse_times_input_is_identity() {
        let a = Tensor::from_vec(
            Shape::new(vec![1, 2, 2]),
            vec![4., 7., 2., 6.],
        )
        .unwrap();
        let inv = batch_inverse(&a).unwrap();
        let a0 = a.reshape(Shape::new(vec![2, 2])).unwrap();
        let i0 = inv.reshape(Shape::new(vec![2, 2])).unwrap();
        let prod = a0.matmul(&i0, tofu_tensor::Transpose::NN).unwrap();
        let eye = Tensor::from_vec(Shape::new(vec![2, 2]), vec![1., 0., 0., 1.]).unwrap();
        assert!(prod.allclose(&eye, 1e-4));
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a = Tensor::from_vec(Shape::new(vec![1, 2, 2]), vec![1., 2., 2., 4.]).unwrap();
        assert!(batch_inverse(&a).is_err());
    }
}
