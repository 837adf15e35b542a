//! Data-movement operators, opaque-function operators and the sparse
//! operators TDL cannot describe (§4.1).
//!
//! `slice_axis` and `concat` are the primitives partitioned graphs use to
//! extract remote input regions and reassemble them (§6); MXNet ships the
//! same trio (`copy` lives in the element-wise family).

use tofu_tdl::{builder::Idx, DescBuilder, TdlDesc};
use tofu_tensor::{Shape, Tensor};

use crate::attrs::Attrs;
use crate::graph::{Graph, NodeId, TensorId};
use crate::ops::flops_per_elem;
use crate::registry::{GradCtx, GraphError, Kernel, OpCategory, OpDef};
use crate::Result;

/// One piece of a `multi_fetch` node, borrowed from its `pieces` attribute:
/// input `i` contributes the block of `len` elements starting at
/// `src_begin` (source coordinates), landing at `dst_begin` of the fetch
/// output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchPiece<'a> {
    /// Start of the copied block inside the source tensor.
    pub src_begin: &'a [i64],
    /// Start of the block inside the fetch output.
    pub dst_begin: &'a [i64],
    /// Block extent per dimension.
    pub len: &'a [i64],
}

impl<'a> FetchPiece<'a> {
    /// Bytes the piece transfers (f32 elements).
    pub fn bytes(&self) -> u64 {
        self.len.iter().product::<i64>().max(0) as u64 * 4
    }

    /// Piece `i` of a flat `pieces` list of rank-`rank` descriptors.
    fn at(flat: &'a [i64], rank: usize, i: usize) -> FetchPiece<'a> {
        let desc = &flat[i * 3 * rank..(i + 1) * 3 * rank];
        FetchPiece {
            src_begin: &desc[..rank],
            dst_begin: &desc[rank..2 * rank],
            len: &desc[2 * rank..],
        }
    }
}

/// Decodes a `multi_fetch` attribute set against its input shapes: the
/// output shape plus one [`FetchPiece`] per input, in input order.
///
/// Attribute layout: `out_dims` gives the output shape (rank r); `pieces` is
/// a flat integer list with 3·r entries per input — `src_begin[r]`,
/// `dst_begin[r]`, `len[r]`. This is the only reader of that layout, and it
/// rejects anything the kernel, the simulator or the runtime could not
/// execute: a `pieces` list of the wrong length, a negative entry, a source
/// block outside its input, a destination block outside `out_dims`.
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
    let mut pieces = Vec::with_capacity(inputs.len());
    for (i, src) in inputs.enumerate() {
        let piece = FetchPiece::at(flat, rank, i);
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
/// covered (which is how partitioned convolutions materialize padding).
fn kernel_multi_fetch(ins: &[&Tensor], attrs: &Attrs, _: &Shape) -> Result<Tensor> {
    let (out_shape, pieces) =
        decode_multi_fetch(ins.iter().map(|t| t.shape()), attrs).map_err(GraphError::Exec)?;
    let mut out = Tensor::zeros(out_shape);
    for (src, p) in ins.iter().zip(&pieces) {
        out.copy_block(src, p.src_begin, p.dst_begin, p.len)?;
    }
    Ok(out)
}

/// The pieces of `multi_fetch` node `id`, one per input in input order,
/// borrowed from the attribute [`decode_multi_fetch`] validated when the
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
    Some((0..node.inputs.len()).map(move |i| FetchPiece::at(flat, rank, i)))
}

/// The transfers of a device-tagged graph, numbered densely in first-read
/// order.
///
/// A transfer is a distinct (tensor, destination device, `src_begin`,
/// `len`): one block of one tensor crossing to one device. However many
/// nodes on that device read the block, it crosses once — the first read
/// moves it and every later read waits for the same arrival, as
/// TensorFlow's canonical Send/Recv pairs do. A `multi_fetch` input reads
/// its piece; any other remote read reads the whole tensor, the block
/// `(0, shape)`.
///
/// The simulator, `ShardedGraph::comm_edges` and the runtime's routing table
/// all number transfers through this index, which is why their byte and
/// message counts agree. Each tensor chains its transfers, so a read costs a
/// walk over the blocks of its own tensor already sent, and nothing is
/// allocated per read beyond the entry a new transfer appends.
#[derive(Debug, Default)]
pub struct TransferIndex<'a> {
    /// Per tensor: its most recent transfer, `NONE` before the first.
    head: Vec<usize>,
    /// Per transfer: destination, block (`None` = the whole tensor) and the
    /// previous transfer of the same tensor.
    entries: Vec<(usize, Option<FetchPiece<'a>>, usize)>,
}

const NONE: usize = usize::MAX;

impl<'a> TransferIndex<'a> {
    /// Records a read of `block` of tensor `t` (`None`: the whole tensor) by
    /// device `dst` of `g`, and returns the transfer that serves it, with
    /// `true` when this read is the transfer's first — the one that moves
    /// the bytes. Transfers are numbered 0, 1, … in first-read order.
    pub fn read(
        &mut self,
        g: &Graph,
        t: TensorId,
        dst: usize,
        block: Option<FetchPiece<'a>>,
    ) -> (usize, bool) {
        if self.head.len() < g.num_tensors() {
            self.head.resize(g.num_tensors(), NONE);
        }
        let shape = &g.tensor(t).shape;
        let whole = |p: FetchPiece<'_>| {
            p.src_begin.iter().all(|&b| b == 0)
                && p.len.iter().map(|&l| l as usize).eq(shape.dims().iter().copied())
        };
        let mut x = self.head[t.0];
        while x != NONE {
            let (d, b, prev) = self.entries[x];
            let same = match (b, block) {
                (Some(a), Some(b)) => a.src_begin == b.src_begin && a.len == b.len,
                (None, None) => true,
                (Some(p), None) | (None, Some(p)) => whole(p),
            };
            if d == dst && same {
                return (x, false);
            }
            x = prev;
        }
        let id = self.entries.len();
        self.entries.push((dst, block, self.head[t.0]));
        self.head[t.0] = id;
        (id, true)
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
pub fn defs() -> Vec<OpDef> {
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
        let no_dims = Attrs::new().with_ints("pieces", good);
        assert!(g.add_op("multi_fetch", "no out_dims", &[a, b], no_dims).is_err());
        assert_eq!(g.num_nodes(), 1, "a rejected node leaves the graph untouched");
    }

    /// A transfer is (tensor, destination, `src_begin`, `len`): the landing
    /// offset is the reader's own business, and a whole-tensor read is the
    /// block that covers the tensor.
    #[test]
    fn transfers_are_keyed_by_tensor_destination_and_source_block() {
        use crate::Graph;
        let mut g = Graph::new();
        let a = g.add_input("a", Shape::new(vec![2, 4]));
        let b = g.add_input("b", Shape::new(vec![2, 4]));
        let piece = |src_begin, dst_begin, len| FetchPiece { src_begin, dst_begin, len };
        let top = piece(&[0, 0][..], &[0, 0][..], &[1, 4][..]);
        let top_elsewhere = piece(&[0, 0][..], &[1, 0][..], &[1, 4][..]);
        let bottom = piece(&[1, 0][..], &[0, 0][..], &[1, 4][..]);
        let all = piece(&[0, 0][..], &[0, 0][..], &[2, 4][..]);
        let mut index = TransferIndex::default();
        assert_eq!(index.read(&g, a, 1, Some(top)), (0, true));
        assert_eq!(index.read(&g, a, 1, Some(top_elsewhere)), (0, false));
        assert_eq!(index.read(&g, a, 2, Some(top)), (1, true), "another destination");
        assert_eq!(index.read(&g, a, 1, Some(bottom)), (2, true), "another block");
        assert_eq!(index.read(&g, b, 1, Some(top)), (3, true), "another tensor");
        assert_eq!(index.read(&g, a, 1, None), (4, true));
        assert_eq!(index.read(&g, a, 1, Some(all)), (4, false), "the whole tensor");
        assert_eq!(index.read(&g, a, 1, None), (4, false));
        assert_eq!(index.read(&g, a, 1, Some(bottom)), (2, false));
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
        let rec = l0.matmul_nt(&l0).unwrap();
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
        let prod = a0.matmul(&i0).unwrap();
        let eye = Tensor::from_vec(Shape::new(vec![2, 2]), vec![1., 0., 0., 1.]).unwrap();
        assert!(prod.allclose(&eye, 1e-4));
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a = Tensor::from_vec(Shape::new(vec![1, 2, 2]), vec![1., 2., 2., 4.]).unwrap();
        assert!(batch_inverse(&a).is_err());
    }
}
