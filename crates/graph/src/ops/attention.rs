//! Attention building blocks: head-indexed projections and layer norm.
//!
//! Multi-head attention needs to move between the token layout `(N, D)` and
//! the head layout `(H, N, K)` with `D = H·K`. There is no reshape operator
//! in the catalogue (reshape is not expressible in TDL's one-variable-per-
//! dimension access language), so the projections themselves are head-
//! indexed: `proj_heads` contracts a token matrix against a rank-3 weight
//! `(H, D, K)` and produces the head layout directly, and `unproj_heads`
//! contracts the head layout back down to tokens. Both are clean TDL
//! reductions, so interval analysis discovers the megatron-style splits
//! without any special cases: splitting `h` of `proj_heads` splits only the
//! weight (column-parallel QKV), and the `reduce:h` strategy of
//! `unproj_heads` is exactly the row-parallel output projection with output
//! reduction.
//!
//! `layer_norm` normalizes rows along the last axis; like softmax, the row
//! is an opaque TDL function of the whole row, so the normalized axis is
//! unsplittable while every batch/token axis partitions.

use tofu_tdl::{builder::Idx, DescBuilder, Reducer, TdlDesc};
use tofu_tensor::{Shape, Tensor};

use crate::attrs::Attrs;
use crate::graph::TensorId;
use crate::ops::norm_axis;
use crate::registry::{GradCtx, GraphError, Kernel, OpCategory, OpDef};
use crate::Result;

// ---- Shape inference ---------------------------------------------------------

fn two_inputs(ins: &[Shape], r0: usize, r1: usize, op: &str) -> std::result::Result<(), String> {
    if ins.len() != 2 || ins[0].rank() != r0 || ins[1].rank() != r1 {
        return Err(format!("{op} expects (rank-{r0}, rank-{r1}) inputs"));
    }
    Ok(())
}

/// `proj_heads(X:(N,D), W:(H,D,K)) -> (H,N,K)`.
fn shape_proj_heads(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    two_inputs(ins, 2, 3, "proj_heads")?;
    if ins[0].dim(1) != ins[1].dim(1) {
        return Err(format!("model dims {} vs {}", ins[0].dim(1), ins[1].dim(1)));
    }
    Ok(Shape::new(vec![ins[1].dim(0), ins[0].dim(0), ins[1].dim(2)]))
}

/// `unproj_heads(C:(H,N,K), W:(H,K,D)) -> (N,D)`.
fn shape_unproj_heads(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    two_inputs(ins, 3, 3, "unproj_heads")?;
    if ins[0].dim(0) != ins[1].dim(0) || ins[0].dim(2) != ins[1].dim(1) {
        return Err(format!("incompatible head shapes {} and {}", ins[0], ins[1]));
    }
    Ok(Shape::new(vec![ins[0].dim(1), ins[1].dim(2)]))
}

/// `proj_heads_grad_x(dO:(H,N,K), W:(H,D,K)) -> (N,D)`.
fn shape_proj_heads_grad_x(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    two_inputs(ins, 3, 3, "proj_heads_grad_x")?;
    if ins[0].dim(0) != ins[1].dim(0) || ins[0].dim(2) != ins[1].dim(2) {
        return Err(format!("incompatible grad shapes {} and {}", ins[0], ins[1]));
    }
    Ok(Shape::new(vec![ins[0].dim(1), ins[1].dim(1)]))
}

/// `proj_heads_grad_w(X:(N,D), dO:(H,N,K)) -> (H,D,K)`.
fn shape_proj_heads_grad_w(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    two_inputs(ins, 2, 3, "proj_heads_grad_w")?;
    if ins[0].dim(0) != ins[1].dim(1) {
        return Err(format!("token dims {} vs {}", ins[0].dim(0), ins[1].dim(1)));
    }
    Ok(Shape::new(vec![ins[1].dim(0), ins[0].dim(1), ins[1].dim(2)]))
}

/// `unproj_heads_grad_c(dY:(N,D), W:(H,K,D)) -> (H,N,K)`.
fn shape_unproj_heads_grad_c(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    two_inputs(ins, 2, 3, "unproj_heads_grad_c")?;
    if ins[0].dim(1) != ins[1].dim(2) {
        return Err(format!("model dims {} vs {}", ins[0].dim(1), ins[1].dim(2)));
    }
    Ok(Shape::new(vec![ins[1].dim(0), ins[0].dim(0), ins[1].dim(1)]))
}

/// `unproj_heads_grad_w(C:(H,N,K), dY:(N,D)) -> (H,K,D)`.
fn shape_unproj_heads_grad_w(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    two_inputs(ins, 3, 2, "unproj_heads_grad_w")?;
    if ins[0].dim(1) != ins[1].dim(0) {
        return Err(format!("token dims {} vs {}", ins[0].dim(1), ins[1].dim(0)));
    }
    Ok(Shape::new(vec![ins[0].dim(0), ins[0].dim(2), ins[1].dim(1)]))
}

/// `layer_norm(x, gamma, beta)`: shape-preserving, params of extent
/// `x.dim(axis)` (axis defaults to the last).
fn shape_layer_norm(ins: &[Shape], attrs: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 3 || ins[1].rank() != 1 || ins[2].rank() != 1 {
        return Err("layer_norm expects (x, gamma, beta)".into());
    }
    let axis = norm_axis(&ins[0], attrs)?;
    if ins[1].dim(0) != ins[0].dim(axis) || ins[2].dim(0) != ins[0].dim(axis) {
        return Err("gamma/beta extents must match the normalized axis".into());
    }
    Ok(ins[0].clone())
}

fn shape_layer_norm_xhat(ins: &[Shape], attrs: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 1 {
        return Err("layer_norm_xhat expects one input".into());
    }
    norm_axis(&ins[0], attrs)?;
    Ok(ins[0].clone())
}

/// `layer_norm_x_grad(dy, x, gamma) -> dx`.
fn shape_layer_norm_x_grad(ins: &[Shape], attrs: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 3 || ins[0] != ins[1] || ins[2].rank() != 1 {
        return Err("layer_norm_x_grad expects (dy, x, gamma) with dy ≡ x".into());
    }
    let axis = norm_axis(&ins[0], attrs)?;
    if ins[2].dim(0) != ins[0].dim(axis) {
        return Err("gamma extent must match the normalized axis".into());
    }
    Ok(ins[0].clone())
}

// ---- TDL descriptions --------------------------------------------------------

fn tdl_proj_heads(_: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    // out[h, n, k] = Σ_d X[n, d] · W[h, d, k].
    let mut b = DescBuilder::new("proj_heads", &[2, 3]);
    let (h, n, k) = (b.output_var("h"), b.output_var("n"), b.output_var("k"));
    let d = b.reduce_var("d");
    let body = b.input(0, &[n.at(), d.at()]) * b.input(1, &[h.at(), d.at(), k.at()]);
    b.build_reduce(Reducer::Sum, body).ok()
}

fn tdl_unproj_heads(_: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    // out[n, d] = Σ_{h,k} C[h, n, k] · W[h, k, d]; reduce:h is the
    // row-parallel output projection.
    let mut b = DescBuilder::new("unproj_heads", &[3, 3]);
    let (n, d) = (b.output_var("n"), b.output_var("d"));
    let (h, k) = (b.reduce_var("h"), b.reduce_var("k"));
    let body = b.input(0, &[h.at(), n.at(), k.at()]) * b.input(1, &[h.at(), k.at(), d.at()]);
    b.build_reduce(Reducer::Sum, body).ok()
}

fn tdl_proj_heads_grad_x(_: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    // dX[n, d] = Σ_{h,k} dO[h, n, k] · W[h, d, k].
    let mut b = DescBuilder::new("proj_heads_grad_x", &[3, 3]);
    let (n, d) = (b.output_var("n"), b.output_var("d"));
    let (h, k) = (b.reduce_var("h"), b.reduce_var("k"));
    let body = b.input(0, &[h.at(), n.at(), k.at()]) * b.input(1, &[h.at(), d.at(), k.at()]);
    b.build_reduce(Reducer::Sum, body).ok()
}

fn tdl_proj_heads_grad_w(_: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    // dW[h, d, k] = Σ_n X[n, d] · dO[h, n, k].
    let mut b = DescBuilder::new("proj_heads_grad_w", &[2, 3]);
    let (h, d, k) = (b.output_var("h"), b.output_var("d"), b.output_var("k"));
    let n = b.reduce_var("n");
    let body = b.input(0, &[n.at(), d.at()]) * b.input(1, &[h.at(), n.at(), k.at()]);
    b.build_reduce(Reducer::Sum, body).ok()
}

fn tdl_unproj_heads_grad_c(_: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    // dC[h, n, k] = Σ_d dY[n, d] · W[h, k, d].
    let mut b = DescBuilder::new("unproj_heads_grad_c", &[2, 3]);
    let (h, n, k) = (b.output_var("h"), b.output_var("n"), b.output_var("k"));
    let d = b.reduce_var("d");
    let body = b.input(0, &[n.at(), d.at()]) * b.input(1, &[h.at(), k.at(), d.at()]);
    b.build_reduce(Reducer::Sum, body).ok()
}

fn tdl_unproj_heads_grad_w(_: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    // dW[h, k, d] = Σ_n C[h, n, k] · dY[n, d].
    let mut b = DescBuilder::new("unproj_heads_grad_w", &[3, 2]);
    let (h, k, d) = (b.output_var("h"), b.output_var("k"), b.output_var("d"));
    let n = b.reduce_var("n");
    let body = b.input(0, &[h.at(), n.at(), k.at()]) * b.input(1, &[n.at(), d.at()]);
    b.build_reduce(Reducer::Sum, body).ok()
}

/// Row description shared by the layer-norm family: every non-axis dim is a
/// plain output var, the normalized axis is an opaque function of the whole
/// row (so it never splits), and `extra` names rank-1 parameter inputs
/// indexed by the axis var.
fn tdl_norm_rows(
    name: &str,
    opaque: &str,
    ranks: &[usize],
    rows: &[usize],
    params: &[usize],
    rank: usize,
    axis: usize,
) -> Option<TdlDesc> {
    let mut b = DescBuilder::new(name, ranks);
    let vars: Vec<_> = (0..rank)
        .map(|dd| b.output_var(if dd == axis { "i".to_string() } else { format!("d{dd}") }))
        .collect();
    let coords: Vec<Idx> = (0..rank)
        .map(|dd| if dd == axis { Idx::full() } else { vars[dd].at() })
        .collect();
    let mut args: Vec<_> = rows.iter().map(|&idx| b.input(idx, &coords)).collect();
    for &idx in params {
        args.push(b.input(idx, &[vars[axis].at()]));
    }
    let body = b.opaque(opaque, args, &[vars[axis]]);
    b.build(body).ok()
}

fn tdl_layer_norm(ins: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    let rank = ins.first()?.rank();
    let axis = norm_axis(&ins[0], attrs).ok()?;
    tdl_norm_rows("layer_norm", "ln_row", &[rank, 1, 1], &[0], &[1, 2], rank, axis)
}

fn tdl_layer_norm_xhat(ins: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    let rank = ins.first()?.rank();
    let axis = norm_axis(&ins[0], attrs).ok()?;
    tdl_norm_rows("layer_norm_xhat", "ln_xhat_row", &[rank], &[0], &[], rank, axis)
}

fn tdl_layer_norm_x_grad(ins: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    let rank = ins.first()?.rank();
    let axis = norm_axis(&ins[0], attrs).ok()?;
    tdl_norm_rows(
        "layer_norm_x_grad",
        "ln_x_grad_row",
        &[rank, rank, 1],
        &[0, 1],
        &[2],
        rank,
        axis,
    )
}

fn tdl_softmax_grad(ins: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    let rank = ins.first()?.rank();
    let axis = norm_axis(&ins[0], attrs).ok()?;
    tdl_norm_rows("softmax_grad", "softmax_grad_row", &[rank, rank], &[0, 1], &[], rank, axis)
}

// ---- Gradients ---------------------------------------------------------------

fn grad_proj_heads(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let (x, w) = (ctx.inputs[0], ctx.inputs[1]);
    let dx = ctx.op("proj_heads_grad_x", &[ctx.out_grad, w], Attrs::new())?;
    let dw = ctx.op("proj_heads_grad_w", &[x, ctx.out_grad], Attrs::new())?;
    Ok(vec![Some(dx), Some(dw)])
}

fn grad_unproj_heads(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let (c, w) = (ctx.inputs[0], ctx.inputs[1]);
    let dc = ctx.op("unproj_heads_grad_c", &[ctx.out_grad, w], Attrs::new())?;
    let dw = ctx.op("unproj_heads_grad_w", &[c, ctx.out_grad], Attrs::new())?;
    Ok(vec![Some(dc), Some(dw)])
}

fn grad_layer_norm(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let (x, gamma) = (ctx.inputs[0], ctx.inputs[1]);
    let rank = ctx.shape(x).rank() as i64;
    let axis = ctx.attrs.int_or("axis", rank - 1);
    let a = Attrs::new().with_int("axis", axis);
    let dx = ctx.op("layer_norm_x_grad", &[ctx.out_grad, x, gamma], a.clone())?;
    let xhat = ctx.op("layer_norm_xhat", &[x], a.clone())?;
    let dgamma = ctx.op("mul_reduce", &[ctx.out_grad, xhat], a.clone())?;
    let dbeta = ctx.op("reduce_to_axis", &[ctx.out_grad], a)?;
    Ok(vec![Some(dx), Some(dgamma), Some(dbeta)])
}

// ---- Kernels -----------------------------------------------------------------

/// Layer-norm variance epsilon — fixed, so forward/backward kernels agree.
const LN_EPS: f32 = 1e-5;

/// Slice head `h` of a rank-3 tensor down to its rank-2 matrix.
fn head2(t: &Tensor, h: usize) -> Result<Tensor> {
    let s = t.slice(0, h, h + 1)?;
    let dims = s.shape().dims()[1..].to_vec();
    Ok(s.reshape(Shape::new(dims))?)
}

/// `Σ_h f(A[h], B[h])`: a per-head product, then `add` in head order —
/// accumulating heads inside the GEMM tile would change the rounding.
fn head_sum(
    a3: &Tensor,
    b3: &Tensor,
    f: impl Fn(&Tensor, &Tensor) -> Result<Tensor>,
) -> Result<Tensor> {
    let heads = a3.shape().dim(0);
    let mut acc: Option<Tensor> = None;
    for h in 0..heads {
        let term = f(&head2(a3, h)?, &head2(b3, h)?)?;
        acc = Some(match acc {
            None => term,
            Some(prev) => prev.add(&term)?,
        });
    }
    acc.ok_or_else(|| GraphError::Exec("head contraction over zero heads".into()))
}

// ---- Flops -------------------------------------------------------------------

fn flops_proj(ins: &[Shape], out: &Shape, _: &Attrs) -> f64 {
    // 2 flops per multiply-accumulate; the contracted volume is whatever the
    // inputs hold beyond the output.
    let macs = (ins[0].volume().max(1) as f64 / out.volume().max(1) as f64).max(1.0)
        * ins[1].volume() as f64;
    2.0 * macs.max(out.volume() as f64)
}

/// Returns the attention/normalization operator definitions.
pub fn defs() -> Vec<OpDef> {
    vec![
        OpDef {
            name: "proj_heads",
            category: OpCategory::Linalg,
            infer_shape: shape_proj_heads,
            tdl: Some(tdl_proj_heads),
            gradient: Some(grad_proj_heads),
            flops: flops_proj,
            // out[h] = X · W[h]: a batched product with the rank-2 operand shared by
            // every head (packed once), so every TDL split (h, n, k, reduce:d) runs
            // unchanged.
            kernel: Some(Kernel::General(|ins, _, _| Ok(ins[0].matmul_b(ins[1])?))),
        },
        OpDef {
            name: "unproj_heads",
            category: OpCategory::Linalg,
            infer_shape: shape_unproj_heads,
            tdl: Some(tdl_unproj_heads),
            gradient: Some(grad_unproj_heads),
            flops: flops_proj,
            // out = Σ_h C[h] · W[h].
            kernel: Some(Kernel::General(|ins, _, _| {
                head_sum(ins[0], ins[1], |c, w| Ok(c.matmul(w)?))
            })),
        },
        OpDef {
            name: "proj_heads_grad_x",
            category: OpCategory::Linalg,
            infer_shape: shape_proj_heads_grad_x,
            tdl: Some(tdl_proj_heads_grad_x),
            gradient: None,
            flops: flops_proj,
            // dX = Σ_h dO[h] · W[h]ᵀ.
            kernel: Some(Kernel::General(|ins, _, _| {
                head_sum(ins[0], ins[1], |d, w| Ok(d.matmul_nt(w)?))
            })),
        },
        OpDef {
            name: "proj_heads_grad_w",
            category: OpCategory::Linalg,
            infer_shape: shape_proj_heads_grad_w,
            tdl: Some(tdl_proj_heads_grad_w),
            gradient: None,
            flops: flops_proj,
            // dW[h] = Xᵀ · dO[h].
            kernel: Some(Kernel::General(|ins, _, _| Ok(ins[0].matmul_b_tn(ins[1])?))),
        },
        OpDef {
            name: "unproj_heads_grad_c",
            category: OpCategory::Linalg,
            infer_shape: shape_unproj_heads_grad_c,
            tdl: Some(tdl_unproj_heads_grad_c),
            gradient: None,
            flops: flops_proj,
            // dC[h] = dY · W[h]ᵀ.
            kernel: Some(Kernel::General(|ins, _, _| Ok(ins[0].matmul_b_nt(ins[1])?))),
        },
        OpDef {
            name: "unproj_heads_grad_w",
            category: OpCategory::Linalg,
            infer_shape: shape_unproj_heads_grad_w,
            tdl: Some(tdl_unproj_heads_grad_w),
            gradient: None,
            flops: flops_proj,
            // dW[h] = C[h]ᵀ · dY.
            kernel: Some(Kernel::General(|ins, _, _| Ok(ins[0].matmul_b_tn(ins[1])?))),
        },
        OpDef {
            name: "layer_norm",
            category: OpCategory::Reduction,
            infer_shape: shape_layer_norm,
            tdl: Some(tdl_layer_norm),
            gradient: Some(grad_layer_norm),
            flops: |_, out, _| 8.0 * out.volume() as f64,
            kernel: Some(Kernel::General(|ins, attrs, _| {
                let axis = norm_axis(ins[0].shape(), attrs).map_err(GraphError::Exec)?;
                Ok(ins[0].layer_norm_axis(ins[1], ins[2], axis, LN_EPS)?)
            })),
        },
        OpDef {
            name: "layer_norm_xhat",
            category: OpCategory::Reduction,
            infer_shape: shape_layer_norm_xhat,
            tdl: Some(tdl_layer_norm_xhat),
            gradient: None,
            flops: |_, out, _| 5.0 * out.volume() as f64,
            kernel: Some(Kernel::General(|ins, attrs, _| {
                let axis = norm_axis(ins[0].shape(), attrs).map_err(GraphError::Exec)?;
                Ok(ins[0].layer_norm_xhat_axis(axis, LN_EPS)?)
            })),
        },
        OpDef {
            name: "layer_norm_x_grad",
            category: OpCategory::Reduction,
            infer_shape: shape_layer_norm_x_grad,
            tdl: Some(tdl_layer_norm_x_grad),
            gradient: None,
            flops: |_, out, _| 12.0 * out.volume() as f64,
            kernel: Some(Kernel::General(|ins, attrs, _| {
                let axis = norm_axis(ins[0].shape(), attrs).map_err(GraphError::Exec)?;
                Ok(ins[0].layer_norm_x_grad_axis(ins[1], ins[2], axis, LN_EPS)?)
            })),
        },
        OpDef {
            name: "softmax_grad",
            category: OpCategory::Reduction,
            infer_shape: shape_softmax_grad,
            tdl: Some(tdl_softmax_grad),
            gradient: None,
            flops: |_, out, _| 4.0 * out.volume() as f64,
            kernel: Some(Kernel::General(|ins, attrs, _| {
                let axis = norm_axis(ins[0].shape(), attrs).map_err(GraphError::Exec)?;
                Ok(ins[0].softmax_grad_axis(ins[1], axis)?)
            })),
        },
    ]
}

/// `softmax_grad(dy, y) -> dx`, both the same shape; `axis` defaults to the
/// last.
fn shape_softmax_grad(ins: &[Shape], attrs: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 2 || ins[0] != ins[1] {
        return Err("softmax_grad expects two same-shape inputs (dy, y)".into());
    }
    norm_axis(&ins[0], attrs)?;
    Ok(ins[0].clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofu_tdl::{discover_strategies, InputRequirement};

    #[test]
    fn proj_heads_shapes() {
        let x = Shape::new(vec![16, 32]);
        let w = Shape::new(vec![4, 32, 8]);
        let out = shape_proj_heads(&[x.clone(), w], &Attrs::new()).unwrap();
        assert_eq!(out.dims(), &[4, 16, 8]);
        let bad = Shape::new(vec![4, 31, 8]);
        assert!(shape_proj_heads(&[x, bad], &Attrs::new()).is_err());
    }

    #[test]
    fn unproj_heads_shapes() {
        let c = Shape::new(vec![4, 16, 8]);
        let w = Shape::new(vec![4, 8, 32]);
        let out = shape_unproj_heads(&[c, w], &Attrs::new()).unwrap();
        assert_eq!(out.dims(), &[16, 32]);
    }

    #[test]
    fn grad_shapes_mirror_forward_operands() {
        let (n, d, h, k) = (16, 32, 4, 8);
        let x = Shape::new(vec![n, d]);
        let wq = Shape::new(vec![h, d, k]);
        let dout = Shape::new(vec![h, n, k]);
        assert_eq!(
            shape_proj_heads_grad_x(&[dout.clone(), wq.clone()], &Attrs::new()).unwrap(),
            x
        );
        assert_eq!(
            shape_proj_heads_grad_w(&[x.clone(), dout.clone()], &Attrs::new()).unwrap(),
            wq
        );
        let wo = Shape::new(vec![h, k, d]);
        let dy = Shape::new(vec![n, d]);
        assert_eq!(
            shape_unproj_heads_grad_c(&[dy.clone(), wo.clone()], &Attrs::new()).unwrap(),
            dout
        );
        assert_eq!(shape_unproj_heads_grad_w(&[dout, dy], &Attrs::new()).unwrap(), wo);
    }

    #[test]
    fn proj_heads_head_split_splits_only_the_weight() {
        let desc = tdl_proj_heads(&[], &Attrs::new()).unwrap();
        let s = discover_strategies(&desc).unwrap();
        // h, n, k output splits plus reduce:d.
        assert_eq!(s.len(), 4);
        let head = s.iter().find(|st| st.id == "split:h").unwrap();
        assert_eq!(head.inputs[0], InputRequirement::Replicated, "X is replicated");
        assert!(matches!(head.inputs[1], InputRequirement::Split { dim: 0, .. }));
    }

    #[test]
    fn unproj_heads_has_row_parallel_reduction_over_heads() {
        let desc = tdl_unproj_heads(&[], &Attrs::new()).unwrap();
        let s = discover_strategies(&desc).unwrap();
        // n, d splits plus reduce:h and reduce:k.
        assert_eq!(s.len(), 4);
        let red_h = s.iter().find(|st| st.id == "reduce:h").unwrap();
        assert!(red_h.output.is_reduce());
        assert!(matches!(red_h.inputs[0], InputRequirement::Split { dim: 0, .. }));
        assert!(matches!(red_h.inputs[1], InputRequirement::Split { dim: 0, .. }));
    }

    #[test]
    fn layer_norm_splits_every_axis_but_the_normalized_one() {
        let ins = [Shape::new(vec![4, 16, 32]), Shape::new(vec![32]), Shape::new(vec![32])];
        let desc = tdl_layer_norm(&ins, &Attrs::new()).unwrap();
        let s = discover_strategies(&desc).unwrap();
        assert_eq!(s.len(), 2, "only the two batch/token dims split");
        for st in &s {
            assert!(st.id.starts_with("split:d"), "{}", st.id);
            // Params are replicated under batch splits.
            assert_eq!(st.inputs[1], InputRequirement::Replicated);
            assert_eq!(st.inputs[2], InputRequirement::Replicated);
        }
    }

    #[test]
    fn softmax_grad_rank3_splits_batch_and_token_dims() {
        let ins = [Shape::new(vec![4, 16, 16]), Shape::new(vec![4, 16, 16])];
        let desc = tdl_softmax_grad(&ins, &Attrs::new()).unwrap();
        let s = discover_strategies(&desc).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn layer_norm_shape_validates_params() {
        let x = Shape::new(vec![8, 16]);
        let good = Shape::new(vec![16]);
        let bad = Shape::new(vec![8]);
        assert!(shape_layer_norm(&[x.clone(), good.clone(), good.clone()], &Attrs::new()).is_ok());
        assert!(shape_layer_norm(&[x, good, bad], &Attrs::new()).is_err());
    }
}
