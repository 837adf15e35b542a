//! Reductions, broadcasts, normalization pieces and losses.

use tofu_tdl::{DescBuilder, Reducer, TdlDesc};
use tofu_tensor::{ReduceKind, Shape, Tensor};

use crate::attrs::Attrs;
use crate::graph::TensorId;
use crate::ops::{flops_per_elem, norm_axis};
use crate::registry::{GradCtx, GraphError, Kernel, KernelFn, OpCategory, OpDef};
use crate::Result;

fn axis_of(attrs: &Attrs, rank: usize) -> std::result::Result<usize, String> {
    let axis = attrs.int_or("axis", 1);
    if axis < 0 || axis as usize >= rank {
        return Err(format!("axis {axis} out of range for rank {rank}"));
    }
    Ok(axis as usize)
}

// ---- Shape inference ---------------------------------------------------------

fn shape_bias_add(ins: &[Shape], attrs: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 2 || ins[1].rank() != 1 {
        return Err("bias_add expects (x, rank-1 bias)".into());
    }
    let axis = axis_of(attrs, ins[0].rank())?;
    if ins[0].dim(axis) != ins[1].dim(0) {
        return Err(format!("bias extent {} vs axis extent {}", ins[1].dim(0), ins[0].dim(axis)));
    }
    Ok(ins[0].clone())
}

fn shape_reduce_to_axis(ins: &[Shape], attrs: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 1 {
        return Err("reduce_to_axis expects one input".into());
    }
    let axis = axis_of(attrs, ins[0].rank())?;
    Ok(Shape::new(vec![ins[0].dim(axis)]))
}

fn shape_mul_bcast(ins: &[Shape], attrs: &Attrs) -> std::result::Result<Shape, String> {
    shape_bias_add(ins, attrs)
}

fn shape_mul_reduce(ins: &[Shape], attrs: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 2 || ins[0] != ins[1] {
        return Err("mul_reduce expects two same-shape inputs".into());
    }
    let axis = axis_of(attrs, ins[0].rank())?;
    Ok(Shape::new(vec![ins[0].dim(axis)]))
}

fn shape_sum_axis(ins: &[Shape], attrs: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 1 {
        return Err("sum_axis expects one input".into());
    }
    let axis = axis_of(attrs, ins[0].rank())?;
    let mut dims = ins[0].dims().to_vec();
    dims.remove(axis);
    Ok(Shape::new(dims))
}

fn shape_softmax(ins: &[Shape], attrs: &Attrs) -> std::result::Result<Shape, String> {
    // Rank 2 (the original op) or rank 3 (batched attention scores), with an
    // `axis` attr defaulting to the last dimension — which for rank-2 input
    // is axis 1, the historical behaviour.
    if ins.len() != 1 || !(2..=3).contains(&ins[0].rank()) {
        return Err("softmax expects one rank-2 or rank-3 input".into());
    }
    norm_axis(&ins[0], attrs)?;
    Ok(ins[0].clone())
}

fn shape_sum_all(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 1 {
        return Err("sum_all expects one input".into());
    }
    Ok(Shape::scalar())
}

fn shape_bcast_like(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 2 || ins[0].rank() != 0 {
        return Err("bcast_like expects (scalar, like)".into());
    }
    Ok(ins[1].clone())
}

fn shape_softmax_ce(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 2 || ins[0].rank() != 2 || ins[1].rank() != 1 {
        return Err("softmax_ce expects (logits, labels)".into());
    }
    if ins[0].dim(0) != ins[1].dim(0) {
        return Err("batch mismatch between logits and labels".into());
    }
    Ok(Shape::scalar())
}

fn shape_softmax_ce_grad(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 2 || ins[0].rank() != 2 {
        return Err("softmax_ce_grad expects (logits, labels)".into());
    }
    Ok(ins[0].clone())
}

fn shape_scale_shift(ins: &[Shape], attrs: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 3 || ins[1].rank() != 1 || ins[2].rank() != 1 {
        return Err("scale_shift expects (x, gamma, beta)".into());
    }
    let axis = axis_of(attrs, ins[0].rank())?;
    if ins[0].dim(axis) != ins[1].dim(0) || ins[0].dim(axis) != ins[2].dim(0) {
        return Err("gamma/beta extents must match the channel axis".into());
    }
    Ok(ins[0].clone())
}

// ---- TDL descriptions -----------------------------------------------------------

/// Builds per-rank variables, returning `(builder, vars)`.
fn vars_for_rank(name: &str, ranks: &[usize], rank: usize) -> (DescBuilder, Vec<tofu_tdl::Var>) {
    let mut b = DescBuilder::new(name, ranks);
    let vars = (0..rank).map(|d| b.output_var(format!("d{d}"))).collect();
    (b, vars)
}

fn tdl_bias_add(ins: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    let rank = ins.first()?.rank();
    let axis = axis_of(attrs, rank).ok()?;
    let (b, vars) = vars_for_rank("bias_add", &[rank, 1], rank);
    let coords: Vec<_> = vars.iter().map(|v| v.at()).collect();
    let body = b.input(0, &coords) + b.input(1, &[vars[axis].at()]);
    b.build(body).ok()
}

fn tdl_mul_bcast(ins: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    let rank = ins.first()?.rank();
    let axis = axis_of(attrs, rank).ok()?;
    let (b, vars) = vars_for_rank("mul_bcast", &[rank, 1], rank);
    let coords: Vec<_> = vars.iter().map(|v| v.at()).collect();
    let body = b.input(0, &coords) * b.input(1, &[vars[axis].at()]);
    b.build(body).ok()
}

fn tdl_reduce_to_axis(ins: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    // out[c] = Σ_{all other dims} x[..., c, ...].
    let rank = ins.first()?.rank();
    let axis = axis_of(attrs, rank).ok()?;
    let mut b = DescBuilder::new("reduce_to_axis", &[rank]);
    let c = b.output_var("c");
    let mut coords = Vec::with_capacity(rank);
    for d in 0..rank {
        if d == axis {
            coords.push(c.at());
        } else {
            coords.push(b.reduce_var(format!("r{d}")).at());
        }
    }
    let body = b.input(0, &coords);
    b.build_reduce(Reducer::Sum, body).ok()
}

fn tdl_mul_reduce(ins: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    let rank = ins.first()?.rank();
    let axis = axis_of(attrs, rank).ok()?;
    let mut b = DescBuilder::new("mul_reduce", &[rank, rank]);
    let c = b.output_var("c");
    let mut coords = Vec::with_capacity(rank);
    for d in 0..rank {
        if d == axis {
            coords.push(c.at());
        } else {
            coords.push(b.reduce_var(format!("r{d}")).at());
        }
    }
    let body = b.input(0, &coords) * b.input(1, &coords);
    b.build_reduce(Reducer::Sum, body).ok()
}

fn tdl_sum_axis(ins: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    let rank = ins.first()?.rank();
    let axis = axis_of(attrs, rank).ok()?;
    let mut b = DescBuilder::new("sum_axis", &[rank]);
    // Output vars for the surviving dims (in order), one reduce var for axis.
    let mut out_vars = Vec::new();
    for d in 0..rank {
        if d != axis {
            out_vars.push(b.output_var(format!("d{d}")));
        }
    }
    let k = b.reduce_var("k");
    let mut coords = Vec::with_capacity(rank);
    let mut next_out = 0;
    for d in 0..rank {
        if d == axis {
            coords.push(k.at());
        } else {
            coords.push(out_vars[next_out].at());
            next_out += 1;
        }
    }
    let body = b.input(0, &coords);
    b.build_reduce(Reducer::Sum, body).ok()
}

fn tdl_softmax(ins: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    // Softmax normalizes each row along `axis`: the normalized dimension is
    // an opaque function of the whole row and is unsplittable; every other
    // dimension partitions. The rank-2 description is kept verbatim (same
    // variable names, hence the same "split:b" strategy id) so existing
    // models see bit-identical plans.
    let rank = ins.first().map_or(2, |s| s.rank());
    let axis = ins
        .first()
        .and_then(|s| norm_axis(s, attrs).ok())
        .unwrap_or(rank - 1);
    if rank == 2 && axis == 1 {
        let mut b = DescBuilder::new("softmax", &[2]);
        let (bb, i) = (b.output_var("b"), b.output_var("i"));
        let row = b.input(0, &[bb.at(), tofu_tdl::builder::Idx::full()]);
        let body = b.opaque("softmax_row", vec![row], &[i]);
        return b.build(body).ok();
    }
    let mut b = DescBuilder::new("softmax", &[rank]);
    let vars: Vec<_> = (0..rank)
        .map(|d| b.output_var(if d == axis { "i".to_string() } else { format!("d{d}") }))
        .collect();
    let coords: Vec<_> = (0..rank)
        .map(|d| if d == axis { tofu_tdl::builder::Idx::full() } else { vars[d].at() })
        .collect();
    let row = b.input(0, &coords);
    let body = b.opaque("softmax_row", vec![row], &[vars[axis]]);
    b.build(body).ok()
}

fn tdl_sum_all(ins: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    // out[] = Σ_everything x[...]: every input dimension is a reduction
    // variable, so any axis may split with output reduction.
    let rank = ins.first()?.rank();
    if rank == 0 {
        return None;
    }
    let mut b = DescBuilder::new("sum_all", &[rank]);
    let coords: Vec<_> = (0..rank).map(|d| b.reduce_var(format!("r{d}")).at()).collect();
    let body = b.input(0, &coords);
    b.build_reduce(Reducer::Sum, body).ok()
}

fn tdl_bcast_like(ins: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    // out[...] = s[] — the scalar is replicated to every shard.
    let rank = ins.get(1)?.rank();
    let mut b = DescBuilder::new("bcast_like", &[0, rank]);
    let vars: Vec<_> = (0..rank).map(|d| b.output_var(format!("d{d}"))).collect();
    let coords: Vec<_> = vars.iter().map(|v| v.at()).collect();
    let body = b.input(0, &[]) + b.input(1, &coords) * tofu_tdl::Exp::constant(0.0);
    b.build(body).ok()
}

fn tdl_softmax_ce(_: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    // loss = Σ_b Opaque(logits[b, :], labels[b]).
    let mut b = DescBuilder::new("softmax_ce", &[2, 1]);
    let bb = b.reduce_var("b");
    let row = b.input(0, &[bb.at(), tofu_tdl::builder::Idx::full()]);
    let label = b.input(1, &[bb.at()]);
    let body = b.opaque("ce_row", vec![row, label], &[]);
    b.build_reduce(Reducer::Sum, body).ok()
}

fn tdl_softmax_ce_grad(_: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    let mut b = DescBuilder::new("softmax_ce_grad", &[2, 1]);
    let (bb, i) = (b.output_var("b"), b.output_var("i"));
    let row = b.input(0, &[bb.at(), tofu_tdl::builder::Idx::full()]);
    let label = b.input(1, &[bb.at()]);
    let body = b.opaque("ce_grad_row", vec![row, label], &[i]);
    b.build(body).ok()
}

fn tdl_scale_shift(ins: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    let rank = ins.first()?.rank();
    let axis = axis_of(attrs, rank).ok()?;
    let (b, vars) = vars_for_rank("scale_shift", &[rank, 1, 1], rank);
    let coords: Vec<_> = vars.iter().map(|v| v.at()).collect();
    let body = b.input(0, &coords) * b.input(1, &[vars[axis].at()])
        + b.input(2, &[vars[axis].at()]);
    b.build(body).ok()
}

// ---- Gradients --------------------------------------------------------------------

fn grad_bias_add(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let attrs = ctx.attrs.clone();
    let db = ctx.op("reduce_to_axis", &[ctx.out_grad], attrs)?;
    Ok(vec![Some(ctx.out_grad), Some(db)])
}

fn grad_scale_shift(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let attrs = ctx.attrs.clone();
    let (x, gamma) = (ctx.inputs[0], ctx.inputs[1]);
    let dx = ctx.op("mul_bcast", &[ctx.out_grad, gamma], attrs.clone())?;
    let dgamma = ctx.op("mul_reduce", &[ctx.out_grad, x], attrs.clone())?;
    let dbeta = ctx.op("reduce_to_axis", &[ctx.out_grad], attrs)?;
    Ok(vec![Some(dx), Some(dgamma), Some(dbeta)])
}

fn grad_softmax(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    // dx = y ⊙ (dy − Σ_axis dy·y), computed by a fused row kernel so the
    // normalized axis stays a single opaque TDL function.
    let attrs = ctx.attrs.clone();
    let dx = ctx.op("softmax_grad", &[ctx.out_grad, ctx.output], attrs)?;
    Ok(vec![Some(dx)])
}

fn grad_sum_all(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let x = ctx.inputs[0];
    let dx = ctx.op("bcast_like", &[ctx.out_grad, x], Attrs::new())?;
    Ok(vec![Some(dx)])
}

fn grad_softmax_ce(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    // d(loss)/d(logits) = out_grad · (softmax(logits) - onehot(labels)). The
    // out-grad is the scalar cotangent of the loss; dropping it is only
    // correct when the loss is the terminal node and seeded with 1 — the
    // finite-difference oracle in `tests/gradcheck.rs` scales the loss and
    // catches that shortcut.
    let (logits, labels) = (ctx.inputs[0], ctx.inputs[1]);
    let g0 = ctx.op("softmax_ce_grad", &[logits, labels], Attrs::new())?;
    let scale = ctx.op("bcast_like", &[ctx.out_grad, g0], Attrs::new())?;
    let g = ctx.op("mul", &[g0, scale], Attrs::new())?;
    Ok(vec![Some(g), None])
}

// ---- Kernels ------------------------------------------------------------------------

/// `f(x, c)` for every element `x` of `t`, `c` its index along `axis`: the
/// per-channel broadcasts.
fn map_channels(t: &Tensor, attrs: &Attrs, f: impl Fn(f32, usize) -> f32) -> Tensor {
    let axis = attrs.int_or("axis", 1) as usize;
    let extent = t.shape().dim(axis);
    let inner: usize = t.shape().dims()[axis + 1..].iter().product();
    let mut out = t.clone();
    for (flat, v) in out.data_mut().iter_mut().enumerate() {
        *v = f(*v, (flat / inner) % extent);
    }
    out
}

/// Sums a tensor over every axis except `axis`, yielding a rank-1 tensor.
fn reduce_all_but_axis(t: &Tensor, axis: usize) -> Result<Tensor> {
    let mut current = t.clone();
    let mut current_axis = axis;
    while current.shape().rank() > 1 {
        let victim = if current_axis == 0 { 1 } else { 0 };
        current = current.reduce_axis(victim, ReduceKind::Sum)?;
        if victim < current_axis {
            current_axis -= 1;
        }
    }
    Ok(current)
}

fn reduce_axis(ins: &[&Tensor], attrs: &Attrs, kind: ReduceKind) -> Result<Tensor> {
    Ok(ins[0].reduce_axis(attrs.int_or("axis", 1) as usize, kind)?)
}

/// The class index of every label: an integral value in `0..classes`. A
/// negative, fractional, NaN or out-of-range label is an error rather than a
/// silent class 0.
fn class_labels(labels: &Tensor, classes: usize) -> Result<Vec<usize>> {
    labels
        .data()
        .iter()
        .enumerate()
        .map(|(row, &l)| {
            if l >= 0.0 && l.fract() == 0.0 && (l as usize) < classes {
                Ok(l as usize)
            } else {
                Err(GraphError::Exec(format!(
                    "label {l} of row {row} is not a class in 0..{classes}"
                )))
            }
        })
        .collect()
}

/// Summed (not mean) cross-entropy, so that batch-split partial losses
/// combine exactly by addition under output reduction.
fn kernel_softmax_ce(ins: &[&Tensor], _: &Attrs, _: &Shape) -> Result<Tensor> {
    let labels = class_labels(ins[1], ins[0].shape().dim(1))?;
    let mean = ins[0].softmax_cross_entropy(&labels)?;
    Ok(Tensor::scalar(mean * ins[0].shape().dim(0) as f32))
}

/// `softmax(logits) - onehot(labels)`: the gradient of the *summed*
/// cross-entropy of [`kernel_softmax_ce`].
fn kernel_softmax_ce_grad(ins: &[&Tensor], _: &Attrs, _: &Shape) -> Result<Tensor> {
    let mut out = ins[0].softmax_axis(1)?;
    let c = out.shape().dim(1);
    for (row, label) in class_labels(ins[1], c)?.into_iter().enumerate() {
        out.data_mut()[row * c + label] -= 1.0;
    }
    Ok(out)
}

// ---- Definitions --------------------------------------------------------------------

/// Returns the reduction/broadcast/loss operator definitions.
pub(crate) fn defs() -> Vec<OpDef> {
    let mut ops = vec![
        OpDef {
            name: "bias_add",
            category: OpCategory::Reduction,
            infer_shape: shape_bias_add,
            tdl: Some(tdl_bias_add),
            gradient: Some(grad_bias_add),
            flops: flops_per_elem,
            kernel: Some(Kernel::General(|ins, attrs, _| {
                Ok(ins[0].broadcast_add(ins[1], attrs.int_or("axis", 1) as usize)?)
            })),
        },
        OpDef {
            name: "reduce_to_axis",
            category: OpCategory::Reduction,
            infer_shape: shape_reduce_to_axis,
            tdl: Some(tdl_reduce_to_axis),
            gradient: None,
            flops: |ins, _, _| ins[0].volume() as f64,
            kernel: Some(Kernel::General(|ins, attrs, _| {
                reduce_all_but_axis(ins[0], attrs.int_or("axis", 1) as usize)
            })),
        },
        OpDef {
            name: "mul_bcast",
            category: OpCategory::Reduction,
            infer_shape: shape_mul_bcast,
            tdl: Some(tdl_mul_bcast),
            gradient: None,
            flops: flops_per_elem,
            kernel: Some(Kernel::General(|ins, attrs, _| {
                Ok(map_channels(ins[0], attrs, |x, c| x * ins[1].data()[c]))
            })),
        },
        OpDef {
            name: "mul_reduce",
            category: OpCategory::Reduction,
            infer_shape: shape_mul_reduce,
            tdl: Some(tdl_mul_reduce),
            gradient: None,
            flops: |ins, _, _| 2.0 * ins[0].volume() as f64,
            kernel: Some(Kernel::General(|ins, attrs, _| {
                reduce_all_but_axis(&ins[0].mul(ins[1])?, attrs.int_or("axis", 1) as usize)
            })),
        },
        OpDef {
            name: "softmax",
            category: OpCategory::Reduction,
            infer_shape: shape_softmax,
            tdl: Some(tdl_softmax),
            gradient: Some(grad_softmax),
            flops: |_, out, _| 5.0 * out.volume() as f64,
            kernel: Some(Kernel::General(|ins, attrs, _| {
                let axis = norm_axis(ins[0].shape(), attrs).map_err(GraphError::Exec)?;
                Ok(ins[0].softmax_axis(axis)?)
            })),
        },
        OpDef {
            name: "sum_all",
            category: OpCategory::Reduction,
            infer_shape: shape_sum_all,
            tdl: Some(tdl_sum_all),
            gradient: Some(grad_sum_all),
            flops: |ins, _, _| ins[0].volume() as f64,
            kernel: Some(Kernel::General(|ins, _, _| Ok(Tensor::scalar(ins[0].sum_all())))),
        },
        OpDef {
            name: "bcast_like",
            category: OpCategory::Data,
            infer_shape: shape_bcast_like,
            tdl: Some(tdl_bcast_like),
            gradient: None,
            flops: |_, out, _| out.volume() as f64,
            kernel: Some(Kernel::General(|ins, _, _| {
                Ok(Tensor::full(ins[1].shape().clone(), ins[0].data()[0]))
            })),
        },
        OpDef {
            name: "softmax_ce",
            category: OpCategory::Loss,
            infer_shape: shape_softmax_ce,
            tdl: Some(tdl_softmax_ce),
            gradient: Some(grad_softmax_ce),
            flops: |ins, _, _| 6.0 * ins[0].volume() as f64,
            kernel: Some(Kernel::General(kernel_softmax_ce)),
        },
        OpDef {
            name: "softmax_ce_grad",
            category: OpCategory::Loss,
            infer_shape: shape_softmax_ce_grad,
            tdl: Some(tdl_softmax_ce_grad),
            gradient: None,
            flops: |_, out, _| 6.0 * out.volume() as f64,
            kernel: Some(Kernel::General(kernel_softmax_ce_grad)),
        },
        OpDef {
            name: "scale_shift",
            category: OpCategory::Reduction,
            infer_shape: shape_scale_shift,
            tdl: Some(tdl_scale_shift),
            gradient: Some(grad_scale_shift),
            flops: |_, out, _| 2.0 * out.volume() as f64,
            kernel: Some(Kernel::General(|ins, attrs, _| {
                let (gamma, beta) = (ins[1].data(), ins[2].data());
                Ok(map_channels(ins[0], attrs, |x, c| x * gamma[c] + beta[c]))
            })),
        },
    ];
    let axis_reductions: [(&'static str, KernelFn); 4] = [
        ("sum_axis", |ins, attrs, _| reduce_axis(ins, attrs, ReduceKind::Sum)),
        ("max_axis", |ins, attrs, _| reduce_axis(ins, attrs, ReduceKind::Max)),
        ("min_axis", |ins, attrs, _| reduce_axis(ins, attrs, ReduceKind::Min)),
        ("prod_axis", |ins, attrs, _| reduce_axis(ins, attrs, ReduceKind::Prod)),
    ];
    ops.extend(axis_reductions.map(|(name, kernel)| OpDef {
        name,
        category: OpCategory::Reduction,
        infer_shape: shape_sum_axis,
        tdl: Some(tdl_sum_axis),
        gradient: None,
        flops: |ins, _, _| ins[0].volume() as f64,
        kernel: Some(Kernel::General(kernel)),
    }));
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofu_tdl::{discover_strategies, InputRequirement, OutputPartition};

    #[test]
    fn bias_add_shapes() {
        let x = Shape::new(vec![4, 8]);
        let b = Shape::new(vec![8]);
        assert_eq!(shape_bias_add(&[x.clone(), b], &Attrs::new()).unwrap(), x);
        let wrong = Shape::new(vec![7]);
        assert!(shape_bias_add(&[x, wrong], &Attrs::new()).is_err());
    }

    #[test]
    fn reduce_to_axis_shape() {
        let x = Shape::new(vec![4, 8, 2]);
        let out = shape_reduce_to_axis(&[x], &Attrs::new().with_int("axis", 1)).unwrap();
        assert_eq!(out.dims(), &[8]);
    }

    #[test]
    fn sum_axis_removes_dim() {
        let x = Shape::new(vec![4, 8, 2]);
        let out = shape_sum_axis(&[x], &Attrs::new().with_int("axis", 0)).unwrap();
        assert_eq!(out.dims(), &[8, 2]);
    }

    #[test]
    fn softmax_is_batch_splittable_only() {
        let desc = tdl_softmax(&[Shape::new(vec![4, 8])], &Attrs::new()).unwrap();
        let s = discover_strategies(&desc).unwrap();
        assert_eq!(s.len(), 1, "only the batch dimension may split");
        assert_eq!(s[0].id, "split:b");
    }

    #[test]
    fn softmax_rank3_splits_batch_and_row_dims() {
        let x = Shape::new(vec![4, 8, 8]);
        assert_eq!(shape_softmax(std::slice::from_ref(&x), &Attrs::new()).unwrap(), x);
        let desc = tdl_softmax(&[x], &Attrs::new()).unwrap();
        let s = discover_strategies(&desc).unwrap();
        // Head and token dims split; the normalized axis is opaque.
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].id, "split:d0");
        assert_eq!(s[1].id, "split:d1");
    }

    #[test]
    fn softmax_rejects_bad_axis_and_rank() {
        assert!(shape_softmax(&[Shape::new(vec![4])], &Attrs::new()).is_err());
        assert!(
            shape_softmax(&[Shape::new(vec![4, 4])], &Attrs::new().with_int("axis", 2)).is_err()
        );
    }

    #[test]
    fn sum_all_reduces_every_axis() {
        let x = Shape::new(vec![4, 8]);
        assert_eq!(shape_sum_all(std::slice::from_ref(&x), &Attrs::new()).unwrap().rank(), 0);
        let desc = tdl_sum_all(&[x], &Attrs::new()).unwrap();
        let s = discover_strategies(&desc).unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.iter().all(|st| matches!(st.output, OutputPartition::Reduce { .. })));
    }

    #[test]
    fn reduce_to_axis_reduction_strategies_split_the_input() {
        let desc = tdl_reduce_to_axis(
            &[Shape::new(vec![4, 8])],
            &Attrs::new().with_int("axis", 1),
        )
        .unwrap();
        let s = discover_strategies(&desc).unwrap();
        // split:c plus reduce:r0.
        assert_eq!(s.len(), 2);
        let red = s.iter().find(|st| matches!(st.output, OutputPartition::Reduce { .. })).unwrap();
        assert!(matches!(red.inputs[0], InputRequirement::Split { dim: 0, .. }));
    }

    #[test]
    fn scale_shift_strategy_split_channel() {
        let desc = tdl_scale_shift(
            &[Shape::new(vec![2, 4, 8, 8]), Shape::new(vec![4]), Shape::new(vec![4])],
            &Attrs::new(),
        )
        .unwrap();
        let s = discover_strategies(&desc).unwrap();
        // Splitting the channel dim splits gamma and beta too.
        let ch = &s[1];
        assert!(matches!(ch.inputs[1], InputRequirement::Split { dim: 0, .. }));
        assert!(matches!(ch.inputs[2], InputRequirement::Split { dim: 0, .. }));
        // Splitting the batch dim replicates gamma/beta.
        assert_eq!(s[0].inputs[1], InputRequirement::Replicated);
    }

    #[test]
    fn softmax_ce_is_scalar() {
        let out = shape_softmax_ce(
            &[Shape::new(vec![4, 10]), Shape::new(vec![4])],
            &Attrs::new(),
        )
        .unwrap();
        assert_eq!(out.rank(), 0);
    }
}
