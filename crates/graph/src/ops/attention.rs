//! Attention's normalization pieces: layer norm and the softmax gradient.
//! (The head projections are products, in `linalg`.)
//!
//! `layer_norm` normalizes rows along the last axis; like softmax, the row
//! is an opaque TDL function of the whole row, so the normalized axis is
//! unsplittable while every batch/token axis partitions.

use tofu_tdl::{builder::Idx, DescBuilder, TdlDesc};
use tofu_tensor::Shape;

use crate::attrs::Attrs;
use crate::graph::TensorId;
use crate::ops::norm_axis;
use crate::registry::{GradCtx, GraphError, Kernel, OpCategory, OpDef};
use crate::Result;

// ---- Shape inference ---------------------------------------------------------

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

/// Returns the normalization operator definitions.
pub(crate) fn defs() -> Vec<OpDef> {
    vec![
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
