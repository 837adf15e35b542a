//! Dense linear algebra operators: the matmul family.
//!
//! `matmul` is the workhorse of the RNN benchmarks. Its TDL description
//! yields the three classic strategies — row split, column split, and the
//! inner-product split with output reduction that the paper shows ICML18
//! misses (§7.3).

use tofu_tdl::{DescBuilder, Reducer, TdlDesc};
use tofu_tensor::Shape;

use crate::attrs::Attrs;
use crate::graph::TensorId;
use crate::ops::flops_per_elem;
use crate::registry::{GradCtx, Kernel, OpCategory, OpDef};
use crate::Result;

fn shape_matmul(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    let (a, b) = two_rank2(ins)?;
    if a.dim(1) != b.dim(0) {
        return Err(format!("inner dims {} vs {}", a.dim(1), b.dim(0)));
    }
    Ok(Shape::new(vec![a.dim(0), b.dim(1)]))
}

fn shape_matmul_tn(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    let (a, b) = two_rank2(ins)?;
    if a.dim(0) != b.dim(0) {
        return Err(format!("inner dims {} vs {}", a.dim(0), b.dim(0)));
    }
    Ok(Shape::new(vec![a.dim(1), b.dim(1)]))
}

fn shape_matmul_nt(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    let (a, b) = two_rank2(ins)?;
    if a.dim(1) != b.dim(1) {
        return Err(format!("inner dims {} vs {}", a.dim(1), b.dim(1)));
    }
    Ok(Shape::new(vec![a.dim(0), b.dim(0)]))
}

fn two_rank2(ins: &[Shape]) -> std::result::Result<(&Shape, &Shape), String> {
    if ins.len() != 2 {
        return Err(format!("expected 2 inputs, got {}", ins.len()));
    }
    if ins[0].rank() != 2 || ins[1].rank() != 2 {
        return Err(format!("expected rank-2 operands, got {} and {}", ins[0], ins[1]));
    }
    Ok((&ins[0], &ins[1]))
}

fn shape_transpose(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 1 || ins[0].rank() != 2 {
        return Err("transpose expects one rank-2 input".into());
    }
    Ok(Shape::new(vec![ins[0].dim(1), ins[0].dim(0)]))
}

fn shape_batch_matmul(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 2 || ins[0].rank() != 3 || ins[1].rank() != 3 {
        return Err("batch_matmul expects two rank-3 inputs".into());
    }
    if ins[0].dim(0) != ins[1].dim(0) || ins[0].dim(2) != ins[1].dim(1) {
        return Err(format!("incompatible batch matmul shapes {} and {}", ins[0], ins[1]));
    }
    Ok(Shape::new(vec![ins[0].dim(0), ins[0].dim(1), ins[1].dim(2)]))
}

fn shape_batch_matmul_tn(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 2 || ins[0].rank() != 3 || ins[1].rank() != 3 {
        return Err("batch_matmul_tn expects two rank-3 inputs".into());
    }
    if ins[0].dim(0) != ins[1].dim(0) || ins[0].dim(1) != ins[1].dim(1) {
        return Err(format!("incompatible batch matmul_tn shapes {} and {}", ins[0], ins[1]));
    }
    Ok(Shape::new(vec![ins[0].dim(0), ins[0].dim(2), ins[1].dim(2)]))
}

fn shape_batch_matmul_nt(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 2 || ins[0].rank() != 3 || ins[1].rank() != 3 {
        return Err("batch_matmul_nt expects two rank-3 inputs".into());
    }
    if ins[0].dim(0) != ins[1].dim(0) || ins[0].dim(2) != ins[1].dim(2) {
        return Err(format!("incompatible batch matmul_nt shapes {} and {}", ins[0], ins[1]));
    }
    Ok(Shape::new(vec![ins[0].dim(0), ins[0].dim(1), ins[1].dim(1)]))
}

// ---- TDL descriptions ------------------------------------------------------

fn tdl_matmul(_: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    let mut b = DescBuilder::new("matmul", &[2, 2]);
    let (i, j) = (b.output_var("i"), b.output_var("j"));
    let k = b.reduce_var("k");
    let body = b.input(0, &[i.at(), k.at()]) * b.input(1, &[k.at(), j.at()]);
    b.build_reduce(Reducer::Sum, body).ok()
}

fn tdl_matmul_tn(_: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    // out[i, j] = Σ_k A[k, i] · B[k, j] (Aᵀ·B).
    let mut b = DescBuilder::new("matmul_tn", &[2, 2]);
    let (i, j) = (b.output_var("i"), b.output_var("j"));
    let k = b.reduce_var("k");
    let body = b.input(0, &[k.at(), i.at()]) * b.input(1, &[k.at(), j.at()]);
    b.build_reduce(Reducer::Sum, body).ok()
}

fn tdl_matmul_nt(_: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    // out[i, j] = Σ_k A[i, k] · B[j, k] (A·Bᵀ).
    let mut b = DescBuilder::new("matmul_nt", &[2, 2]);
    let (i, j) = (b.output_var("i"), b.output_var("j"));
    let k = b.reduce_var("k");
    let body = b.input(0, &[i.at(), k.at()]) * b.input(1, &[j.at(), k.at()]);
    b.build_reduce(Reducer::Sum, body).ok()
}

fn tdl_transpose(_: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    let mut b = DescBuilder::new("transpose", &[2]);
    let (i, j) = (b.output_var("i"), b.output_var("j"));
    let body = b.input(0, &[j.at(), i.at()]);
    b.build(body).ok()
}

fn tdl_batch_matmul(_: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    let mut b = DescBuilder::new("batch_matmul", &[3, 3]);
    let (bb, i, j) = (b.output_var("b"), b.output_var("i"), b.output_var("j"));
    let k = b.reduce_var("k");
    let body = b.input(0, &[bb.at(), i.at(), k.at()]) * b.input(1, &[bb.at(), k.at(), j.at()]);
    b.build_reduce(Reducer::Sum, body).ok()
}

fn tdl_batch_matmul_tn(_: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    // out[b, i, j] = Σ_k A[b, k, i] · B[b, k, j].
    let mut b = DescBuilder::new("batch_matmul_tn", &[3, 3]);
    let (bb, i, j) = (b.output_var("b"), b.output_var("i"), b.output_var("j"));
    let k = b.reduce_var("k");
    let body = b.input(0, &[bb.at(), k.at(), i.at()]) * b.input(1, &[bb.at(), k.at(), j.at()]);
    b.build_reduce(Reducer::Sum, body).ok()
}

fn tdl_batch_matmul_nt(_: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    // out[b, i, j] = Σ_k A[b, i, k] · B[b, j, k].
    let mut b = DescBuilder::new("batch_matmul_nt", &[3, 3]);
    let (bb, i, j) = (b.output_var("b"), b.output_var("i"), b.output_var("j"));
    let k = b.reduce_var("k");
    let body = b.input(0, &[bb.at(), i.at(), k.at()]) * b.input(1, &[bb.at(), j.at(), k.at()]);
    b.build_reduce(Reducer::Sum, body).ok()
}

// ---- Gradients --------------------------------------------------------------

fn grad_matmul(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    // C = A·B: dA = dC·Bᵀ, dB = Aᵀ·dC.
    let (a, b) = (ctx.inputs[0], ctx.inputs[1]);
    let da = ctx.op("matmul_nt", &[ctx.out_grad, b], Attrs::new())?;
    let db = ctx.op("matmul_tn", &[a, ctx.out_grad], Attrs::new())?;
    Ok(vec![Some(da), Some(db)])
}

fn grad_matmul_tn(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    // C = Aᵀ·B: dA = B·dCᵀ, dB = A·dC.
    let (a, b) = (ctx.inputs[0], ctx.inputs[1]);
    let da = ctx.op("matmul_nt", &[b, ctx.out_grad], Attrs::new())?;
    let db = ctx.op("matmul", &[a, ctx.out_grad], Attrs::new())?;
    Ok(vec![Some(da), Some(db)])
}

fn grad_matmul_nt(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    // C = A·Bᵀ: dA = dC·B, dB = dCᵀ·A.
    let (a, b) = (ctx.inputs[0], ctx.inputs[1]);
    let da = ctx.op("matmul", &[ctx.out_grad, b], Attrs::new())?;
    let db = ctx.op("matmul_tn", &[ctx.out_grad, a], Attrs::new())?;
    Ok(vec![Some(da), Some(db)])
}

fn grad_transpose(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let dx = ctx.op("transpose", &[ctx.out_grad], Attrs::new())?;
    Ok(vec![Some(dx)])
}

fn grad_batch_matmul(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    // C[b] = A[b]·B[b]: dA[b] = dC[b]·B[b]ᵀ, dB[b] = A[b]ᵀ·dC[b].
    let (a, b) = (ctx.inputs[0], ctx.inputs[1]);
    let da = ctx.op("batch_matmul_nt", &[ctx.out_grad, b], Attrs::new())?;
    let db = ctx.op("batch_matmul_tn", &[a, ctx.out_grad], Attrs::new())?;
    Ok(vec![Some(da), Some(db)])
}

fn grad_batch_matmul_tn(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    // C[b] = A[b]ᵀ·B[b]: dA[b] = B[b]·dC[b]ᵀ, dB[b] = A[b]·dC[b].
    let (a, b) = (ctx.inputs[0], ctx.inputs[1]);
    let da = ctx.op("batch_matmul_nt", &[b, ctx.out_grad], Attrs::new())?;
    let db = ctx.op("batch_matmul", &[a, ctx.out_grad], Attrs::new())?;
    Ok(vec![Some(da), Some(db)])
}

fn grad_batch_matmul_nt(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    // C[b] = A[b]·B[b]ᵀ: dA[b] = dC[b]·B[b], dB[b] = dC[b]ᵀ·A[b].
    let (a, b) = (ctx.inputs[0], ctx.inputs[1]);
    let da = ctx.op("batch_matmul", &[ctx.out_grad, b], Attrs::new())?;
    let db = ctx.op("batch_matmul_tn", &[ctx.out_grad, a], Attrs::new())?;
    Ok(vec![Some(da), Some(db)])
}

// ---- Flops -------------------------------------------------------------------

fn flops_matmul(ins: &[Shape], out: &Shape, _: &Attrs) -> f64 {
    // 2·M·N·K; K is whichever input dimension is not in the output.
    let k = (ins[0].volume() / out.dim(0).max(1)).max(ins[1].volume() / out.dim(1).max(1));
    2.0 * out.volume() as f64 * k as f64
}

fn flops_batch_matmul(ins: &[Shape], out: &Shape, _: &Attrs) -> f64 {
    let k = ins[0].dim(2);
    2.0 * out.volume() as f64 * k as f64
}

/// Returns the linear-algebra operator definitions. All six products run the
/// one tiled GEMM, whose per-element ascending-k order makes batched, sliced
/// and sharded forms of a product bit-identical.
pub(crate) fn defs() -> Vec<OpDef> {
    vec![
        OpDef {
            name: "matmul",
            category: OpCategory::Linalg,
            infer_shape: shape_matmul,
            tdl: Some(tdl_matmul),
            gradient: Some(grad_matmul),
            flops: flops_matmul,
            kernel: Some(Kernel::General(|ins, _, _| Ok(ins[0].matmul(ins[1])?))),
        },
        OpDef {
            name: "matmul_tn",
            category: OpCategory::Linalg,
            infer_shape: shape_matmul_tn,
            tdl: Some(tdl_matmul_tn),
            gradient: Some(grad_matmul_tn),
            flops: flops_matmul,
            kernel: Some(Kernel::General(|ins, _, _| Ok(ins[0].matmul_tn(ins[1])?))),
        },
        OpDef {
            name: "matmul_nt",
            category: OpCategory::Linalg,
            infer_shape: shape_matmul_nt,
            tdl: Some(tdl_matmul_nt),
            gradient: Some(grad_matmul_nt),
            flops: flops_matmul,
            kernel: Some(Kernel::General(|ins, _, _| Ok(ins[0].matmul_nt(ins[1])?))),
        },
        OpDef {
            name: "transpose",
            category: OpCategory::Data,
            infer_shape: shape_transpose,
            tdl: Some(tdl_transpose),
            gradient: Some(grad_transpose),
            flops: flops_per_elem,
            kernel: Some(Kernel::General(|ins, _, _| Ok(ins[0].transpose()?))),
        },
        OpDef {
            name: "batch_matmul",
            category: OpCategory::Linalg,
            infer_shape: shape_batch_matmul,
            tdl: Some(tdl_batch_matmul),
            gradient: Some(grad_batch_matmul),
            flops: flops_batch_matmul,
            kernel: Some(Kernel::General(|ins, _, _| Ok(ins[0].matmul_b(ins[1])?))),
        },
        OpDef {
            name: "batch_matmul_tn",
            category: OpCategory::Linalg,
            infer_shape: shape_batch_matmul_tn,
            tdl: Some(tdl_batch_matmul_tn),
            gradient: Some(grad_batch_matmul_tn),
            flops: |ins, out, _| 2.0 * out.volume() as f64 * ins[0].dim(1) as f64,
            kernel: Some(Kernel::General(|ins, _, _| Ok(ins[0].matmul_b_tn(ins[1])?))),
        },
        OpDef {
            name: "batch_matmul_nt",
            category: OpCategory::Linalg,
            infer_shape: shape_batch_matmul_nt,
            tdl: Some(tdl_batch_matmul_nt),
            gradient: Some(grad_batch_matmul_nt),
            flops: |ins, out, _| 2.0 * out.volume() as f64 * ins[0].dim(2) as f64,
            kernel: Some(Kernel::General(|ins, _, _| Ok(ins[0].matmul_b_nt(ins[1])?))),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofu_tdl::{discover_strategies, OutputPartition};

    #[test]
    fn matmul_shapes() {
        let a = Shape::new(vec![3, 4]);
        let b = Shape::new(vec![4, 5]);
        assert_eq!(
            shape_matmul(&[a.clone(), b.clone()], &Attrs::new()).unwrap(),
            Shape::new(vec![3, 5])
        );
        assert!(shape_matmul(&[b.clone(), b.clone()], &Attrs::new()).is_err());
        // Aᵀ·B: (4,3)ᵀ·(4,5) = (3,5).
        assert_eq!(
            shape_matmul_tn(&[Shape::new(vec![4, 3]), b.clone()], &Attrs::new()).unwrap(),
            Shape::new(vec![3, 5])
        );
        // A·Bᵀ: (3,4)·(5,4)ᵀ = (3,5).
        assert_eq!(
            shape_matmul_nt(&[a, Shape::new(vec![5, 4])], &Attrs::new()).unwrap(),
            Shape::new(vec![3, 5])
        );
    }

    #[test]
    fn matmul_tdl_has_reduction_strategy() {
        let desc = tdl_matmul(&[], &Attrs::new()).unwrap();
        let s = discover_strategies(&desc).unwrap();
        assert_eq!(s.len(), 3);
        assert!(s.iter().any(|st| matches!(st.output, OutputPartition::Reduce { .. })));
    }

    #[test]
    fn transposed_variants_have_three_strategies_each() {
        for tdl in [tdl_matmul_tn, tdl_matmul_nt] {
            let desc = tdl(&[], &Attrs::new()).unwrap();
            let s = discover_strategies(&desc).unwrap();
            assert_eq!(s.len(), 3);
        }
    }

    #[test]
    fn batch_matmul_has_four_strategies() {
        let desc = tdl_batch_matmul(&[], &Attrs::new()).unwrap();
        let s = discover_strategies(&desc).unwrap();
        assert_eq!(s.len(), 4); // b, i, j, and reduce-k.
    }

    #[test]
    fn batch_matmul_transposed_variants_have_four_strategies() {
        for tdl in [tdl_batch_matmul_tn, tdl_batch_matmul_nt] {
            let desc = tdl(&[], &Attrs::new()).unwrap();
            let s = discover_strategies(&desc).unwrap();
            assert_eq!(s.len(), 4);
            assert!(s.iter().any(|st| matches!(st.output, OutputPartition::Reduce { .. })));
            assert!(s.iter().any(|st| st.id == "split:b"), "batch dim splits");
        }
    }

    #[test]
    fn batch_matmul_transposed_shapes() {
        let a = Shape::new(vec![2, 4, 3]);
        let b = Shape::new(vec![2, 4, 5]);
        assert_eq!(
            shape_batch_matmul_tn(&[a.clone(), b], &Attrs::new()).unwrap(),
            Shape::new(vec![2, 3, 5])
        );
        let c = Shape::new(vec![2, 6, 3]);
        assert_eq!(
            shape_batch_matmul_nt(&[a.clone(), c], &Attrs::new()).unwrap(),
            Shape::new(vec![2, 4, 6])
        );
        assert!(shape_batch_matmul_nt(&[a.clone(), Shape::new(vec![2, 6, 4])], &Attrs::new())
            .is_err());
        assert!(shape_batch_matmul_tn(&[a, Shape::new(vec![3, 4, 5])], &Attrs::new()).is_err());
    }

    #[test]
    fn flops_counts_macs_twice() {
        let ins = [Shape::new(vec![3, 4]), Shape::new(vec![4, 5])];
        let out = Shape::new(vec![3, 5]);
        assert_eq!(flops_matmul(&ins, &out, &Attrs::new()), 2.0 * 3.0 * 4.0 * 5.0);
    }
}
