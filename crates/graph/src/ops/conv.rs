//! Convolution and pooling operators, forward and backward.
//!
//! Layouts match the paper's Fig. 1/Fig. 3: `data (b, ci, [h,] w)` and
//! `filters (ci, co, [kh,] kw)`. The backward operators carry their own TDL
//! descriptions so the partitioner can split them independently of the
//! forward pass (the coarsening pass then groups forward and backward
//! operators, §5.1). Strided backward-data descriptions use rational index
//! coefficients (`1/s`), which are region-exact for the interval analysis.

use tofu_tdl::{DescBuilder, Exp, Reducer, TdlDesc};
use tofu_tensor::{Conv1dParams, Conv2dParams, PoolKind, PoolParams, Shape, Tensor};

use crate::attrs::Attrs;
use crate::graph::TensorId;
use crate::registry::{GradCtx, Kernel, OpCategory, OpDef};
use crate::Result;

fn out_extent(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    let padded = input + 2 * pad;
    if padded < kernel {
        0
    } else {
        (padded - kernel) / stride + 1
    }
}

fn conv_params(attrs: &Attrs) -> (usize, usize) {
    (attrs.int_or("stride", 1).max(1) as usize, attrs.int_or("pad", 0).max(0) as usize)
}

// ---- Shape inference -------------------------------------------------------

fn shape_conv1d(ins: &[Shape], attrs: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 2 || ins[0].rank() != 3 || ins[1].rank() != 3 {
        return Err("conv1d expects rank-3 data and filters".into());
    }
    if ins[0].dim(1) != ins[1].dim(0) {
        return Err(format!("channel mismatch {} vs {}", ins[0].dim(1), ins[1].dim(0)));
    }
    let (s, p) = conv_params(attrs);
    Ok(Shape::new(vec![ins[0].dim(0), ins[1].dim(1), out_extent(ins[0].dim(2), ins[1].dim(2), s, p)]))
}

fn shape_conv2d(ins: &[Shape], attrs: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 2 || ins[0].rank() != 4 || ins[1].rank() != 4 {
        return Err("conv2d expects rank-4 data and filters".into());
    }
    if ins[0].dim(1) != ins[1].dim(0) {
        return Err(format!("channel mismatch {} vs {}", ins[0].dim(1), ins[1].dim(0)));
    }
    let (s, p) = conv_params(attrs);
    Ok(Shape::new(vec![
        ins[0].dim(0),
        ins[1].dim(1),
        out_extent(ins[0].dim(2), ins[1].dim(2), s, p),
        out_extent(ins[0].dim(3), ins[1].dim(3), s, p),
    ]))
}

fn shape_conv2d_bwd_data(ins: &[Shape], attrs: &Attrs) -> std::result::Result<Shape, String> {
    // Inputs: out_grad (b, co, oh, ow), filters (ci, co, kh, kw); the data
    // extents are attributes because they cannot be recovered from the
    // output extent alone under striding.
    if ins.len() != 2 || ins[0].rank() != 4 || ins[1].rank() != 4 {
        return Err("conv2d_bwd_data expects rank-4 out_grad and filters".into());
    }
    let h = attrs.int("in_h").ok_or("missing in_h attribute")? as usize;
    let w = attrs.int("in_w").ok_or("missing in_w attribute")? as usize;
    Ok(Shape::new(vec![ins[0].dim(0), ins[1].dim(0), h, w]))
}

fn shape_conv2d_bwd_filter(ins: &[Shape], attrs: &Attrs) -> std::result::Result<Shape, String> {
    // Inputs: out_grad (b, co, oh, ow), data (b, ci, h, w).
    if ins.len() != 2 || ins[0].rank() != 4 || ins[1].rank() != 4 {
        return Err("conv2d_bwd_filter expects rank-4 out_grad and data".into());
    }
    let kh = attrs.int("kh").ok_or("missing kh attribute")? as usize;
    let kw = attrs.int("kw").ok_or("missing kw attribute")? as usize;
    Ok(Shape::new(vec![ins[1].dim(1), ins[0].dim(1), kh, kw]))
}

fn shape_conv1d_bwd_data(ins: &[Shape], attrs: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 2 || ins[0].rank() != 3 || ins[1].rank() != 3 {
        return Err("conv1d_bwd_data expects rank-3 out_grad and filters".into());
    }
    let x = attrs.int("in_x").ok_or("missing in_x attribute")? as usize;
    Ok(Shape::new(vec![ins[0].dim(0), ins[1].dim(0), x]))
}

fn shape_conv1d_bwd_filter(ins: &[Shape], attrs: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 2 || ins[0].rank() != 3 || ins[1].rank() != 3 {
        return Err("conv1d_bwd_filter expects rank-3 out_grad and data".into());
    }
    let dx = attrs.int("dx").ok_or("missing dx attribute")? as usize;
    Ok(Shape::new(vec![ins[1].dim(1), ins[0].dim(1), dx]))
}

fn shape_pool2d(ins: &[Shape], attrs: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 1 || ins[0].rank() != 4 {
        return Err("pool2d expects one rank-4 input".into());
    }
    let window = attrs.int_or("window", 2).max(1) as usize;
    let stride = attrs.int_or("stride", window as i64).max(1) as usize;
    Ok(Shape::new(vec![
        ins[0].dim(0),
        ins[0].dim(1),
        out_extent(ins[0].dim(2), window, stride, 0),
        out_extent(ins[0].dim(3), window, stride, 0),
    ]))
}

fn shape_pool2d_grad(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    // Inputs: out_grad, data -> data shape.
    if ins.len() != 2 {
        return Err("pool2d_grad expects out_grad and data".into());
    }
    Ok(ins[1].clone())
}

fn shape_gap(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 1 || ins[0].rank() != 4 {
        return Err("global_avg_pool expects one rank-4 input".into());
    }
    Ok(Shape::new(vec![ins[0].dim(0), ins[0].dim(1)]))
}

fn shape_gap_grad(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 2 {
        return Err("gap_grad expects out_grad and data".into());
    }
    Ok(ins[1].clone())
}

// ---- TDL descriptions --------------------------------------------------------

fn tdl_conv1d(_: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    let (s, p) = conv_params(attrs);
    let mut b = DescBuilder::new("conv1d", &[3, 3]);
    let (bb, co, x) = (b.output_var("b"), b.output_var("co"), b.output_var("x"));
    let (ci, dx) = (b.reduce_var("ci"), b.reduce_var("dx"));
    let body = b.input(0, &[bb.at(), ci.at(), x.at() * s as i64 + dx.at() - p as i64])
        * b.input(1, &[ci.at(), co.at(), dx.at()]);
    b.build_reduce(Reducer::Sum, body).ok()
}

fn tdl_conv2d(_: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    let (s, p) = conv_params(attrs);
    let mut b = DescBuilder::new("conv2d", &[4, 4]);
    let (bb, co) = (b.output_var("b"), b.output_var("co"));
    let (y, x) = (b.output_var("y"), b.output_var("x"));
    let (ci, ky, kx) = (b.reduce_var("ci"), b.reduce_var("ky"), b.reduce_var("kx"));
    let body = b.input(
        0,
        &[
            bb.at(),
            ci.at(),
            y.at() * s as i64 + ky.at() - p as i64,
            x.at() * s as i64 + kx.at() - p as i64,
        ],
    ) * b.input(1, &[ci.at(), co.at(), ky.at(), kx.at()]);
    b.build_reduce(Reducer::Sum, body).ok()
}

fn tdl_conv2d_bwd_data(_: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    // dX[b, ci, h, w] = Σ_{co,ky,kx} dY[b, co, (h - ky + p)/s, (w - kx + p)/s]
    //                               · F[ci, co, ky, kx]
    let (s, p) = conv_params(attrs);
    let mut b = DescBuilder::new("conv2d_bwd_data", &[4, 4]);
    let (bb, ci) = (b.output_var("b"), b.output_var("ci"));
    let (h, w) = (b.output_var("h"), b.output_var("w"));
    let (co, ky, kx) = (b.reduce_var("co"), b.reduce_var("ky"), b.reduce_var("kx"));
    let body = b.input(
        0,
        &[
            bb.at(),
            co.at(),
            ((h.at() - ky.at()) + p as i64).div(s as i64),
            ((w.at() - kx.at()) + p as i64).div(s as i64),
        ],
    ) * b.input(1, &[ci.at(), co.at(), ky.at(), kx.at()]);
    b.build_reduce(Reducer::Sum, body).ok()
}

fn tdl_conv2d_bwd_filter(_: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    // dF[ci, co, ky, kx] = Σ_{b,y,x} dY[b, co, y, x] · X[b, ci, y·s+ky-p, x·s+kx-p]
    //
    // The reduction over the batch dimension b is exactly the "hidden"
    // strategy the paper highlights: weight gradients can be computed by
    // batch-splitting and then output-reducing (§7.3).
    let (s, p) = conv_params(attrs);
    let mut b = DescBuilder::new("conv2d_bwd_filter", &[4, 4]);
    let (ci, co) = (b.output_var("ci"), b.output_var("co"));
    let (ky, kx) = (b.output_var("ky"), b.output_var("kx"));
    let (bb, y, x) = (b.reduce_var("b"), b.reduce_var("y"), b.reduce_var("x"));
    let body = b.input(0, &[bb.at(), co.at(), y.at(), x.at()])
        * b.input(
            1,
            &[
                bb.at(),
                ci.at(),
                y.at() * s as i64 + ky.at() - p as i64,
                x.at() * s as i64 + kx.at() - p as i64,
            ],
        );
    b.build_reduce(Reducer::Sum, body).ok()
}

fn tdl_conv1d_bwd_data(_: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    let (s, p) = conv_params(attrs);
    let mut b = DescBuilder::new("conv1d_bwd_data", &[3, 3]);
    let (bb, ci, x) = (b.output_var("b"), b.output_var("ci"), b.output_var("x"));
    let (co, dx) = (b.reduce_var("co"), b.reduce_var("dx"));
    let body = b.input(0, &[bb.at(), co.at(), ((x.at() - dx.at()) + p as i64).div(s as i64)])
        * b.input(1, &[ci.at(), co.at(), dx.at()]);
    b.build_reduce(Reducer::Sum, body).ok()
}

fn tdl_conv1d_bwd_filter(_: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    let (s, p) = conv_params(attrs);
    let mut b = DescBuilder::new("conv1d_bwd_filter", &[3, 3]);
    let (ci, co, dx) = (b.output_var("ci"), b.output_var("co"), b.output_var("dx"));
    let (bb, x) = (b.reduce_var("b"), b.reduce_var("x"));
    let body = b.input(0, &[bb.at(), co.at(), x.at()])
        * b.input(1, &[bb.at(), ci.at(), x.at() * s as i64 + dx.at() - p as i64]);
    b.build_reduce(Reducer::Sum, body).ok()
}

fn tdl_pool2d(_: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    let window = attrs.int_or("window", 2).max(1) as usize;
    let stride = attrs.int_or("stride", window as i64).max(1) as usize;
    let reducer = match attrs.str("mode") {
        Some("avg") => Reducer::Sum, // averaged by a scalar factor afterwards
        _ => Reducer::Max,
    };
    let mut b = DescBuilder::new("pool2d", &[4]);
    let (bb, c) = (b.output_var("b"), b.output_var("c"));
    let (y, x) = (b.output_var("y"), b.output_var("x"));
    let (dy, dx) = (b.reduce_var("dy"), b.reduce_var("dx"));
    let body = b.input(
        0,
        &[bb.at(), c.at(), y.at() * stride as i64 + dy.at(), x.at() * stride as i64 + dx.at()],
    );
    b.build_reduce(reducer, body).ok()
}

fn tdl_pool2d_grad(_: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    let window = attrs.int_or("window", 2).max(1) as usize;
    let stride = attrs.int_or("stride", window as i64).max(1) as usize;
    let mut b = DescBuilder::new("pool2d_grad", &[4, 4]);
    let (bb, c) = (b.output_var("b"), b.output_var("c"));
    let (h, w) = (b.output_var("h"), b.output_var("w"));
    let dy = b.reduce_var_with_extent("dy", window as u64);
    let dx = b.reduce_var_with_extent("dx", window as u64);
    let body = b.input(
        0,
        &[bb.at(), c.at(), (h.at() - dy.at()).div(stride as i64), (w.at() - dx.at()).div(stride as i64)],
    ) * b.input(1, &[bb.at(), c.at(), h.at(), w.at()]);
    b.build_reduce(Reducer::Sum, body).ok()
}

fn tdl_gap(_: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    let mut b = DescBuilder::new("global_avg_pool", &[4]);
    let (bb, c) = (b.output_var("b"), b.output_var("c"));
    let (y, x) = (b.reduce_var("y"), b.reduce_var("x"));
    let body = b.input(0, &[bb.at(), c.at(), y.at(), x.at()]);
    b.build_reduce(Reducer::Sum, body).ok()
}

fn tdl_gap_grad(_: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    // dIn[b, c, h, w] = dOut[b, c] / (H·W). The data operand contributes no
    // values, but the kernel reads its shape for the normalization, so the
    // description references it to keep the region analysis (and therefore
    // the partitioned-graph generator) honest about what must be resident.
    let mut b = DescBuilder::new("gap_grad", &[2, 4]);
    let (bb, c) = (b.output_var("b"), b.output_var("c"));
    let (h, w) = (b.output_var("h"), b.output_var("w"));
    let body = b.input(0, &[bb.at(), c.at()])
        + b.input(1, &[bb.at(), c.at(), h.at(), w.at()]) * Exp::constant(0.0);
    b.build(body).ok()
}

// ---- Gradients ----------------------------------------------------------------

fn grad_conv2d(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let (data, filters) = (ctx.inputs[0], ctx.inputs[1]);
    let dsh = ctx.shape(data);
    let fsh = ctx.shape(filters);
    let (s, p) = conv_params(&ctx.attrs);
    let d_data = ctx.op(
        "conv2d_bwd_data",
        &[ctx.out_grad, filters],
        Attrs::new()
            .with_int("stride", s as i64)
            .with_int("pad", p as i64)
            .with_int("in_h", dsh.dim(2) as i64)
            .with_int("in_w", dsh.dim(3) as i64),
    )?;
    let d_filters = ctx.op(
        "conv2d_bwd_filter",
        &[ctx.out_grad, data],
        Attrs::new()
            .with_int("stride", s as i64)
            .with_int("pad", p as i64)
            .with_int("kh", fsh.dim(2) as i64)
            .with_int("kw", fsh.dim(3) as i64),
    )?;
    Ok(vec![Some(d_data), Some(d_filters)])
}

fn grad_conv1d(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let (data, filters) = (ctx.inputs[0], ctx.inputs[1]);
    let dsh = ctx.shape(data);
    let fsh = ctx.shape(filters);
    let (s, p) = conv_params(&ctx.attrs);
    let d_data = ctx.op(
        "conv1d_bwd_data",
        &[ctx.out_grad, filters],
        Attrs::new()
            .with_int("stride", s as i64)
            .with_int("pad", p as i64)
            .with_int("in_x", dsh.dim(2) as i64),
    )?;
    let d_filters = ctx.op(
        "conv1d_bwd_filter",
        &[ctx.out_grad, data],
        Attrs::new()
            .with_int("stride", s as i64)
            .with_int("pad", p as i64)
            .with_int("dx", fsh.dim(2) as i64),
    )?;
    Ok(vec![Some(d_data), Some(d_filters)])
}

fn grad_pool2d(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let attrs = ctx.attrs.clone();
    let dx = ctx.op("pool2d_grad", &[ctx.out_grad, ctx.inputs[0]], attrs)?;
    Ok(vec![Some(dx)])
}

fn grad_gap(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let dx = ctx.op("gap_grad", &[ctx.out_grad, ctx.inputs[0]], Attrs::new())?;
    Ok(vec![Some(dx)])
}

// ---- Kernels -------------------------------------------------------------------

fn conv2d_params(attrs: &Attrs) -> Conv2dParams {
    let (stride, pad) = conv_params(attrs);
    Conv2dParams { stride, pad }
}

fn pool_params(attrs: &Attrs) -> PoolParams {
    let window = attrs.int_or("window", 2).max(1) as usize;
    PoolParams {
        kind: if attrs.str("mode") == Some("avg") { PoolKind::Avg } else { PoolKind::Max },
        window,
        stride: attrs.int_or("stride", window as i64).max(1) as usize,
    }
}

/// Lifts a rank-3 conv1d operand to rank-4 (height 1) so the conv2d kernels
/// can serve both.
fn lift_1d(t: &Tensor) -> Result<Tensor> {
    let d = t.shape().dims();
    Ok(t.reshape(Shape::new(vec![d[0], d[1], 1, d[2]]))?)
}

fn drop_h(t: &Tensor) -> Result<Tensor> {
    let d = t.shape().dims();
    Ok(t.reshape(Shape::new(vec![d[0], d[1], d[3]]))?)
}

fn kernel_conv1d(ins: &[&Tensor], attrs: &Attrs, _: &Shape) -> Result<Tensor> {
    let (stride, pad) = conv_params(attrs);
    Ok(ins[0].conv1d(ins[1], Conv1dParams { stride, pad })?)
}

fn kernel_conv1d_bwd_data(ins: &[&Tensor], attrs: &Attrs, out: &Shape) -> Result<Tensor> {
    let data_shape = Shape::new(vec![out.dim(0), out.dim(1), 1, out.dim(2)]);
    let (og, f) = (lift_1d(ins[0])?, lift_1d(ins[1])?);
    drop_h(&Tensor::conv2d_backward_data(&og, &f, &data_shape, conv2d_params(attrs))?)
}

fn kernel_conv1d_bwd_filter(ins: &[&Tensor], attrs: &Attrs, out: &Shape) -> Result<Tensor> {
    let fshape = Shape::new(vec![out.dim(0), out.dim(1), 1, out.dim(2)]);
    let (og, data) = (lift_1d(ins[0])?, lift_1d(ins[1])?);
    drop_h(&Tensor::conv2d_backward_filter(&og, &data, &fshape, conv2d_params(attrs))?)
}

/// Max-pool gradient routes to the window argmax; avg-pool distributes
/// equally.
fn pool2d_grad(out_grad: &Tensor, data: &Tensor, p: PoolParams) -> Result<Tensor> {
    let (b, c) = (data.shape().dim(0), data.shape().dim(1));
    let (oh, ow) = (out_grad.shape().dim(2), out_grad.shape().dim(3));
    let mut grad = Tensor::zeros(data.shape().clone());
    for ib in 0..b {
        for ic in 0..c {
            for iy in 0..oh {
                for ix in 0..ow {
                    let g = out_grad.at(&[ib, ic, iy, ix]);
                    match p.kind {
                        PoolKind::Max => {
                            let (mut best, mut best_idx) = (f32::NEG_INFINITY, (0, 0));
                            for dy in 0..p.window {
                                for dx in 0..p.window {
                                    let v = data
                                        .at(&[ib, ic, iy * p.stride + dy, ix * p.stride + dx]);
                                    if v > best {
                                        best = v;
                                        best_idx = (iy * p.stride + dy, ix * p.stride + dx);
                                    }
                                }
                            }
                            let idx = [ib, ic, best_idx.0, best_idx.1];
                            let v = grad.at(&idx) + g;
                            grad.set(&idx, v);
                        }
                        PoolKind::Avg => {
                            let share = g / (p.window * p.window) as f32;
                            for dy in 0..p.window {
                                for dx in 0..p.window {
                                    let idx =
                                        [ib, ic, iy * p.stride + dy, ix * p.stride + dx];
                                    let v = grad.at(&idx) + share;
                                    grad.set(&idx, v);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(grad)
}

/// `dIn[b, c, h, w] = dOut[b, c] / (H·W)`.
fn kernel_gap_grad(ins: &[&Tensor], _: &Attrs, _: &Shape) -> Result<Tensor> {
    let (og, data) = (ins[0], ins[1]);
    let (h, w) = (data.shape().dim(2), data.shape().dim(3));
    let norm = (h * w) as f32;
    let mut out = Tensor::zeros(data.shape().clone());
    for (flat, idx) in data.shape().clone().indices().enumerate() {
        out.data_mut()[flat] = og.at(&[idx[0], idx[1]]) / norm;
    }
    Ok(out)
}

// ---- Flops ----------------------------------------------------------------------

fn flops_conv2d(ins: &[Shape], out: &Shape, _: &Attrs) -> f64 {
    // 2 · |out| · ci · kh · kw.
    2.0 * out.volume() as f64 * (ins[1].dim(0) * ins[1].dim(2) * ins[1].dim(3)) as f64
}

fn flops_conv2d_bwd(ins: &[Shape], out: &Shape, attrs: &Attrs) -> f64 {
    // Symmetric cost to the forward pass.
    flops_conv2d(ins, out, attrs).max(2.0 * ins[0].volume() as f64)
}

fn flops_conv1d(ins: &[Shape], out: &Shape, _: &Attrs) -> f64 {
    2.0 * out.volume() as f64 * (ins[1].dim(0) * ins[1].dim(2)) as f64
}

fn flops_pool(_: &[Shape], out: &Shape, attrs: &Attrs) -> f64 {
    let window = attrs.int_or("window", 2).max(1) as f64;
    out.volume() as f64 * window * window
}

fn flops_vol(ins: &[Shape], out: &Shape, _: &Attrs) -> f64 {
    ins.iter().map(|s| s.volume()).max().unwrap_or(out.volume()) as f64
}

/// Returns the convolution/pooling operator definitions.
pub fn defs() -> Vec<OpDef> {
    vec![
        OpDef {
            name: "conv1d",
            category: OpCategory::Convolution,
            infer_shape: shape_conv1d,
            tdl: Some(tdl_conv1d),
            gradient: Some(grad_conv1d),
            flops: flops_conv1d,
            kernel: Some(Kernel::General(kernel_conv1d)),
        },
        OpDef {
            name: "conv1d_bwd_data",
            category: OpCategory::Convolution,
            infer_shape: shape_conv1d_bwd_data,
            tdl: Some(tdl_conv1d_bwd_data),
            gradient: None,
            flops: flops_conv1d,
            kernel: Some(Kernel::General(kernel_conv1d_bwd_data)),
        },
        OpDef {
            name: "conv1d_bwd_filter",
            category: OpCategory::Convolution,
            infer_shape: shape_conv1d_bwd_filter,
            tdl: Some(tdl_conv1d_bwd_filter),
            gradient: None,
            flops: flops_conv1d,
            kernel: Some(Kernel::General(kernel_conv1d_bwd_filter)),
        },
        OpDef {
            name: "conv2d",
            category: OpCategory::Convolution,
            infer_shape: shape_conv2d,
            tdl: Some(tdl_conv2d),
            gradient: Some(grad_conv2d),
            flops: flops_conv2d,
            kernel: Some(Kernel::General(|ins, attrs, _| Ok(ins[0].conv2d(ins[1], conv2d_params(attrs))?))),
        },
        OpDef {
            name: "conv2d_bwd_data",
            category: OpCategory::Convolution,
            infer_shape: shape_conv2d_bwd_data,
            tdl: Some(tdl_conv2d_bwd_data),
            gradient: None,
            flops: flops_conv2d_bwd,
            kernel: Some(Kernel::General(|ins, attrs, out| {
                Ok(Tensor::conv2d_backward_data(ins[0], ins[1], out, conv2d_params(attrs))?)
            })),
        },
        OpDef {
            name: "conv2d_bwd_filter",
            category: OpCategory::Convolution,
            infer_shape: shape_conv2d_bwd_filter,
            tdl: Some(tdl_conv2d_bwd_filter),
            gradient: None,
            flops: flops_conv2d_bwd,
            kernel: Some(Kernel::General(|ins, attrs, out| {
                Ok(Tensor::conv2d_backward_filter(ins[0], ins[1], out, conv2d_params(attrs))?)
            })),
        },
        OpDef {
            name: "pool2d",
            category: OpCategory::Convolution,
            infer_shape: shape_pool2d,
            tdl: Some(tdl_pool2d),
            gradient: Some(grad_pool2d),
            flops: flops_pool,
            kernel: Some(Kernel::General(|ins, attrs, _| Ok(ins[0].pool2d(pool_params(attrs))?))),
        },
        OpDef {
            name: "pool2d_grad",
            category: OpCategory::Convolution,
            infer_shape: shape_pool2d_grad,
            tdl: Some(tdl_pool2d_grad),
            gradient: None,
            flops: flops_pool,
            kernel: Some(Kernel::General(|ins, attrs, _| pool2d_grad(ins[0], ins[1], pool_params(attrs)))),
        },
        OpDef {
            name: "global_avg_pool",
            category: OpCategory::Reduction,
            infer_shape: shape_gap,
            tdl: Some(tdl_gap),
            gradient: Some(grad_gap),
            flops: flops_vol,
            kernel: Some(Kernel::General(|ins, _, _| Ok(ins[0].global_avg_pool()?))),
        },
        OpDef {
            name: "gap_grad",
            category: OpCategory::Reduction,
            infer_shape: shape_gap_grad,
            tdl: Some(tdl_gap_grad),
            gradient: None,
            flops: flops_vol,
            kernel: Some(Kernel::General(kernel_gap_grad)),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofu_tdl::{discover_strategies, InputRequirement};

    #[test]
    fn conv2d_shape_with_stride_and_pad() {
        let data = Shape::new(vec![2, 3, 8, 8]);
        let filt = Shape::new(vec![3, 16, 3, 3]);
        let attrs = Attrs::new().with_int("stride", 2).with_int("pad", 1);
        let out = shape_conv2d(&[data, filt], &attrs).unwrap();
        assert_eq!(out.dims(), &[2, 16, 4, 4]);
    }

    #[test]
    fn conv2d_shape_rejects_channel_mismatch() {
        let data = Shape::new(vec![2, 3, 8, 8]);
        let filt = Shape::new(vec![4, 16, 3, 3]);
        assert!(shape_conv2d(&[data, filt], &Attrs::new()).is_err());
    }

    #[test]
    fn conv2d_tdl_has_seven_strategies() {
        // b, co, y, x output splits + ci, ky, kx reduction splits.
        let desc = tdl_conv2d(&[], &Attrs::new()).unwrap();
        let s = discover_strategies(&desc).unwrap();
        assert_eq!(s.len(), 7);
        // Channel reduction strategy splits both data (dim 1) and filters
        // (dim 0) — Fig. 2(b).
        let ci = s.iter().find(|st| st.id == "reduce:ci").unwrap();
        assert!(matches!(ci.inputs[0], InputRequirement::Split { dim: 1, .. }));
        assert!(matches!(ci.inputs[1], InputRequirement::Split { dim: 0, .. }));
    }

    #[test]
    fn conv2d_bwd_filter_has_batch_reduction() {
        let desc = tdl_conv2d_bwd_filter(&[], &Attrs::new()).unwrap();
        let s = discover_strategies(&desc).unwrap();
        let batch = s.iter().find(|st| st.id == "reduce:b").expect("batch reduction strategy");
        assert!(batch.output.is_reduce());
        // Both dY and X are split along their batch dimension.
        assert!(matches!(batch.inputs[0], InputRequirement::Split { dim: 0, .. }));
        assert!(matches!(batch.inputs[1], InputRequirement::Split { dim: 0, .. }));
    }

    #[test]
    fn strided_bwd_data_spatial_split_works() {
        let attrs = Attrs::new().with_int("stride", 2).with_int("pad", 1);
        let desc = tdl_conv2d_bwd_data(&[], &attrs).unwrap();
        let s = discover_strategies(&desc).unwrap();
        let h_split = s.iter().find(|st| st.id == "split:h").unwrap();
        // dY is split along its spatial dim with a halo.
        match &h_split.inputs[0] {
            InputRequirement::Split { dim: 2, halo } => assert!(!halo.is_zero()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pool_max_uses_max_reducer() {
        let desc = tdl_pool2d(&[], &Attrs::new()).unwrap();
        let s = discover_strategies(&desc).unwrap();
        let red = s.iter().find(|st| st.output.is_reduce()).unwrap();
        match &red.output {
            tofu_tdl::OutputPartition::Reduce { reducer } => {
                assert_eq!(*reducer, Reducer::Max)
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn gap_grad_spatial_dims_replicate_outgrad() {
        let desc = tdl_gap_grad(&[], &Attrs::new()).unwrap();
        let s = discover_strategies(&desc).unwrap();
        // Splitting h (dim 2): dOut (b, c) is untouched -> replicated.
        assert_eq!(s[2].inputs[0], InputRequirement::Replicated);
        // Splitting b: dOut splits along batch.
        assert!(matches!(s[0].inputs[0], InputRequirement::Split { dim: 0, .. }));
    }

    #[test]
    fn bwd_shapes_roundtrip_forward() {
        let data = Shape::new(vec![2, 3, 8, 8]);
        let filt = Shape::new(vec![3, 16, 3, 3]);
        let attrs = Attrs::new().with_int("stride", 2).with_int("pad", 1);
        let out = shape_conv2d(&[data.clone(), filt.clone()], &attrs).unwrap();
        let d_data = shape_conv2d_bwd_data(
            &[out.clone(), filt.clone()],
            &attrs.clone().with_int("in_h", 8).with_int("in_w", 8),
        )
        .unwrap();
        assert_eq!(d_data, data);
        let d_filt = shape_conv2d_bwd_filter(
            &[out, data],
            &attrs.with_int("kh", 3).with_int("kw", 3),
        )
        .unwrap();
        assert_eq!(d_filt, filt);
    }

    #[test]
    fn pool_max_grad_routes_to_argmax() {
        let data =
            Tensor::from_vec(Shape::new(vec![1, 1, 2, 2]), vec![1., 5., 3., 2.]).unwrap();
        let og = Tensor::from_vec(Shape::new(vec![1, 1, 1, 1]), vec![10.0]).unwrap();
        let g = pool2d_grad(&og, &data, PoolParams { kind: PoolKind::Max, window: 2, stride: 2 })
            .unwrap();
        assert_eq!(g.data(), &[0., 10., 0., 0.]);
    }

    #[test]
    fn pool_avg_grad_distributes() {
        let data = Tensor::full(Shape::new(vec![1, 1, 2, 2]), 1.0);
        let og = Tensor::from_vec(Shape::new(vec![1, 1, 1, 1]), vec![8.0]).unwrap();
        let g = pool2d_grad(&og, &data, PoolParams { kind: PoolKind::Avg, window: 2, stride: 2 })
            .unwrap();
        assert_eq!(g.data(), &[2.0; 4]);
    }
}
