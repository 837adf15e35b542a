//! Convolution and pooling operators, forward and backward.
//!
//! Layouts match the paper's Fig. 1/Fig. 3: `data (b, ci, [h,] w)` and
//! `filters (ci, co, [kh,] kw)`. The backward operators carry their own TDL
//! descriptions so the partitioner can split them independently of the
//! forward pass (the coarsening pass then groups forward and backward
//! operators, §5.1). Strided backward-data descriptions use rational index
//! coefficients (`1/s`), which are region-exact for the interval analysis.
//!
//! Each convolution direction — forward, `bwd_data`, `bwd_filter` — is
//! written once over its spatial rank `R` (1 for `conv1d`, 2 for `conv2d`);
//! `RANKS` holds the names each rank gives its variables and attributes.

use tofu_tdl::{builder::Idx, DescBuilder, Exp, Reducer, TdlDesc, Var};
use tofu_tensor::{Conv2dParams, PoolKind, PoolParams, Shape, Tensor};

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

/// The names one spatial rank gives its convolutions, variables and
/// attributes.
struct Rank {
    /// Forward, `bwd_data` and `bwd_filter`.
    ops: [&'static str; 3],
    /// Output positions of the forward (and the sum of `bwd_filter`).
    pos: &'static [&'static str],
    /// Filter taps.
    taps: &'static [&'static str],
    /// Output positions of `bwd_data`.
    data: &'static [&'static str],
    /// `bwd_data`'s attributes: the data's spatial extents.
    in_attrs: &'static [&'static str],
    /// `bwd_filter`'s attributes: the filter's spatial extents.
    tap_attrs: &'static [&'static str],
}

/// Spatial rank `R` is `RANKS[R - 1]`.
const RANKS: [Rank; 2] = [
    Rank {
        ops: ["conv1d", "conv1d_bwd_data", "conv1d_bwd_filter"],
        pos: &["x"],
        taps: &["dx"],
        data: &["x"],
        in_attrs: &["in_x"],
        tap_attrs: &["dx"],
    },
    Rank {
        ops: ["conv2d", "conv2d_bwd_data", "conv2d_bwd_filter"],
        pos: &["y", "x"],
        taps: &["ky", "kx"],
        data: &["h", "w"],
        in_attrs: &["in_h", "in_w"],
        tap_attrs: &["kh", "kw"],
    },
];

// ---- Shape inference -------------------------------------------------------

/// Fails unless `ins` are two operands of rank `R + 2`; the message names
/// convolution `op` of the rank (0 forward, 1 `bwd_data`, 2 `bwd_filter`).
fn expect_operands<const R: usize>(
    ins: &[Shape],
    op: usize,
    what: &str,
) -> std::result::Result<(), String> {
    if ins.len() != 2 || ins.iter().any(|s| s.rank() != R + 2) {
        return Err(format!("{} expects rank-{} {what}", RANKS[R - 1].ops[op], R + 2));
    }
    Ok(())
}

/// `[n, c]` followed by one extent per spatial dim.
fn spatial_shape<const R: usize>(
    n: usize,
    c: usize,
    mut extent: impl FnMut(usize) -> std::result::Result<usize, String>,
) -> std::result::Result<Shape, String> {
    let mut dims = Vec::with_capacity(R + 2);
    dims.extend([n, c]);
    for d in 0..R {
        dims.push(extent(d)?);
    }
    Ok(Shape::new(dims))
}

fn shape_conv<const R: usize>(ins: &[Shape], attrs: &Attrs) -> std::result::Result<Shape, String> {
    expect_operands::<R>(ins, 0, "data and filters")?;
    if ins[0].dim(1) != ins[1].dim(0) {
        return Err(format!("channel mismatch {} vs {}", ins[0].dim(1), ins[1].dim(0)));
    }
    let (s, p) = conv_params(attrs);
    spatial_shape::<R>(ins[0].dim(0), ins[1].dim(1), |d| {
        Ok(out_extent(ins[0].dim(2 + d), ins[1].dim(2 + d), s, p))
    })
}

/// The integer attribute `name`, or an error naming it.
fn extent_attr(attrs: &Attrs, name: &str) -> std::result::Result<usize, String> {
    Ok(attrs.int(name).ok_or_else(|| format!("missing {name} attribute"))? as usize)
}

fn shape_conv_bwd_data<const R: usize>(
    ins: &[Shape],
    attrs: &Attrs,
) -> std::result::Result<Shape, String> {
    // Inputs: out_grad (b, co, [oh,] ow), filters (ci, co, [kh,] kw); the
    // data extents are attributes because they cannot be recovered from the
    // output extent alone under striding.
    expect_operands::<R>(ins, 1, "out_grad and filters")?;
    let names = RANKS[R - 1].in_attrs;
    spatial_shape::<R>(ins[0].dim(0), ins[1].dim(0), |d| extent_attr(attrs, names[d]))
}

fn shape_conv_bwd_filter<const R: usize>(
    ins: &[Shape],
    attrs: &Attrs,
) -> std::result::Result<Shape, String> {
    // Inputs: out_grad (b, co, [oh,] ow), data (b, ci, [h,] w).
    expect_operands::<R>(ins, 2, "out_grad and data")?;
    let names = RANKS[R - 1].tap_attrs;
    spatial_shape::<R>(ins[1].dim(1), ins[0].dim(1), |d| extent_attr(attrs, names[d]))
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

/// Declares one output (or reduce) variable per name.
fn declare<const R: usize>(b: &mut DescBuilder, names: &[&str], output: bool) -> [Var; R] {
    std::array::from_fn(|d| if output { b.output_var(names[d]) } else { b.reduce_var(names[d]) })
}

/// Reads `input` at `[n, c, spatial…]`.
fn read<const R: usize>(b: &DescBuilder, input: usize, n: Var, c: Var, spatial: [Idx; R]) -> Exp {
    let mut coords: [Idx; 4] = [n.at(), c.at(), Idx::full(), Idx::full()];
    for (coord, idx) in coords[2..].iter_mut().zip(spatial) {
        *coord = idx;
    }
    b.input(input, &coords[..R + 2])
}

fn tdl_conv<const R: usize>(_: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    // out[b, co, x…] = Σ_{ci,dx…} X[b, ci, x·s+dx-p…] · F[ci, co, dx…]
    let (s, p) = conv_params(attrs);
    let names = &RANKS[R - 1];
    let mut b = DescBuilder::new(names.ops[0], &[R + 2, R + 2]);
    let (bb, co) = (b.output_var("b"), b.output_var("co"));
    let pos = declare::<R>(&mut b, names.pos, true);
    let ci = b.reduce_var("ci");
    let taps = declare::<R>(&mut b, names.taps, false);
    let window: [Idx; R] =
        std::array::from_fn(|d| pos[d].at() * s as i64 + taps[d].at() - p as i64);
    let body = read(&b, 0, bb, ci, window) * read(&b, 1, ci, co, taps.map(Var::at));
    b.build_reduce(Reducer::Sum, body).ok()
}

fn tdl_conv_bwd_data<const R: usize>(_: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    // dX[b, ci, h…] = Σ_{co,ky…} dY[b, co, (h - ky + p)/s…] · F[ci, co, ky…]
    let (s, p) = conv_params(attrs);
    let names = &RANKS[R - 1];
    let mut b = DescBuilder::new(names.ops[1], &[R + 2, R + 2]);
    let (bb, ci) = (b.output_var("b"), b.output_var("ci"));
    let data = declare::<R>(&mut b, names.data, true);
    let co = b.reduce_var("co");
    let taps = declare::<R>(&mut b, names.taps, false);
    let window: [Idx; R] =
        std::array::from_fn(|d| ((data[d].at() - taps[d].at()) + p as i64).div(s as i64));
    let body = read(&b, 0, bb, co, window) * read(&b, 1, ci, co, taps.map(Var::at));
    b.build_reduce(Reducer::Sum, body).ok()
}

fn tdl_conv_bwd_filter<const R: usize>(_: &[Shape], attrs: &Attrs) -> Option<TdlDesc> {
    // dF[ci, co, ky…] = Σ_{b,y…} dY[b, co, y…] · X[b, ci, y·s+ky-p…]
    //
    // The reduction over the batch dimension b is exactly the "hidden"
    // strategy the paper highlights: weight gradients can be computed by
    // batch-splitting and then output-reducing (§7.3).
    let (s, p) = conv_params(attrs);
    let names = &RANKS[R - 1];
    let mut b = DescBuilder::new(names.ops[2], &[R + 2, R + 2]);
    let (ci, co) = (b.output_var("ci"), b.output_var("co"));
    let taps = declare::<R>(&mut b, names.taps, true);
    let bb = b.reduce_var("b");
    let pos = declare::<R>(&mut b, names.pos, false);
    let window: [Idx; R] =
        std::array::from_fn(|d| pos[d].at() * s as i64 + taps[d].at() - p as i64);
    let body = read(&b, 0, bb, co, pos.map(Var::at)) * read(&b, 1, bb, ci, window);
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

fn grad_conv<const R: usize>(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let names = &RANKS[R - 1];
    let (data, filters) = (ctx.inputs[0], ctx.inputs[1]);
    let (dsh, fsh) = (ctx.shape(data), ctx.shape(filters));
    let (s, p) = conv_params(&ctx.attrs);
    let sp = Attrs::new().with_int("stride", s as i64).with_int("pad", p as i64);
    let (mut data_attrs, mut filter_attrs) = (sp.clone(), sp);
    for d in 0..R {
        data_attrs = data_attrs.with_int(names.in_attrs[d], dsh.dim(2 + d) as i64);
        filter_attrs = filter_attrs.with_int(names.tap_attrs[d], fsh.dim(2 + d) as i64);
    }
    let d_data = ctx.op(names.ops[1], &[ctx.out_grad, filters], data_attrs)?;
    let d_filters = ctx.op(names.ops[2], &[ctx.out_grad, data], filter_attrs)?;
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

fn kernel_conv(ins: &[&Tensor], attrs: &Attrs, _: &Shape) -> Result<Tensor> {
    Ok(ins[0].conv2d(ins[1], conv2d_params(attrs))?)
}

fn kernel_conv_bwd_data(ins: &[&Tensor], attrs: &Attrs, out: &Shape) -> Result<Tensor> {
    Ok(Tensor::conv2d_backward_data(ins[0], ins[1], out, conv2d_params(attrs))?)
}

fn kernel_conv_bwd_filter(ins: &[&Tensor], attrs: &Attrs, out: &Shape) -> Result<Tensor> {
    Ok(Tensor::conv2d_backward_filter(ins[0], ins[1], out, conv2d_params(attrs))?)
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

fn flops_conv(ins: &[Shape], out: &Shape, _: &Attrs) -> f64 {
    // 2 · |out| · ci · kh · kw (the spatial dims of the second operand).
    let taps: usize = ins[1].dims()[2..].iter().product();
    2.0 * out.volume() as f64 * (ins[1].dim(0) * taps) as f64
}

fn flops_conv_bwd(ins: &[Shape], out: &Shape, attrs: &Attrs) -> f64 {
    // Symmetric cost to the forward pass.
    flops_conv(ins, out, attrs).max(2.0 * ins[0].volume() as f64)
}

fn flops_pool(_: &[Shape], out: &Shape, attrs: &Attrs) -> f64 {
    let window = attrs.int_or("window", 2).max(1) as f64;
    out.volume() as f64 * window * window
}

fn flops_vol(ins: &[Shape], out: &Shape, _: &Attrs) -> f64 {
    ins.iter().map(|s| s.volume()).max().unwrap_or(out.volume()) as f64
}

/// The forward, `bwd_data` and `bwd_filter` convolutions of spatial rank `R`.
fn conv_defs<const R: usize>() -> [OpDef; 3] {
    let [fwd, data, filter] = RANKS[R - 1].ops;
    [
        OpDef {
            name: fwd,
            category: OpCategory::Convolution,
            infer_shape: shape_conv::<R>,
            tdl: Some(tdl_conv::<R>),
            gradient: Some(grad_conv::<R>),
            flops: flops_conv,
            kernel: Some(Kernel::General(kernel_conv)),
        },
        OpDef {
            name: data,
            category: OpCategory::Convolution,
            infer_shape: shape_conv_bwd_data::<R>,
            tdl: Some(tdl_conv_bwd_data::<R>),
            gradient: None,
            flops: flops_conv_bwd,
            kernel: Some(Kernel::General(kernel_conv_bwd_data)),
        },
        OpDef {
            name: filter,
            category: OpCategory::Convolution,
            infer_shape: shape_conv_bwd_filter::<R>,
            tdl: Some(tdl_conv_bwd_filter::<R>),
            gradient: None,
            flops: flops_conv_bwd,
            kernel: Some(Kernel::General(kernel_conv_bwd_filter)),
        },
    ]
}

/// Returns the convolution/pooling operator definitions.
pub(crate) fn defs() -> Vec<OpDef> {
    let mut defs = Vec::from(conv_defs::<1>());
    defs.extend(conv_defs::<2>());
    defs.extend([
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
    ]);
    defs
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofu_tdl::{discover_strategies, InputRequirement, OutputPartition};

    #[test]
    fn conv2d_shape_with_stride_and_pad() {
        let data = Shape::new(vec![2, 3, 8, 8]);
        let filt = Shape::new(vec![3, 16, 3, 3]);
        let attrs = Attrs::new().with_int("stride", 2).with_int("pad", 1);
        let out = shape_conv::<2>(&[data, filt], &attrs).unwrap();
        assert_eq!(out.dims(), &[2, 16, 4, 4]);
    }

    #[test]
    fn conv2d_shape_rejects_channel_mismatch() {
        let data = Shape::new(vec![2, 3, 8, 8]);
        let filt = Shape::new(vec![4, 16, 3, 3]);
        assert!(shape_conv::<2>(&[data, filt], &Attrs::new()).is_err());
    }

    #[test]
    fn conv2d_tdl_has_seven_strategies() {
        // b, co, y, x output splits + ci, ky, kx reduction splits.
        let desc = tdl_conv::<2>(&[], &Attrs::new()).unwrap();
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
        let desc = tdl_conv_bwd_filter::<2>(&[], &Attrs::new()).unwrap();
        let s = discover_strategies(&desc).unwrap();
        let batch = s.iter().find(|st| st.id == "reduce:b").expect("batch reduction strategy");
        assert!(matches!(batch.output, OutputPartition::Reduce { .. }));
        // Both dY and X are split along their batch dimension.
        assert!(matches!(batch.inputs[0], InputRequirement::Split { dim: 0, .. }));
        assert!(matches!(batch.inputs[1], InputRequirement::Split { dim: 0, .. }));
    }

    #[test]
    fn strided_bwd_data_spatial_split_works() {
        let attrs = Attrs::new().with_int("stride", 2).with_int("pad", 1);
        let desc = tdl_conv_bwd_data::<2>(&[], &attrs).unwrap();
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
        let red = s.iter().find(|st| matches!(st.output, OutputPartition::Reduce { .. })).unwrap();
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
        let out = shape_conv::<2>(&[data.clone(), filt.clone()], &attrs).unwrap();
        let d_data = shape_conv_bwd_data::<2>(
            &[out.clone(), filt.clone()],
            &attrs.clone().with_int("in_h", 8).with_int("in_w", 8),
        )
        .unwrap();
        assert_eq!(d_data, data);
        let d_filt = shape_conv_bwd_filter::<2>(
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
