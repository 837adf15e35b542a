//! The element-wise operator family.
//!
//! The paper counts 77 element-wise operators among MXNet v0.11's 139 (§4.1);
//! this catalogue mirrors that breadth. Every operator here is describable by
//! a rank-generic identity-access TDL description, so all of them partition
//! cleanly along any dimension and are coalesced by coarsening (§5.1).

use tofu_tensor::{Shape, Tensor};

use crate::attrs::Attrs;
use crate::ops::{flops_per_elem, shape_like_first, shape_same_all, tdl_ewise1, tdl_ewise2, tdl_ewise_n};
use crate::graph::TensorId;
use crate::registry::{GradCtx, GradFn, Kernel, KernelFn, OpCategory, OpDef, ShapeFn, TdlFn};

use crate::Result;

/// One element-wise operator: its name, its per-element kernel and its
/// gradient builder, if differentiable.
type Entry<F> = (&'static str, F, Option<GradFn>);
type Unary = fn(f32) -> f32;
type Binary = fn(f32, f32) -> f32;

/// The unary operators, `y = f(x)`.
// The gelu/erf constants are quoted verbatim from their reference texts
// (Hendrycks-Gimpel, Abramowitz-Stegun); rounding them to f32 width by hand
// only invites transcription errors.
#[allow(clippy::excessive_precision)]
const UNARY: &[Entry<Unary>] = &[
    ("relu", |x| x.max(0.0), Some(grad_relu)),
    ("sigmoid", |x| 1.0 / (1.0 + (-x).exp()), Some(grad_sigmoid)),
    ("tanh", f32::tanh, Some(grad_tanh)),
    ("exp", f32::exp, Some(grad_exp)),
    ("log", f32::ln, Some(grad_log)),
    ("sqrt", f32::sqrt, None),
    ("square", |x| x * x, Some(grad_square)),
    ("negative", |x| -x, Some(grad_negative)),
    ("abs", f32::abs, None),
    ("reciprocal", |x| 1.0 / x, None),
    ("sin", f32::sin, None),
    ("cos", f32::cos, None),
    ("tan", f32::tan, None),
    ("arcsin", f32::asin, None),
    ("arccos", f32::acos, None),
    ("arctan", f32::atan, None),
    ("sinh", f32::sinh, None),
    ("cosh", f32::cosh, None),
    ("arcsinh", f32::asinh, None),
    ("arccosh", f32::acosh, None),
    ("arctanh", f32::atanh, None),
    ("floor", f32::floor, None),
    ("ceil", f32::ceil, None),
    ("round", f32::round, None),
    ("trunc", f32::trunc, None),
    ("sign", f32::signum, None),
    ("log2", f32::log2, None),
    ("log10", f32::log10, None),
    ("log1p", f32::ln_1p, None),
    ("expm1", f32::exp_m1, None),
    ("rsqrt", |x| 1.0 / x.sqrt(), None),
    ("cbrt", f32::cbrt, None),
    ("rcbrt", |x| 1.0 / x.cbrt(), None),
    ("degrees", f32::to_degrees, None),
    ("radians", f32::to_radians, None),
    ("relu6", |x| x.clamp(0.0, 6.0), None),
    ("elu", |x| if x > 0.0 { x } else { x.exp() - 1.0 }, None),
    ("gelu", |x| 0.5 * x * (1.0 + (0.7978845608 * (x + 0.044715 * x * x * x)).tanh()), None),
    ("softrelu", |x| (1.0 + x.exp()).ln(), None),
    ("softsign", |x| x / (1.0 + x.abs()), None),
    ("swish", |x| x / (1.0 + (-x).exp()), None),
    ("hard_sigmoid", |x| (0.2 * x + 0.5).clamp(0.0, 1.0), None),
    (
        "erf",
        |x| {
            // Abramowitz-Stegun 7.1.26 approximation.
            let t = 1.0 / (1.0 + 0.3275911 * x.abs());
            let y = 1.0
                - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736)
                    * t
                    + 0.254829592)
                    * t
                    * (-x * x).exp();
            y.copysign(x)
        },
        None,
    ),
    ("mish", |x| x * ((1.0 + x.exp()).ln()).tanh(), None),
    ("selu", |x| 1.0507 * if x > 0.0 { x } else { 1.67326 * (x.exp() - 1.0) }, None),
    ("hard_swish", |x| x * (x + 3.0).clamp(0.0, 6.0) / 6.0, None),
    ("logistic", |x| 1.0 / (1.0 + (-x).exp()), Some(grad_sigmoid)),
    ("zeros_like", |_| 0.0, None),
    ("ones_like", |_| 1.0, None),
    (
        "gamma_ln",
        |x| {
            // Stirling approximation; adequate for catalogue completeness.
            if x <= 0.0 {
                f32::NAN
            } else {
                (x - 0.5) * x.ln() - x + 0.9189385
            }
        },
        None,
    ),
];

/// The binary operators, `y = f(a, b)` over two same-shape operands.
const BINARY: &[Entry<Binary>] = &[
    ("add", |a, b| a + b, Some(grad_add)),
    ("sub", |a, b| a - b, Some(grad_sub)),
    ("mul", |a, b| a * b, Some(grad_mul)),
    ("div", |a, b| a / b, Some(grad_div)),
    ("maximum", f32::max, None),
    ("minimum", f32::min, None),
    ("pow", f32::powf, None),
    ("mod", |a, b| a % b, None),
    ("hypot", f32::hypot, None),
    ("squared_difference", |a, b| (a - b) * (a - b), None),
    ("arctan2", f32::atan2, None),
    (
        "logaddexp",
        |a, b| {
            let m = a.max(b);
            m + ((a - m).exp() + (b - m).exp()).ln()
        },
        None,
    ),
    // Gradient helpers (element-wise over two same-shape tensors).
    ("relu_grad", |dy, x| if x > 0.0 { dy } else { 0.0 }, None),
    ("sigmoid_grad", |dy, y| dy * y * (1.0 - y), None),
    ("tanh_grad", |dy, y| dy * (1.0 - y * y), None),
];

/// The scalar-attribute operators, `y = f(x, k)` with `k` the `"scalar"`
/// attribute.
const SCALAR: &[Entry<Binary>] = &[
    ("add_scalar", |x, k| x + k, Some(grad_identity)),
    ("sub_scalar", |x, k| x - k, Some(grad_identity)),
    ("rsub_scalar", |x, k| k - x, None),
    ("mul_scalar", |x, k| x * k, Some(grad_scalar_mul)),
    ("div_scalar", |x, k| x / k, Some(grad_scalar_div)),
    ("rdiv_scalar", |x, k| k / x, None),
    ("pow_scalar", |x, k| x.powf(k), None),
    ("leaky_relu", |x, k| if x > 0.0 { x } else { k * x }, None),
    ("clip_max", |x, k| x.min(k), None),
    ("clip_min", |x, k| x.max(k), None),
];

// ---- Gradient builders ----------------------------------------------------

fn grad_add(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    Ok(vec![Some(ctx.out_grad), Some(ctx.out_grad)])
}

fn grad_sub(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let neg = ctx.op("negative", &[ctx.out_grad], Attrs::new())?;
    Ok(vec![Some(ctx.out_grad), Some(neg)])
}

fn grad_mul(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let (a, b) = (ctx.inputs[0], ctx.inputs[1]);
    let da = ctx.op("mul", &[ctx.out_grad, b], Attrs::new())?;
    let db = ctx.op("mul", &[ctx.out_grad, a], Attrs::new())?;
    Ok(vec![Some(da), Some(db)])
}

fn grad_div(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let (a, b) = (ctx.inputs[0], ctx.inputs[1]);
    let da = ctx.op("div", &[ctx.out_grad, b], Attrs::new())?;
    let num = ctx.op("mul", &[ctx.out_grad, a], Attrs::new())?;
    let b2 = ctx.op("mul", &[b, b], Attrs::new())?;
    let frac = ctx.op("div", &[num, b2], Attrs::new())?;
    let db = ctx.op("negative", &[frac], Attrs::new())?;
    Ok(vec![Some(da), Some(db)])
}

fn grad_relu(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let dx = ctx.op("relu_grad", &[ctx.out_grad, ctx.inputs[0]], Attrs::new())?;
    Ok(vec![Some(dx)])
}

fn grad_sigmoid(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let dx = ctx.op("sigmoid_grad", &[ctx.out_grad, ctx.output], Attrs::new())?;
    Ok(vec![Some(dx)])
}

fn grad_tanh(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let dx = ctx.op("tanh_grad", &[ctx.out_grad, ctx.output], Attrs::new())?;
    Ok(vec![Some(dx)])
}

fn grad_exp(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let dx = ctx.op("mul", &[ctx.out_grad, ctx.output], Attrs::new())?;
    Ok(vec![Some(dx)])
}

fn grad_log(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let dx = ctx.op("div", &[ctx.out_grad, ctx.inputs[0]], Attrs::new())?;
    Ok(vec![Some(dx)])
}

fn grad_negative(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let dx = ctx.op("negative", &[ctx.out_grad], Attrs::new())?;
    Ok(vec![Some(dx)])
}

fn grad_square(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let two_x = ctx.op("mul_scalar", &[ctx.inputs[0]], Attrs::new().with_float("scalar", 2.0))?;
    let dx = ctx.op("mul", &[ctx.out_grad, two_x], Attrs::new())?;
    Ok(vec![Some(dx)])
}

fn grad_identity(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    Ok(vec![Some(ctx.out_grad)])
}

fn grad_scalar_mul(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let k = ctx.attrs.float("scalar").unwrap_or(1.0);
    let dx = ctx.op("mul_scalar", &[ctx.out_grad], Attrs::new().with_float("scalar", k))?;
    Ok(vec![Some(dx)])
}

/// `y = x / k` ⇒ `dx = dy / k`. (Sharing `grad_scalar_mul` here would scale
/// the gradient by `k²`; the finite-difference oracle in
/// `tests/gradcheck.rs` guards this.)
fn grad_scalar_div(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let k = ctx.attrs.float("scalar").unwrap_or(1.0);
    let dx = ctx.op("div_scalar", &[ctx.out_grad], Attrs::new().with_float("scalar", k))?;
    Ok(vec![Some(dx)])
}

fn grad_add_n(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    Ok(vec![Some(ctx.out_grad); ctx.inputs.len()])
}

// ---- Kernels --------------------------------------------------------------

fn kernel_identity(ins: &[&Tensor], _: &Attrs, _: &Shape) -> Result<Tensor> {
    Ok(ins[0].clone())
}

fn kernel_add_n(ins: &[&Tensor], _: &Attrs, _: &Shape) -> Result<Tensor> {
    let mut acc = ins[0].clone();
    for t in &ins[1..] {
        acc = acc.add(t)?;
    }
    Ok(acc)
}

/// `w - lr·g`: plain SGD, and the momentum and Adagrad updates, whose
/// history inputs ride along unused.
fn kernel_sgd(ins: &[&Tensor], attrs: &Attrs, _: &Shape) -> Result<Tensor> {
    let lr = attrs.float("lr").unwrap_or(0.01) as f32;
    Ok(ins[0].zip(ins[1], |w, g| w - lr * g)?)
}

/// Simplified Adam step: the history tensors ride along as inputs 2 and 3
/// but the update is computed from fresh moments.
fn kernel_adam(ins: &[&Tensor], attrs: &Attrs, _: &Shape) -> Result<Tensor> {
    let lr = attrs.float("lr").unwrap_or(0.001) as f32;
    let eps = 1e-8f32;
    Ok(ins[0].zip(ins[1], move |w, g| w - lr * g / (g.abs() + eps))?)
}

// ---- Definitions ----------------------------------------------------------

fn def(
    name: &'static str,
    category: OpCategory,
    infer_shape: ShapeFn,
    tdl: TdlFn,
    gradient: Option<GradFn>,
    kernel: Kernel,
) -> OpDef {
    let (tdl, flops, kernel) = (Some(tdl), flops_per_elem, Some(kernel));
    OpDef { name, category, infer_shape, tdl, gradient, flops, kernel }
}

fn shape_sgd(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() < 2 {
        return Err("optimizer update expects weight and gradient".into());
    }
    if ins[0] != ins[1] {
        return Err(format!("weight shape {} differs from gradient shape {}", ins[0], ins[1]));
    }
    Ok(ins[0].clone())
}

/// Returns the element-wise operator definitions.
pub(crate) fn defs() -> Vec<OpDef> {
    use OpCategory::{Data, Elementwise, Optimizer};
    let mut out = Vec::new();
    for &(name, f, gradient) in UNARY {
        out.push(def(name, Elementwise, shape_like_first, tdl_ewise1, gradient, Kernel::Unary(f)));
    }
    for &(name, f, gradient) in BINARY {
        out.push(def(name, Elementwise, shape_same_all, tdl_ewise2, gradient, Kernel::Binary(f)));
    }
    for &(name, f, gradient) in SCALAR {
        out.push(def(name, Elementwise, shape_like_first, tdl_ewise1, gradient, Kernel::Scalar(f)));
    }
    // Identity / copy and n-ary gradient aggregation.
    let (identity, add_n) = (Kernel::General(kernel_identity), Kernel::General(kernel_add_n));
    out.push(def("identity", Elementwise, shape_like_first, tdl_ewise1, Some(grad_identity), identity));
    out.push(def("copy", Data, shape_like_first, tdl_ewise1, Some(grad_identity), identity));
    out.push(def("add_n", Elementwise, shape_same_all, tdl_ewise_n, Some(grad_add_n), add_n));
    // Optimizer updates — "almost all gradient-based optimizers are composed
    // of only element-wise operators" (§5.1).
    for (name, kernel) in [
        ("sgd_update", kernel_sgd as KernelFn),
        ("sgd_momentum_update", kernel_sgd),
        ("adam_update", kernel_adam),
        ("adagrad_update", kernel_sgd),
    ] {
        out.push(def(name, Optimizer, shape_sgd, tdl_ewise_n, None, Kernel::General(kernel)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_size_matches_paper_scale() {
        // 77 element-wise operators in MXNet v0.11 per §4.1.
        let n = defs().len();
        assert!(n >= 75, "element-wise family has {n} ops");
    }

    fn find<F: Copy>(table: &[Entry<F>], name: &str) -> F {
        table.iter().find(|e| e.0 == name).unwrap().1
    }

    #[test]
    fn kernels_compute_expected_values() {
        let relu = find(UNARY, "relu");
        assert_eq!(relu(-1.0), 0.0);
        assert_eq!(relu(2.0), 2.0);
        let pow = find(BINARY, "pow");
        assert_eq!(pow(2.0, 3.0), 8.0);
        let leaky = find(SCALAR, "leaky_relu");
        assert_eq!(leaky(-2.0, 0.1), -0.2);
        assert_eq!(leaky(2.0, 0.1), 2.0);
    }

    #[test]
    fn erf_is_odd_and_bounded() {
        let erf = find(UNARY, "erf");
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427).abs() < 1e-3);
        assert!((erf(-1.0) + 0.8427).abs() < 1e-3);
        assert!(erf(10.0) <= 1.0);
    }

    #[test]
    fn grad_kernels_match_derivatives() {
        let sg = find(BINARY, "sigmoid_grad");
        // d/dx sigmoid at 0 = 0.25; y = 0.5.
        assert!((sg(1.0, 0.5) - 0.25).abs() < 1e-6);
        let tg = find(BINARY, "tanh_grad");
        assert!((tg(1.0, 0.0) - 1.0).abs() < 1e-6);
    }
}
