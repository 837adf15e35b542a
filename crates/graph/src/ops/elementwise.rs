//! The element-wise operator family.
//!
//! The paper counts 77 element-wise operators among MXNet v0.11's 139 (§4.1);
//! this catalogue mirrors that breadth. Every operator here is describable by
//! a rank-generic identity-access TDL description, so all of them partition
//! cleanly along any dimension and are coalesced by coarsening (§5.1).

use tofu_tensor::Shape;

use crate::attrs::Attrs;
use crate::ops::{flops_per_elem, shape_like_first, shape_same_all, tdl_ewise1, tdl_ewise2, tdl_ewise_n};
use crate::graph::TensorId;
use crate::registry::{GradCtx, OpCategory, OpDef};

use crate::Result;

/// A named unary scalar kernel.
pub type UnaryKernel = (&'static str, fn(f32) -> f32);

/// A named binary scalar kernel.
pub type BinaryKernel = (&'static str, fn(f32, f32) -> f32);

/// The unary scalar kernel table, shared with the executor.
// The gelu/erf constants are quoted verbatim from their reference texts
// (Hendrycks-Gimpel, Abramowitz-Stegun); rounding them to f32 width by hand
// only invites transcription errors.
#[allow(clippy::excessive_precision)]
pub const UNARY_KERNELS: &[UnaryKernel] = &[
    ("relu", |x| x.max(0.0)),
    ("sigmoid", |x| 1.0 / (1.0 + (-x).exp())),
    ("tanh", f32::tanh),
    ("exp", f32::exp),
    ("log", f32::ln),
    ("sqrt", f32::sqrt),
    ("square", |x| x * x),
    ("negative", |x| -x),
    ("abs", f32::abs),
    ("reciprocal", |x| 1.0 / x),
    ("sin", f32::sin),
    ("cos", f32::cos),
    ("tan", f32::tan),
    ("arcsin", f32::asin),
    ("arccos", f32::acos),
    ("arctan", f32::atan),
    ("sinh", f32::sinh),
    ("cosh", f32::cosh),
    ("arcsinh", f32::asinh),
    ("arccosh", f32::acosh),
    ("arctanh", f32::atanh),
    ("floor", f32::floor),
    ("ceil", f32::ceil),
    ("round", f32::round),
    ("trunc", f32::trunc),
    ("sign", f32::signum),
    ("log2", f32::log2),
    ("log10", f32::log10),
    ("log1p", f32::ln_1p),
    ("expm1", f32::exp_m1),
    ("rsqrt", |x| 1.0 / x.sqrt()),
    ("cbrt", f32::cbrt),
    ("rcbrt", |x| 1.0 / x.cbrt()),
    ("degrees", f32::to_degrees),
    ("radians", f32::to_radians),
    ("relu6", |x| x.clamp(0.0, 6.0)),
    ("elu", |x| if x > 0.0 { x } else { x.exp() - 1.0 }),
    ("gelu", |x| 0.5 * x * (1.0 + (0.7978845608 * (x + 0.044715 * x * x * x)).tanh())),
    ("softrelu", |x| (1.0 + x.exp()).ln()),
    ("softsign", |x| x / (1.0 + x.abs())),
    ("swish", |x| x / (1.0 + (-x).exp())),
    ("hard_sigmoid", |x| (0.2 * x + 0.5).clamp(0.0, 1.0)),
    ("erf", |x| {
        // Abramowitz-Stegun 7.1.26 approximation.
        let t = 1.0 / (1.0 + 0.3275911 * x.abs());
        let y = 1.0
            - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
                + 0.254829592)
                * t
                * (-x * x).exp();
        y.copysign(x)
    }),
    ("mish", |x| x * ((1.0 + x.exp()).ln()).tanh()),
    ("selu", |x| {
        1.0507 * if x > 0.0 { x } else { 1.67326 * (x.exp() - 1.0) }
    }),
    ("hard_swish", |x| x * (x + 3.0).clamp(0.0, 6.0) / 6.0),
    ("logistic", |x| 1.0 / (1.0 + (-x).exp())),
    ("zeros_like", |_| 0.0),
    ("ones_like", |_| 1.0),
    ("gamma_ln", |x| {
        // Stirling approximation; adequate for catalogue completeness.
        if x <= 0.0 {
            f32::NAN
        } else {
            (x - 0.5) * x.ln() - x + 0.9189385
        }
    }),
];

/// The binary scalar kernel table, shared with the executor.
pub const BINARY_KERNELS: &[BinaryKernel] = &[
    ("add", |a, b| a + b),
    ("sub", |a, b| a - b),
    ("mul", |a, b| a * b),
    ("div", |a, b| a / b),
    ("maximum", f32::max),
    ("minimum", f32::min),
    ("pow", f32::powf),
    ("mod", |a, b| a % b),
    ("hypot", f32::hypot),
    ("squared_difference", |a, b| (a - b) * (a - b)),
    ("arctan2", f32::atan2),
    ("logaddexp", |a, b| {
        let m = a.max(b);
        m + ((a - m).exp() + (b - m).exp()).ln()
    }),
    // Gradient helpers (element-wise over two same-shape tensors).
    ("relu_grad", |dy, x| if x > 0.0 { dy } else { 0.0 }),
    ("sigmoid_grad", |dy, y| dy * y * (1.0 - y)),
    ("tanh_grad", |dy, y| dy * (1.0 - y * y)),
];

/// Scalar-attribute element-wise kernels (`x op k`), shared with the
/// executor; the scalar comes from the `"scalar"` attribute.
pub const SCALAR_KERNELS: &[BinaryKernel] = &[
    ("add_scalar", |x, k| x + k),
    ("sub_scalar", |x, k| x - k),
    ("rsub_scalar", |x, k| k - x),
    ("mul_scalar", |x, k| x * k),
    ("div_scalar", |x, k| x / k),
    ("rdiv_scalar", |x, k| k / x),
    ("pow_scalar", |x, k| x.powf(k)),
    ("leaky_relu", |x, k| if x > 0.0 { x } else { k * x }),
    ("clip_max", |x, k| x.min(k)),
    ("clip_min", |x, k| x.max(k)),
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

// ---- Definitions ----------------------------------------------------------

fn def(
    name: &'static str,
    category: OpCategory,
    infer_shape: crate::registry::ShapeFn,
    tdl: Option<crate::registry::TdlFn>,
    gradient: Option<crate::registry::GradFn>,
) -> OpDef {
    OpDef { name, category, infer_shape, tdl, gradient, flops: flops_per_elem }
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
pub fn defs() -> Vec<OpDef> {
    let mut out = Vec::new();
    for &(name, _) in UNARY_KERNELS {
        let gradient: Option<crate::registry::GradFn> = match name {
            "relu" => Some(grad_relu),
            "sigmoid" | "logistic" => Some(grad_sigmoid),
            "tanh" => Some(grad_tanh),
            "exp" => Some(grad_exp),
            "log" => Some(grad_log),
            "negative" => Some(grad_negative),
            "square" => Some(grad_square),
            _ => None,
        };
        out.push(def(name, OpCategory::Elementwise, shape_like_first, Some(tdl_ewise1), gradient));
    }
    for &(name, _) in BINARY_KERNELS {
        let gradient: Option<crate::registry::GradFn> = match name {
            "add" => Some(grad_add),
            "sub" => Some(grad_sub),
            "mul" => Some(grad_mul),
            "div" => Some(grad_div),
            _ => None,
        };
        out.push(def(name, OpCategory::Elementwise, shape_same_all, Some(tdl_ewise2), gradient));
    }
    for &(name, _) in SCALAR_KERNELS {
        let gradient: Option<crate::registry::GradFn> = match name {
            "add_scalar" | "sub_scalar" => Some(grad_identity),
            "mul_scalar" => Some(grad_scalar_mul),
            "div_scalar" => Some(grad_scalar_div),
            _ => None,
        };
        out.push(def(name, OpCategory::Elementwise, shape_like_first, Some(tdl_ewise1), gradient));
    }
    // Identity / copy and n-ary gradient aggregation.
    out.push(def("identity", OpCategory::Elementwise, shape_like_first, Some(tdl_ewise1), Some(grad_identity)));
    out.push(def("copy", OpCategory::Data, shape_like_first, Some(tdl_ewise1), Some(grad_identity)));
    out.push(def("add_n", OpCategory::Elementwise, shape_same_all, Some(tdl_ewise_n), Some(grad_add_n)));
    // Optimizer updates — "almost all gradient-based optimizers are composed
    // of only element-wise operators" (§5.1).
    out.push(def("sgd_update", OpCategory::Optimizer, shape_sgd, Some(tdl_ewise_n), None));
    out.push(def("sgd_momentum_update", OpCategory::Optimizer, shape_sgd, Some(tdl_ewise_n), None));
    out.push(def("adam_update", OpCategory::Optimizer, shape_sgd, Some(tdl_ewise_n), None));
    out.push(def("adagrad_update", OpCategory::Optimizer, shape_sgd, Some(tdl_ewise_n), None));
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

    #[test]
    fn kernels_compute_expected_values() {
        let relu = UNARY_KERNELS.iter().find(|(n, _)| *n == "relu").unwrap().1;
        assert_eq!(relu(-1.0), 0.0);
        assert_eq!(relu(2.0), 2.0);
        let pow = BINARY_KERNELS.iter().find(|(n, _)| *n == "pow").unwrap().1;
        assert_eq!(pow(2.0, 3.0), 8.0);
        let leaky = SCALAR_KERNELS.iter().find(|(n, _)| *n == "leaky_relu").unwrap().1;
        assert_eq!(leaky(-2.0, 0.1), -0.2);
        assert_eq!(leaky(2.0, 0.1), 2.0);
    }

    #[test]
    fn erf_is_odd_and_bounded() {
        let erf = UNARY_KERNELS.iter().find(|(n, _)| *n == "erf").unwrap().1;
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427).abs() < 1e-3);
        assert!((erf(-1.0) + 0.8427).abs() < 1e-3);
        assert!(erf(10.0) <= 1.0);
    }

    #[test]
    fn grad_kernels_match_derivatives() {
        let sg = BINARY_KERNELS.iter().find(|(n, _)| *n == "sigmoid_grad").unwrap().1;
        // d/dx sigmoid at 0 = 0.25; y = 0.5.
        assert!((sg(1.0, 0.5) - 0.25).abs() < 1e-6);
        let tg = BINARY_KERNELS.iter().find(|(n, _)| *n == "tanh_grad").unwrap().1;
        assert!((tg(1.0, 0.0) - 1.0).abs() < 1e-6);
    }
}
