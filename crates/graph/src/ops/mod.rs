//! Built-in operator catalogue.
//!
//! The catalogue is calibrated to the structure the paper reports for MXNet
//! v0.11 (§4.1): a large element-wise family, a dense-linear-algebra and
//! convolution core with output-reduction strategies, two opaque-function
//! operators, and a handful of sparse operators that TDL cannot describe.

pub mod attention;
pub mod conv;
pub mod data;
pub mod elementwise;
pub mod linalg;
pub mod reduce;

use tofu_tdl::{DescBuilder, TdlDesc};
use tofu_tensor::Shape;

use crate::attrs::Attrs;
use crate::registry::OpDef;

/// Assembles every built-in operator definition.
pub fn builtins() -> Vec<OpDef> {
    let mut ops = Vec::new();
    ops.extend(elementwise::defs());
    ops.extend(linalg::defs());
    ops.extend(attention::defs());
    ops.extend(conv::defs());
    ops.extend(reduce::defs());
    ops.extend(data::defs());
    ops
}

// ---- Shared shape-inference helpers -------------------------------------

/// Output shape equals the first input's shape (arbitrary arity, all inputs
/// must agree).
pub(crate) fn shape_same_all(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    let first = ins.first().ok_or("expected at least one input")?;
    for s in ins {
        if s != first {
            return Err(format!("operand shapes differ: {first} vs {s}"));
        }
    }
    Ok(first.clone())
}

/// Output shape equals the first input's shape; later inputs unconstrained.
pub(crate) fn shape_like_first(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    ins.first().cloned().ok_or_else(|| "expected at least one input".to_string())
}

/// The normalized axis of the softmax and layer-norm families: the `axis`
/// attribute, defaulting to the last dimension of `x`.
pub(crate) fn norm_axis(x: &Shape, attrs: &Attrs) -> std::result::Result<usize, String> {
    let axis = attrs.int_or("axis", x.rank() as i64 - 1);
    if axis < 0 || axis as usize >= x.rank() {
        return Err(format!("axis {axis} out of range for rank {}", x.rank()));
    }
    Ok(axis as usize)
}

/// Flop estimate of one flop per output element.
pub(crate) fn flops_per_elem(_: &[Shape], out: &Shape, _: &Attrs) -> f64 {
    out.volume() as f64
}

// ---- Shared TDL builders --------------------------------------------------

/// Identity-access element-wise description over `num_inputs` inputs of the
/// given rank.
pub(crate) fn ewise_desc(name: &str, num_inputs: usize, rank: usize) -> TdlDesc {
    let ranks = vec![rank; num_inputs];
    let mut b = DescBuilder::new(name, &ranks);
    let vars: Vec<_> = (0..rank).map(|d| b.output_var(format!("d{d}"))).collect();
    let coords: Vec<_> = vars.iter().map(|v| v.at()).collect();
    let mut body = if num_inputs == 0 {
        tofu_tdl::Exp::constant(0.0)
    } else {
        b.input(0, &coords)
    };
    for i in 1..num_inputs {
        body = body + b.input(i, &coords);
    }
    b.build(body).expect("element-wise description is always valid")
}

/// TDL builder for unary element-wise operators.
pub(crate) fn tdl_ewise1(ins: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    Some(ewise_desc("ewise1", 1, ins.first().map(|s| s.rank())?))
}

/// TDL builder for binary element-wise operators.
pub(crate) fn tdl_ewise2(ins: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    Some(ewise_desc("ewise2", 2, ins.first().map(|s| s.rank())?))
}

/// TDL builder for element-wise operators of any arity.
pub(crate) fn tdl_ewise_n(ins: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    Some(ewise_desc("ewise_n", ins.len(), ins.first().map(|s| s.rank())?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewise_desc_is_elementwise_at_any_rank() {
        for rank in 1..=4 {
            for arity in 1..=3 {
                let d = ewise_desc("t", arity, rank);
                assert!(d.is_elementwise(), "rank {rank} arity {arity}");
                assert_eq!(d.output_rank(), rank);
            }
        }
    }

    #[test]
    fn builtins_have_unique_names() {
        let ops = builtins();
        let mut names: Vec<&str> = ops.iter().map(|d| d.name).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate op names registered");
    }

    #[test]
    fn shape_same_all_agrees() {
        let a = Shape::new(vec![2, 3]);
        assert_eq!(shape_same_all(&[a.clone(), a.clone()], &Attrs::new()).unwrap(), a);
        let b = Shape::new(vec![3, 2]);
        assert!(shape_same_all(&[a, b], &Attrs::new()).is_err());
        assert!(shape_same_all(&[], &Attrs::new()).is_err());
    }
}
