//! Ergonomic builder DSL for TDL descriptions.
//!
//! Mirrors the paper's Python decorator syntax in Rust. The conv1d example
//! from Fig. 3:
//!
//! ```
//! use tofu_tdl::{DescBuilder, Reducer};
//!
//! let mut b = DescBuilder::new("conv1d", &[3, 3]);
//! let (bb, co, x) = (b.output_var("b"), b.output_var("co"), b.output_var("x"));
//! let (ci, dx) = (b.reduce_var("ci"), b.reduce_var("dx"));
//! let body = b.input(0, &[bb.at(), ci.at(), x.at() + dx.at()])
//!     * b.input(1, &[ci.at(), co.at(), dx.at()]);
//! let conv1d = b.build_reduce(Reducer::Sum, body).unwrap();
//! assert_eq!(conv1d.name(), "conv1d");
//! ```
//!
//! And batched Cholesky, whose body is an opaque function:
//!
//! ```
//! use tofu_tdl::{DescBuilder, Exp};
//! use tofu_tdl::builder::Idx;
//!
//! let mut b = DescBuilder::new("batch_cholesky", &[3]);
//! let (bb, i, j) = (b.output_var("b"), b.output_var("i"), b.output_var("j"));
//! let slice = b.input(0, &[bb.at(), Idx::full(), Idx::full()]);
//! let body = b.opaque("cholesky", vec![slice], &[i, j]);
//! let desc = b.build(body).unwrap();
//! assert!(desc.has_opaque());
//! assert_eq!(desc.unsplittable_vars(), vec![1, 2]);
//! ```

use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::affine::AffineForm;
use crate::expr::{
    BinaryOp, IndexExpr, Reducer, ScalarExpr, TdlDesc, UnaryOp, VarId, VarInfo, VarKind,
};
use crate::Result;

/// A declared index variable handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var {
    pub(crate) id: VarId,
}

impl Var {
    /// The variable's id within the description.
    pub fn id(self) -> VarId {
        self.id
    }

    /// Uses the variable as an index coordinate.
    pub fn at(self) -> Idx {
        Idx(IndexExpr::Affine(AffineForm::var(self.id)))
    }

    /// Uses the variable's value in a scalar expression (e.g. ramps).
    pub fn value(self) -> Exp {
        Exp(ScalarExpr::VarValue(self.id))
    }
}

/// An index coordinate: an affine expression over variables, or a full slice.
///
/// Arithmetic is provided by operator overloads.
///
/// # Panics
///
/// Arithmetic on a full slice (`Idx::full()`) panics: `:` cannot take part
/// in affine expressions, matching TDL's grammar.
#[derive(Debug, Clone, PartialEq)]
pub struct Idx(pub(crate) IndexExpr);

impl Idx {
    /// The full slice `:`.
    pub fn full() -> Idx {
        Idx(IndexExpr::Full)
    }

    /// A constant coordinate.
    pub fn constant(c: i64) -> Idx {
        Idx(IndexExpr::Affine(AffineForm::constant(c as f64)))
    }

    /// Divides the coordinate by an integer factor — models the *region*
    /// semantics of strided backward operators.
    // Deliberately an inherent method, not `std::ops::Div`: the TDL grammar
    // only allows division by integer literals, not by another `Idx`.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, k: i64) -> Idx {
        Idx(IndexExpr::Affine(self.affine().scale(1.0 / k as f64)))
    }

    fn affine(self) -> AffineForm {
        match self.0 {
            IndexExpr::Affine(a) => a,
            IndexExpr::Full => panic!("arithmetic on a full slice `:` is not allowed in TDL"),
        }
    }
}

impl Add<Idx> for Idx {
    type Output = Idx;
    fn add(self, rhs: Idx) -> Idx {
        Idx(IndexExpr::Affine(self.affine().add(&rhs.affine())))
    }
}

impl Sub<Idx> for Idx {
    type Output = Idx;
    fn sub(self, rhs: Idx) -> Idx {
        Idx(IndexExpr::Affine(self.affine().sub(&rhs.affine())))
    }
}

impl Add<i64> for Idx {
    type Output = Idx;
    fn add(self, rhs: i64) -> Idx {
        Idx(IndexExpr::Affine(self.affine().offset(rhs as f64)))
    }
}

impl Sub<i64> for Idx {
    type Output = Idx;
    fn sub(self, rhs: i64) -> Idx {
        Idx(IndexExpr::Affine(self.affine().offset(-rhs as f64)))
    }
}

impl Mul<i64> for Idx {
    type Output = Idx;
    fn mul(self, rhs: i64) -> Idx {
        Idx(IndexExpr::Affine(self.affine().scale(rhs as f64)))
    }
}

/// A scalar TDL expression under construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Exp(pub(crate) ScalarExpr);

impl Exp {
    /// A floating constant.
    pub fn constant(c: f64) -> Exp {
        Exp(ScalarExpr::Const(c))
    }

    fn unary(self, op: UnaryOp) -> Exp {
        Exp(ScalarExpr::Unary { op, arg: Box::new(self.0) })
    }

    fn binary(self, op: BinaryOp, rhs: Exp) -> Exp {
        Exp(ScalarExpr::Binary { op, lhs: Box::new(self.0), rhs: Box::new(rhs.0) })
    }

    /// Element-wise exponential.
    pub fn exp(self) -> Exp {
        self.unary(UnaryOp::Exp)
    }

    /// Element-wise natural logarithm.
    pub fn log(self) -> Exp {
        self.unary(UnaryOp::Log)
    }

    /// Element-wise square root.
    pub fn sqrt(self) -> Exp {
        self.unary(UnaryOp::Sqrt)
    }

    /// Element-wise hyperbolic tangent.
    pub fn tanh(self) -> Exp {
        self.unary(UnaryOp::Tanh)
    }

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(self) -> Exp {
        self.unary(UnaryOp::Sigmoid)
    }

    /// Element-wise rectifier.
    pub fn relu(self) -> Exp {
        self.unary(UnaryOp::Relu)
    }

    /// Element-wise absolute value.
    pub fn abs(self) -> Exp {
        self.unary(UnaryOp::Abs)
    }

    /// Element-wise maximum.
    pub fn max(self, rhs: Exp) -> Exp {
        self.binary(BinaryOp::Max, rhs)
    }

    /// Element-wise minimum.
    pub fn min(self, rhs: Exp) -> Exp {
        self.binary(BinaryOp::Min, rhs)
    }
}

impl Add for Exp {
    type Output = Exp;
    fn add(self, rhs: Exp) -> Exp {
        self.binary(BinaryOp::Add, rhs)
    }
}

impl Sub for Exp {
    type Output = Exp;
    fn sub(self, rhs: Exp) -> Exp {
        self.binary(BinaryOp::Sub, rhs)
    }
}

impl Mul for Exp {
    type Output = Exp;
    fn mul(self, rhs: Exp) -> Exp {
        self.binary(BinaryOp::Mul, rhs)
    }
}

impl Div for Exp {
    type Output = Exp;
    fn div(self, rhs: Exp) -> Exp {
        self.binary(BinaryOp::Div, rhs)
    }
}

impl Neg for Exp {
    type Output = Exp;
    fn neg(self) -> Exp {
        self.unary(UnaryOp::Neg)
    }
}

/// Incremental builder for a [`TdlDesc`].
#[derive(Debug, Clone)]
pub struct DescBuilder {
    name: String,
    input_ranks: Vec<usize>,
    vars: Vec<VarInfo>,
}

impl DescBuilder {
    /// Starts a description with the given operator name and input ranks.
    pub fn new(name: impl Into<String>, input_ranks: &[usize]) -> DescBuilder {
        DescBuilder { name: name.into(), input_ranks: input_ranks.to_vec(), vars: Vec::new() }
    }

    /// Declares the next output dimension's index variable.
    ///
    /// # Panics
    ///
    /// Panics when called after [`DescBuilder::reduce_var`]: output variables
    /// must be declared first so variable `i` names output dimension `i`.
    pub fn output_var(&mut self, name: impl Into<String>) -> Var {
        assert!(
            self.vars.iter().all(|v| v.kind == VarKind::Output),
            "output variables must be declared before reduce variables"
        );
        self.vars.push(VarInfo { name: name.into(), kind: VarKind::Output, extent_hint: None });
        Var { id: self.vars.len() - 1 }
    }

    /// Declares a reduction variable.
    pub fn reduce_var(&mut self, name: impl Into<String>) -> Var {
        self.vars.push(VarInfo { name: name.into(), kind: VarKind::Reduce, extent_hint: None });
        Var { id: self.vars.len() - 1 }
    }

    /// Declares a reduction variable with a statically known extent (e.g. a
    /// pooling window taken from operator attributes). Needed when the
    /// variable never appears alone in any access, so shape-based extent
    /// resolution cannot recover it.
    pub fn reduce_var_with_extent(&mut self, name: impl Into<String>, extent: u64) -> Var {
        self.vars.push(VarInfo {
            name: name.into(),
            kind: VarKind::Reduce,
            extent_hint: Some(extent),
        });
        Var { id: self.vars.len() - 1 }
    }

    /// Reads input tensor `input` at the given coordinates.
    pub fn input(&self, input: usize, indices: &[Idx]) -> Exp {
        Exp(ScalarExpr::Access {
            input,
            indices: indices.iter().map(|i| i.0.clone()).collect(),
        })
    }

    /// Wraps arguments in an opaque function whose result is indexed by
    /// `out_vars` (which therefore become unsplittable).
    pub fn opaque(&self, name: impl Into<String>, args: Vec<Exp>, out_vars: &[Var]) -> Exp {
        Exp(ScalarExpr::Opaque {
            name: name.into(),
            args: args.into_iter().map(|e| e.0).collect(),
            out_vars: out_vars.iter().map(|v| v.id).collect(),
        })
    }

    /// Finishes a reduction-free description.
    pub fn build(self, body: Exp) -> Result<TdlDesc> {
        TdlDesc::new(self.name, self.input_ranks, self.vars, None, body.0)
    }

    /// Finishes a description whose output reduces over the reduce variables.
    pub fn build_reduce(self, reducer: Reducer, body: Exp) -> Result<TdlDesc> {
        TdlDesc::new(self.name, self.input_ranks, self.vars, Some(reducer), body.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_matmul() {
        let mut b = DescBuilder::new("matmul", &[2, 2]);
        let (i, j) = (b.output_var("i"), b.output_var("j"));
        let k = b.reduce_var("k");
        let body = b.input(0, &[i.at(), k.at()]) * b.input(1, &[k.at(), j.at()]);
        let desc = b.build_reduce(Reducer::Sum, body).unwrap();
        assert_eq!(desc.output_rank(), 2);
        assert_eq!(desc.reduce_vars().collect::<Vec<_>>(), vec![2]);
        assert!(!desc.is_elementwise());
    }

    #[test]
    fn builds_elementwise_with_operators() {
        let mut b = DescBuilder::new("gate", &[2, 2]);
        let (i, j) = (b.output_var("i"), b.output_var("j"));
        let x = b.input(0, &[i.at(), j.at()]);
        let y = b.input(1, &[i.at(), j.at()]);
        let body = x.sigmoid() * y.tanh();
        let desc = b.build(body).unwrap();
        assert!(desc.is_elementwise());
    }

    #[test]
    fn index_arithmetic_builds_affine_terms() {
        let mut b = DescBuilder::new("strided", &[1]);
        let i = b.output_var("i");
        let e = b.input(0, &[i.at() * 2 + 1]);
        let desc = b.build(e).unwrap();
        let mut seen = None;
        desc.body().for_each_access(&mut |_, idx| {
            if let IndexExpr::Affine(a) = &idx[0] {
                seen = Some((a.coeff(0), a.constant_term()));
            }
        });
        assert_eq!(seen, Some((2.0, 1.0)));
    }

    #[test]
    fn index_subtraction() {
        let mut b = DescBuilder::new("pad", &[1]);
        let i = b.output_var("i");
        let e = b.input(0, &[i.at() - 3]);
        let desc = b.build(e).unwrap();
        let mut c = None;
        desc.body().for_each_access(&mut |_, idx| {
            if let IndexExpr::Affine(a) = &idx[0] {
                c = Some(a.constant_term());
            }
        });
        assert_eq!(c, Some(-3.0));
    }

    #[test]
    #[should_panic(expected = "full slice")]
    fn arithmetic_on_full_slice_panics() {
        let _ = Idx::full() + 1;
    }

    #[test]
    #[should_panic(expected = "output variables must be declared before")]
    fn output_after_reduce_panics() {
        let mut b = DescBuilder::new("bad", &[1]);
        let _k = b.reduce_var("k");
        let _i = b.output_var("i");
    }

    #[test]
    fn scalar_expression_combinators() {
        let mut b = DescBuilder::new("mix", &[1]);
        let i = b.output_var("i");
        let x = b.input(0, &[i.at()]);
        let e = (-(x.clone().exp() + Exp::constant(1.0)).log()).max(x.min(Exp::constant(0.0)));
        // Just verify it builds into a valid description.
        assert!(b.build(e).is_ok());
    }

    #[test]
    fn var_value_usable_in_body() {
        let mut b = DescBuilder::new("ramp", &[]);
        let i = b.output_var("i");
        let desc = b.build(i.value()).unwrap();
        assert_eq!(desc.num_inputs(), 0);
    }
}
