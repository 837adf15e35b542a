//! The TDL abstract syntax tree.
//!
//! A description is deliberately *not* Turing-complete (§4.1): no loops, no
//! recursion, no data-dependent indexing. A coordinate is an
//! [`AffineForm`] over the index variables (or a full slice `:`), which is
//! exactly what makes the symbolic interval analysis of [`crate::analysis`]
//! precise.

use std::fmt;

use crate::affine::AffineForm;

/// Identifier of an index variable within one [`TdlDesc`].
pub type VarId = usize;

/// Whether an index variable ranges over an output dimension or a reduction
/// domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// Appears as a lambda argument of the output tensor; output dimension
    /// `i` has extent equal to this variable's range.
    Output,
    /// Introduced by a reducer (`Sum(lambda ci, dx: ...)`).
    Reduce,
}

/// Metadata for one index variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarInfo {
    /// Human-readable name (`"b"`, `"ci"`, ...), used in strategy ids.
    pub name: String,
    /// Output or reduction variable.
    pub kind: VarKind,
    /// A statically known extent (e.g. a pooling window from the operator's
    /// attributes); lets [`crate::bind_extents`] resolve variables that
    /// never appear alone in an access.
    pub extent_hint: Option<u64>,
}

/// One coordinate of a tensor access.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexExpr {
    /// An affine index expression.
    Affine(AffineForm),
    /// A full slice `:` — used by opaque functions (`batch_mat[b, :, :]`).
    Full,
}

impl IndexExpr {
    /// Returns the affine payload when this is not a full slice.
    fn as_affine(&self) -> Option<&AffineForm> {
        match self {
            IndexExpr::Affine(a) => Some(a),
            IndexExpr::Full => None,
        }
    }
}

/// Built-in commutative, associative reducers (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reducer {
    /// Addition.
    Sum,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
    /// Product.
    Prod,
}

impl fmt::Display for Reducer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Reducer::Sum => "sum",
            Reducer::Max => "max",
            Reducer::Min => "min",
            Reducer::Prod => "prod",
        };
        f.write_str(s)
    }
}

/// Unary scalar operations appearing in descriptions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Negation.
    Neg,
    /// Exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Square root.
    Sqrt,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// `max(x, 0)`.
    Relu,
    /// Absolute value.
    Abs,
}

/// Binary scalar operations appearing in descriptions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
}

/// A scalar-valued TDL expression (the lambda body).
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// A floating constant.
    Const(f64),
    /// An index variable used as a value (e.g. `arange`-style operators).
    VarValue(VarId),
    /// An element read from input tensor `input` at the given coordinates.
    Access {
        /// Which input tensor (0-based).
        input: usize,
        /// One coordinate per input dimension.
        indices: Vec<IndexExpr>,
    },
    /// A unary scalar operation.
    Unary {
        /// The operation.
        op: UnaryOp,
        /// Operand.
        arg: Box<ScalarExpr>,
    },
    /// A binary scalar operation.
    Binary {
        /// The operation.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<ScalarExpr>,
        /// Right operand.
        rhs: Box<ScalarExpr>,
    },
    /// An opaque function (§4.1): computation TDL cannot express, applied to
    /// full slices of the inputs. `out_vars` are the output index variables
    /// that select elements from the opaque result; those variables cannot be
    /// partitioned.
    Opaque {
        /// Name of the opaque computation (e.g. `"cholesky"`).
        name: String,
        /// Tensor arguments, usually accesses containing [`IndexExpr::Full`]
        /// slices.
        args: Vec<ScalarExpr>,
        /// Output variables indexing into the opaque result.
        out_vars: Vec<VarId>,
    },
}

impl ScalarExpr {
    /// Visits every tensor access in the expression tree.
    pub(crate) fn for_each_access(&self, f: &mut impl FnMut(usize, &[IndexExpr])) {
        match self {
            ScalarExpr::Const(_) | ScalarExpr::VarValue(_) => {}
            ScalarExpr::Access { input, indices } => f(*input, indices),
            ScalarExpr::Unary { arg, .. } => arg.for_each_access(f),
            ScalarExpr::Binary { lhs, rhs, .. } => {
                lhs.for_each_access(f);
                rhs.for_each_access(f);
            }
            ScalarExpr::Opaque { args, .. } => {
                for a in args {
                    a.for_each_access(f);
                }
            }
        }
    }

    /// Visits every opaque node in the expression tree.
    fn for_each_opaque(&self, f: &mut impl FnMut(&str, &[VarId])) {
        match self {
            ScalarExpr::Const(_) | ScalarExpr::VarValue(_) | ScalarExpr::Access { .. } => {}
            ScalarExpr::Unary { arg, .. } => arg.for_each_opaque(f),
            ScalarExpr::Binary { lhs, rhs, .. } => {
                lhs.for_each_opaque(f);
                rhs.for_each_opaque(f);
            }
            ScalarExpr::Opaque { name, args, out_vars } => {
                f(name, out_vars);
                for a in args {
                    a.for_each_opaque(f);
                }
            }
        }
    }
}

/// Errors raised while building or analyzing TDL descriptions.
#[derive(Debug, Clone, PartialEq)]
pub enum TdlError {
    /// An access used a different number of coordinates than the input rank.
    RankMismatch {
        /// Which input.
        input: usize,
        /// Declared rank.
        rank: usize,
        /// Number of coordinates in the access.
        got: usize,
    },
    /// An access referenced an undeclared input.
    UnknownInput {
        /// The out-of-range input number.
        input: usize,
        /// Number of declared inputs.
        num_inputs: usize,
    },
    /// A reduction variable's extent could not be tied to any input dimension.
    UnresolvedExtent {
        /// The variable whose extent is unknown.
        var: VarId,
    },
    /// Assumption 1 of the paper's appendix is violated: an output variable
    /// indexes two different dimensions of the same input (`A[i, i]`).
    RepeatedVar {
        /// The offending input.
        input: usize,
        /// The repeated variable.
        var: VarId,
    },
    /// Concrete shapes disagree with the description.
    ShapeMismatch(String),
    /// Free-form invalid-description error.
    Invalid(String),
}

impl fmt::Display for TdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TdlError::RankMismatch { input, rank, got } => {
                write!(f, "input {input} has rank {rank} but was accessed with {got} coordinates")
            }
            TdlError::UnknownInput { input, num_inputs } => {
                write!(f, "access to input {input} but only {num_inputs} inputs declared")
            }
            TdlError::UnresolvedExtent { var } => {
                write!(f, "cannot resolve the extent of reduction variable {var}")
            }
            TdlError::RepeatedVar { input, var } => {
                write!(f, "variable {var} indexes multiple dimensions of input {input}")
            }
            TdlError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            TdlError::Invalid(msg) => write!(f, "invalid description: {msg}"),
        }
    }
}

impl std::error::Error for TdlError {}

/// A complete operator description.
///
/// Index variables are numbered so that the `output_rank` output variables
/// come first (variable `i` names output dimension `i`), followed by the
/// reduction variables.
#[derive(Debug, Clone, PartialEq)]
pub struct TdlDesc {
    name: String,
    input_ranks: Vec<usize>,
    vars: Vec<VarInfo>,
    output_rank: usize,
    reducer: Option<Reducer>,
    body: ScalarExpr,
}

impl TdlDesc {
    /// Assembles and validates a description; prefer [`crate::DescBuilder`].
    pub fn new(
        name: impl Into<String>,
        input_ranks: Vec<usize>,
        vars: Vec<VarInfo>,
        reducer: Option<Reducer>,
        body: ScalarExpr,
    ) -> crate::Result<TdlDesc> {
        let output_rank = vars.iter().take_while(|v| v.kind == VarKind::Output).count();
        if vars[output_rank..].iter().any(|v| v.kind == VarKind::Output) {
            return Err(TdlError::Invalid("output variables must precede reduce variables".into()));
        }
        if reducer.is_none() && output_rank != vars.len() {
            return Err(TdlError::Invalid("reduce variables declared without a reducer".into()));
        }
        let desc = TdlDesc { name: name.into(), input_ranks, vars, output_rank, reducer, body };
        desc.validate()?;
        Ok(desc)
    }

    fn validate(&self) -> crate::Result<()> {
        let mut err = None;
        self.body.for_each_access(&mut |input, indices| {
            if err.is_some() {
                return;
            }
            if input >= self.input_ranks.len() {
                err = Some(TdlError::UnknownInput { input, num_inputs: self.input_ranks.len() });
                return;
            }
            if indices.len() != self.input_ranks[input] {
                err = Some(TdlError::RankMismatch {
                    input,
                    rank: self.input_ranks[input],
                    got: indices.len(),
                });
                return;
            }
            // Assumption 1 (appendix A.2): a variable may appear in at most
            // one coordinate of any single access.
            let mut seen: Vec<VarId> = Vec::new();
            for ie in indices {
                if let IndexExpr::Affine(a) = ie {
                    for &(v, _) in a.terms() {
                        if seen.contains(&v) {
                            err = Some(TdlError::RepeatedVar { input, var: v });
                            return;
                        }
                        seen.push(v);
                    }
                }
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        Ok(())
    }

    /// The operator name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of input tensors.
    pub fn num_inputs(&self) -> usize {
        self.input_ranks.len()
    }

    /// Declared rank of each input tensor.
    pub(crate) fn input_ranks(&self) -> &[usize] {
        &self.input_ranks
    }

    /// Rank of the output tensor.
    pub fn output_rank(&self) -> usize {
        self.output_rank
    }

    /// All index variables: outputs first, then reductions.
    pub fn vars(&self) -> &[VarInfo] {
        &self.vars
    }

    /// The reduction variables, if any.
    pub fn reduce_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        (self.output_rank..self.vars.len()).filter(|&v| self.vars[v].kind == VarKind::Reduce)
    }

    /// The reducer, when the description has a reduction.
    pub fn reducer(&self) -> Option<Reducer> {
        self.reducer
    }

    /// The lambda body.
    pub fn body(&self) -> &ScalarExpr {
        &self.body
    }

    /// Variables that cannot be partitioned because they index an opaque
    /// function's result (the opaque computation is indivisible).
    pub(crate) fn unsplittable_vars(&self) -> Vec<VarId> {
        let mut vars = Vec::new();
        self.body.for_each_opaque(&mut |_, out_vars| {
            for &v in out_vars {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        });
        vars
    }

    /// True when the description contains an opaque function.
    pub fn has_opaque(&self) -> bool {
        let mut found = false;
        self.body.for_each_opaque(&mut |_, _| found = true);
        found
    }

    /// True when the operator is element-wise: no reduction, and every input
    /// is accessed at exactly the identity output coordinates.
    ///
    /// Element-wise operators are coalesced by the coarsening pass (§5.1)
    /// because their input and output tensors must share a partition.
    pub fn is_elementwise(&self) -> bool {
        if self.reducer.is_some() || self.has_opaque() {
            return false;
        }
        let mut elementwise = true;
        self.body.for_each_access(&mut |input, indices| {
            if !elementwise {
                return;
            }
            if self.input_ranks[input] != self.output_rank {
                elementwise = false;
                return;
            }
            for (dim, ie) in indices.iter().enumerate() {
                match ie.as_affine() {
                    Some(a) if a.is_identity_of(dim) => {}
                    _ => {
                        elementwise = false;
                        return;
                    }
                }
            }
        });
        elementwise
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elementwise_desc() -> TdlDesc {
        // out = lambda i, j: A[i, j] + B[i, j]
        let vars = vec![
            VarInfo { name: "i".into(), kind: VarKind::Output, extent_hint: None },
            VarInfo { name: "j".into(), kind: VarKind::Output, extent_hint: None },
        ];
        let access = |input| ScalarExpr::Access {
            input,
            indices: vec![
                IndexExpr::Affine(AffineForm::var(0)),
                IndexExpr::Affine(AffineForm::var(1)),
            ],
        };
        let body = ScalarExpr::Binary {
            op: BinaryOp::Add,
            lhs: Box::new(access(0)),
            rhs: Box::new(access(1)),
        };
        TdlDesc::new("add", vec![2, 2], vars, None, body).unwrap()
    }

    #[test]
    fn elementwise_is_detected() {
        assert!(elementwise_desc().is_elementwise());
    }

    #[test]
    fn transpose_is_not_elementwise() {
        // out = lambda i, j: A[j, i]
        let vars = vec![
            VarInfo { name: "i".into(), kind: VarKind::Output, extent_hint: None },
            VarInfo { name: "j".into(), kind: VarKind::Output, extent_hint: None },
        ];
        let body = ScalarExpr::Access {
            input: 0,
            indices: vec![
                IndexExpr::Affine(AffineForm::var(1)),
                IndexExpr::Affine(AffineForm::var(0)),
            ],
        };
        let desc = TdlDesc::new("transpose", vec![2], vars, None, body).unwrap();
        assert!(!desc.is_elementwise());
    }

    #[test]
    fn rank_mismatch_is_rejected() {
        let vars = vec![VarInfo { name: "i".into(), kind: VarKind::Output, extent_hint: None }];
        let body = ScalarExpr::Access {
            input: 0,
            indices: vec![
                IndexExpr::Affine(AffineForm::var(0)),
                IndexExpr::Affine(AffineForm::var(0)),
            ],
        };
        let err = TdlDesc::new("bad", vec![1], vars, None, body).unwrap_err();
        assert!(matches!(err, TdlError::RankMismatch { .. }));
    }

    #[test]
    fn unknown_input_is_rejected() {
        let vars = vec![VarInfo { name: "i".into(), kind: VarKind::Output, extent_hint: None }];
        let body = ScalarExpr::Access {
            input: 3,
            indices: vec![IndexExpr::Affine(AffineForm::var(0))],
        };
        let err = TdlDesc::new("bad", vec![1], vars, None, body).unwrap_err();
        assert!(matches!(err, TdlError::UnknownInput { .. }));
    }

    #[test]
    fn repeated_var_violates_assumption_one() {
        // lambda i: A[i, i] is ruled out by appendix assumption 1.
        let vars = vec![VarInfo { name: "i".into(), kind: VarKind::Output, extent_hint: None }];
        let body = ScalarExpr::Access {
            input: 0,
            indices: vec![
                IndexExpr::Affine(AffineForm::var(0)),
                IndexExpr::Affine(AffineForm::var(0)),
            ],
        };
        let err = TdlDesc::new("diag", vec![2], vars, None, body).unwrap_err();
        assert!(matches!(err, TdlError::RepeatedVar { input: 0, var: 0 }));
    }

    #[test]
    fn reduce_vars_without_reducer_rejected() {
        let vars = vec![
            VarInfo { name: "i".into(), kind: VarKind::Output, extent_hint: None },
            VarInfo { name: "k".into(), kind: VarKind::Reduce, extent_hint: None },
        ];
        let body = ScalarExpr::Const(0.0);
        assert!(TdlDesc::new("bad", vec![], vars, None, body).is_err());
    }

    #[test]
    fn error_display() {
        assert!(TdlError::UnresolvedExtent { var: 3 }.to_string().contains('3'));
    }
}
