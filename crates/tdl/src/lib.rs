//! TDL — the Tensor Description Language of the Tofu paper (§4).
//!
//! TDL describes *what* an operator computes, separately from *how* it is
//! implemented, using the "tensor-as-a-lambda" idea borrowed from Halide: the
//! output tensor is a function from coordinates (index variables) to a scalar
//! expression over the input tensors. The paper's running example is `conv1d`:
//!
//! ```text
//! @tofu.op
//! def conv1d(data, filters):
//!     return lambda b, co, x:
//!         Sum(lambda ci, dx: data[b, ci, x+dx] * filters[ci, co, dx])
//! ```
//!
//! which this crate writes as:
//!
//! ```
//! use tofu_tdl::{DescBuilder, Reducer};
//!
//! let mut b = DescBuilder::new("conv1d", &[3, 3]);
//! let (bb, co, x) = (b.output_var("b"), b.output_var("co"), b.output_var("x"));
//! let (ci, dx) = (b.reduce_var("ci"), b.reduce_var("dx"));
//! let body = b.input(0, &[bb.at(), ci.at(), x.at() + dx.at()])
//!     * b.input(1, &[ci.at(), co.at(), dx.at()]);
//! let desc = b.build_reduce(Reducer::Sum, body).unwrap();
//! assert_eq!(desc.output_rank(), 3);
//! ```
//!
//! One algebra runs through the crate: the affine form `Σ aᵢXᵢ + c`
//! ([`AffineForm`]). It is both a coordinate of a tensor access (`x + dx`)
//! and a bound of a symbolic interval (`[0.5·X2, X2]`), and a halo width is
//! one too.
//!
//! Three things are computed from a description, all used by `tofu-core`:
//!
//! 1. **Region analysis** ([`analysis`]): symbolic-interval abstract
//!    interpretation (Fig. 4 of the paper) that yields, for any assignment of
//!    index-variable ranges, the region of every input tensor the computation
//!    touches.
//! 2. **Strategy discovery** ([`strategy`]): enumerates every basic 2-worker
//!    *partition-n-reduce* strategy — Case-1 splits along an output dimension
//!    (including halo-exchange splits), Case-2 splits along a reduction
//!    dimension and reduces the partial outputs.
//! 3. **Classification**: element-wise detection (drives graph coarsening)
//!    and opaque-function handling (batched Cholesky et al., where only batch
//!    dimensions are partitionable).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affine;
pub mod analysis;
pub mod builder;
pub mod expr;
pub mod interval;
pub mod strategy;

pub use affine::AffineForm;
pub use analysis::{access_regions, bind_extents, Region};
pub use builder::{DescBuilder, Exp, Var};
pub use expr::{
    BinaryOp, IndexExpr, Reducer, ScalarExpr, TdlDesc, TdlError, UnaryOp, VarId, VarKind,
};
pub use interval::SymInterval;
pub use strategy::{discover_strategies, BasicStrategy, InputRequirement, OutputPartition};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TdlError>;
