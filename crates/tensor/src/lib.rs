//! Dense tensor substrate for the Tofu reproduction.
//!
//! This crate provides the numeric foundation that the rest of the workspace
//! builds on: [`Shape`] arithmetic, a row-major dense [`Tensor`] of `f32`
//! values, and naive-but-correct CPU kernels for every operator registered in
//! `tofu-graph` (element-wise math, matrix multiplication, 1-D and 2-D
//! convolution, pooling, reductions, softmax, and the slicing/concatenation
//! primitives that partitioned graphs use to move data between workers).
//!
//! The kernels exist to *validate* partitioned execution — Tofu's claim is
//! that a partitioned dataflow graph computes exactly what the original graph
//! computes — not to be fast. Throughput numbers in the evaluation come from
//! the cost model in `tofu-sim`, never from these kernels.
//!
//! # Examples
//!
//! ```
//! use tofu_tensor::{Shape, Tensor};
//!
//! let a = Tensor::from_vec(Shape::new(vec![2, 2]), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
//! let b = Tensor::full(Shape::new(vec![2, 2]), 1.0);
//! let c = a.add(&b).unwrap();
//! assert_eq!(c.data(), &[2.0, 3.0, 4.0, 5.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod conv;
mod elementwise;
mod error;
mod linalg;
mod norm;
mod random;
mod reduce;
mod shape;
mod tensor;

pub use block::copy_block;
pub use conv::{Conv1dParams, Conv2dParams, PoolKind, PoolParams};
pub use error::TensorError;
pub use random::global_seed;
pub use reduce::ReduceKind;
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
