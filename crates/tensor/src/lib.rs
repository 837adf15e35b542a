//! Dense tensor substrate for the Tofu reproduction.
//!
//! This crate provides the numeric foundation that the rest of the workspace
//! builds on: [`Shape`] arithmetic, a row-major dense [`Tensor`] of `f32`
//! values, and CPU kernels for every operator registered in `tofu-graph`
//! (element-wise math, matrix multiplication, 1-D and 2-D convolution,
//! pooling, reductions, softmax, and the slicing/concatenation primitives
//! that partitioned graphs use to move data between workers).
//!
//! The kernels exist to *validate* partitioned execution — Tofu's claim is
//! that a partitioned dataflow graph computes exactly what the original graph
//! computes — so all of them are bit-reproducible: a fixed f32 operation
//! order per output element, no fused multiply-add, no data-dependent
//! shortcut, the same bits at every vector width. Matrix multiplication is
//! where a training step spends its time, so its six variants share one
//! packed, register-tiled GEMM (`linalg.rs`, 4×8 on baseline x86-64, 4×16
//! where AVX2 is detected at run time) that keeps that order exactly; every
//! other kernel is a straightforward loop. Throughput numbers in the paper's
//! evaluation still come from the cost model in `tofu-sim`, never from here.
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

// Denied, not forbidden: `linalg::gemm` carries the workspace's single exemption,
// the call into its `#[target_feature]` instantiation right under the detection.
#![deny(unsafe_code)]
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
pub use random::SplitMix64;
pub use reduce::ReduceKind;
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
