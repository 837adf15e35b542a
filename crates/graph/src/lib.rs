//! Dataflow graph substrate: the MXNet/NNVM stand-in that Tofu transforms.
//!
//! This crate provides everything the partitioner (in `tofu-core`) assumes
//! from the host framework:
//!
//! - a single-output operator [`Graph`] IR with immediate shape inference,
//! - an extensible operator [`registry`] (~130 operators calibrated to the
//!   MXNet v0.11 catalogue of §4.1, each bundling shape inference, a TDL
//!   description, a gradient builder, a flop estimate and its CPU kernel),
//! - reverse-mode [`autodiff`] that appends tagged backward nodes (the tags
//!   drive the coarsening pass of §5.1),
//! - a dependency-driven static [`memplan`] memory planner (§6), and
//! - a CPU [`exec`] executor, which runs each node's registry kernel, used
//!   to *validate* that partitioned graphs compute exactly what the original
//!   graph computes.
//!
//! # Examples
//!
//! Build and differentiate a one-layer network:
//!
//! ```
//! use tofu_graph::{autodiff, Attrs, Graph};
//! use tofu_tensor::Shape;
//!
//! let mut g = Graph::new();
//! let x = g.add_input("x", Shape::new(vec![4, 8]));
//! let w = g.add_weight("w", Shape::new(vec![8, 2]));
//! let labels = g.add_input("labels", Shape::new(vec![4]));
//! let logits = g.add_op("matmul", "fc", &[x, w], Attrs::new()).unwrap();
//! let loss = g.add_op("softmax_ce", "loss", &[logits, labels], Attrs::new()).unwrap();
//! let grads = autodiff::backward(&mut g, loss, &[w]).unwrap();
//! assert!(grads.grad(w).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrs;
pub mod autodiff;
mod error;
pub mod exec;
pub mod graph;
pub mod memplan;
pub mod ops;
pub mod registry;

pub use attrs::{AttrValue, Attrs};
pub use autodiff::{backward, GradInfo};
pub use error::GraphError;
pub use exec::{execute_node, Executor};
pub use graph::{Graph, Node, NodeId, NodeTags, TensorId, TensorKind, TensorMeta};
pub use memplan::{plan_buffers, BufferPlan, MemPlan, SlotAction};
pub use ops::data::{fetch_pieces, FetchPiece, Served, TransferIndex};
pub use registry::{coverage, lookup, Coverage, OpCategory, OpDef};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;
