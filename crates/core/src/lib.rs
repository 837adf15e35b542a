//! Tofu's core contribution: automatic dataflow-graph partitioning.
//!
//! Given a training graph built with `tofu-graph`, this crate finds and
//! applies a partition plan that splits every tensor and parallelizes every
//! operator across `k` workers while minimizing total communication (§5 of
//! the paper):
//!
//! 1. [`coarsen`] groups forward/backward operators, coalesces element-wise
//!    runs and merges unrolled RNN timesteps (§5.1);
//! 2. [`dp`] searches one *basic step* (a 2-way split of every tensor along
//!    one dimension) by dynamic programming over the coarsened chain —
//!    [`dp::search`], held plan-for-plan to the reference
//!    [`dp::unoptimized_search`], which takes the same parameters;
//! 3. [`recursive`] applies the DP recursively to reach `k = k1·…·km`
//!    workers (§5.2, Theorems 1–3): [`partition`] for a one-shot call,
//!    [`partition_cached`] against a caller-owned [`SearchCaches`], both
//!    over [`partition_with_factors`], and [`unoptimized_partition`], the
//!    same recursion over the reference engine;
//! 4. [`genplan`] expands the original graph into the per-worker partitioned
//!    graph with fused MultiFetch gathers, spread reductions and the
//!    memory-planner control dependencies (§6);
//! 5. [`baselines`] implements the §7.3 comparison partitioners
//!    (AllRow-Greedy, Spartan, EqualChop, ICML18) and [`flat`] measures the
//!    un-coarsened/non-recursive search space for Table 1.
//!
//! # Examples
//!
//! ```
//! use tofu_core::recursive::{partition, PartitionOptions};
//! use tofu_graph::{autodiff, Attrs, Graph};
//! use tofu_tensor::Shape;
//!
//! let mut g = Graph::new();
//! let x = g.add_input("x", Shape::new(vec![32, 64]));
//! let w = g.add_weight("w", Shape::new(vec![64, 16]));
//! let labels = g.add_input("labels", Shape::new(vec![32]));
//! let y = g.add_op("matmul", "fc", &[x, w], Attrs::new()).unwrap();
//! let loss = g.add_op("softmax_ce", "loss", &[y, labels], Attrs::new()).unwrap();
//! autodiff::backward(&mut g, loss, &[w]).unwrap();
//!
//! let plan = partition(&g, &PartitionOptions { workers: 8, ..Default::default() }).unwrap();
//! assert_eq!(plan.steps.len(), 3); // 8 = 2 × 2 × 2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod cache;
pub mod coarsen;
pub mod dp;
pub mod error;
pub mod flat;
pub mod genplan;
pub mod recursive;
pub mod spec;
pub mod strategies;

pub use cache::{request_fingerprint, CacheStats, SearchCaches};
pub use coarsen::{coarsen, CoarseGraph};
pub use dp::{ExtraInputs, NodeChoice, StepPlan};
pub use error::CoreError;
pub use genplan::{fetch_pieces, generate, CommEdge, FetchPiece, GenOptions, Region, ShardedGraph};
pub use recursive::{
    factorize, partition, partition_cached, partition_with_factors, partition_with_obs,
    unoptimized_partition, PartitionOptions, PartitionPlan,
};
pub use spec::{ConcreteOut, ConcreteReq, TensorSpec};
pub use strategies::{node_strategies, NodeStrategy, ShapeView};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
