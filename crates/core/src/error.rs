//! Error type for the partitioner.

use std::fmt;

/// Errors produced while searching for or applying a partition plan.
#[derive(Debug, Clone)]
pub enum CoreError {
    /// A node's operator has no TDL description, so it cannot be partitioned
    /// (the paper's fundamental limitation, §9).
    NotDescribable {
        /// Node name.
        node: String,
        /// Operator name.
        op: String,
    },
    /// A node has no viable strategy under the current constraints (e.g. no
    /// dimension divisible by the requested number of workers).
    NoStrategy {
        /// Node name.
        node: String,
        /// Human-readable detail.
        detail: String,
    },
    /// The dynamic-programming state space exceeded its safety bound.
    SearchSpaceExceeded {
        /// Number of states reached.
        states: usize,
        /// The configured bound.
        bound: usize,
    },
    /// The requested worker count cannot be factorized/used.
    BadWorkerCount(usize),
    /// An error from the graph layer.
    Graph(tofu_graph::GraphError),
    /// An error from TDL analysis.
    Tdl(tofu_tdl::TdlError),
    /// A [`ShardedGraph`](crate::ShardedGraph) whose public fields break an
    /// invariant `generate` establishes, found while planning its execution.
    InvalidShardedGraph(String),
    /// Free-form internal invariant violation.
    Internal(String),
}

impl CoreError {
    /// True for the *provable* rejections — no strategy for some node, an
    /// unusable worker count — which, like a plan, are pure functions of the
    /// request and may be memoized under its fingerprint. Resource-bound and
    /// internal errors depend on circumstance and are never memoized.
    pub fn is_provable(&self) -> bool {
        matches!(self, CoreError::NoStrategy { .. } | CoreError::BadWorkerCount(_))
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NotDescribable { node, op } => {
                write!(f, "node {node:?} uses operator {op:?} with no TDL description")
            }
            CoreError::NoStrategy { node, detail } => {
                write!(f, "node {node:?} has no viable partition strategy: {detail}")
            }
            CoreError::SearchSpaceExceeded { states, bound } => {
                write!(f, "DP state space exceeded: {states} states > bound {bound}")
            }
            CoreError::BadWorkerCount(k) => write!(f, "cannot partition across {k} workers"),
            CoreError::Graph(e) => write!(f, "graph: {e}"),
            CoreError::Tdl(e) => write!(f, "tdl: {e}"),
            CoreError::InvalidShardedGraph(msg) => write!(f, "invalid sharded graph: {msg}"),
            CoreError::Internal(msg) => write!(f, "internal: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<tofu_graph::GraphError> for CoreError {
    fn from(e: tofu_graph::GraphError) -> Self {
        CoreError::Graph(e)
    }
}

impl From<tofu_tdl::TdlError> for CoreError {
    fn from(e: tofu_tdl::TdlError) -> Self {
        CoreError::Tdl(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = CoreError::NotDescribable { node: "n".into(), op: "cholesky".into() };
        assert!(e.to_string().contains("cholesky"));
        assert!(CoreError::BadWorkerCount(0).to_string().contains('0'));
        assert!(CoreError::SearchSpaceExceeded { states: 10, bound: 5 }.to_string().contains("10"));
    }
}
