//! Error type for tensor operations.

use std::fmt;

/// Errors produced by tensor construction and kernels.
///
/// All tensor APIs are fallible rather than panicking so that higher layers
/// (the graph executor in particular) can surface shape mismatches as
/// structured errors pointing at the offending graph node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The element count of the provided buffer does not match the shape.
    DataLength {
        /// Number of elements the shape requires.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// Two tensors that must have identical shapes do not.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        lhs: Vec<usize>,
        /// Shape of the right-hand operand.
        rhs: Vec<usize>,
    },
    /// An axis argument is out of range for the tensor's rank.
    AxisOutOfRange {
        /// The requested axis.
        axis: usize,
        /// The tensor's rank.
        rank: usize,
    },
    /// A slice range `[start, end)` is invalid for the dimension extent.
    InvalidSlice {
        /// Start of the requested range.
        start: usize,
        /// End of the requested range (exclusive).
        end: usize,
        /// Extent of the sliced dimension.
        extent: usize,
    },
    /// A block `[begin, begin + len)` leaves the dimension it addresses.
    InvalidBlock {
        /// The offending dimension.
        axis: usize,
        /// Start of the block along `axis`.
        begin: i64,
        /// Extent of the block along `axis`.
        len: i64,
        /// Extent of the addressed dimension.
        extent: usize,
    },
    /// An operation's shape requirements are violated (free-form detail).
    Incompatible(String),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::DataLength { expected, actual } => {
                write!(f, "data length {actual} does not match shape volume {expected}")
            }
            TensorError::ShapeMismatch { lhs, rhs } => {
                write!(f, "shape mismatch: {lhs:?} vs {rhs:?}")
            }
            TensorError::AxisOutOfRange { axis, rank } => {
                write!(f, "axis {axis} out of range for rank {rank}")
            }
            TensorError::InvalidSlice { start, end, extent } => {
                write!(f, "invalid slice [{start}, {end}) for extent {extent}")
            }
            TensorError::InvalidBlock { axis, begin, len, extent } => {
                write!(f, "invalid block: begin {begin} len {len} on axis {axis} of extent {extent}")
            }
            TensorError::Incompatible(msg) => write!(f, "incompatible operands: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TensorError::DataLength { expected: 4, actual: 3 };
        assert!(e.to_string().contains('4'));
        assert!(e.to_string().contains('3'));
        let e = TensorError::ShapeMismatch { lhs: vec![2], rhs: vec![3] };
        assert!(e.to_string().contains("[2]"));
        let e = TensorError::AxisOutOfRange { axis: 5, rank: 2 };
        assert!(e.to_string().contains("axis 5"));
        let e = TensorError::InvalidSlice { start: 1, end: 9, extent: 4 };
        assert!(e.to_string().contains("extent 4") || e.to_string().contains('4'));
        let e = TensorError::InvalidBlock { axis: 2, begin: 3, len: 7, extent: 8 };
        assert!(e.to_string().contains("axis 2") && e.to_string().contains("extent 8"));
        let e = TensorError::Incompatible("matmul inner dims".into());
        assert!(e.to_string().contains("matmul"));
    }
}
