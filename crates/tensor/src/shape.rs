//! Tensor shapes and index arithmetic.

use std::fmt;

use crate::{Result, TensorError};

/// The extents of a tensor along each dimension, in row-major order.
///
/// A rank-0 shape (no dimensions) denotes a scalar with volume 1.
///
/// # Examples
///
/// ```
/// use tofu_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.volume(), 24);
/// assert_eq!(s.dim(1), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from per-dimension extents.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape(dims)
    }

    /// Creates a rank-0 (scalar) shape.
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Returns the number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Returns the extent of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`; `dims().get(axis)` is the fallible
    /// variant.
    pub fn dim(&self, axis: usize) -> usize {
        self.0[axis]
    }

    /// Returns the extent of dimension `axis`, or an error if out of range.
    pub(crate) fn try_dim(&self, axis: usize) -> Result<usize> {
        self.0
            .get(axis)
            .copied()
            .ok_or(TensorError::AxisOutOfRange { axis, rank: self.rank() })
    }

    /// Returns the per-dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Returns the total number of elements.
    pub fn volume(&self) -> usize {
        self.0.iter().product()
    }

    /// Returns the size in bytes assuming 4-byte (`f32`) elements.
    pub fn bytes(&self) -> u64 {
        self.volume() as u64 * 4
    }

    /// Returns row-major strides (in elements) for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat row-major offset.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the index rank or any coordinate is out of
    /// range.
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.rank(), "index rank mismatch");
        let mut off = 0;
        let mut stride = 1;
        for axis in (0..self.rank()).rev() {
            debug_assert!(index[axis] < self.0[axis], "index out of bounds");
            off += index[axis] * stride;
            stride *= self.0[axis];
        }
        off
    }

    /// Returns a shape with `axis` replaced by `extent`.
    pub fn with_dim(&self, axis: usize, extent: usize) -> Result<Shape> {
        if axis >= self.rank() {
            return Err(TensorError::AxisOutOfRange { axis, rank: self.rank() });
        }
        let mut dims = self.0.clone();
        dims[axis] = extent;
        Ok(Shape(dims))
    }

    /// Splits `axis` into `parts` equal extents, erroring when not divisible.
    pub fn split_dim(&self, axis: usize, parts: usize) -> Result<Shape> {
        let extent = self.try_dim(axis)?;
        if parts == 0 || extent % parts != 0 {
            return Err(TensorError::Incompatible(format!(
                "cannot split extent {extent} of axis {axis} into {parts} parts"
            )));
        }
        self.with_dim(axis, extent / parts)
    }

    /// Iterates over every multi-dimensional index of this shape in row-major
    /// order.
    pub fn indices(&self) -> IndexIter {
        IndexIter { shape: self.0.clone(), next: Some(vec![0; self.rank()]), empty: self.volume() == 0 }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

/// Row-major iterator over all indices of a [`Shape`].
pub struct IndexIter {
    shape: Vec<usize>,
    next: Option<Vec<usize>>,
    empty: bool,
}

impl Iterator for IndexIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.empty {
            return None;
        }
        let current = self.next.take()?;
        // Compute the successor index, carrying from the innermost axis.
        let mut succ = current.clone();
        let mut axis = self.shape.len();
        loop {
            if axis == 0 {
                // Overflowed past the outermost axis: iteration is complete.
                self.next = None;
                break;
            }
            axis -= 1;
            succ[axis] += 1;
            if succ[axis] < self.shape[axis] {
                self.next = Some(succ);
                break;
            }
            succ[axis] = 0;
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_rank() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.volume(), 24);
        assert_eq!(s.bytes(), 96);
        assert_eq!(Shape::scalar().volume(), 1);
        assert_eq!(Shape::scalar().rank(), 0);
    }

    #[test]
    fn offset_roundtrip() {
        let s = Shape::new(vec![3, 4, 5]);
        let offsets: Vec<usize> = s.indices().map(|idx| s.offset(&idx)).collect();
        assert_eq!(offsets, (0..s.volume()).collect::<Vec<_>>());
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn index_iterator_covers_all_positions_in_order() {
        let s = Shape::new(vec![2, 3]);
        let all: Vec<_> = s.indices().collect();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0], vec![0, 0]);
        assert_eq!(all[1], vec![0, 1]);
        assert_eq!(all[5], vec![1, 2]);
    }

    #[test]
    fn index_iterator_empty_shape() {
        let s = Shape::new(vec![2, 0, 3]);
        assert_eq!(s.indices().count(), 0);
    }

    #[test]
    fn index_iterator_scalar_yields_one_empty_index() {
        let all: Vec<_> = Shape::scalar().indices().collect();
        assert_eq!(all, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn with_dim_and_split() {
        let s = Shape::new(vec![8, 6]);
        assert_eq!(s.with_dim(0, 4).unwrap(), Shape::new(vec![4, 6]));
        assert_eq!(s.split_dim(1, 2).unwrap(), Shape::new(vec![8, 3]));
        assert!(s.split_dim(1, 4).is_err());
        assert!(s.with_dim(2, 1).is_err());
    }

    #[test]
    fn try_dim_errors_out_of_range() {
        let s = Shape::new(vec![2]);
        assert_eq!(s.try_dim(0).unwrap(), 2);
        assert!(s.try_dim(1).is_err());
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(vec![2, 3]).to_string(), "(2, 3)");
        assert_eq!(Shape::scalar().to_string(), "()");
    }
}
