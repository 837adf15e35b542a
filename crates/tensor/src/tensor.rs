//! Dense row-major tensor storage and structural operations.

use std::borrow::Borrow;

use crate::{ReduceKind, Result, Shape, TensorError};

/// A dense, row-major tensor of `f32` elements.
///
/// Structural operations (slicing, concatenation, transposition) are the
/// building blocks that partitioned graphs use to shard and reassemble data;
/// they are exercised heavily by the cross-crate validation tests that check
/// a partitioned graph computes the same values as the original graph.
///
/// # Examples
///
/// ```
/// use tofu_tensor::{Shape, Tensor};
///
/// let t = Tensor::from_vec(Shape::new(vec![2, 3]), vec![0., 1., 2., 3., 4., 5.]).unwrap();
/// let top = t.slice(0, 0, 1).unwrap();
/// let bottom = t.slice(0, 1, 2).unwrap();
/// let back = Tensor::concat(&[top, bottom], 0).unwrap();
/// assert_eq!(back.data(), t.data());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and a row-major data buffer.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Tensor> {
        if shape.volume() != data.len() {
            return Err(TensorError::DataLength { expected: shape.volume(), actual: data.len() });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: Shape) -> Tensor {
        let volume = shape.volume();
        Tensor { shape, data: vec![0.0; volume] }
    }

    /// Creates a tensor filled with a constant.
    pub fn full(shape: Shape, value: f32) -> Tensor {
        let volume = shape.volume();
        Tensor { shape, data: vec![value; volume] }
    }

    /// Creates a scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Tensor {
        Tensor { shape: Shape::scalar(), data: vec![value] }
    }

    /// Creates a rank-1 tensor `[0, 1, ..., n-1]`.
    pub fn arange(n: usize) -> Tensor {
        Tensor { shape: Shape::new(vec![n]), data: (0..n).map(|i| i as f32).collect() }
    }

    /// Returns the tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Returns the underlying row-major data buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Returns a mutable view of the underlying data buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reads the element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Writes the element at a multi-dimensional index.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// Reinterprets the data under a new shape with the same volume.
    pub fn reshape(&self, shape: Shape) -> Result<Tensor> {
        if shape.volume() != self.data.len() {
            return Err(TensorError::DataLength { expected: shape.volume(), actual: self.data.len() });
        }
        Ok(Tensor { shape, data: self.data.clone() })
    }

    /// Extracts the sub-tensor `[start, end)` along `axis`.
    pub fn slice(&self, axis: usize, start: usize, end: usize) -> Result<Tensor> {
        let extent = self.shape.try_dim(axis)?;
        if start > end || end > extent {
            return Err(TensorError::InvalidSlice { start, end, extent });
        }
        let out_shape = self.shape.with_dim(axis, end - start)?;
        // Treat the tensor as (outer, extent, inner) around `axis` and copy
        // contiguous inner*len blocks.
        let inner: usize = self.shape.dims()[axis + 1..].iter().product();
        let outer: usize = self.shape.dims()[..axis].iter().product();
        let len = end - start;
        let mut out = Vec::with_capacity(out_shape.volume());
        for o in 0..outer {
            let base = o * extent * inner + start * inner;
            out.extend_from_slice(&self.data[base..base + len * inner]);
        }
        Tensor::from_vec(out_shape, out)
    }

    /// Copies the `len`-sized block at `src_begin` of `src` to `dst_begin`
    /// of `self`; see [`copy_block`](crate::copy_block) for the contract.
    pub fn copy_block(
        &mut self,
        src: &Tensor,
        src_begin: &[i64],
        dst_begin: &[i64],
        len: &[i64],
    ) -> Result<()> {
        crate::copy_block(
            &mut self.data,
            &self.shape,
            &src.data,
            &src.shape,
            src_begin,
            dst_begin,
            len,
        )
    }

    /// Folds the `len`-sized block at `src_begin` of `src` into the block at
    /// `dst_begin` of `self` with `kind`'s scalar op; see
    /// [`copy_block`](crate::copy_block) for the contract.
    pub fn fold_block(
        &mut self,
        src: &Tensor,
        src_begin: &[i64],
        dst_begin: &[i64],
        len: &[i64],
        kind: ReduceKind,
    ) -> Result<()> {
        let (dst, src) = ((&mut self.data[..], &self.shape), (&src.data[..], &src.shape));
        crate::block::fold_block(dst, src, src_begin, dst_begin, len, kind)
    }

    /// Concatenates tensors along `axis`; all other extents must match.
    pub fn concat<T: Borrow<Tensor>>(parts: &[T], axis: usize) -> Result<Tensor> {
        let first = parts
            .first()
            .ok_or_else(|| TensorError::Incompatible("concat of zero tensors".into()))?
            .borrow();
        let rank = first.shape.rank();
        if axis >= rank {
            return Err(TensorError::AxisOutOfRange { axis, rank });
        }
        let mut total = 0usize;
        for p in parts.iter().map(Borrow::borrow) {
            if p.shape.rank() != rank {
                return Err(TensorError::ShapeMismatch {
                    lhs: first.shape.dims().to_vec(),
                    rhs: p.shape.dims().to_vec(),
                });
            }
            for d in 0..rank {
                if d != axis && p.shape.dim(d) != first.shape.dim(d) {
                    return Err(TensorError::ShapeMismatch {
                        lhs: first.shape.dims().to_vec(),
                        rhs: p.shape.dims().to_vec(),
                    });
                }
            }
            total += p.shape.dim(axis);
        }
        let out_shape = first.shape.with_dim(axis, total)?;
        let inner: usize = first.shape.dims()[axis + 1..].iter().product();
        let outer: usize = first.shape.dims()[..axis].iter().product();
        let mut out = vec![0.0f32; out_shape.volume()];
        let out_axis_stride = total * inner;
        for o in 0..outer {
            let mut written = 0usize;
            for p in parts.iter().map(Borrow::borrow) {
                let len = p.shape.dim(axis);
                let src_base = o * len * inner;
                let dst_base = o * out_axis_stride + written * inner;
                out[dst_base..dst_base + len * inner]
                    .copy_from_slice(&p.data[src_base..src_base + len * inner]);
                written += len;
            }
        }
        Tensor::from_vec(out_shape, out)
    }

    /// Splits the tensor into `parts` equal pieces along `axis`.
    pub fn split(&self, axis: usize, parts: usize) -> Result<Vec<Tensor>> {
        let extent = self.shape.try_dim(axis)?;
        if parts == 0 || extent % parts != 0 {
            return Err(TensorError::Incompatible(format!(
                "cannot split extent {extent} into {parts} parts"
            )));
        }
        let chunk = extent / parts;
        (0..parts).map(|p| self.slice(axis, p * chunk, (p + 1) * chunk)).collect()
    }

    /// Returns the tensor with dimensions reordered by `perm`.
    pub fn permute(&self, perm: &[usize]) -> Result<Tensor> {
        let rank = self.shape.rank();
        if perm.len() != rank {
            return Err(TensorError::Incompatible(format!(
                "permutation of length {} for rank {rank}",
                perm.len()
            )));
        }
        let mut seen = vec![false; rank];
        for &p in perm {
            if p >= rank || seen[p] {
                return Err(TensorError::Incompatible(format!("invalid permutation {perm:?}")));
            }
            seen[p] = true;
        }
        let out_dims: Vec<usize> = perm.iter().map(|&p| self.shape.dim(p)).collect();
        let out_shape = Shape::new(out_dims);
        let mut out = Tensor::zeros(out_shape.clone());
        let in_strides = self.shape.strides();
        for (flat, idx) in out_shape.indices().enumerate() {
            let mut src = 0usize;
            for (out_axis, &in_axis) in perm.iter().enumerate() {
                src += idx[out_axis] * in_strides[in_axis];
            }
            out.data[flat] = self.data[src];
        }
        Ok(out)
    }

    /// Returns the matrix transpose of a rank-2 tensor.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.shape.rank() != 2 {
            return Err(TensorError::Incompatible(format!(
                "transpose requires rank 2, got {}",
                self.shape.rank()
            )));
        }
        self.permute(&[1, 0])
    }

    /// Returns true when every element differs from `other` by at most `tol`.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t23() -> Tensor {
        Tensor::from_vec(Shape::new(vec![2, 3]), vec![0., 1., 2., 3., 4., 5.]).unwrap()
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(Shape::new(vec![2, 2]), vec![1.0; 3]).is_err());
    }

    #[test]
    fn at_and_set() {
        let mut t = t23();
        assert_eq!(t.at(&[1, 2]), 5.0);
        t.set(&[0, 1], 9.0);
        assert_eq!(t.at(&[0, 1]), 9.0);
    }

    #[test]
    fn slice_rows_and_cols() {
        let t = t23();
        let r = t.slice(0, 1, 2).unwrap();
        assert_eq!(r.shape().dims(), &[1, 3]);
        assert_eq!(r.data(), &[3., 4., 5.]);
        let c = t.slice(1, 1, 3).unwrap();
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.data(), &[1., 2., 4., 5.]);
    }

    #[test]
    fn slice_invalid_range_errors() {
        let t = t23();
        assert!(t.slice(1, 2, 5).is_err());
        assert!(t.slice(2, 0, 1).is_err());
        assert!(t.slice(0, 1, 0).is_err());
    }

    #[test]
    fn concat_inverts_split() {
        let t = t23();
        for axis in 0..2 {
            let parts = t.split(axis, if axis == 0 { 2 } else { 3 }).unwrap();
            let back = Tensor::concat(&parts, axis).unwrap();
            assert_eq!(back, t);
        }
    }

    #[test]
    fn concat_shape_mismatch_errors() {
        let a = Tensor::zeros(Shape::new(vec![2, 3]));
        let b = Tensor::zeros(Shape::new(vec![3, 2]));
        assert!(Tensor::concat(&[a, b], 0).is_err());
        assert!(Tensor::concat::<Tensor>(&[], 0).is_err());
    }

    #[test]
    fn split_uneven_errors() {
        assert!(t23().split(1, 2).is_err());
        assert!(t23().split(0, 0).is_err());
    }

    #[test]
    fn permute_transposes() {
        let t = t23();
        let p = t.permute(&[1, 0]).unwrap();
        assert_eq!(p.shape().dims(), &[3, 2]);
        assert_eq!(p.at(&[2, 1]), t.at(&[1, 2]));
        assert_eq!(t.transpose().unwrap(), p);
    }

    #[test]
    fn permute_validates() {
        let t = t23();
        assert!(t.permute(&[0]).is_err());
        assert!(t.permute(&[0, 0]).is_err());
        assert!(t.permute(&[0, 2]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = t23();
        let r = t.reshape(Shape::new(vec![3, 2])).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(Shape::new(vec![4])).is_err());
    }

    #[test]
    fn allclose_tolerates_small_differences() {
        let a = t23();
        let mut b = t23();
        b.data_mut()[0] += 1e-6;
        assert!(a.allclose(&b, 1e-5));
        b.data_mut()[0] += 1.0;
        assert!(!a.allclose(&b, 1e-5));
    }

    #[test]
    fn arange_and_scalar() {
        assert_eq!(Tensor::arange(3).data(), &[0., 1., 2.]);
        assert_eq!(Tensor::scalar(7.0).shape().rank(), 0);
    }
}
