//! The element-wise primitives the library itself calls: a unary map, a
//! binary zip, addition, multiplication and a full sum.
//!
//! The element-wise *operators* (the 77 MXNet ones the paper counts, §4.1)
//! are not here: each one's kernel is a closure over `map` / `zip` in its
//! registry entry in `tofu-graph` (`ops/elementwise.rs`), beside its shape,
//! TDL description and gradient, so it is defined once.

use crate::{Result, Tensor, TensorError};

impl Tensor {
    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.data().iter().copied().map(f).collect();
        Tensor::from_vec(self.shape().clone(), data).expect("same volume")
    }

    /// Combines two same-shape tensors element-wise with `f`.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().dims().to_vec(),
                rhs: other.shape().dims().to_vec(),
            });
        }
        let data = self.data().iter().zip(other.data()).map(|(&a, &b)| f(a, b)).collect();
        Tensor::from_vec(self.shape().clone(), data)
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise multiplication.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a * b)
    }

    /// Sum of all elements.
    pub fn sum_all(&self) -> f32 {
        self.data().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    fn t(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(Shape::new(vec![n]), v).unwrap()
    }

    #[test]
    fn binary_ops() {
        let a = t(vec![1., 2., 3.]);
        let b = t(vec![4., 5., 6.]);
        assert_eq!(a.add(&b).unwrap().data(), &[5., 7., 9.]);
        assert_eq!(a.mul(&b).unwrap().data(), &[4., 10., 18.]);
        assert_eq!(b.zip(&a, |x, y| x - y).unwrap().data(), &[3., 3., 3.]);
    }

    #[test]
    fn binary_shape_mismatch() {
        let a = t(vec![1., 2.]);
        let b = t(vec![1., 2., 3.]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn map_and_sum() {
        let a = t(vec![-1., 0., 4.]);
        assert_eq!(a.map(|x| x.max(0.0)).data(), &[0., 0., 4.]);
        assert_eq!(a.sum_all(), 3.0);
    }
}
