//! Element-wise kernels: unary maps, binary zips, and scalar broadcasts.
//!
//! These correspond to the 77 element-wise MXNet operators the paper counts
//! (§4.1); every one partitions trivially along any dimension, which is why
//! the coarsening pass (tofu-core) coalesces runs of them.

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

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a - b)
    }

    /// Element-wise multiplication.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a * b)
    }

    /// Element-wise division.
    pub fn div(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a / b)
    }

    /// Element-wise maximum of two tensors.
    pub fn maximum(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, f32::max)
    }

    /// Element-wise minimum of two tensors.
    pub fn minimum(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, f32::min)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|a| a + s)
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        self.map(|a| a * s)
    }

    /// Element-wise negation.
    pub fn neg(&self) -> Tensor {
        self.map(|a| -a)
    }

    /// Element-wise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Element-wise exponential.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }

    /// Element-wise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.map(f32::ln)
    }

    /// Element-wise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Element-wise square.
    pub fn square(&self) -> Tensor {
        self.map(|a| a * a)
    }

    /// Element-wise logistic sigmoid `1 / (1 + e^-x)`.
    pub fn sigmoid(&self) -> Tensor {
        self.map(|a| 1.0 / (1.0 + (-a).exp()))
    }

    /// Element-wise hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.map(f32::tanh)
    }

    /// Element-wise rectified linear unit `max(x, 0)`.
    pub fn relu(&self) -> Tensor {
        self.map(|a| a.max(0.0))
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
        assert_eq!(b.sub(&a).unwrap().data(), &[3., 3., 3.]);
        assert_eq!(a.mul(&b).unwrap().data(), &[4., 10., 18.]);
        assert_eq!(b.div(&a).unwrap().data(), &[4., 2.5, 2.]);
        assert_eq!(a.maximum(&b).unwrap().data(), &[4., 5., 6.]);
        assert_eq!(a.minimum(&b).unwrap().data(), &[1., 2., 3.]);
    }

    #[test]
    fn binary_shape_mismatch() {
        let a = t(vec![1., 2.]);
        let b = t(vec![1., 2., 3.]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn unary_ops() {
        let a = t(vec![-1., 0., 4.]);
        assert_eq!(a.neg().data(), &[1., 0., -4.]);
        assert_eq!(a.abs().data(), &[1., 0., 4.]);
        assert_eq!(a.relu().data(), &[0., 0., 4.]);
        assert_eq!(a.square().data(), &[1., 0., 16.]);
        assert!((a.sqrt().data()[2] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn scalar_ops() {
        let a = t(vec![1., 2.]);
        assert_eq!(a.add_scalar(1.0).data(), &[2., 3.]);
        assert_eq!(a.mul_scalar(2.0).data(), &[2., 4.]);
        assert_eq!(a.sum_all(), 3.0);
    }

    #[test]
    fn sigmoid_and_tanh_bounds() {
        let a = t(vec![-100., 0., 100.]);
        let s = a.sigmoid();
        assert!(s.data()[0] < 1e-6);
        assert!((s.data()[1] - 0.5).abs() < 1e-6);
        assert!(s.data()[2] > 1.0 - 1e-6);
        let h = a.tanh();
        assert!((h.data()[0] + 1.0).abs() < 1e-6);
        assert!((h.data()[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn exp_ln_roundtrip() {
        let a = t(vec![0.5, 1.0, 2.0]);
        assert!(a.exp().ln().allclose(&a, 1e-6));
    }
}
