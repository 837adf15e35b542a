//! Reduction, broadcast and softmax kernels.

use crate::{Result, Shape, Tensor, TensorError};

/// Reduction mode for [`Tensor::reduce_axis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceKind {
    /// Sum of elements.
    Sum,
    /// Maximum element.
    Max,
    /// Minimum element.
    Min,
    /// Product of elements.
    Prod,
}

impl Tensor {
    /// Reduces along `axis`, removing the dimension.
    pub fn reduce_axis(&self, axis: usize, kind: ReduceKind) -> Result<Tensor> {
        let extent = self.shape().try_dim(axis)?;
        let mut dims = self.shape().dims().to_vec();
        dims.remove(axis);
        let out_shape = Shape::new(dims);
        let inner: usize = self.shape().dims()[axis + 1..].iter().product();
        let outer: usize = self.shape().dims()[..axis].iter().product();
        let mut out = vec![
            match kind {
                ReduceKind::Sum => 0.0,
                ReduceKind::Max => f32::NEG_INFINITY,
                ReduceKind::Min => f32::INFINITY,
                ReduceKind::Prod => 1.0,
            };
            out_shape.volume().max(1)
        ];
        for o in 0..outer {
            for e in 0..extent {
                let base = (o * extent + e) * inner;
                for i in 0..inner {
                    let v = self.data()[base + i];
                    let acc = &mut out[o * inner + i];
                    *acc = match kind {
                        ReduceKind::Sum => *acc + v,
                        ReduceKind::Max => acc.max(v),
                        ReduceKind::Min => acc.min(v),
                        ReduceKind::Prod => *acc * v,
                    };
                }
            }
        }
        Tensor::from_vec(out_shape, out)
    }

    /// Sums along `axis`, removing the dimension.
    pub fn sum_axis(&self, axis: usize) -> Result<Tensor> {
        self.reduce_axis(axis, ReduceKind::Sum)
    }

    /// Adds a rank-1 bias of extent `shape[axis]` broadcast over all other
    /// dimensions.
    pub fn broadcast_add(&self, bias: &Tensor, axis: usize) -> Result<Tensor> {
        if bias.shape().rank() != 1 {
            return Err(TensorError::Incompatible("bias must be rank 1".into()));
        }
        let extent = self.shape().try_dim(axis)?;
        if bias.shape().dim(0) != extent {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().dims().to_vec(),
                rhs: bias.shape().dims().to_vec(),
            });
        }
        let inner: usize = self.shape().dims()[axis + 1..].iter().product();
        let mut out = self.clone();
        for (flat, v) in out.data_mut().iter_mut().enumerate() {
            let coord = (flat / inner) % extent;
            *v += bias.data()[coord];
        }
        Ok(out)
    }

    /// Mean softmax cross-entropy against integer labels.
    pub fn softmax_cross_entropy(&self, labels: &[usize]) -> Result<f32> {
        if self.shape().rank() != 2 {
            return Err(TensorError::Incompatible("softmax expects rank-2 input".into()));
        }
        let probs = self.softmax_axis(1)?;
        let (b, c) = (self.shape().dim(0), self.shape().dim(1));
        if labels.len() != b {
            return Err(TensorError::Incompatible(format!(
                "{} labels for batch {b}",
                labels.len()
            )));
        }
        let mut loss = 0.0;
        for (row, &label) in labels.iter().enumerate() {
            if label >= c {
                return Err(TensorError::Incompatible(format!("label {label} >= classes {c}")));
            }
            loss -= probs.data()[row * c + label].max(1e-12).ln();
        }
        Ok(loss / b as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t23() -> Tensor {
        Tensor::from_vec(Shape::new(vec![2, 3]), vec![1., 2., 3., 4., 5., 6.]).unwrap()
    }

    #[test]
    fn reduce_each_kind() {
        let t = t23();
        assert_eq!(t.reduce_axis(0, ReduceKind::Sum).unwrap().data(), &[5., 7., 9.]);
        assert_eq!(t.reduce_axis(1, ReduceKind::Sum).unwrap().data(), &[6., 15.]);
        assert_eq!(t.reduce_axis(0, ReduceKind::Max).unwrap().data(), &[4., 5., 6.]);
        assert_eq!(t.reduce_axis(0, ReduceKind::Min).unwrap().data(), &[1., 2., 3.]);
        assert_eq!(t.reduce_axis(1, ReduceKind::Prod).unwrap().data(), &[6., 120.]);
    }

    #[test]
    fn reduce_to_scalar() {
        let v = Tensor::arange(4);
        let s = v.sum_axis(0).unwrap();
        assert_eq!(s.shape().rank(), 0);
        assert_eq!(s.data(), &[6.0]);
    }

    #[test]
    fn reduce_axis_out_of_range() {
        assert!(t23().sum_axis(2).is_err());
    }

    #[test]
    fn broadcast_add_per_column_and_row() {
        let t = t23();
        let bias_cols = Tensor::from_vec(Shape::new(vec![3]), vec![10., 20., 30.]).unwrap();
        let out = t.broadcast_add(&bias_cols, 1).unwrap();
        assert_eq!(out.data(), &[11., 22., 33., 14., 25., 36.]);
        let bias_rows = Tensor::from_vec(Shape::new(vec![2]), vec![100., 200.]).unwrap();
        let out = t.broadcast_add(&bias_rows, 0).unwrap();
        assert_eq!(out.data(), &[101., 102., 103., 204., 205., 206.]);
    }

    #[test]
    fn broadcast_add_validates() {
        let t = t23();
        let wrong = Tensor::from_vec(Shape::new(vec![2]), vec![0., 0.]).unwrap();
        assert!(t.broadcast_add(&wrong, 1).is_err());
        let rank2 = Tensor::zeros(Shape::new(vec![1, 3]));
        assert!(t.broadcast_add(&rank2, 1).is_err());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = t23();
        let s = t.softmax_axis(1).unwrap();
        for row in 0..2 {
            let sum: f32 = s.data()[row * 3..(row + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Softmax is shift invariant.
        let shifted = t.add_scalar(100.0).softmax_axis(1).unwrap();
        assert!(shifted.allclose(&s, 1e-5));
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_small() {
        let logits =
            Tensor::from_vec(Shape::new(vec![1, 3]), vec![100., 0., 0.]).unwrap();
        let loss = logits.softmax_cross_entropy(&[0]).unwrap();
        assert!(loss < 1e-3);
        let bad = logits.softmax_cross_entropy(&[1]).unwrap();
        assert!(bad > 10.0);
    }

    #[test]
    fn cross_entropy_validates_labels() {
        let logits = Tensor::zeros(Shape::new(vec![2, 3]));
        assert!(logits.softmax_cross_entropy(&[0]).is_err());
        assert!(logits.softmax_cross_entropy(&[0, 5]).is_err());
    }
}
