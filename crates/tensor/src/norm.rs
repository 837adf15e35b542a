//! Axis-aware normalization kernels: softmax along an arbitrary axis, its
//! gradient, and layer normalization with its backward pieces.
//!
//! Every kernel walks "rows" along the normalized axis with an explicit
//! (outer, inner) stride decomposition.

use crate::{Result, Shape, Tensor, TensorError};

/// (outer, extent, inner) decomposition of `shape` around `axis`.
fn row_geometry(shape: &Shape, axis: usize) -> Result<(usize, usize, usize)> {
    let extent = shape.try_dim(axis)?;
    let outer: usize = shape.dims()[..axis].iter().product();
    let inner: usize = shape.dims()[axis + 1..].iter().product();
    Ok((outer, extent, inner))
}

/// Calls `f` with the flat base offset and stride of every row along `axis`.
fn for_each_row(outer: usize, extent: usize, inner: usize, mut f: impl FnMut(usize, usize)) {
    for o in 0..outer {
        for i in 0..inner {
            f(o * extent * inner + i, inner);
        }
    }
}

impl Tensor {
    /// Softmax along `axis` of a tensor of any rank.
    pub fn softmax_axis(&self, axis: usize) -> Result<Tensor> {
        let (outer, extent, inner) = row_geometry(self.shape(), axis)?;
        let mut out = self.clone();
        let data = out.data_mut();
        for_each_row(outer, extent, inner, |base, stride| {
            let mut mx = f32::NEG_INFINITY;
            for e in 0..extent {
                mx = mx.max(data[base + e * stride]);
            }
            let mut denom = 0.0;
            for e in 0..extent {
                let v = &mut data[base + e * stride];
                *v = (*v - mx).exp();
                denom += *v;
            }
            for e in 0..extent {
                data[base + e * stride] /= denom;
            }
        });
        Ok(out)
    }

    /// Gradient of softmax along `axis`: given upstream gradient `self = dy`
    /// and the forward output `y`, returns `y ⊙ (dy − Σ_axis dy·y)`.
    pub fn softmax_grad_axis(&self, y: &Tensor, axis: usize) -> Result<Tensor> {
        if self.shape() != y.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().dims().to_vec(),
                rhs: y.shape().dims().to_vec(),
            });
        }
        let (outer, extent, inner) = row_geometry(self.shape(), axis)?;
        let mut out = self.clone();
        let dy = self.data();
        let yd = y.data();
        let data = out.data_mut();
        for_each_row(outer, extent, inner, |base, stride| {
            let mut dot = 0.0;
            for e in 0..extent {
                dot += dy[base + e * stride] * yd[base + e * stride];
            }
            for e in 0..extent {
                let idx = base + e * stride;
                data[idx] = yd[idx] * (dy[idx] - dot);
            }
        });
        Ok(out)
    }

    /// Layer normalization along `axis` with per-element scale and shift:
    /// `out = (x − μ)/√(σ² + eps) · gamma + beta`, statistics per row.
    pub fn layer_norm_axis(
        &self,
        gamma: &Tensor,
        beta: &Tensor,
        axis: usize,
        eps: f32,
    ) -> Result<Tensor> {
        let (outer, extent, inner) = row_geometry(self.shape(), axis)?;
        check_param(gamma, extent, "gamma")?;
        check_param(beta, extent, "beta")?;
        let mut out = self.clone();
        let x = self.data();
        let g = gamma.data();
        let bt = beta.data();
        let data = out.data_mut();
        for_each_row(outer, extent, inner, |base, stride| {
            let inv = row_inv_std(x, base, stride, extent, eps);
            let mean = row_mean(x, base, stride, extent);
            for e in 0..extent {
                let idx = base + e * stride;
                data[idx] = (x[idx] - mean) * inv * g[e] + bt[e];
            }
        });
        Ok(out)
    }

    /// The normalized activations `x̂ = (x − μ)/√(σ² + eps)` of layer norm —
    /// the piece its gamma-gradient contracts against.
    pub fn layer_norm_xhat_axis(&self, axis: usize, eps: f32) -> Result<Tensor> {
        let (outer, extent, inner) = row_geometry(self.shape(), axis)?;
        let mut out = self.clone();
        let x = self.data();
        let data = out.data_mut();
        for_each_row(outer, extent, inner, |base, stride| {
            let inv = row_inv_std(x, base, stride, extent, eps);
            let mean = row_mean(x, base, stride, extent);
            for e in 0..extent {
                let idx = base + e * stride;
                data[idx] = (x[idx] - mean) * inv;
            }
        });
        Ok(out)
    }

    /// Input gradient of layer norm: `self = dy`, with the forward input `x`
    /// and scale `gamma`; per row with `g = dy·gamma`:
    /// `dx = (g − mean(g) − x̂·mean(g·x̂)) / √(σ² + eps)`.
    pub fn layer_norm_x_grad_axis(
        &self,
        x: &Tensor,
        gamma: &Tensor,
        axis: usize,
        eps: f32,
    ) -> Result<Tensor> {
        if self.shape() != x.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().dims().to_vec(),
                rhs: x.shape().dims().to_vec(),
            });
        }
        let (outer, extent, inner) = row_geometry(self.shape(), axis)?;
        check_param(gamma, extent, "gamma")?;
        let mut out = self.clone();
        let dy = self.data();
        let xd = x.data();
        let g = gamma.data();
        let data = out.data_mut();
        for_each_row(outer, extent, inner, |base, stride| {
            let inv = row_inv_std(xd, base, stride, extent, eps);
            let mean = row_mean(xd, base, stride, extent);
            let m = extent as f32;
            let mut sum_dg = 0.0;
            let mut sum_dg_xhat = 0.0;
            for (e, &ge) in g.iter().enumerate().take(extent) {
                let idx = base + e * stride;
                let dg = dy[idx] * ge;
                sum_dg += dg;
                sum_dg_xhat += dg * (xd[idx] - mean) * inv;
            }
            let (m1, m2) = (sum_dg / m, sum_dg_xhat / m);
            for (e, &ge) in g.iter().enumerate().take(extent) {
                let idx = base + e * stride;
                let dg = dy[idx] * ge;
                let xhat = (xd[idx] - mean) * inv;
                data[idx] = (dg - m1 - xhat * m2) * inv;
            }
        });
        Ok(out)
    }
}

fn check_param(p: &Tensor, extent: usize, name: &str) -> Result<()> {
    if p.shape().rank() != 1 || p.shape().dim(0) != extent {
        return Err(TensorError::Incompatible(format!(
            "{name} must be rank-1 of extent {extent}, got {}",
            p.shape()
        )));
    }
    Ok(())
}

fn row_mean(x: &[f32], base: usize, stride: usize, extent: usize) -> f32 {
    let mut sum = 0.0;
    for e in 0..extent {
        sum += x[base + e * stride];
    }
    sum / extent as f32
}

fn row_inv_std(x: &[f32], base: usize, stride: usize, extent: usize, eps: f32) -> f32 {
    let mean = row_mean(x, base, stride, extent);
    let mut var = 0.0;
    for e in 0..extent {
        let d = x[base + e * stride] - mean;
        var += d * d;
    }
    1.0 / (var / extent as f32 + eps).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_axis_rank3_matches_per_slice_softmax() {
        let t = Tensor::from_vec(
            Shape::new(vec![2, 3, 4]),
            (0..24).map(|x| (x as f32 * 0.3).cos() * 2.0).collect(),
        )
        .unwrap();
        let s = t.softmax_axis(2).unwrap();
        for b in 0..2 {
            let slab = t.slice(0, b, b + 1).unwrap().reshape(Shape::new(vec![3, 4])).unwrap();
            let expect = slab.softmax_axis(1).unwrap();
            let got = s.slice(0, b, b + 1).unwrap().reshape(Shape::new(vec![3, 4])).unwrap();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn softmax_axis_interior_normalizes_that_axis() {
        let t = Tensor::from_vec(
            Shape::new(vec![2, 3, 2]),
            (0..12).map(|x| x as f32).collect(),
        )
        .unwrap();
        let s = t.softmax_axis(1).unwrap();
        // Sum over axis 1 is 1 for every (b, j).
        for b in 0..2 {
            for j in 0..2 {
                let sum: f32 = (0..3).map(|i| s.at(&[b, i, j])).sum();
                assert!((sum - 1.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn softmax_grad_matches_finite_difference() {
        let x = Tensor::from_vec(
            Shape::new(vec![2, 3]),
            vec![0.3, -1.2, 0.8, 2.0, 0.1, -0.4],
        )
        .unwrap();
        let dy = Tensor::from_vec(
            Shape::new(vec![2, 3]),
            vec![1.0, -0.5, 0.25, 0.7, 0.2, -1.1],
        )
        .unwrap();
        let y = x.softmax_axis(1).unwrap();
        let dx = dy.softmax_grad_axis(&y, 1).unwrap();
        let eps = 1e-3f32;
        for probe in 0..6 {
            let mut xp = x.clone();
            xp.data_mut()[probe] += eps;
            let mut xm = x.clone();
            xm.data_mut()[probe] -= eps;
            let f = |t: &Tensor| -> f32 {
                t.softmax_axis(1)
                    .unwrap()
                    .data()
                    .iter()
                    .zip(dy.data())
                    .map(|(a, b)| a * b)
                    .sum()
            };
            let fd = (f(&xp) - f(&xm)) / (2.0 * eps);
            assert!((fd - dx.data()[probe]).abs() < 1e-3, "probe {probe}: {fd} vs {}", dx.data()[probe]);
        }
    }

    #[test]
    fn layer_norm_rows_are_standardized() {
        let x = Tensor::from_vec(
            Shape::new(vec![2, 4]),
            vec![1., 2., 3., 4., -2., 0., 2., 8.],
        )
        .unwrap();
        let gamma = Tensor::full(Shape::new(vec![4]), 1.0);
        let beta = Tensor::zeros(Shape::new(vec![4]));
        let y = x.layer_norm_axis(&gamma, &beta, 1, 1e-5).unwrap();
        for row in 0..2 {
            let r = &y.data()[row * 4..(row + 1) * 4];
            let mean: f32 = r.iter().sum::<f32>() / 4.0;
            let var: f32 = r.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
        // xhat is the gamma=1, beta=0 case.
        assert_eq!(x.layer_norm_xhat_axis(1, 1e-5).unwrap(), y);
    }

    #[test]
    fn layer_norm_x_grad_matches_finite_difference() {
        let x = Tensor::from_vec(
            Shape::new(vec![2, 3]),
            vec![0.5, -0.2, 1.3, 2.0, -1.0, 0.3],
        )
        .unwrap();
        let gamma = Tensor::from_vec(Shape::new(vec![3]), vec![1.2, 0.8, -0.5]).unwrap();
        let beta = Tensor::from_vec(Shape::new(vec![3]), vec![0.1, -0.3, 0.2]).unwrap();
        let dy = Tensor::from_vec(
            Shape::new(vec![2, 3]),
            vec![1.0, -0.4, 0.6, -0.2, 0.9, 0.5],
        )
        .unwrap();
        let dx = dy.layer_norm_x_grad_axis(&x, &gamma, 1, 1e-5).unwrap();
        let eps = 1e-3f32;
        for probe in 0..6 {
            let mut xp = x.clone();
            xp.data_mut()[probe] += eps;
            let mut xm = x.clone();
            xm.data_mut()[probe] -= eps;
            let f = |t: &Tensor| -> f32 {
                t.layer_norm_axis(&gamma, &beta, 1, 1e-5)
                    .unwrap()
                    .data()
                    .iter()
                    .zip(dy.data())
                    .map(|(a, b)| a * b)
                    .sum()
            };
            let fd = (f(&xp) - f(&xm)) / (2.0 * eps);
            assert!((fd - dx.data()[probe]).abs() < 2e-3, "probe {probe}: {fd} vs {}", dx.data()[probe]);
        }
    }

    #[test]
    fn norm_kernels_validate_shapes() {
        let x = Tensor::zeros(Shape::new(vec![2, 3]));
        let bad = Tensor::zeros(Shape::new(vec![4]));
        let ok = Tensor::zeros(Shape::new(vec![3]));
        assert!(x.layer_norm_axis(&bad, &ok, 1, 1e-5).is_err());
        assert!(x.softmax_axis(2).is_err());
        let y = Tensor::zeros(Shape::new(vec![3, 2]));
        assert!(x.softmax_grad_axis(&y, 1).is_err());
        assert!(x.layer_norm_x_grad_axis(&y, &ok, 1, 1e-5).is_err());
    }
}
