//! Convolution and pooling kernels (forward and backward).
//!
//! Layouts follow the paper's examples: `data` is `(batch, channel, [height,]
//! width)` and `filters` is `(c_in, c_out, [kh,] kw)` — matching the conv1d
//! TDL description in Fig. 3 of the paper. One set of 2-D loops runs both
//! ranks: a rank-3 operand is its conv2d at unit height.

use crate::{Result, Shape, Tensor, TensorError};

/// Hyper-parameters of a convolution, 2-D or (on rank-3 operands) 1-D.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Spatial stride (every spatial axis).
    pub stride: usize,
    /// Symmetric zero padding (every spatial axis).
    pub pad: usize,
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Conv2dParams { stride: 1, pad: 0 }
    }
}

/// Pooling mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling.
    Avg,
}

/// Hyper-parameters of a 2-D pooling operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolParams {
    /// Pooling mode.
    pub kind: PoolKind,
    /// Square window size.
    pub window: usize,
    /// Spatial stride (both axes).
    pub stride: usize,
}

/// Computes the output spatial extent of a convolution/pooling axis.
pub(crate) fn conv_out_extent(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    let padded = input + 2 * pad;
    if padded < kernel {
        return 0;
    }
    (padded - kernel) / stride + 1
}

/// The stride and per-axis zero padding the 2-D loops run with: a conv2d
/// pads both axes by its `pad`, and a conv1d (rank-3 operands) runs as a
/// conv2d of unit height that pads only the width.
#[derive(Clone, Copy)]
struct Window {
    stride: usize,
    pad_h: usize,
    pad_w: usize,
}

impl Window {
    /// The window of a convolution whose operand shapes are `shapes`: all
    /// rank 3 or all rank 4.
    fn of(p: Conv2dParams, shapes: &[&Shape]) -> Result<Window> {
        let rank = shapes[0].rank();
        if !matches!(rank, 3 | 4) || shapes.iter().any(|s| s.rank() != rank) {
            return Err(TensorError::Incompatible(
                "a convolution expects operands all of rank 3 or all of rank 4".into(),
            ));
        }
        let pad_h = if rank == 3 { 0 } else { p.pad };
        Ok(Window { stride: p.stride, pad_h, pad_w: p.pad })
    }
}

/// Walks every window of a convolution with `(b, co, oh, ow)` output,
/// `(b, ci, h, w)` data and `(ci, co, kh, kw)` filters: for each output
/// element in order, and each input channel and filter row its window
/// covers (`ici`, then `ikh`, ascending), calls `row(o, d, f, taps)` with
/// the output's flat index and the offsets at which `taps` contiguous
/// elements of the data and of the filters meet. The padding tests are
/// hoisted into clipped tap ranges, so each kernel adds exactly the scalar
/// loop's terms, in its order, and stays bit-identical to it.
fn window_rows(
    out: &Shape,
    data: &Shape,
    filter: &Shape,
    p: Window,
    mut row: impl FnMut(usize, usize, usize, usize),
) {
    let (b, co, oh, ow) = dims4(out);
    let (ci, fco, kh, kw) = dims4(filter);
    let (_, dci, h, w) = dims4(data);
    for ib in 0..b {
        for ico in 0..co {
            for ioh in 0..oh {
                let hbase = ioh * p.stride;
                let kh_lo = p.pad_h.saturating_sub(hbase);
                let kh_hi = kh.min((h + p.pad_h).saturating_sub(hbase));
                for iow in 0..ow {
                    let wbase = iow * p.stride;
                    let kw_lo = p.pad_w.saturating_sub(wbase);
                    let kw_hi = kw.min((w + p.pad_w).saturating_sub(wbase));
                    if kw_lo >= kw_hi {
                        continue;
                    }
                    let o = ((ib * co + ico) * oh + ioh) * ow + iow;
                    let sw0 = wbase + kw_lo - p.pad_w;
                    for ici in 0..ci {
                        for ikh in kh_lo..kh_hi {
                            let d = ((ib * dci + ici) * h + hbase + ikh - p.pad_h) * w + sw0;
                            let f = ((ici * fco + ico) * kh + ikh) * kw + kw_lo;
                            row(o, d, f, kw_hi - kw_lo);
                        }
                    }
                }
            }
        }
    }
}

/// The extents `(n, c, h, w)` of a rank-4 conv operand, or of a rank-3
/// one `(n, c, w)` at unit height: a conv1d operand is laid out exactly as
/// its conv2d at unit height, so the 2-D loops read it in place.
fn dims4(s: &Shape) -> (usize, usize, usize, usize) {
    match *s.dims() {
        [n, c, w] => (n, c, 1, w),
        [n, c, h, w] => (n, c, h, w),
        _ => panic!("a convolution operand has rank 3 or 4, not {}", s.rank()),
    }
}

impl Tensor {
    /// 2-D convolution: `data (b, ci, h, w)` with `filters (ci, co, kh, kw)`.
    /// Rank-3 operands, `data (b, ci, x)` with `filters (ci, co, dx)`, are the
    /// 1-D convolution: a conv2d at unit height, padded on the width only.
    /// The output has the data's rank.
    pub fn conv2d(&self, filters: &Tensor, p: Conv2dParams) -> Result<Tensor> {
        let p = Window::of(p, &[self.shape(), filters.shape()])?;
        let (b, ci, h, w) = dims4(self.shape());
        let (fci, co, kh, kw) = dims4(filters.shape());
        if ci != fci {
            return Err(TensorError::Incompatible(format!("conv2d channels {ci} vs {fci}")));
        }
        let oh = conv_out_extent(h, kh, p.stride, p.pad_h);
        let ow = conv_out_extent(w, kw, p.stride, p.pad_w);
        let out_shape = Shape::new(match self.shape().rank() {
            3 => vec![b, co, ow],
            _ => vec![b, co, oh, ow],
        });
        let mut out = Tensor::zeros(out_shape.clone());
        let dd = self.data();
        let fd = filters.data();
        let od = out.data_mut();
        if p.stride == 1 && p.pad_h == 0 && p.pad_w == 0 && kh == 1 && kw == 1 {
            // Pointwise convolution is a per-pixel channel matmul. Packing
            // the filter (ci, co) and each data block (ci, s) transposed —
            // O(ci·co + b·ci·s) against O(b·ci·co·s) compute — turns every
            // output element into a dot of two contiguous rows over `ci`,
            // which the autovectorizer widens; the general loop below walks
            // `taps`-long runs (here: 1) instead. Accumulation over `ici`
            // stays ascending, so outputs are bit-identical.
            let s = h * w;
            let mut ft = vec![0.0f32; ci * co];
            for ici in 0..ci {
                for ico in 0..co {
                    ft[ico * ci + ici] = fd[ici * co + ico];
                }
            }
            let mut dt = vec![0.0f32; s * ci];
            for ib in 0..b {
                let dblock = &dd[ib * ci * s..(ib + 1) * ci * s];
                for ici in 0..ci {
                    for (is, &v) in dblock[ici * s..(ici + 1) * s].iter().enumerate() {
                        dt[is * ci + ici] = v;
                    }
                }
                let oblock = &mut od[ib * co * s..(ib + 1) * co * s];
                for ico in 0..co {
                    let frow = &ft[ico * ci..(ico + 1) * ci];
                    let orow = &mut oblock[ico * s..(ico + 1) * s];
                    for (is, o) in orow.iter_mut().enumerate() {
                        let drow = &dt[is * ci..(is + 1) * ci];
                        let mut acc = 0.0;
                        for (dv, fv) in drow.iter().zip(frow) {
                            acc += dv * fv;
                        }
                        *o = acc;
                    }
                }
            }
            return Ok(out);
        }
        // Each output sums its window's rows in the scalar loop's order,
        // starting from its zero.
        window_rows(&out_shape, self.shape(), filters.shape(), p, |o, d, f, taps| {
            let mut acc = od[o];
            for (dv, fv) in dd[d..][..taps].iter().zip(&fd[f..][..taps]) {
                acc += dv * fv;
            }
            od[o] = acc;
        });
        Ok(out)
    }

    /// Gradient of [`Tensor::conv2d`] with respect to the data input.
    pub fn conv2d_backward_data(
        out_grad: &Tensor,
        filters: &Tensor,
        data_shape: &Shape,
        p: Conv2dParams,
    ) -> Result<Tensor> {
        let p = Window::of(p, &[out_grad.shape(), filters.shape(), data_shape])?;
        let (b, co, oh, ow) = dims4(out_grad.shape());
        let (ci, fco, kh, kw) = dims4(filters.shape());
        if co != fco {
            return Err(TensorError::Incompatible(format!("channels {co} vs {fco}")));
        }
        let dci = data_shape.dim(1);
        let mut grad = Tensor::zeros(data_shape.clone());
        let ogd = out_grad.data();
        let fd = filters.data();
        let gd = grad.data_mut();
        if p.stride == 1 && p.pad_h == 0 && p.pad_w == 0 && kh == 1 && kw == 1 {
            // Pointwise fast path, mirroring `conv2d`'s: pack the output
            // gradient block transposed to (s, co) so each data-gradient
            // element is a dot over `co` of two contiguous rows (the filter
            // row (ci, co) is already contiguous over `ico`). Each gradient
            // element collects its terms over `ico` ascending with the same
            // `g == 0.0` skip, so results are bit-identical to the general
            // loop below.
            let s = oh * ow;
            let mut gt = vec![0.0f32; s * co];
            for ib in 0..b {
                let oblock = &ogd[ib * co * s..(ib + 1) * co * s];
                for ico in 0..co {
                    for (is, &v) in oblock[ico * s..(ico + 1) * s].iter().enumerate() {
                        gt[is * co + ico] = v;
                    }
                }
                let gblock = &mut gd[ib * dci * s..(ib + 1) * dci * s];
                for ici in 0..ci {
                    let frow = &fd[ici * co..(ici + 1) * co];
                    let grow_out = &mut gblock[ici * s..(ici + 1) * s];
                    for (is, o) in grow_out.iter_mut().enumerate() {
                        let grow = &gt[is * co..(is + 1) * co];
                        let mut acc = 0.0;
                        for (gv, fv) in grow.iter().zip(frow) {
                            if *gv != 0.0 {
                                acc += gv * fv;
                            }
                        }
                        *o = acc;
                    }
                }
            }
            return Ok(grad);
        }
        // Every nonzero output-gradient value scatters into the data rows
        // its window read; a zero one adds nothing, so it is skipped.
        window_rows(out_grad.shape(), data_shape, filters.shape(), p, |o, d, f, taps| {
            let g = ogd[o];
            if g != 0.0 {
                for (gv, fv) in gd[d..][..taps].iter_mut().zip(&fd[f..][..taps]) {
                    *gv += g * fv;
                }
            }
        });
        Ok(grad)
    }

    /// Gradient of [`Tensor::conv2d`] with respect to the filters.
    pub fn conv2d_backward_filter(
        out_grad: &Tensor,
        data: &Tensor,
        filter_shape: &Shape,
        p: Conv2dParams,
    ) -> Result<Tensor> {
        let p = Window::of(p, &[out_grad.shape(), data.shape(), filter_shape])?;
        let (b, co, oh, ow) = dims4(out_grad.shape());
        let (ci, fco, kh, kw) = dims4(filter_shape);
        let dci = data.shape().dim(1);
        let mut grad = Tensor::zeros(filter_shape.clone());
        let ogd = out_grad.data();
        let dd = data.data();
        let gd = grad.data_mut();
        if p.stride == 1 && p.pad_h == 0 && p.pad_w == 0 && kh == 1 && kw == 1 {
            // Pointwise fast path: each filter-gradient element is a dot
            // over the spatial extent of two rows that are already
            // contiguous (out-grad (b, co, s) and data (b, ci, s)) — no
            // packing needed. The running value is threaded through `acc`
            // so every element still collects its terms in (ib, s) order
            // with the `g == 0.0` skip, bit-identical to the general loop.
            let s = oh * ow;
            for ib in 0..b {
                for ico in 0..co {
                    let ogrow = &ogd[(ib * co + ico) * s..][..s];
                    for ici in 0..ci {
                        let drow = &dd[(ib * dci + ici) * s..][..s];
                        let idx = ici * fco + ico;
                        let mut acc = gd[idx];
                        for (gv, dv) in ogrow.iter().zip(drow) {
                            if *gv != 0.0 {
                                acc += gv * dv;
                            }
                        }
                        gd[idx] = acc;
                    }
                }
            }
            return Ok(grad);
        }
        window_rows(out_grad.shape(), data.shape(), filter_shape, p, |o, d, f, taps| {
            let g = ogd[o];
            if g != 0.0 {
                for (gv, dv) in gd[f..][..taps].iter_mut().zip(&dd[d..][..taps]) {
                    *gv += g * dv;
                }
            }
        });
        Ok(grad)
    }

    /// 2-D pooling over `(b, c, h, w)` data.
    pub fn pool2d(&self, p: PoolParams) -> Result<Tensor> {
        if self.shape().rank() != 4 {
            return Err(TensorError::Incompatible("pool2d expects rank-4 data".into()));
        }
        let (b, c, h, w) = dims4(self.shape());
        let oh = conv_out_extent(h, p.window, p.stride, 0);
        let ow = conv_out_extent(w, p.window, p.stride, 0);
        let mut out = Tensor::zeros(Shape::new(vec![b, c, oh, ow]));
        for ib in 0..b {
            for ic in 0..c {
                for ioh in 0..oh {
                    for iow in 0..ow {
                        let mut acc = match p.kind {
                            PoolKind::Max => f32::NEG_INFINITY,
                            PoolKind::Avg => 0.0,
                        };
                        for dh in 0..p.window {
                            for dw in 0..p.window {
                                let v =
                                    self.at(&[ib, ic, ioh * p.stride + dh, iow * p.stride + dw]);
                                match p.kind {
                                    PoolKind::Max => acc = acc.max(v),
                                    PoolKind::Avg => acc += v,
                                }
                            }
                        }
                        if p.kind == PoolKind::Avg {
                            acc /= (p.window * p.window) as f32;
                        }
                        out.set(&[ib, ic, ioh, iow], acc);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Global average pooling: `(b, c, h, w)` to `(b, c)`.
    pub fn global_avg_pool(&self) -> Result<Tensor> {
        if self.shape().rank() != 4 {
            return Err(TensorError::Incompatible("global_avg_pool expects rank-4 data".into()));
        }
        let (b, c, h, w) = dims4(self.shape());
        let mut out = Tensor::zeros(Shape::new(vec![b, c]));
        let norm = (h * w) as f32;
        for ib in 0..b {
            for ic in 0..c {
                let mut acc = 0.0;
                for ih in 0..h {
                    for iw in 0..w {
                        acc += self.at(&[ib, ic, ih, iw]);
                    }
                }
                out.set(&[ib, ic], acc / norm);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_extent_formula() {
        assert_eq!(conv_out_extent(8, 3, 1, 0), 6);
        assert_eq!(conv_out_extent(8, 3, 1, 1), 8);
        assert_eq!(conv_out_extent(8, 3, 2, 1), 4);
        assert_eq!(conv_out_extent(2, 3, 1, 0), 0);
    }

    #[test]
    fn conv1d_matches_hand_computation() {
        // data (1, 1, 4) = [1 2 3 4], filter (1, 1, 2) = [1 1] -> [3 5 7].
        let data = Tensor::from_vec(Shape::new(vec![1, 1, 4]), vec![1., 2., 3., 4.]).unwrap();
        let f = Tensor::from_vec(Shape::new(vec![1, 1, 2]), vec![1., 1.]).unwrap();
        let out = data.conv2d(&f, Conv2dParams::default()).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 3]);
        assert_eq!(out.data(), &[3., 5., 7.]);
    }

    #[test]
    fn conv1d_channel_mix() {
        // Two input channels summed with unit filters.
        let data = Tensor::from_vec(
            Shape::new(vec![1, 2, 3]),
            vec![1., 2., 3., 10., 20., 30.],
        )
        .unwrap();
        let f = Tensor::from_vec(Shape::new(vec![2, 1, 1]), vec![1., 1.]).unwrap();
        let out = data.conv2d(&f, Conv2dParams::default()).unwrap();
        assert_eq!(out.data(), &[11., 22., 33.]);
    }

    #[test]
    fn conv2d_identity_kernel() {
        let data = Tensor::from_vec(
            Shape::new(vec![1, 1, 2, 2]),
            vec![1., 2., 3., 4.],
        )
        .unwrap();
        let f = Tensor::from_vec(Shape::new(vec![1, 1, 1, 1]), vec![2.0]).unwrap();
        let out = data.conv2d(&f, Conv2dParams::default()).unwrap();
        assert_eq!(out.data(), &[2., 4., 6., 8.]);
    }

    #[test]
    fn conv2d_padding_preserves_extent() {
        let data = Tensor::full(Shape::new(vec![1, 1, 4, 4]), 1.0);
        let f = Tensor::full(Shape::new(vec![1, 1, 3, 3]), 1.0);
        let out = data.conv2d(&f, Conv2dParams { stride: 1, pad: 1 }).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 4, 4]);
        // Center pixels see the full 3x3 window, corners only 2x2.
        assert_eq!(out.at(&[0, 0, 1, 1]), 9.0);
        assert_eq!(out.at(&[0, 0, 0, 0]), 4.0);
    }

    #[test]
    fn conv2d_stride_halves_extent() {
        let data = Tensor::full(Shape::new(vec![1, 1, 4, 4]), 1.0);
        let f = Tensor::full(Shape::new(vec![1, 1, 2, 2]), 1.0);
        let out = data.conv2d(&f, Conv2dParams { stride: 2, pad: 0 }).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[4.0; 4]);
    }

    #[test]
    fn conv2d_grads_match_finite_difference() {
        let mut rng = crate::SplitMix64::new(0x9e3779b97f4a7c15 + 7);
        let data_shape = Shape::new(vec![1, 2, 4, 4]);
        let filt_shape = Shape::new(vec![2, 2, 3, 3]);
        let p = Conv2dParams { stride: 1, pad: 1 };
        let data = Tensor::from_vec(
            data_shape.clone(),
            (0..data_shape.volume()).map(|_| rng.uniform(-1.0, 1.0)).collect(),
        )
        .unwrap();
        let filt = Tensor::from_vec(
            filt_shape.clone(),
            (0..filt_shape.volume()).map(|_| rng.uniform(-1.0, 1.0)).collect(),
        )
        .unwrap();
        let out = data.conv2d(&filt, p).unwrap();
        // Loss = sum(out); so out_grad is all ones.
        let og = Tensor::full(out.shape().clone(), 1.0);
        let gd = Tensor::conv2d_backward_data(&og, &filt, &data_shape, p).unwrap();
        let gf = Tensor::conv2d_backward_filter(&og, &data, &filt_shape, p).unwrap();

        let eps = 1e-2f32;
        // Check a handful of coordinates by central differences.
        for probe in [0usize, 7, 19] {
            let mut dp = data.clone();
            dp.data_mut()[probe] += eps;
            let mut dm = data.clone();
            dm.data_mut()[probe] -= eps;
            let fd = (dp.conv2d(&filt, p).unwrap().sum_all()
                - dm.conv2d(&filt, p).unwrap().sum_all())
                / (2.0 * eps);
            assert!((fd - gd.data()[probe]).abs() < 1e-2, "data grad {probe}: {fd} vs {}", gd.data()[probe]);

            let mut fp = filt.clone();
            fp.data_mut()[probe] += eps;
            let mut fm = filt.clone();
            fm.data_mut()[probe] -= eps;
            let fd = (data.conv2d(&fp, p).unwrap().sum_all()
                - data.conv2d(&fm, p).unwrap().sum_all())
                / (2.0 * eps);
            assert!((fd - gf.data()[probe]).abs() < 1e-2, "filter grad {probe}: {fd} vs {}", gf.data()[probe]);
        }
    }

    #[test]
    fn pooling_modes() {
        let data = Tensor::from_vec(
            Shape::new(vec![1, 1, 2, 2]),
            vec![1., 2., 3., 4.],
        )
        .unwrap();
        let mx = data.pool2d(PoolParams { kind: PoolKind::Max, window: 2, stride: 2 }).unwrap();
        assert_eq!(mx.data(), &[4.0]);
        let avg = data.pool2d(PoolParams { kind: PoolKind::Avg, window: 2, stride: 2 }).unwrap();
        assert_eq!(avg.data(), &[2.5]);
        let g = data.global_avg_pool().unwrap();
        assert_eq!(g.shape().dims(), &[1, 1]);
        assert_eq!(g.data(), &[2.5]);
    }

    #[test]
    fn conv_rank_validation() {
        let bad = Tensor::zeros(Shape::new(vec![2, 2]));
        let f3 = Tensor::zeros(Shape::new(vec![1, 1, 1]));
        assert!(bad.conv2d(&f3, Conv2dParams::default()).is_err());
        let f4 = Tensor::zeros(Shape::new(vec![1, 1, 1, 1]));
        assert!(bad.conv2d(&f4, Conv2dParams::default()).is_err());
        assert!(bad.pool2d(PoolParams { kind: PoolKind::Max, window: 1, stride: 1 }).is_err());
    }

    #[test]
    fn conv1d_batch_split_is_partitionable() {
        // Fig. 2(a): splitting the batch dimension and concatenating outputs
        // reproduces the unpartitioned result.
        let data = Tensor::from_vec(
            Shape::new(vec![2, 1, 3]),
            vec![1., 2., 3., 4., 5., 6.],
        )
        .unwrap();
        let f = Tensor::from_vec(Shape::new(vec![1, 2, 2]), vec![1., -1., 0.5, 2.]).unwrap();
        let whole = data.conv2d(&f, Conv2dParams::default()).unwrap();
        let d0 = data.slice(0, 0, 1).unwrap();
        let d1 = data.slice(0, 1, 2).unwrap();
        let stitched = Tensor::concat(
            &[d0.conv2d(&f, Conv2dParams::default()).unwrap(), d1.conv2d(&f, Conv2dParams::default()).unwrap()],
            0,
        )
        .unwrap();
        assert!(stitched.allclose(&whole, 1e-6));
    }

    #[test]
    fn conv1d_channel_split_requires_reduction() {
        // Fig. 2(b): splitting the input-channel dimension yields partial
        // outputs whose sum equals the unpartitioned result.
        let data = Tensor::from_vec(
            Shape::new(vec![1, 2, 3]),
            vec![1., 2., 3., 4., 5., 6.],
        )
        .unwrap();
        let f = Tensor::from_vec(Shape::new(vec![2, 1, 2]), vec![1., -1., 2., 0.5]).unwrap();
        let whole = data.conv2d(&f, Conv2dParams::default()).unwrap();
        let d0 = data.slice(1, 0, 1).unwrap();
        let d1 = data.slice(1, 1, 2).unwrap();
        let f0 = f.slice(0, 0, 1).unwrap();
        let f1 = f.slice(0, 1, 2).unwrap();
        let partial = d0
            .conv2d(&f0, Conv2dParams::default())
            .unwrap()
            .add(&d1.conv2d(&f1, Conv2dParams::default()).unwrap())
            .unwrap();
        assert!(partial.allclose(&whole, 1e-6));
    }
}
