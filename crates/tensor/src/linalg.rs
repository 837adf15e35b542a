//! Matrix multiplication: six public variants over one tiled GEMM.
//!
//! The forward and the two gradient variants (`N^T·dC` and `dC·N^T`) are the
//! workhorses of the RNN and transformer benchmarks; the paper notes (§7.2)
//! that matrix multiplication has much lower arithmetic density than
//! convolution, which is why shrinking the batch hurts RNNs more — the
//! simulator's efficiency model mirrors that.
//!
//! **The accumulation-order contract.** Every output element is
//! `((0.0 + a[i][0]·b[0][j]) + a[i][1]·b[1][j]) + …`: one f32 multiply and
//! one f32 add per `p`, `p` ascending, starting from `+0.0`. [`gemm_body`]
//! keeps an `MR×NR` tile of such sums in registers, so the result does not
//! depend on `MR`, `NR`, the vector width, the tile order, or on whether an
//! operand was transposed, batched or shared — which is what lets a sharded
//! run be compared with a single-device one bit for bit on any host. Three
//! shortcuts would break it and are forbidden here (`scripts/check.sh`
//! greps for the first): a fused multiply-add, as the `f32` method or as a
//! target feature (one rounding instead of two), splitting `k` across
//! several accumulators (a different association), and initialising an
//! accumulator from the first product (`0.0 + -0.0` is `+0.0`). There is
//! also no zero-skip: kernel time must depend only on shapes, not data, so
//! per-op trace spans stay comparable.

use crate::{Result, Shape, Tensor, TensorError};

impl Tensor {
    /// Computes the matrix product `self · other` for rank-2 tensors.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        matmul_impl(self, other, false, false)
    }

    /// Computes `self^T · other`.
    pub fn matmul_tn(&self, other: &Tensor) -> Result<Tensor> {
        matmul_impl(self, other, true, false)
    }

    /// Computes `self · other^T`.
    pub fn matmul_nt(&self, other: &Tensor) -> Result<Tensor> {
        matmul_impl(self, other, false, true)
    }

    /// Batched matrix product: `out[b] = self[b] · other[b]`. One side may be
    /// rank 2, a matrix shared by every batch of the rank-3 other side.
    pub fn matmul_b(&self, other: &Tensor) -> Result<Tensor> {
        batch_matmul_impl(self, other, false, false)
    }

    /// Batched `self[b]^T · other[b]`; either side may be a shared rank-2 matrix.
    pub fn matmul_b_tn(&self, other: &Tensor) -> Result<Tensor> {
        batch_matmul_impl(self, other, true, false)
    }

    /// Batched `self[b] · other[b]^T`; either side may be a shared rank-2 matrix.
    pub fn matmul_b_nt(&self, other: &Tensor) -> Result<Tensor> {
        batch_matmul_impl(self, other, false, true)
    }
}

fn batch_matmul_impl(a: &Tensor, b: &Tensor, ta: bool, tb: bool) -> Result<Tensor> {
    let (ra, rb) = (a.shape().rank(), b.shape().rank());
    if !matches!((ra, rb), (3, 3) | (2, 3) | (3, 2)) {
        return Err(TensorError::Incompatible(format!(
            "batched matmul requires rank-3 operands (one may be rank 2), got {} and {}",
            a.shape(),
            b.shape()
        )));
    }
    let nb = if ra == 3 { a.shape().dim(0) } else { b.shape().dim(0) };
    if ra == 3 && rb == 3 && b.shape().dim(0) != nb {
        return Err(TensorError::Incompatible(format!(
            "batch dims {} vs {}",
            nb,
            b.shape().dim(0)
        )));
    }
    let (ar, ac) = (a.shape().dim(ra - 2), a.shape().dim(ra - 1));
    let (br, bc) = (b.shape().dim(rb - 2), b.shape().dim(rb - 1));
    let (m, k1) = if ta { (ac, ar) } else { (ar, ac) };
    let (k2, n) = if tb { (bc, br) } else { (br, bc) };
    if k1 != k2 {
        return Err(TensorError::Incompatible(format!(
            "batched matmul inner dims {k1} vs {k2} (shapes {} and {})",
            a.shape(),
            b.shape()
        )));
    }
    let mut out = vec![0.0f32; nb * m * n];
    let a = Operand::new(a.data(), ac, ta, if ra == 3 { ar * ac } else { 0 });
    let b = Operand::new(b.data(), bc, tb, if rb == 3 { br * bc } else { 0 });
    gemm([nb, m, k1, n], a, b, &mut out);
    Tensor::from_vec(Shape::new(vec![nb, m, n]), out)
}

fn matmul_impl(a: &Tensor, b: &Tensor, ta: bool, tb: bool) -> Result<Tensor> {
    if a.shape().rank() != 2 || b.shape().rank() != 2 {
        return Err(TensorError::Incompatible(format!(
            "matmul requires rank-2 operands, got {} and {}",
            a.shape(),
            b.shape()
        )));
    }
    let (m, k1) = if ta { (a.shape().dim(1), a.shape().dim(0)) } else { (a.shape().dim(0), a.shape().dim(1)) };
    let (k2, n) = if tb { (b.shape().dim(1), b.shape().dim(0)) } else { (b.shape().dim(0), b.shape().dim(1)) };
    if k1 != k2 {
        return Err(TensorError::Incompatible(format!(
            "matmul inner dims {k1} vs {k2} (shapes {} and {})",
            a.shape(),
            b.shape()
        )));
    }
    let mut out = vec![0.0f32; m * n];
    let a = Operand::new(a.data(), a.shape().dim(1), ta, 0);
    let b = Operand::new(b.data(), b.shape().dim(1), tb, 0);
    gemm([1, m, k1, n], a, b, &mut out);
    Tensor::from_vec(Shape::new(vec![m, n]), out)
}

/// One side of a product as a strided view: element `(r, c)` of batch `ib`
/// is `data[ib·batch + r·rs + c·cs]`. A transposed operand is a stride swap,
/// and `batch == 0` is one matrix shared by every batch.
#[derive(Clone, Copy)]
struct Operand<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
    batch: usize,
}

impl<'a> Operand<'a> {
    /// A row-major matrix with `cols` columns, read transposed when `t`.
    fn new(data: &'a [f32], cols: usize, t: bool, batch: usize) -> Self {
        let (rs, cs) = if t { (1, cols) } else { (cols, 1) };
        Operand { data, rs, cs, batch }
    }
}

/// `out[ib] = A[ib]·B[ib]` for `dims = [nb, m, k, n]`, `out` row-major
/// `nb × m × n`: [`gemm_body`] at the widest tile the host's vectors hold.
#[allow(unsafe_code)]
fn gemm(dims: [usize; 4], a: Operand, b: Operand, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: `gemm_avx2` is a safe fn whose only requirement is the
        // `avx2` target feature, detected on this CPU on the line above.
        return unsafe { gemm_avx2(dims, a, b, out) };
    }
    gemm_body::<4, 8>(dims, a, b, out)
}

/// [`gemm_body`] compiled for 256-bit vectors: a 4×16 tile is eight `ymm`
/// accumulators. `fma` is deliberately not enabled (see the module header).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2(dims: [usize; 4], a: Operand, b: Operand, out: &mut [f32]) {
    gemm_body::<4, 16>(dims, a, b, out)
}

/// The one loop nest that multiplies. Packs A into `MR`-row panels and B
/// into `NR`-column panels (so the tile reads both unit-stride whatever the
/// operands' strides), then for each (B panel, A panel) sums an `MR×NR`
/// accumulator tile over `p = 0..k` and stores its live corner. A shared
/// operand is packed once, not once per batch.
#[inline(always)]
fn gemm_body<const MR: usize, const NR: usize>(
    [nb, m, k, n]: [usize; 4],
    a: Operand,
    b: Operand,
    out: &mut [f32],
) {
    let mut ap = vec![0.0f32; m.div_ceil(MR) * MR * k];
    let mut bp = vec![0.0f32; n.div_ceil(NR) * NR * k];
    for ib in 0..nb {
        if ib == 0 || a.batch != 0 {
            pack::<MR>(&mut ap, &a.data[ib * a.batch..], a.rs, a.cs, m, k);
        }
        if ib == 0 || b.batch != 0 {
            pack::<NR>(&mut bp, &b.data[ib * b.batch..], b.cs, b.rs, n, k);
        }
        let c = &mut out[ib * m * n..(ib + 1) * m * n];
        for j0 in (0..n).step_by(NR) {
            let w = NR.min(n - j0);
            let b_panel = &bp[j0 * k..(j0 + NR) * k];
            for i0 in (0..m).step_by(MR) {
                let a_panel = &ap[i0 * k..(i0 + MR) * k];
                let mut acc = [[0.0f32; NR]; MR];
                for (av, bv) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
                    for (row, &x) in acc.iter_mut().zip(av) {
                        for (s, &y) in row.iter_mut().zip(bv) {
                            *s += x * y;
                        }
                    }
                }
                for (r, row) in acc.iter().enumerate().take(m - i0) {
                    c[(i0 + r) * n + j0..][..w].copy_from_slice(&row[..w]);
                }
            }
        }
    }
}

/// Packs `X(i, p) = src[i·is + p·ps]`, `i < count`, `p < k`, into `R`-wide
/// panels: `dst[i0·k + p·R + r] = X(i0 + r, p)`. Lanes past `count` in the
/// last panel are never written and keep the zero `dst` was created with.
#[inline(always)]
fn pack<const R: usize>(
    dst: &mut [f32],
    src: &[f32],
    is: usize,
    ps: usize,
    count: usize,
    k: usize,
) {
    for i0 in (0..count).step_by(R) {
        let live = R.min(count - i0);
        let panel = &mut dst[i0 * k..(i0 + R) * k];
        // Unit stride across the panel (B as stored, A transposed) is a
        // straight copy per `p`: it is what keeps LSTM-sized products
        // (8×64·64×128) from paying more for packing than for multiplying.
        if is == 1 {
            for (p, lane) in panel.chunks_exact_mut(R).enumerate() {
                lane[..live].copy_from_slice(&src[p * ps + i0..][..live]);
            }
        } else {
            for r in 0..live {
                let row = &src[(i0 + r) * is..];
                for (p, lane) in panel.chunks_exact_mut(R).enumerate() {
                    lane[r] = row[p * ps];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn m(rows: usize, cols: usize, v: Vec<f32>) -> Tensor {
        Tensor::from_vec(Shape::new(vec![rows, cols]), v).unwrap()
    }

    #[test]
    fn matmul_basic() {
        let a = m(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = m(2, 2, vec![1., 2., 3., 4.]);
        let i = m(2, 2, vec![1., 0., 0., 1.]);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let a = m(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = m(2, 4, vec![1., 0., 2., 1., 3., 1., 0., 2.]);
        let expect = a.transpose().unwrap().matmul(&b).unwrap();
        assert_eq!(a.matmul_tn(&b).unwrap(), expect);

        let c = m(4, 3, (0..12).map(|x| x as f32).collect());
        let expect = a.matmul(&c.transpose().unwrap()).unwrap();
        assert_eq!(a.matmul_nt(&c).unwrap(), expect);
    }

    #[test]
    fn matmul_inner_dim_mismatch() {
        let a = m(2, 3, vec![0.0; 6]);
        let b = m(2, 3, vec![0.0; 6]);
        assert!(a.matmul(&b).is_err());
        assert!(a.matmul_tn(&b).is_ok());
        assert!(a.matmul_nt(&b).is_ok());
    }

    #[test]
    fn matmul_requires_rank_two() {
        let a = Tensor::arange(4);
        let b = m(2, 2, vec![0.0; 4]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn batched_matmul_matches_per_batch_slices() {
        let a = Tensor::from_vec(
            Shape::new(vec![2, 2, 3]),
            (0..12).map(|x| (x as f32).sin()).collect(),
        )
        .unwrap();
        let b = Tensor::from_vec(
            Shape::new(vec![2, 3, 2]),
            (0..12).map(|x| (x as f32).cos()).collect(),
        )
        .unwrap();
        let c = a.matmul_b(&b).unwrap();
        assert_eq!(c.shape().dims(), &[2, 2, 2]);
        for ib in 0..2 {
            let ab = a.slice(0, ib, ib + 1).unwrap().reshape(Shape::new(vec![2, 3])).unwrap();
            let bb = b.slice(0, ib, ib + 1).unwrap().reshape(Shape::new(vec![3, 2])).unwrap();
            let cb = c.slice(0, ib, ib + 1).unwrap().reshape(Shape::new(vec![2, 2])).unwrap();
            // Bit-identical, not just close: same accumulation order.
            assert_eq!(ab.matmul(&bb).unwrap(), cb);
        }
    }

    #[test]
    fn batched_transposed_variants_match_explicit() {
        let a = Tensor::from_vec(
            Shape::new(vec![2, 3, 2]),
            (0..12).map(|x| (x as f32 * 0.3).sin()).collect(),
        )
        .unwrap();
        let b = Tensor::from_vec(
            Shape::new(vec![2, 3, 4]),
            (0..24).map(|x| (x as f32 * 0.7).cos()).collect(),
        )
        .unwrap();
        // Aᵀ·B per batch.
        let c = a.matmul_b_tn(&b).unwrap();
        assert_eq!(c.shape().dims(), &[2, 2, 4]);
        for ib in 0..2 {
            let ab = a.slice(0, ib, ib + 1).unwrap().reshape(Shape::new(vec![3, 2])).unwrap();
            let bb = b.slice(0, ib, ib + 1).unwrap().reshape(Shape::new(vec![3, 4])).unwrap();
            let cb = c.slice(0, ib, ib + 1).unwrap().reshape(Shape::new(vec![2, 4])).unwrap();
            assert_eq!(ab.matmul_tn(&bb).unwrap(), cb);
        }
        // A·Bᵀ per batch.
        let d = b.matmul_b_nt(&b).unwrap();
        assert_eq!(d.shape().dims(), &[2, 3, 3]);
        for ib in 0..2 {
            let bb = b.slice(0, ib, ib + 1).unwrap().reshape(Shape::new(vec![3, 4])).unwrap();
            let db = d.slice(0, ib, ib + 1).unwrap().reshape(Shape::new(vec![3, 3])).unwrap();
            assert_eq!(bb.matmul_nt(&bb).unwrap(), db);
        }
    }

    #[test]
    fn batched_matmul_validates_shapes() {
        let a = Tensor::zeros(Shape::new(vec![2, 2, 3]));
        let b = Tensor::zeros(Shape::new(vec![3, 3, 2]));
        assert!(a.matmul_b(&b).is_err(), "batch dim mismatch");
        let b = Tensor::zeros(Shape::new(vec![2, 2, 2]));
        assert!(a.matmul_b(&b).is_err(), "inner dim mismatch");
        let r2 = Tensor::zeros(Shape::new(vec![2, 2]));
        assert!(a.matmul_b(&r2).is_err(), "shared operand's inner dim mismatch");
        assert!(r2.matmul_b(&r2).is_err(), "no rank-3 operand");
        assert!(a.matmul_b(&Tensor::arange(3)).is_err(), "rank mismatch");
    }

    /// Deterministic operand with exact `+0.0` and `-0.0` entries mixed in, so
    /// a kernel that seeds an accumulator from the first product shows.
    fn operand(dims: &[usize], seed: u64) -> Tensor {
        let mut t = Tensor::random(Shape::new(dims.to_vec()), seed, 1.0);
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            match (i as u64 + seed) % 7 {
                0 => *v = 0.0,
                1 => *v = -0.0,
                _ => {}
            }
        }
        t
    }

    /// The contract itself: every element summed over `p` ascending from
    /// `+0.0`, one rounded multiply and one rounded add per step. `a` and `b`
    /// are the row-major `[nb|1, r, c]` operands, read transposed on request.
    fn reference(
        [nb, m, k, n]: [usize; 4],
        (a, ta): (&Tensor, bool),
        (b, tb): (&Tensor, bool),
    ) -> Vec<u32> {
        let at = |t: &Tensor, tr: bool, ib: usize, r: usize, c: usize, rows: usize, cols: usize| {
            let base = if t.shape().rank() == 3 { ib * rows * cols } else { 0 };
            t.data()[base + if tr { c * rows + r } else { r * cols + c }]
        };
        let mut out = Vec::with_capacity(nb * m * n);
        for ib in 0..nb {
            for i in 0..m {
                for j in 0..n {
                    let mut s = 0.0f32;
                    for p in 0..k {
                        s += at(a, ta, ib, i, p, m, k) * at(b, tb, ib, p, j, k, n);
                    }
                    out.push(s.to_bits());
                }
            }
        }
        out
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// `[r, c]` or `[c, r]` when stored transposed, with a batch dim in front
    /// unless the operand is shared.
    fn dims_of(nb: Option<usize>, r: usize, c: usize, t: bool) -> Vec<usize> {
        let mut d: Vec<usize> = nb.into_iter().collect();
        d.extend(if t { [c, r] } else { [r, c] });
        d
    }

    const VARIANTS: [(bool, bool); 3] = [(false, false), (true, false), (false, true)];

    fn rank2(a: &Tensor, b: &Tensor, (ta, tb): (bool, bool)) -> Result<Tensor> {
        match (ta, tb) {
            (false, false) => a.matmul(b),
            (true, false) => a.matmul_tn(b),
            _ => a.matmul_nt(b),
        }
    }

    fn rank3(a: &Tensor, b: &Tensor, (ta, tb): (bool, bool)) -> Result<Tensor> {
        match (ta, tb) {
            (false, false) => a.matmul_b(b),
            (true, false) => a.matmul_b_tn(b),
            _ => a.matmul_b_nt(b),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// `0..=40` covers every remainder mod 4, 8 and 16, `m < MR`,
        /// `n < NR`, `k = 1` and every zero extent.
        #[test]
        fn rank2_variants_match_the_scalar_reference_bit_for_bit(
            m in 0usize..41, k in 0usize..41, n in 0usize..41, seed in 0u64..1_000_000,
        ) {
            for (ta, tb) in VARIANTS {
                let a = operand(&dims_of(None, m, k, ta), seed);
                let b = operand(&dims_of(None, k, n, tb), seed + 1);
                let c = rank2(&a, &b, (ta, tb)).unwrap();
                prop_assert_eq!(c.shape().dims(), &[m, n]);
                prop_assert_eq!(bits(&c), reference([1, m, k, n], (&a, ta), (&b, tb)));
            }
        }

        /// The same over batches, with neither, the left or the right operand
        /// a rank-2 matrix shared by every batch.
        #[test]
        fn rank3_variants_match_the_scalar_reference_bit_for_bit(
            nb in 0usize..4, m in 0usize..41, k in 0usize..41, n in 0usize..41,
            shared in 0usize..3, seed in 0u64..1_000_000,
        ) {
            for (ta, tb) in VARIANTS {
                let a = operand(&dims_of((shared != 1).then_some(nb), m, k, ta), seed);
                let b = operand(&dims_of((shared != 2).then_some(nb), k, n, tb), seed + 1);
                let c = rank3(&a, &b, (ta, tb)).unwrap();
                prop_assert_eq!(c.shape().dims(), &[nb, m, n]);
                prop_assert_eq!(bits(&c), reference([nb, m, k, n], (&a, ta), (&b, tb)));
            }
        }
    }

    #[test]
    fn every_tile_shape_and_the_dispatched_one_agree_bit_for_bit() {
        // `gemm` is the AVX2 instantiation where the host has it, so both
        // code paths run on one machine with no switch; <4, 16> compiled for
        // the baseline target checks the wide tile's edges on any host.
        for dims @ [nb, m, k, n] in [[1, 37, 29, 41], [3, 5, 64, 16], [2, 4, 1, 17], [1, 1, 9, 1]] {
            let (a, b) = (operand(&[nb, m, k], 3), operand(&[k, n], 4));
            let a = Operand::new(a.data(), k, false, m * k);
            let b = Operand::new(b.data(), n, false, 0);
            let run = |f: fn([usize; 4], Operand, Operand, &mut [f32])| {
                let mut out = vec![f32::NAN; nb * m * n];
                f(dims, a, b, &mut out);
                out.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
            };
            let base = run(gemm_body::<4, 8>);
            assert_eq!(run(gemm), base, "dispatched tile differs at {dims:?}");
            assert_eq!(run(gemm_body::<4, 16>), base, "4x16 tile differs at {dims:?}");
        }
    }

    #[test]
    fn zero_extents_return_zeros_in_every_variant() {
        // The four that panicked in the old pack blocks ("chunk size must be
        // non-zero"), then every extent zeroed in turn.
        let z = |d: &[usize]| Tensor::zeros(Shape::new(d.to_vec()));
        z(&[3, 0]).matmul_tn(&z(&[3, 4])).unwrap();
        z(&[2, 0]).matmul_nt(&z(&[5, 0])).unwrap();
        z(&[2, 3, 0]).matmul_b_tn(&z(&[2, 3, 4])).unwrap();
        z(&[2, 3, 0]).matmul_b_nt(&z(&[2, 5, 0])).unwrap();
        // Whatever survives a zero extent (only `k = 0` leaves elements) is `+0.0`.
        for zeroed in 0..4 {
            let mut d = [2, 3, 4, 5];
            d[zeroed] = 0;
            let [nb, m, k, n] = d;
            for (ta, tb) in VARIANTS {
                let full = |nb, r, c, t, v| Tensor::full(Shape::new(dims_of(nb, r, c, t)), v);
                let (a3, b3) = (full(Some(nb), m, k, ta, -1.0), full(Some(nb), k, n, tb, 1.0));
                let c3 = rank3(&a3, &b3, (ta, tb)).unwrap();
                assert_eq!(c3.shape().dims(), &[nb, m, n]);
                assert!(bits(&c3).iter().all(|&w| w == 0), "{d:?}: not all +0.0");
                if zeroed == 0 {
                    continue; // `nb` is not an extent of the rank-2 forms
                }
                let c2 = rank2(&full(None, m, k, ta, -1.0), &full(None, k, n, tb, 1.0), (ta, tb))
                    .unwrap();
                assert_eq!(c2.shape().dims(), &[m, n]);
                assert!(bits(&c2).iter().all(|&w| w == 0), "{d:?}: not all +0.0");
            }
        }
    }

    #[test]
    fn block_partitioned_matmul_matches_whole() {
        // The essence of partition-n-reduce for matmul: row-split A, col-split
        // B, and reduction over the inner dimension all reassemble to C.
        let a = m(4, 4, (0..16).map(|x| (x as f32).sin()).collect());
        let b = m(4, 4, (0..16).map(|x| (x as f32).cos()).collect());
        let c = a.matmul(&b).unwrap();

        // Row split of A -> row-concat of C.
        let a0 = a.slice(0, 0, 2).unwrap();
        let a1 = a.slice(0, 2, 4).unwrap();
        let c_rows = Tensor::concat(&[a0.matmul(&b).unwrap(), a1.matmul(&b).unwrap()], 0).unwrap();
        assert!(c_rows.allclose(&c, 1e-5));

        // Column split of B -> column-concat of C.
        let b0 = b.slice(1, 0, 2).unwrap();
        let b1 = b.slice(1, 2, 4).unwrap();
        let c_cols = Tensor::concat(&[a.matmul(&b0).unwrap(), a.matmul(&b1).unwrap()], 1).unwrap();
        assert!(c_cols.allclose(&c, 1e-5));

        // Inner split -> partial sums reduce to C (Case-2, output reduction).
        let ak0 = a.slice(1, 0, 2).unwrap();
        let ak1 = a.slice(1, 2, 4).unwrap();
        let bk0 = b.slice(0, 0, 2).unwrap();
        let bk1 = b.slice(0, 2, 4).unwrap();
        let c_red = ak0.matmul(&bk0).unwrap().add(&ak1.matmul(&bk1).unwrap()).unwrap();
        assert!(c_red.allclose(&c, 1e-5));
    }
}
