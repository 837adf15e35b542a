//! The N-d block walker: the one place a rectangular sub-block moves between
//! two dense row-major buffers, copied or folded into its destination.
//! `multi_fetch` assembly (its spread reduction included), the runtime's
//! piece extraction, and shard scatter/gather all go through it.

use crate::{ReduceKind, Result, Shape, TensorError};

impl Shape {
    /// Checks that the block `[begin, begin + len)` has this shape's rank
    /// and lies inside `[0, extent)` on every axis.
    pub fn check_block(&self, begin: &[i64], len: &[i64]) -> Result<()> {
        if begin.len() != self.rank() || len.len() != self.rank() {
            return Err(TensorError::Incompatible(format!(
                "block of rank {}/{} addresses a rank-{} shape",
                begin.len(),
                len.len(),
                self.rank()
            )));
        }
        for (axis, (&extent, (&b, &l))) in self.dims().iter().zip(begin.iter().zip(len)).enumerate() {
            let inside =
                b >= 0 && l >= 0 && b.checked_add(l).is_some_and(|end| end as u64 <= extent as u64);
            if !inside {
                return Err(TensorError::InvalidBlock { axis, begin: b, len: l, extent });
            }
        }
        Ok(())
    }
}

/// Copies the `len`-sized block at `src_begin` of `src` to `dst_begin` of
/// `dst`. Both buffers are dense row-major with shapes `src_shape` /
/// `dst_shape`, so the block's innermost dimension is contiguous in both and
/// moves with one slice copy per row; an odometer walks the outer dimensions.
/// Elements of `dst` outside the block are left untouched, and a block with
/// a zero extent copies nothing.
///
/// Offsets and extents are element counts per dimension. A rank mismatch, a
/// buffer that does not match its shape, or a block that leaves either
/// buffer is a typed error — nothing is copied in that case.
pub fn copy_block(
    dst: &mut [f32],
    dst_shape: &Shape,
    src: &[f32],
    src_shape: &Shape,
    src_begin: &[i64],
    dst_begin: &[i64],
    len: &[i64],
) -> Result<()> {
    let row = |d: &mut [f32], s: &[f32]| d.copy_from_slice(s);
    walk_block((dst, dst_shape), (src, src_shape), src_begin, dst_begin, len, row)
}

/// Folds the block at `src_begin` of `src` into the block at `dst_begin` of
/// `dst`, under [`copy_block`]'s contract: each destination element `a`
/// becomes `a + b`, `a.max(b)`, `a.min(b)` or `a * b` of its source element
/// `b` — the scalar op of the `add_n`, `maximum`, `minimum` and `mul`
/// kernels, so folding blocks in order is bit-identical to that chain.
pub(crate) fn fold_block(
    dst: (&mut [f32], &Shape),
    src: (&[f32], &Shape),
    src_begin: &[i64],
    dst_begin: &[i64],
    len: &[i64],
    kind: ReduceKind,
) -> Result<()> {
    fn fold(f: impl Fn(f32, f32) -> f32) -> impl FnMut(&mut [f32], &[f32]) {
        move |d, s| d.iter_mut().zip(s).for_each(|(a, &b)| *a = f(*a, b))
    }
    match kind {
        ReduceKind::Sum => walk_block(dst, src, src_begin, dst_begin, len, fold(|a, b| a + b)),
        ReduceKind::Max => walk_block(dst, src, src_begin, dst_begin, len, fold(f32::max)),
        ReduceKind::Min => walk_block(dst, src, src_begin, dst_begin, len, fold(f32::min)),
        ReduceKind::Prod => walk_block(dst, src, src_begin, dst_begin, len, fold(|a, b| a * b)),
    }
}

/// The block walker under [`copy_block`] and [`fold_block`]: checks both
/// buffers and the block, then hands `row` each contiguous destination row
/// of the block with its source row; an odometer walks the outer
/// dimensions. A rank-0 block is one element, a zero extent none.
fn walk_block(
    (dst, dst_shape): (&mut [f32], &Shape),
    (src, src_shape): (&[f32], &Shape),
    src_begin: &[i64],
    dst_begin: &[i64],
    len: &[i64],
    mut row: impl FnMut(&mut [f32], &[f32]),
) -> Result<()> {
    for (actual, shape) in [(dst.len(), dst_shape), (src.len(), src_shape)] {
        if actual != shape.volume() {
            return Err(TensorError::DataLength { expected: shape.volume(), actual });
        }
    }
    src_shape.check_block(src_begin, len)?;
    dst_shape.check_block(dst_begin, len)?;
    let rank = len.len();
    if rank == 0 {
        row(&mut dst[..1], &src[..1]);
        return Ok(());
    }
    if len.contains(&0) {
        return Ok(());
    }
    let src_strides = src_shape.strides();
    let dst_strides = dst_shape.strides();
    let width = len[rank - 1] as usize;
    let mut src_off: usize = src_begin.iter().zip(&src_strides).map(|(&b, &s)| b as usize * s).sum();
    let mut dst_off: usize = dst_begin.iter().zip(&dst_strides).map(|(&b, &s)| b as usize * s).sum();
    let mut idx = vec![0usize; rank - 1];
    'rows: loop {
        row(&mut dst[dst_off..dst_off + width], &src[src_off..src_off + width]);
        // Odometer over the outer dimensions.
        let mut d = rank - 1;
        while d > 0 {
            d -= 1;
            idx[d] += 1;
            src_off += src_strides[d];
            dst_off += dst_strides[d];
            if idx[d] < len[d] as usize {
                continue 'rows;
            }
            idx[d] = 0;
            src_off -= src_strides[d] * len[d] as usize;
            dst_off -= dst_strides[d] * len[d] as usize;
        }
        break;
    }
    Ok(())
}
