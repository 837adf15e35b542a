//! The N-d block copier: the one place a rectangular sub-block moves between
//! two dense row-major buffers. `multi_fetch` assembly, the runtime's piece
//! extraction, and shard scatter/gather all go through it.

use crate::{Result, Shape, TensorError};

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
    for (actual, shape) in [(dst.len(), dst_shape), (src.len(), src_shape)] {
        if actual != shape.volume() {
            return Err(TensorError::DataLength { expected: shape.volume(), actual });
        }
    }
    src_shape.check_block(src_begin, len)?;
    dst_shape.check_block(dst_begin, len)?;
    let rank = len.len();
    if rank == 0 {
        dst[0] = src[0];
        return Ok(());
    }
    if len.contains(&0) {
        return Ok(());
    }
    let src_strides = src_shape.strides();
    let dst_strides = dst_shape.strides();
    let row = len[rank - 1] as usize;
    let mut src_off: usize = src_begin.iter().zip(&src_strides).map(|(&b, &s)| b as usize * s).sum();
    let mut dst_off: usize = dst_begin.iter().zip(&dst_strides).map(|(&b, &s)| b as usize * s).sum();
    let mut idx = vec![0usize; rank - 1];
    'rows: loop {
        dst[dst_off..dst_off + row].copy_from_slice(&src[src_off..src_off + row]);
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
