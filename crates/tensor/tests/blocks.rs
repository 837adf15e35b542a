//! Property tests for the block walker behind `multi_fetch` assembly, piece
//! extraction and shard scatter/gather: extracting a block and copying it
//! into a destination, or folding it into one, must agree, element by
//! element, with a per-element reference over random shapes, offsets and
//! extents (zero extents included) — and must never touch destination
//! elements outside the block.

use proptest::prelude::*;
use tofu_tensor::{copy_block, ReduceKind, Shape, SplitMix64, Tensor, TensorError};

/// Numbers every element so any misplaced copy is visible.
fn sequential(shape: Shape) -> Tensor {
    let n = shape.volume();
    Tensor::from_vec(shape, (0..n).map(|i| i as f32 + 1.0).collect()).unwrap()
}

/// A value in `[0, n]`. The block geometry is drawn from one seeded
/// stream, so a failing case names everything needed to replay it.
fn upto(rng: &mut SplitMix64, n: usize) -> i64 {
    rng.below(n as u64 + 1) as i64
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Extracting a block into a packed buffer and then placing it (what a
    /// remote fetch does) agrees with copying it straight out of the source
    /// (what a local fetch does), and both agree with a per-element walk.
    #[test]
    fn block_copy_matches_per_element_reference(
        src_dims in prop::collection::vec(1usize..6, 0..4),
        seed in 0u64..1_000_000_000,
    ) {
        let mut rng = SplitMix64::new(seed);
        // A possibly empty block inside the source, and a destination with
        // slack on both sides so the block lands at a random interior offset.
        let len: Vec<i64> = src_dims.iter().map(|&d| upto(&mut rng, d)).collect();
        let src_begin: Vec<i64> =
            src_dims.iter().zip(&len).map(|(&d, &l)| upto(&mut rng, d - l as usize)).collect();
        let dst_begin: Vec<i64> = len.iter().map(|_| upto(&mut rng, 2)).collect();
        let dst_dims: Vec<usize> =
            len.iter().zip(&dst_begin).map(|(&l, &b)| (b + l + upto(&mut rng, 2)) as usize).collect();
        let block = Shape::new(len.iter().map(|&l| l as usize).collect());
        let zeros = vec![0i64; len.len()];
        let src = sequential(Shape::new(src_dims));

        let mut extracted = vec![0.0f32; block.volume()];
        copy_block(&mut extracted, &block, src.data(), src.shape(), &src_begin, &zeros, &len)
            .unwrap();
        let extracted = Tensor::from_vec(block.clone(), extracted).unwrap();
        let mut via_extract = Tensor::zeros(Shape::new(dst_dims.clone()));
        via_extract.copy_block(&extracted, &zeros, &dst_begin, &len).unwrap();

        let mut direct = Tensor::zeros(Shape::new(dst_dims.clone()));
        direct.copy_block(&src, &src_begin, &dst_begin, &len).unwrap();

        let mut want = Tensor::zeros(Shape::new(dst_dims));
        for idx in block.indices() {
            let at = |begin: &[i64]| -> Vec<usize> {
                idx.iter().zip(begin).map(|(&i, &b)| i + b as usize).collect()
            };
            want.set(&at(&dst_begin), src.at(&at(&src_begin)));
        }
        prop_assert_eq!(&direct, &want, "direct copy of {:?}+{:?} to {:?}", src_begin, len, dst_begin);
        prop_assert_eq!(&via_extract, &want, "extract+copy of {:?}+{:?}", src_begin, len);
    }

    /// Folding a block into a filled destination (a spread reduction's later
    /// classes) applies the reducer's scalar op, accumulator first, to each
    /// element of the block and leaves every other element as it was.
    #[test]
    fn block_fold_matches_per_element_reference(
        dims in prop::collection::vec(1usize..6, 0..4),
        seed in 0u64..1_000_000_000,
    ) {
        let mut rng = SplitMix64::new(seed);
        let len: Vec<i64> = dims.iter().map(|&d| upto(&mut rng, d)).collect();
        let begin = |rng: &mut SplitMix64| -> Vec<i64> {
            dims.iter().zip(&len).map(|(&d, &l)| upto(rng, d - l as usize)).collect()
        };
        let (src_begin, dst_begin) = (begin(&mut rng), begin(&mut rng));
        let shape = Shape::new(dims.clone());
        let src = sequential(shape.clone()).map(|v| v - 4.0);
        let init = sequential(shape.clone()).map(|v| 3.0 - v * 0.5);
        let block = Shape::new(len.iter().map(|&l| l as usize).collect());
        for kind in [ReduceKind::Sum, ReduceKind::Max, ReduceKind::Min, ReduceKind::Prod] {
            let op = |a: f32, b: f32| match kind {
                ReduceKind::Sum => a + b,
                ReduceKind::Max => a.max(b),
                ReduceKind::Min => a.min(b),
                ReduceKind::Prod => a * b,
            };
            let mut got = init.clone();
            got.fold_block(&src, &src_begin, &dst_begin, &len, kind).unwrap();
            let mut want = init.clone();
            for idx in block.indices() {
                let at = |begin: &[i64]| -> Vec<usize> {
                    idx.iter().zip(begin).map(|(&i, &b)| i + b as usize).collect()
                };
                want.set(&at(&dst_begin), op(init.at(&at(&dst_begin)), src.at(&at(&src_begin))));
            }
            prop_assert_eq!(&got, &want, "{:?} of {:?}+{:?} into {:?}", kind, src_begin, len, dst_begin);
        }
    }
}

#[test]
fn rank_zero_copies_the_scalar() {
    let mut dst = Tensor::scalar(0.0);
    dst.copy_block(&Tensor::scalar(7.5), &[], &[], &[]).unwrap();
    assert_eq!(dst.data(), &[7.5]);
}

#[test]
fn out_of_range_blocks_are_typed_errors_and_copy_nothing() {
    let src = sequential(Shape::new(vec![3, 4]));
    let mut dst = Tensor::zeros(Shape::new(vec![3, 4]));
    for (src_begin, dst_begin, len) in [
        ([0, 2], [0, 0], [3, 3]),         // leaves the source
        ([0, 0], [1, 0], [3, 4]),         // leaves the destination
        ([-1, 0], [0, 0], [1, 1]),        // negative offset
        ([0, 0], [0, 0], [1, -1]),        // negative extent
        ([i64::MAX, 0], [0, 0], [1, 1]), // begin + len overflows
    ] {
        let err = dst.copy_block(&src, &src_begin, &dst_begin, &len).unwrap_err();
        assert!(matches!(err, TensorError::InvalidBlock { .. }), "{err}");
    }
    let err = dst.copy_block(&src, &[0], &[0, 0], &[1, 1]).unwrap_err();
    assert!(matches!(err, TensorError::Incompatible(_)), "{err}");
    let short = [0.0f32; 5];
    let err = copy_block(dst.clone().data_mut(), dst.shape(), &short, src.shape(), &[0, 0], &[0, 0], &[1, 1])
        .unwrap_err();
    assert!(matches!(err, TensorError::DataLength { expected: 12, actual: 5 }), "{err}");
    assert!(dst.data().iter().all(|&v| v == 0.0));
}
