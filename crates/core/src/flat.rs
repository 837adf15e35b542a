//! Search-space accounting for the non-recursive ("flat") DP — Table 1.
//!
//! Without recursion, each tensor of a `2^m`-worker plan may be partitioned
//! along any *multiset* of `m` dimensions (a 4-D tensor has `C(4+3-1, 3) =
//! 20` distinct ways for 8 workers — the number quoted in §5.2). A group's
//! configuration count is the product over its touched tensors, e.g.
//! `20⁶ = 6.4·10⁷` for a 2-D-convolution group. This module counts those
//! configurations — the "DP with coarsening" row of Table 1 — without
//! running the flat DP.

use tofu_graph::Graph;

use crate::coarsen::CoarseGraph;
use crate::strategies::ShapeView;

/// Number of multisets of size `m` over `rank` dimensions:
/// `C(rank + m - 1, m)`.
pub fn tensor_configs(rank: usize, m: usize) -> u128 {
    if rank == 0 {
        return 1;
    }
    // Binomial C(rank + m - 1, m).
    let n = (rank + m - 1) as u128;
    let k = m as u128;
    let mut num = 1u128;
    let mut den = 1u128;
    for i in 0..k {
        num = num.saturating_mul(n - i);
        den = den.saturating_mul(i + 1);
    }
    num / den
}

/// Per-group configuration counts of the flat DP, as `log10`: the sum over
/// the group's touched tensors of `log10` of their [`tensor_configs`]. Kept
/// in log space because a large group's count overflows any integer.
pub fn group_configs(g: &Graph, cg: &CoarseGraph, view: &ShapeView, workers: usize) -> Vec<f64> {
    let m = workers.trailing_zeros() as usize; // steps for powers of two
    cg.groups
        .iter()
        .map(|group| {
            let mut tensors: Vec<tofu_graph::TensorId> = Vec::new();
            for &n in &group.nodes {
                let node = g.node(n);
                tensors.push(node.output);
                tensors.extend(node.inputs.iter().copied());
            }
            tensors.sort_unstable();
            tensors.dedup();
            tensors.iter().map(|&t| (tensor_configs(view.shape(t).rank(), m) as f64).log10()).sum()
        })
        .collect()
}

/// Total flat-DP configuration count over all groups, as `log10`: the
/// groups' counts are summed in log space, so the total cannot saturate.
pub fn total_configs(g: &Graph, cg: &CoarseGraph, view: &ShapeView, workers: usize) -> f64 {
    let logs = group_configs(g, cg, view, workers);
    let top = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    top + logs.iter().map(|l| 10f64.powf(l - top)).sum::<f64>().log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarsen::coarsen;
    use tofu_graph::{autodiff, Attrs};
    use tofu_tensor::Shape;

    #[test]
    fn multiset_counts_match_the_paper() {
        // §5.2: "for each 4D tensor ... there are in total 20 different ways
        // to partition it evenly across 8 workers".
        assert_eq!(tensor_configs(4, 3), 20);
        assert_eq!(tensor_configs(2, 3), 4);
        assert_eq!(tensor_configs(1, 3), 1);
        assert_eq!(tensor_configs(0, 3), 1);
        // And a 2-D tensor split across 2 workers: 2 ways.
        assert_eq!(tensor_configs(2, 1), 2);
    }

    #[test]
    fn conv_group_scale_matches_206_example() {
        // A group touching six 4-D tensors: 20^6 = 6.4e7 (§5.2).
        let per_tensor = tensor_configs(4, 3);
        assert_eq!(per_tensor.pow(6), 64_000_000);
    }

    #[test]
    fn flat_counts_blow_up_relative_to_recursion() {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![8, 3, 16, 16]));
        let f = g.add_weight("f", Shape::new(vec![3, 8, 3, 3]));
        let labels = g.add_input("labels", Shape::new(vec![8]));
        let c = g
            .add_op("conv2d", "conv", &[x, f], Attrs::new().with_int("pad", 1))
            .unwrap();
        let p = g.add_op("global_avg_pool", "gap", &[c], Attrs::new()).unwrap();
        let loss = g.add_op("softmax_ce", "loss", &[p, labels], Attrs::new()).unwrap();
        autodiff::backward(&mut g, loss, &[f]).unwrap();
        let cg = coarsen(&g);
        let view = ShapeView::from_graph(&g);
        let flat = total_configs(&g, &cg, &view, 8);
        // The recursion enumerates per step at most rank^|tensors| per group;
        // the flat count must be orders of magnitude beyond the graph size.
        assert!(flat > 6.0, "flat configs only 10^{flat}");
    }

    #[test]
    fn a_large_group_count_does_not_saturate() {
        // An element-wise chain coarsens into one group; 39 relus touch 40
        // 4-D tensors, so 20^40 configurations (~1.1e52, past u128::MAX).
        let mut g = Graph::new();
        let mut t = g.add_input("x", Shape::new(vec![2, 2, 2, 2]));
        for i in 0..39 {
            t = g.add_op("relu", &format!("r{i}"), &[t], Attrs::new()).unwrap();
        }
        let cg = coarsen(&g);
        let view = ShapeView::from_graph(&g);
        let groups = group_configs(&g, &cg, &view, 8);
        assert_eq!(groups.len(), 1);
        let expected = 40.0 * 20f64.log10();
        assert!((groups[0] - expected).abs() < 1e-9, "{} vs {expected}", groups[0]);
        assert!((total_configs(&g, &cg, &view, 8) - expected).abs() < 1e-9);
    }
}
