//! Automatic discovery of partition-n-reduce strategies (§4.2).
//!
//! A *basic strategy* parallelizes an operator across two workers. Case-1
//! splits an output dimension: each worker computes half of the output
//! (possibly reading overlapping "halo" input regions, as in convolution
//! along the pixel dimension). Case-2 splits a reduction dimension: each
//! worker computes a full-shape partial output and the two partials are
//! combined by the reducer (the "output reduction" strategy that ICML18
//! misses, §7.3).
//!
//! Discovery runs the symbolic region analysis twice per candidate variable —
//! once with the variable confined to the lower half of its range, once to
//! the upper half — and classifies every input tensor as *unused*,
//! *replicated*, or *split along one dimension with a symbolic halo*.

use crate::affine::AffineForm;
use crate::analysis::{access_regions, DimAccess, Region};
use crate::expr::{Reducer, TdlDesc, VarId, VarKind};
use crate::interval::SymInterval;
use crate::Result;

/// How a strategy produces the final output from the two workers' outputs.
#[derive(Debug, Clone, PartialEq)]
pub enum OutputPartition {
    /// Outputs are concatenated along `dim` (Case-1).
    Split {
        /// The concatenation dimension.
        dim: usize,
    },
    /// Outputs are full-shape partials combined element-wise by the reducer
    /// (Case-2).
    Reduce {
        /// The combining reducer.
        reducer: Reducer,
    },
}

impl OutputPartition {
    /// Returns the split dimension when this is a Case-1 strategy.
    pub fn split_dim(&self) -> Option<usize> {
        match self {
            OutputPartition::Split { dim } => Some(*dim),
            OutputPartition::Reduce { .. } => None,
        }
    }

    /// True for Case-2 (output-reduction) strategies.
    pub fn is_reduce(&self) -> bool {
        matches!(self, OutputPartition::Reduce { .. })
    }
}

/// The input region each worker needs under a basic strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum InputRequirement {
    /// The input is not read at all.
    Unused,
    /// Both workers read the entire input.
    Replicated,
    /// Worker `w` reads (roughly) its half of the input along `dim`, plus a
    /// halo of `halo` extra elements along that dimension shared with the
    /// neighbor (zero for clean splits, the filter-window extent for
    /// convolution's pixel dimension, etc.).
    Split {
        /// The split dimension of the input tensor.
        dim: usize,
        /// Symbolic halo width in elements along `dim`.
        halo: AffineForm,
    },
}

impl InputRequirement {
    /// Returns the split dimension for split requirements.
    pub fn split_dim(&self) -> Option<usize> {
        match self {
            InputRequirement::Split { dim, .. } => Some(*dim),
            _ => None,
        }
    }
}

/// One basic (2-worker) partition-n-reduce strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicStrategy {
    /// Human-readable identifier, e.g. `"split:x"` or `"reduce:ci"`.
    pub id: String,
    /// The partitioned index variable.
    pub var: VarId,
    /// How the output is assembled.
    pub output: OutputPartition,
    /// Requirement for each input tensor.
    pub inputs: Vec<InputRequirement>,
}

/// Discovers every basic strategy of a description.
///
/// Returns Case-1 strategies (one per splittable output dimension) followed
/// by Case-2 strategies (one per splittable reduction variable). Variables
/// that index an opaque function's result are excluded — the opaque
/// computation is indivisible, so e.g. `batch_cholesky` is only
/// partitionable along its batch dimension.
///
/// # Examples
///
/// ```
/// use tofu_tdl::{discover_strategies, DescBuilder, Reducer};
///
/// let mut b = DescBuilder::new("matmul", &[2, 2]);
/// let (i, j) = (b.output_var("i"), b.output_var("j"));
/// let k = b.reduce_var("k");
/// let body = b.input(0, &[i.at(), k.at()]) * b.input(1, &[k.at(), j.at()]);
/// let desc = b.build_reduce(Reducer::Sum, body).unwrap();
/// let strategies = discover_strategies(&desc).unwrap();
/// assert_eq!(strategies.len(), 3); // row, column, inner-product reduction
/// ```
pub fn discover_strategies(desc: &TdlDesc) -> Result<Vec<BasicStrategy>> {
    let n = desc.vars().len();
    let full_binding: Vec<SymInterval> = (0..n).map(SymInterval::full_var).collect();
    let full_regions = access_regions(desc, &full_binding)?;
    let unsplittable = desc.unsplittable_vars();

    let mut out = Vec::new();
    for v in 0..n {
        if unsplittable.contains(&v) {
            continue;
        }
        let kind = desc.vars()[v].kind;
        let mut b0 = full_binding.clone();
        b0[v] = SymInterval::lower_half_var(v);
        let mut b1 = full_binding.clone();
        b1[v] = SymInterval::upper_half_var(v);
        let r0 = access_regions(desc, &b0)?;
        let r1 = access_regions(desc, &b1)?;

        let mut inputs = Vec::with_capacity(desc.num_inputs());
        for t in 0..desc.num_inputs() {
            let req = match (&full_regions[t], &r0[t], &r1[t]) {
                (None, _, _) => InputRequirement::Unused,
                (Some(full), Some(w0), Some(w1)) => classify_input(full, w0, w1),
                // An input read under one half-binding but not the full
                // binding is impossible: the analysis is monotone.
                _ => InputRequirement::Replicated,
            };
            inputs.push(req);
        }

        let (id, output) = match kind {
            VarKind::Output => {
                (format!("split:{}", desc.vars()[v].name), OutputPartition::Split { dim: v })
            }
            VarKind::Reduce => {
                let reducer = desc
                    .reducer()
                    .expect("reduce variable implies reducer (enforced at build time)");
                (format!("reduce:{}", desc.vars()[v].name), OutputPartition::Reduce { reducer })
            }
        };
        out.push(BasicStrategy { id, var: v, output, inputs });
    }
    Ok(out)
}

/// Classifies one input tensor given its full-range footprint and the two
/// workers' footprints.
fn classify_input(full: &Region, w0: &Region, w1: &Region) -> InputRequirement {
    let affected: Vec<usize> = (0..full.0.len())
        .filter(|&k| !(w0.0[k].approx_eq(&full.0[k]) && w1.0[k].approx_eq(&full.0[k])))
        .collect();
    match affected.as_slice() {
        [] => InputRequirement::Replicated,
        [k] => {
            let (a, b) = match (&w0.0[*k], &w1.0[*k]) {
                (DimAccess::Interval(a), DimAccess::Interval(b)) => (a, b),
                // A Full footprint can never differ from a Full footprint,
                // so this arm is unreachable in practice; replicate to stay
                // sound.
                _ => return InputRequirement::Replicated,
            };
            // Order the two regions so `first` starts lower, then measure
            // their overlap: halo = max(0, first.hi - second.lo).
            let (first, second) =
                if a.lo().dominated_by(b.lo()) { (a, b) } else { (b, a) };
            let overlap = first.hi().sub(second.lo());
            let halo = if overlap.dominated_by(&AffineForm::zero()) {
                AffineForm::zero()
            } else {
                overlap.pointwise_max(&AffineForm::zero())
            };
            InputRequirement::Split { dim: *k, halo }
        }
        // The same input is disturbed along several dimensions (possible
        // only with multiple structurally different accesses, e.g.
        // A[i,j] + A[j,i]); fetching the whole tensor is the sound
        // fallback.
        _ => InputRequirement::Replicated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{DescBuilder, Idx};

    fn conv1d() -> TdlDesc {
        let mut b = DescBuilder::new("conv1d", &[3, 3]);
        let (bb, co, x) = (b.output_var("b"), b.output_var("co"), b.output_var("x"));
        let (ci, dx) = (b.reduce_var("ci"), b.reduce_var("dx"));
        let body = b.input(0, &[bb.at(), ci.at(), x.at() + dx.at()])
            * b.input(1, &[ci.at(), co.at(), dx.at()]);
        b.build_reduce(Reducer::Sum, body).unwrap()
    }

    #[test]
    fn conv1d_has_five_strategies() {
        let s = discover_strategies(&conv1d()).unwrap();
        let ids: Vec<&str> = s.iter().map(|st| st.id.as_str()).collect();
        assert_eq!(ids, vec!["split:b", "split:co", "split:x", "reduce:ci", "reduce:dx"]);
    }

    #[test]
    fn conv1d_batch_split_matches_fig_2a() {
        // Fig. 2(a): each worker reads half of data (b dimension) and all of
        // filters.
        let s = &discover_strategies(&conv1d()).unwrap()[0];
        assert_eq!(s.output, OutputPartition::Split { dim: 0 });
        assert!(matches!(s.inputs[0], InputRequirement::Split { dim: 0, ref halo } if halo.is_zero()));
        assert_eq!(s.inputs[1], InputRequirement::Replicated);
    }

    #[test]
    fn conv1d_channel_reduce_matches_fig_2b() {
        // Fig. 2(b): splitting ci halves data along dim 1 and filters along
        // dim 0, with an output reduction.
        let s = &discover_strategies(&conv1d()).unwrap()[3];
        assert_eq!(s.id, "reduce:ci");
        assert!(s.output.is_reduce());
        assert!(matches!(s.inputs[0], InputRequirement::Split { dim: 1, ref halo } if halo.is_zero()));
        assert!(matches!(s.inputs[1], InputRequirement::Split { dim: 0, ref halo } if halo.is_zero()));
    }

    #[test]
    fn conv1d_pixel_split_has_halo() {
        // Splitting x requires halo exchange: the overlap along data's dim 2
        // is the filter-window extent X_dx (variable 4).
        let s = &discover_strategies(&conv1d()).unwrap()[2];
        assert_eq!(s.id, "split:x");
        match &s.inputs[0] {
            InputRequirement::Split { dim: 2, halo } => {
                assert_eq!(halo.coeff(4), 1.0);
                assert_eq!(halo.coeff(2), 0.0);
            }
            other => panic!("unexpected requirement {other:?}"),
        }
        // Filters are replicated under the pixel split.
        assert_eq!(s.inputs[1], InputRequirement::Replicated);
    }

    #[test]
    fn matmul_three_classic_strategies() {
        let mut b = DescBuilder::new("matmul", &[2, 2]);
        let (i, j) = (b.output_var("i"), b.output_var("j"));
        let k = b.reduce_var("k");
        let body = b.input(0, &[i.at(), k.at()]) * b.input(1, &[k.at(), j.at()]);
        let desc = b.build_reduce(Reducer::Sum, body).unwrap();
        let s = discover_strategies(&desc).unwrap();
        assert_eq!(s.len(), 3);
        // Row split: A by rows, B replicated.
        assert!(matches!(s[0].inputs[0], InputRequirement::Split { dim: 0, .. }));
        assert_eq!(s[0].inputs[1], InputRequirement::Replicated);
        // Column split: A replicated, B by columns.
        assert_eq!(s[1].inputs[0], InputRequirement::Replicated);
        assert!(matches!(s[1].inputs[1], InputRequirement::Split { dim: 1, .. }));
        // Inner-product reduction: A by columns, B by rows, reduce outputs.
        assert!(s[2].output.is_reduce());
        let clean = |r: &InputRequirement, d| {
            matches!(r, InputRequirement::Split { dim, halo } if *dim == d && halo.is_zero())
        };
        assert!(clean(&s[2].inputs[0], 1) && clean(&s[2].inputs[1], 0));
    }

    #[test]
    fn elementwise_splits_every_dim_cleanly() {
        let mut b = DescBuilder::new("add", &[2, 2]);
        let (i, j) = (b.output_var("i"), b.output_var("j"));
        let body = b.input(0, &[i.at(), j.at()]) + b.input(1, &[i.at(), j.at()]);
        let desc = b.build(body).unwrap();
        let s = discover_strategies(&desc).unwrap();
        assert_eq!(s.len(), 2);
        for (d, st) in s.iter().enumerate() {
            assert_eq!(st.output, OutputPartition::Split { dim: d });
            for inp in &st.inputs {
                assert!(matches!(inp, InputRequirement::Split { dim, halo } if *dim == d && halo.is_zero()));
            }
        }
    }

    #[test]
    fn batch_cholesky_only_batch_dim() {
        let mut b = DescBuilder::new("batch_cholesky", &[3]);
        let (bb, i, j) = (b.output_var("b"), b.output_var("i"), b.output_var("j"));
        let slice = b.input(0, &[bb.at(), Idx::full(), Idx::full()]);
        let body = b.opaque("cholesky", vec![slice], &[i, j]);
        let desc = b.build(body).unwrap();
        let s = discover_strategies(&desc).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].id, "split:b");
        assert!(matches!(s[0].inputs[0], InputRequirement::Split { dim: 0, .. }));
    }

    #[test]
    fn broadcast_input_is_replicated_or_split() {
        // out[i, j] = X[i, j] + bias[j].
        let mut b = DescBuilder::new("bias_add", &[2, 1]);
        let (i, j) = (b.output_var("i"), b.output_var("j"));
        let body = b.input(0, &[i.at(), j.at()]) + b.input(1, &[j.at()]);
        let desc = b.build(body).unwrap();
        let s = discover_strategies(&desc).unwrap();
        // Splitting i: bias fully replicated.
        assert_eq!(s[0].inputs[1], InputRequirement::Replicated);
        // Splitting j: bias split along its only dim.
        assert!(matches!(s[1].inputs[1], InputRequirement::Split { dim: 0, .. }));
    }

    #[test]
    fn unused_input_is_classified_unused() {
        let mut b = DescBuilder::new("first", &[1, 1]);
        let i = b.output_var("i");
        let body = b.input(0, &[i.at()]);
        let desc = b.build(body).unwrap();
        let s = discover_strategies(&desc).unwrap();
        assert_eq!(s[0].inputs[1], InputRequirement::Unused);
    }

    #[test]
    fn strided_access_still_splits_cleanly() {
        // out[i] = A[2*i]: worker halves map to disjoint strided halves.
        let mut b = DescBuilder::new("downsample", &[1]);
        let i = b.output_var("i");
        let body = b.input(0, &[i.at() * 2]);
        let desc = b.build(body).unwrap();
        let s = discover_strategies(&desc).unwrap();
        assert!(matches!(s[0].inputs[0], InputRequirement::Split { dim: 0, ref halo } if halo.is_zero()));
    }

    #[test]
    fn symmetric_access_falls_back_to_replication() {
        // out[i, j] = A[i, j] + A[j, i] disturbs both dims of A when i splits.
        let mut b = DescBuilder::new("symmetrize", &[2]);
        let (i, j) = (b.output_var("i"), b.output_var("j"));
        let body = b.input(0, &[i.at(), j.at()]) + b.input(0, &[j.at(), i.at()]);
        let desc = b.build(body).unwrap();
        let s = discover_strategies(&desc).unwrap();
        assert_eq!(s[0].inputs[0], InputRequirement::Replicated);
    }
}
