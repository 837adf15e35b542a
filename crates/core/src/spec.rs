//! Tensor partition specs and the communication cost model (§5 "minimize the
//! total communication cost").
//!
//! Costs are *bytes moved between the two (or `ways`) worker groups of one
//! basic partition step*, following Lemma 1 of the paper's appendix: every
//! cost is a weighted sum of tensor sizes.

use tofu_tensor::Shape;

/// How one tensor is partitioned at one basic step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TensorSpec {
    /// Split in `ways` equal parts along this dimension.
    Split(usize),
    /// Fully replicated on every worker group. Only chosen when no dimension
    /// is divisible (scalars, odd extents) — the paper's algorithm partitions
    /// every tensor, and so does ours whenever possible.
    Replicated,
}

impl TensorSpec {
    /// The split dimension, if any.
    pub fn dim(self) -> Option<usize> {
        match self {
            TensorSpec::Split(d) => Some(d),
            TensorSpec::Replicated => None,
        }
    }

    /// Canonical single-byte encoding: `Split(d)` → `d`, `Replicated` → 255.
    ///
    /// The byte ordering matches the derived `Ord` (ascending split
    /// dimensions, replication last), which the DP relies on for
    /// deterministic state ordering. Panics for split dimensions ≥ 255,
    /// which no realistic tensor rank reaches.
    pub fn enc(self) -> u8 {
        match self {
            TensorSpec::Split(d) => {
                assert!(d < usize::from(u8::MAX), "split dimension {d} out of encoding range");
                d as u8
            }
            TensorSpec::Replicated => u8::MAX,
        }
    }

    /// Inverse of [`TensorSpec::enc`].
    pub(crate) fn dec(byte: u8) -> TensorSpec {
        if byte == u8::MAX {
            TensorSpec::Replicated
        } else {
            TensorSpec::Split(byte as usize)
        }
    }
}

/// Enumerates the legal specs of a tensor for a `ways`-way step: every
/// dimension whose *current* extent divides evenly, or replication when none
/// does (and always for scalars).
pub fn legal_specs(shape: &Shape, ways: usize) -> Vec<TensorSpec> {
    let mut specs: Vec<TensorSpec> = (0..shape.rank())
        .filter(|&d| shape.dim(d).is_multiple_of(ways) && shape.dim(d) >= ways)
        .map(TensorSpec::Split)
        .collect();
    if specs.is_empty() {
        specs.push(TensorSpec::Replicated);
    }
    specs
}

/// A concrete (evaluated) input requirement of a chosen strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum ConcreteReq {
    /// The input is not read.
    Unused,
    /// Both worker groups read the whole input.
    Replicated,
    /// Split along `dim` with `halo` extra elements of overlap along it.
    Split {
        /// The input tensor's split dimension.
        dim: usize,
        /// Halo elements along `dim` (0 for clean splits).
        halo: f64,
    },
}

/// A concrete output disposition of a chosen strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConcreteOut {
    /// Workers produce disjoint output blocks along this dimension.
    Split(usize),
    /// Workers produce full-shape partials that must be reduced.
    Reduce,
}

/// Bytes transferred to satisfy one input of one operator at one step.
///
/// `shape` is the input tensor's shape *at this step* (already scaled by
/// earlier steps); `spec` is how the plan splits it at this step; `req` is
/// what the chosen strategy needs; `ways` is the step's group count.
pub fn input_fetch_bytes(shape: &Shape, spec: TensorSpec, req: &ConcreteReq, ways: usize) -> f64 {
    let size = shape.bytes() as f64;
    let w = ways as f64;
    match (spec, req) {
        (_, ConcreteReq::Unused) => 0.0,
        // A replicated tensor is locally available in full: nothing to move.
        (TensorSpec::Replicated, _) => 0.0,
        // Each group gathers the remaining (ways-1)/ways of the tensor.
        (TensorSpec::Split(_), ConcreteReq::Replicated) => size * (w - 1.0),
        (TensorSpec::Split(a), ConcreteReq::Split { dim, halo }) => {
            if a == *dim {
                if *halo <= 0.0 {
                    0.0
                } else {
                    // Each group fetches a halo slab from its neighbor(s).
                    let extent = shape.dim(a).max(1) as f64;
                    let frac = (halo / extent).min(1.0);
                    (size * frac) * w
                }
            } else {
                // Cross-split: every group already owns a 1/ways² block of
                // what it needs and fetches the rest.
                size * (w - 1.0) / w
            }
        }
    }
}

/// Bytes transferred to materialize one output at one step.
///
/// A Case-1 (split) output lands exactly where it is computed; a Case-2
/// (reduce) output costs a spread all-reduce over the full output size.
pub fn output_bytes(shape: &Shape, out: ConcreteOut, ways: usize) -> f64 {
    match out {
        ConcreteOut::Split(_) => 0.0,
        ConcreteOut::Reduce => shape.bytes() as f64 * (ways as f64 - 1.0),
    }
}

/// Bytes to convert a tensor from one spec to another outside any operator
/// (used when a replicated output must be re-sharded, and by baselines).
pub fn respec_bytes(shape: &Shape, from: TensorSpec, to: TensorSpec, ways: usize) -> f64 {
    let size = shape.bytes() as f64;
    let w = ways as f64;
    match (from, to) {
        (a, b) if a == b => 0.0,
        (TensorSpec::Replicated, _) => 0.0,
        (TensorSpec::Split(_), TensorSpec::Replicated) => size * (w - 1.0),
        (TensorSpec::Split(_), TensorSpec::Split(_)) => size * (w - 1.0) / w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(dims: &[usize]) -> Shape {
        Shape::new(dims.to_vec())
    }

    #[test]
    fn legal_specs_respect_divisibility() {
        let s = shape(&[8, 6, 5]);
        assert_eq!(
            legal_specs(&s, 2),
            vec![TensorSpec::Split(0), TensorSpec::Split(1)]
        );
        assert_eq!(legal_specs(&s, 4), vec![TensorSpec::Split(0)]);
        // Nothing divisible by 7 -> replication fallback.
        assert_eq!(legal_specs(&s, 7), vec![TensorSpec::Replicated]);
        // Scalars always replicate.
        assert_eq!(legal_specs(&Shape::scalar(), 2), vec![TensorSpec::Replicated]);
    }

    #[test]
    fn matching_split_is_free() {
        let s = shape(&[8, 8]);
        let req = ConcreteReq::Split { dim: 0, halo: 0.0 };
        assert_eq!(input_fetch_bytes(&s, TensorSpec::Split(0), &req, 2), 0.0);
    }

    #[test]
    fn mismatched_split_costs_half_for_two_ways() {
        let s = shape(&[8, 8]); // 256 bytes
        let req = ConcreteReq::Split { dim: 1, halo: 0.0 };
        assert_eq!(input_fetch_bytes(&s, TensorSpec::Split(0), &req, 2), 128.0);
        // Four ways: 3/4 of the tensor moves.
        assert_eq!(input_fetch_bytes(&s, TensorSpec::Split(0), &req, 4), 192.0);
    }

    #[test]
    fn replication_requirement_costs_remainder() {
        let s = shape(&[8, 8]);
        assert_eq!(
            input_fetch_bytes(&s, TensorSpec::Split(0), &ConcreteReq::Replicated, 2),
            256.0
        );
        // Already replicated tensors are free.
        assert_eq!(
            input_fetch_bytes(&s, TensorSpec::Replicated, &ConcreteReq::Replicated, 2),
            0.0
        );
    }

    #[test]
    fn halo_costs_scale_with_overlap() {
        let s = shape(&[4, 16]); // 256 bytes; dim 1 extent 16
        let req = ConcreteReq::Split { dim: 1, halo: 2.0 };
        // Each of 2 groups fetches 2/16 of the tensor: 2 * 32 = 64 bytes.
        assert_eq!(input_fetch_bytes(&s, TensorSpec::Split(1), &req, 2), 64.0);
        // Zero halo -> free.
        let req0 = ConcreteReq::Split { dim: 1, halo: 0.0 };
        assert_eq!(input_fetch_bytes(&s, TensorSpec::Split(1), &req0, 2), 0.0);
    }

    #[test]
    fn unused_inputs_are_free() {
        let s = shape(&[1024]);
        assert_eq!(input_fetch_bytes(&s, TensorSpec::Split(0), &ConcreteReq::Unused, 2), 0.0);
    }

    #[test]
    fn reduce_output_costs_one_tensor_per_extra_way() {
        let s = shape(&[8, 8]);
        assert_eq!(output_bytes(&s, ConcreteOut::Reduce, 2), 256.0);
        assert_eq!(output_bytes(&s, ConcreteOut::Reduce, 4), 768.0);
        assert_eq!(output_bytes(&s, ConcreteOut::Split(0), 2), 0.0);
    }

    #[test]
    fn respec_costs() {
        let s = shape(&[8, 8]);
        assert_eq!(respec_bytes(&s, TensorSpec::Split(0), TensorSpec::Split(0), 2), 0.0);
        assert_eq!(respec_bytes(&s, TensorSpec::Split(0), TensorSpec::Split(1), 2), 128.0);
        assert_eq!(respec_bytes(&s, TensorSpec::Split(0), TensorSpec::Replicated, 2), 256.0);
        assert_eq!(respec_bytes(&s, TensorSpec::Replicated, TensorSpec::Split(0), 2), 0.0);
    }
}
