//! Region analysis: symbolic abstract interpretation of TDL bodies (§4.2).
//!
//! Given an assignment of symbolic intervals to index variables, walking the
//! lambda body yields, for every input tensor, the region (one interval per
//! dimension) that the computation reads. Running the analysis twice — once
//! with an index variable restricted to the lower half of its range, once to
//! the upper half — reveals what each of two workers must fetch, which is how
//! [`crate::strategy`] discovers partition strategies.

use crate::affine::AffineForm;
use crate::expr::{IndexExpr, TdlDesc, TdlError, VarId};
use crate::interval::SymInterval;
use crate::Result;

/// The access footprint of one dimension of one input tensor.
#[derive(Debug, Clone, PartialEq)]
pub enum DimAccess {
    /// The entire dimension is read (a `:` slice, e.g. inside an opaque
    /// function argument).
    Full,
    /// A symbolic sub-range is read.
    Interval(SymInterval),
}

impl DimAccess {
    /// Unions two footprints.
    pub fn union(&self, other: &DimAccess) -> DimAccess {
        match (self, other) {
            (DimAccess::Full, _) | (_, DimAccess::Full) => DimAccess::Full,
            (DimAccess::Interval(a), DimAccess::Interval(b)) => DimAccess::Interval(a.hull(b)),
        }
    }

    /// Approximate equality of footprints.
    pub fn approx_eq(&self, other: &DimAccess) -> bool {
        match (self, other) {
            (DimAccess::Full, DimAccess::Full) => true,
            (DimAccess::Interval(a), DimAccess::Interval(b)) => a.approx_eq(b),
            _ => false,
        }
    }
}

/// The access footprint of one input tensor: one [`DimAccess`] per dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct Region(pub Vec<DimAccess>);

impl Region {
    fn union_in_place(&mut self, other: &Region) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = a.union(b);
        }
    }
}

/// Evaluates an affine index expression under an interval assignment
/// (Fig. 4): the constant, plus each term's variable interval scaled by its
/// coefficient, in id order.
fn eval_affine(index: &AffineForm, binding: &[SymInterval]) -> SymInterval {
    let mut acc = SymInterval::point(index.constant_term());
    for &(v, c) in index.terms() {
        acc = acc.add(&binding[v].scale(c));
    }
    acc
}

/// Computes the per-input access regions of `desc` under the given interval
/// assignment for its index variables.
///
/// Returns one entry per declared input; `None` when the input is never
/// accessed by the body.
///
/// # Examples
///
/// ```
/// use tofu_tdl::{access_regions, DescBuilder, SymInterval};
///
/// // shift_two from the paper: B = lambda i: A[i + 2].
/// let mut b = DescBuilder::new("shift_two", &[1]);
/// let i = b.output_var("i");
/// let body = b.input(0, &[i.at() + 2]);
/// let desc = b.build(body).unwrap();
/// let regions = access_regions(&desc, &[SymInterval::lower_half_var(0)]).unwrap();
/// let region = regions[0].as_ref().unwrap();
/// assert_eq!(region.0.len(), 1);
/// ```
pub fn access_regions(desc: &TdlDesc, binding: &[SymInterval]) -> Result<Vec<Option<Region>>> {
    if binding.len() != desc.vars().len() {
        return Err(TdlError::Invalid(format!(
            "{} interval bindings for {} variables",
            binding.len(),
            desc.vars().len()
        )));
    }
    let mut regions: Vec<Option<Region>> = vec![None; desc.num_inputs()];
    desc.body().for_each_access(&mut |input, indices| {
        let mut dims = Vec::with_capacity(indices.len());
        for ie in indices {
            match ie {
                IndexExpr::Full => dims.push(DimAccess::Full),
                IndexExpr::Affine(a) => {
                    dims.push(DimAccess::Interval(eval_affine(a, binding)));
                }
            }
        }
        let region = Region(dims);
        match &mut regions[input] {
            Some(existing) => existing.union_in_place(&region),
            slot @ None => *slot = Some(region),
        }
    });
    Ok(regions)
}

/// Binds a concrete extent to every index variable of `desc` from the
/// operator's concrete output and input shapes.
///
/// Output variable `i` gets the output extent `output_dims[i]`. A reduction
/// variable's extent is recovered from an input dimension it indexes: first
/// by an identity occurrence (`filters[ci, co, dx]` ties `dx` to
/// `filters.shape[2]`), then by solving a single-unknown affine occurrence.
///
/// Returns one extent per variable, or [`TdlError::UnresolvedExtent`].
pub fn bind_extents(
    desc: &TdlDesc,
    output_dims: &[usize],
    input_dims: &[Vec<usize>],
) -> Result<Vec<u64>> {
    if output_dims.len() != desc.output_rank() {
        return Err(TdlError::ShapeMismatch(format!(
            "output rank {} but {} extents given",
            desc.output_rank(),
            output_dims.len()
        )));
    }
    if input_dims.len() != desc.num_inputs() {
        return Err(TdlError::ShapeMismatch(format!(
            "{} inputs but {} shapes given",
            desc.num_inputs(),
            input_dims.len()
        )));
    }
    for (i, dims) in input_dims.iter().enumerate() {
        if dims.len() != desc.input_ranks()[i] {
            return Err(TdlError::ShapeMismatch(format!(
                "input {i} declared rank {} but shape has rank {}",
                desc.input_ranks()[i],
                dims.len()
            )));
        }
    }

    let n = desc.vars().len();
    let mut extents: Vec<Option<u64>> = vec![None; n];
    for (i, &d) in output_dims.iter().enumerate() {
        extents[i] = Some(d as u64);
    }
    // Pass 0: statically hinted extents (pooling windows et al.).
    for (v, info) in desc.vars().iter().enumerate() {
        if extents[v].is_none() {
            extents[v] = info.extent_hint;
        }
    }

    // Collect every (input, dim, index-expression) occurrence once.
    let mut occurrences: Vec<(usize, usize, AffineForm)> = Vec::new();
    desc.body().for_each_access(&mut |input, indices| {
        for (dim, ie) in indices.iter().enumerate() {
            if let IndexExpr::Affine(a) = ie {
                occurrences.push((input, dim, a.clone()));
            }
        }
    });

    // Pass 1: identity occurrences pin extents directly.
    for (input, dim, a) in &occurrences {
        if let &[(v, _)] = a.terms() {
            if a.is_identity_of(v) && extents[v].is_none() {
                extents[v] = Some(input_dims[*input][*dim] as u64);
            }
        }
    }

    // Pass 2: solve occurrences with exactly one unknown. The maximum index
    // reached is Σ coeff·(extent-1) + constant, which must equal
    // input_extent - 1 when the access spans the dimension exactly.
    let mut progress = true;
    while progress && extents.iter().any(Option::is_none) {
        progress = false;
        for (input, dim, a) in &occurrences {
            let unknowns: Vec<VarId> =
                a.terms().iter().map(|&(v, _)| v).filter(|&v| extents[v].is_none()).collect();
            if unknowns.len() != 1 {
                continue;
            }
            let v = unknowns[0];
            let cv = a.coeff(v);
            if cv <= 0.0 {
                continue;
            }
            let input_extent = input_dims[*input][*dim] as f64;
            let mut known_max = a.constant_term();
            for &(tv, c) in a.terms() {
                if tv != v {
                    let e = extents[tv].expect("known") as f64;
                    known_max += c.max(0.0) * (e - 1.0);
                }
            }
            // cv * (E_v - 1) + known_max = input_extent - 1.
            let candidate = (input_extent - 1.0 - known_max) / cv + 1.0;
            let rounded = candidate.round();
            if rounded >= 1.0 && (candidate - rounded).abs() < 1e-6 {
                extents[v] = Some(rounded as u64);
                progress = true;
            }
        }
    }

    extents
        .into_iter()
        .enumerate()
        .map(|(v, e)| e.ok_or(TdlError::UnresolvedExtent { var: v }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{DescBuilder, Idx};
    use crate::expr::Reducer;

    fn conv1d_desc() -> TdlDesc {
        let mut b = DescBuilder::new("conv1d", &[3, 3]);
        let (bb, co, x) = (b.output_var("b"), b.output_var("co"), b.output_var("x"));
        let (ci, dx) = (b.reduce_var("ci"), b.reduce_var("dx"));
        let body = b.input(0, &[bb.at(), ci.at(), x.at() + dx.at()])
            * b.input(1, &[ci.at(), co.at(), dx.at()]);
        b.build_reduce(Reducer::Sum, body).unwrap()
    }

    fn full_binding(desc: &TdlDesc) -> Vec<SymInterval> {
        (0..desc.vars().len()).map(SymInterval::full_var).collect()
    }

    #[test]
    fn conv1d_full_regions() {
        let desc = conv1d_desc();
        let regions = access_regions(&desc, &full_binding(&desc)).unwrap();
        // data region dim 2 covers [0, X_x + X_dx] (x + dx).
        let data = regions[0].as_ref().unwrap();
        match &data.0[2] {
            DimAccess::Interval(iv) => {
                assert_eq!(iv.hi().coeff(2), 1.0); // var x
                assert_eq!(iv.hi().coeff(4), 1.0); // var dx
            }
            DimAccess::Full => panic!("expected interval"),
        }
    }

    #[test]
    fn conv1d_batch_split_halves_data_only() {
        let desc = conv1d_desc();
        let mut binding = full_binding(&desc);
        binding[0] = SymInterval::lower_half_var(0); // split b
        let regions = access_regions(&desc, &binding).unwrap();
        let data = regions[0].as_ref().unwrap();
        // data dim 0 is halved.
        match &data.0[0] {
            DimAccess::Interval(iv) => assert_eq!(iv.hi().coeff(0), 0.5),
            _ => panic!(),
        }
        // filters untouched: full along every dim.
        let filters = regions[1].as_ref().unwrap();
        match &filters.0[0] {
            DimAccess::Interval(iv) => assert_eq!(iv.hi().coeff(3), 1.0),
            _ => panic!(),
        }
    }

    /// The mode partitioned-graph generation uses: every variable bound to
    /// a constant interval. Each bound comes out as the exact f64 that Fig. 4
    /// gives — the constant plus each coefficient times the interval's end
    /// (the other end for a negative coefficient), and min/max across
    /// accesses to one input.
    #[test]
    fn point_binding_gives_exact_constant_bounds() {
        // out[i, j] = a[2i + 3, :] + a[9 - i, j] + b[9 - i]
        let mut b = DescBuilder::new("point", &[2, 1]);
        let (i, j) = (b.output_var("i"), b.output_var("j"));
        let body = b.input(0, &[i.at() * 2 + 3, Idx::full()])
            + b.input(0, &[i.at() * -1 + 9, j.at()])
            + b.input(1, &[i.at() * -1 + 9]);
        let desc = b.build(body).unwrap();
        // `i` over the second third of an extent of 10, inclusive; neither
        // end is representable exactly.
        let (lo, hi) = (10.0 / 3.0, 20.0 / 3.0 - 1.0);
        let point = |lo, hi| SymInterval::new(AffineForm::constant(lo), AffineForm::constant(hi));
        let regions = access_regions(&desc, &[point(lo, hi), point(0.0, 4.0)]).unwrap();
        let bounds = |access: &DimAccess| match access {
            DimAccess::Interval(iv) => {
                assert!(iv.lo().terms().is_empty() && iv.hi().terms().is_empty());
                Some((iv.lo().constant_term(), iv.hi().constant_term()))
            }
            DimAccess::Full => None,
        };
        let a = &regions[0].as_ref().unwrap().0;
        let strided = (3.0 + 2.0 * lo, 3.0 + 2.0 * hi);
        let flipped = (9.0 - hi, 9.0 - lo);
        // The hull of both accesses: the flipped one's low end (below the
        // strided one's) and the strided one's high end.
        assert_eq!(bounds(&a[0]), Some((flipped.0, strided.1)));
        // A `:` joined with an interval spans the whole dimension.
        assert_eq!(bounds(&a[1]), None);
        assert_eq!(bounds(&regions[1].as_ref().unwrap().0[0]), Some(flipped));
    }

    #[test]
    fn unaccessed_input_yields_none() {
        let mut b = DescBuilder::new("first", &[1, 1]);
        let i = b.output_var("i");
        let body = b.input(0, &[i.at()]);
        let desc = b.build(body).unwrap();
        let regions = access_regions(&desc, &[SymInterval::full_var(0)]).unwrap();
        assert!(regions[0].is_some());
        assert!(regions[1].is_none());
    }

    #[test]
    fn binding_length_is_checked() {
        let desc = conv1d_desc();
        assert!(access_regions(&desc, &[]).is_err());
    }

    #[test]
    fn bind_extents_conv1d() {
        let desc = conv1d_desc();
        // output (4, 8, 6), data (4, 3, 7), filters (3, 8, 2): x+dx spans 7.
        let extents =
            bind_extents(&desc, &[4, 8, 6], &[vec![4, 3, 7], vec![3, 8, 2]]).unwrap();
        assert_eq!(extents, vec![4, 8, 6, 3, 2]);
    }

    #[test]
    fn bind_extents_matmul_inner_dim() {
        let mut b = DescBuilder::new("matmul", &[2, 2]);
        let (i, j) = (b.output_var("i"), b.output_var("j"));
        let k = b.reduce_var("k");
        let body = b.input(0, &[i.at(), k.at()]) * b.input(1, &[k.at(), j.at()]);
        let desc = b.build_reduce(Reducer::Sum, body).unwrap();
        let extents = bind_extents(&desc, &[2, 5], &[vec![2, 7], vec![7, 5]]).unwrap();
        assert_eq!(extents, vec![2, 5, 7]);
    }

    #[test]
    fn bind_extents_validates_ranks() {
        let desc = conv1d_desc();
        assert!(bind_extents(&desc, &[4, 8], &[vec![4, 3, 7], vec![3, 8, 2]]).is_err());
        assert!(bind_extents(&desc, &[4, 8, 6], &[vec![4, 3], vec![3, 8, 2]]).is_err());
        assert!(bind_extents(&desc, &[4, 8, 6], &[vec![4, 3, 7]]).is_err());
    }
}
