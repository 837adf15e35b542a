//! Symbolic intervals and the Fig. 4 interval arithmetic.
//!
//! An interval `I = [Σ lᵢXᵢ + c_l, Σ uᵢXᵢ + c_u]` tracks the range of an
//! index expression during abstract interpretation of a TDL body; both
//! bounds are [`AffineForm`]s over the symbolic extents. Only the affine
//! operations of Fig. 4 are defined. The paper raises an error on a product
//! or comparison of two intervals; here no description can ask for one,
//! because the affine index grammar cannot express it: a coordinate is built
//! from variables and constants with `+`, `-` and multiplication or division
//! by an integer literal (see [`crate::builder::Idx`]).

use crate::affine::AffineForm;

/// A closed symbolic interval `[lo, hi]` whose bounds are affine forms over
/// the symbolic extents.
///
/// # Examples
///
/// ```
/// use tofu_tdl::{AffineForm, SymInterval};
///
/// // Variable x over its full range [0, X0], shifted by 2: [2, X0 + 2].
/// let x = SymInterval::new(AffineForm::zero(), AffineForm::var(0));
/// let shifted = x.offset(2.0);
/// assert_eq!(shifted.lo().constant_term(), 2.0);
/// assert_eq!(shifted.hi().terms(), &[(0, 1.0)]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SymInterval {
    lo: AffineForm,
    hi: AffineForm,
}

impl SymInterval {
    /// Creates an interval from explicit bounds.
    pub fn new(lo: AffineForm, hi: AffineForm) -> SymInterval {
        SymInterval { lo, hi }
    }

    /// The degenerate interval `[c, c]`.
    pub fn point(c: f64) -> SymInterval {
        SymInterval { lo: AffineForm::constant(c), hi: AffineForm::constant(c) }
    }

    /// The full range `[0, X_var]` of index variable `var` — the default
    /// initialization `ZV[u_i = 1]` of the paper.
    pub(crate) fn full_var(var: usize) -> SymInterval {
        SymInterval { lo: AffineForm::zero(), hi: AffineForm::var(var) }
    }

    /// The lower half `[0, X_var/2]` of a variable's range — the paper's
    /// `ZV[u_b = 1/2]` initialization used to analyze worker 0.
    pub(crate) fn lower_half_var(var: usize) -> SymInterval {
        SymInterval { lo: AffineForm::zero(), hi: AffineForm::var(var).scale(0.5) }
    }

    /// The upper half `[X_var/2, X_var]` — the paper's
    /// `ZV[l_b = 1/2, u_b = 1]` initialization used to analyze worker 1.
    pub(crate) fn upper_half_var(var: usize) -> SymInterval {
        SymInterval { lo: AffineForm::var(var).scale(0.5), hi: AffineForm::var(var) }
    }

    /// Lower bound.
    pub fn lo(&self) -> &AffineForm {
        &self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> &AffineForm {
        &self.hi
    }

    /// Fig. 4: `I ± k`.
    pub fn offset(&self, k: f64) -> SymInterval {
        SymInterval { lo: self.lo.offset(k), hi: self.hi.offset(k) }
    }

    /// Fig. 4: `I × k`. A negative factor swaps the bounds.
    pub fn scale(&self, k: f64) -> SymInterval {
        if k >= 0.0 {
            SymInterval { lo: self.lo.scale(k), hi: self.hi.scale(k) }
        } else {
            SymInterval { lo: self.hi.scale(k), hi: self.lo.scale(k) }
        }
    }

    /// Fig. 4: `I ± I'` (interval addition).
    pub fn add(&self, other: &SymInterval) -> SymInterval {
        SymInterval { lo: self.lo.add(&other.lo), hi: self.hi.add(&other.hi) }
    }

    /// Fig. 4: interval subtraction `I - I'`.
    pub fn sub(&self, other: &SymInterval) -> SymInterval {
        SymInterval { lo: self.lo.sub(&other.hi), hi: self.hi.sub(&other.lo) }
    }

    /// Convex hull of two intervals: pointwise-min of the lower bounds and
    /// pointwise-max of the upper bounds (sound because extents are
    /// non-negative).
    pub(crate) fn hull(&self, other: &SymInterval) -> SymInterval {
        SymInterval {
            lo: self.lo.pointwise_min(&other.lo),
            hi: self.hi.pointwise_max(&other.hi),
        }
    }

    /// Approximate structural equality.
    pub(crate) fn approx_eq(&self, other: &SymInterval) -> bool {
        self.lo.approx_eq(&other.lo) && self.hi.approx_eq(&other.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_two_example() {
        // The paper's shift_two: B = lambda i: A[i+2]. Splitting i into
        // halves gives A regions [2, X/2 + 2] and [X/2 + 2, X + 2].
        let w0 = SymInterval::lower_half_var(0).offset(2.0);
        assert_eq!(w0.lo().constant_term(), 2.0);
        assert_eq!(w0.hi().coeff(0), 0.5);
        assert_eq!(w0.hi().constant_term(), 2.0);
        let w1 = SymInterval::upper_half_var(0).offset(2.0);
        assert_eq!(w1.lo().coeff(0), 0.5);
        assert_eq!(w1.hi().coeff(0), 1.0);
    }

    #[test]
    fn scale_negative_swaps_bounds() {
        let i = SymInterval::full_var(0); // [0, X0]
        let neg = i.scale(-1.0); // [-X0, 0]
        assert_eq!(neg.lo().coeff(0), -1.0);
        assert!(neg.hi().is_zero());
    }

    #[test]
    fn interval_addition() {
        // x + dx with x in [0, X0], dx in [0, X1] -> [0, X0 + X1].
        let sum = SymInterval::full_var(0).add(&SymInterval::full_var(1));
        assert!(sum.lo().is_zero());
        assert_eq!(sum.hi().coeff(0), 1.0);
        assert_eq!(sum.hi().coeff(1), 1.0);
    }

    #[test]
    fn interval_subtraction() {
        let d = SymInterval::full_var(0).sub(&SymInterval::point(1.0));
        assert_eq!(d.lo().constant_term(), -1.0);
        assert_eq!(d.hi().coeff(0), 1.0);
    }

    #[test]
    fn hull_of_both_halves_is_the_full_range() {
        let lower = SymInterval::lower_half_var(0);
        let upper = SymInterval::upper_half_var(0);
        let hull = lower.hull(&upper);
        assert!(hull.approx_eq(&SymInterval::full_var(0)));
        assert!(!lower.approx_eq(&hull));
    }
}
