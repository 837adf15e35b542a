//! The one affine form of the region analysis.
//!
//! The paper (§4.2, Eq. 1 and Fig. 4) uses a single algebra, `Σᵢ aᵢ·Xᵢ + c`,
//! in two places, and [`AffineForm`] serves both:
//!
//! - an **index expression** ([`crate::IndexExpr::Affine`]): id `i` names
//!   index variable `i`, so `x + dx` is `X2 + X4` in conv1d;
//! - an **interval bound** ([`crate::SymInterval`]): id `i` names the
//!   symbolic extent `X_i` of index variable `i`, so the upper half of `x`
//!   starts at `0.5*X2`.
//!
//! Coefficients are rational, stored as `f64`: integer coefficients model
//! strided forward accesses (`data[2*y + ky]`), fractional ones the region
//! semantics of strided backward operators (`d_out[(h + pad - ky) / s]`
//! reads a `1/s`-scaled window) and the fractions of a split range.

use std::fmt;

use crate::expr::VarId;

/// A sparse affine form `Σ coeff·X_id + constant` with real coefficients.
///
/// The terms are kept sorted by id with no zero coefficient, so two forms
/// built by the same arithmetic compare equal and print the same text.
///
/// # Examples
///
/// ```
/// use tofu_tdl::AffineForm;
///
/// let x_plus_dx = AffineForm::var(0).add(&AffineForm::var(1));
/// assert_eq!(x_plus_dx.terms(), &[(0, 1.0), (1, 1.0)]);
/// let half_x = AffineForm::var(0).scale(0.5);
/// assert_eq!(half_x.eval(&|_| 10.0), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AffineForm {
    terms: Vec<(VarId, f64)>,
    constant: f64,
}

impl AffineForm {
    /// The zero form.
    pub fn zero() -> AffineForm {
        AffineForm::constant(0.0)
    }

    /// A constant form.
    pub fn constant(c: f64) -> AffineForm {
        AffineForm { terms: Vec::new(), constant: c }
    }

    /// The form `1·X_id`.
    pub fn var(id: VarId) -> AffineForm {
        AffineForm { terms: vec![(id, 1.0)], constant: 0.0 }
    }

    /// The `(id, coefficient)` terms: sorted by id, none zero.
    pub fn terms(&self) -> &[(VarId, f64)] {
        &self.terms
    }

    /// The constant term.
    pub fn constant_term(&self) -> f64 {
        self.constant
    }

    /// The coefficient of `id` (0 when absent).
    pub(crate) fn coeff(&self, id: VarId) -> f64 {
        self.terms
            .binary_search_by_key(&id, |&(t, _)| t)
            .map(|pos| self.terms[pos].1)
            .unwrap_or(0.0)
    }

    /// Returns `self + other`. A term whose sum is exactly 0 is dropped.
    pub fn add(&self, other: &AffineForm) -> AffineForm {
        let mut out = self.clone();
        for &(id, c) in &other.terms {
            match out.terms.binary_search_by_key(&id, |&(t, _)| t) {
                Ok(pos) => {
                    out.terms[pos].1 += c;
                    if out.terms[pos].1 == 0.0 {
                        out.terms.remove(pos);
                    }
                }
                Err(pos) => out.terms.insert(pos, (id, c)),
            }
        }
        out.constant += other.constant;
        out
    }

    /// Returns `self - other`.
    pub fn sub(&self, other: &AffineForm) -> AffineForm {
        self.add(&other.scale(-1.0))
    }

    /// Returns `self` scaled by a real factor; a zero factor gives the zero
    /// form.
    pub fn scale(&self, k: f64) -> AffineForm {
        if k == 0.0 {
            return AffineForm::zero();
        }
        AffineForm {
            terms: self.terms.iter().map(|&(id, c)| (id, c * k)).collect(),
            constant: self.constant * k,
        }
    }

    /// Returns `self + k`.
    pub fn offset(&self, k: f64) -> AffineForm {
        AffineForm { terms: self.terms.clone(), constant: self.constant + k }
    }

    /// Evaluates the form under a concrete assignment: the terms summed in
    /// id order, then the constant added.
    pub fn eval(&self, assignment: &impl Fn(VarId) -> f64) -> f64 {
        self.terms.iter().map(|&(id, c)| c * assignment(id)).sum::<f64>() + self.constant
    }

    /// True when the form is identically zero.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty() && self.constant == 0.0
    }

    /// True when this is exactly `1·X_id + 0`.
    pub(crate) fn is_identity_of(&self, id: VarId) -> bool {
        self.constant == 0.0 && self.terms == [(id, 1.0)]
    }

    /// Applies `f` to the coefficients of every id either form uses (0 when
    /// absent) and to the two constants.
    fn pointwise(&self, other: &AffineForm, f: fn(f64, f64) -> f64) -> AffineForm {
        let mut ids: Vec<VarId> =
            self.terms.iter().chain(&other.terms).map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        AffineForm {
            terms: ids
                .into_iter()
                .map(|id| (id, f(self.coeff(id), other.coeff(id))))
                .filter(|&(_, c)| c != 0.0)
                .collect(),
            constant: f(self.constant, other.constant),
        }
    }

    /// Pointwise minimum with another form — sound as an interval lower bound
    /// whenever all symbols are non-negative, which holds for extents.
    pub(crate) fn pointwise_min(&self, other: &AffineForm) -> AffineForm {
        self.pointwise(other, f64::min)
    }

    /// Pointwise maximum with another form — sound as an interval upper bound
    /// whenever all symbols are non-negative.
    pub(crate) fn pointwise_max(&self, other: &AffineForm) -> AffineForm {
        self.pointwise(other, f64::max)
    }

    /// True when `self(x) <= other(x)` for every non-negative symbol
    /// assignment: every coefficient and the constant are no larger.
    pub(crate) fn dominated_by(&self, other: &AffineForm) -> bool {
        let above = |a: f64, b: f64| a > b + 1e-9;
        !above(self.constant, other.constant)
            && !self
                .terms
                .iter()
                .chain(&other.terms)
                .any(|&(id, _)| above(self.coeff(id), other.coeff(id)))
    }

    /// Approximate structural equality with a small numeric tolerance.
    pub(crate) fn approx_eq(&self, other: &AffineForm) -> bool {
        self.dominated_by(other) && other.dominated_by(self)
    }
}

impl fmt::Display for AffineForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, &(id, c)) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            if c == 1.0 {
                write!(f, "X{id}")?;
            } else {
                write!(f, "{c}*X{id}")?;
            }
        }
        if self.terms.is_empty() {
            write!(f, "{}", self.constant)?;
        } else if self.constant != 0.0 {
            write!(f, " + {}", self.constant)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terms_stay_sorted_by_id() {
        // Built out of order: X3 + 2*X1 + X0 + 3, then doubled.
        let form = AffineForm::var(3)
            .add(&AffineForm::var(1).scale(2.0))
            .add(&AffineForm::var(0))
            .offset(3.0)
            .scale(2.0);
        assert_eq!(form.terms(), &[(0, 2.0), (1, 4.0), (3, 2.0)]);
        assert_eq!(form.constant_term(), 6.0);
        assert_eq!(form.coeff(1), 4.0);
        assert_eq!(form.coeff(2), 0.0);
        assert_eq!(form.coeff(9), 0.0);
    }

    #[test]
    fn an_exact_zero_sum_drops_its_term() {
        let x = AffineForm::var(0);
        let cancelled = x.add(&AffineForm::var(1)).sub(&x);
        assert_eq!(cancelled.terms(), &[(1, 1.0)]);
        assert!(x.sub(&x).is_zero());
        assert!(x.sub(&x).terms().is_empty());
        // A sum that is not exactly zero keeps its term: 0.1 + 0.2 - 0.3 is
        // 5.55e-17 in f64.
        let tenth = |k: f64| AffineForm::var(0).scale(k);
        let near = tenth(0.1).add(&tenth(0.2)).sub(&tenth(0.3));
        assert_eq!(near.terms(), &[(0, 0.1 + 0.2 - 0.3)]);
    }

    #[test]
    fn scaling_by_zero_gives_the_zero_form() {
        let form = AffineForm::var(2).offset(5.0).scale(0.0);
        assert_eq!(form, AffineForm::zero());
        assert!(form.is_zero());
        // A negative factor keeps every term and negates it.
        let neg = AffineForm::var(2).offset(5.0).scale(-1.0);
        assert_eq!(neg.terms(), &[(2, -1.0)]);
        assert_eq!(neg.constant_term(), -5.0);
    }

    #[test]
    fn eval_sums_terms_in_id_order_then_adds_the_constant() {
        // 0.5*X0 + 2*X1 + 3 at X0 = 4, X1 = 1.
        let form = AffineForm::var(1).scale(2.0).add(&AffineForm::var(0).scale(0.5)).offset(3.0);
        assert_eq!(form.eval(&|id| if id == 0 { 4.0 } else { 1.0 }), 7.0);
        // The order is observable in f64: (1e16 - 1e16) + 1 = 1, whereas
        // 1e16 + (-1e16 + 1) rounds to 0.
        let form = AffineForm::var(0)
            .scale(1e16)
            .add(&AffineForm::var(1).scale(-1e16))
            .add(&AffineForm::var(2));
        assert_eq!(form.eval(&|_| 1.0), 1.0);
        assert_eq!(AffineForm::constant(2.5).eval(&|_| unreachable!()), 2.5);
    }

    #[test]
    fn identity_detection() {
        assert!(AffineForm::var(2).is_identity_of(2));
        assert!(!AffineForm::var(2).is_identity_of(1));
        assert!(!AffineForm::var(2).offset(1.0).is_identity_of(2));
        assert!(!AffineForm::var(2).scale(2.0).is_identity_of(2));
    }

    #[test]
    fn pointwise_bounds() {
        // 0.5*X0 + X2 against X0 + X1 - 1.
        let a = AffineForm::var(0).scale(0.5).add(&AffineForm::var(2));
        let b = AffineForm::var(0).add(&AffineForm::var(1)).offset(-1.0);
        let mn = a.pointwise_min(&b);
        assert_eq!(mn.terms(), &[(0, 0.5)]);
        assert_eq!(mn.constant_term(), -1.0);
        let mx = a.pointwise_max(&b);
        assert_eq!(mx.terms(), &[(0, 1.0), (1, 1.0), (2, 1.0)]);
        assert_eq!(mx.constant_term(), 0.0);
    }

    #[test]
    fn domination_order() {
        let half = AffineForm::var(0).scale(0.5);
        let whole = AffineForm::var(0);
        assert!(half.dominated_by(&whole));
        assert!(!whole.dominated_by(&half));
        // An id only `self` uses counts against 0 in `other`.
        assert!(!AffineForm::var(1).dominated_by(&AffineForm::zero()));
        assert!(AffineForm::var(1).scale(-1.0).dominated_by(&AffineForm::zero()));
        assert!(!AffineForm::constant(1.0).dominated_by(&AffineForm::zero()));
    }

    #[test]
    fn approx_eq_tolerates_rounding_only() {
        let x = AffineForm::var(0);
        let rounded = x.scale(1.0 + 1e-12).offset(1e-12);
        assert_ne!(rounded, x);
        assert!(rounded.approx_eq(&x) && x.approx_eq(&rounded));
        assert!(!x.scale(1.0 + 1e-6).approx_eq(&x));
        assert!(!x.scale(0.5).approx_eq(&x));
        assert!(!x.approx_eq(&AffineForm::var(1)));
    }

    #[test]
    fn display_pins_the_halo_text() {
        assert_eq!(AffineForm::var(0).to_string(), "X0");
        assert_eq!(AffineForm::var(0).scale(0.5).offset(2.0).to_string(), "0.5*X0 + 2");
        let mixed = AffineForm::var(4).add(&AffineForm::var(1).scale(-2.0));
        assert_eq!(mixed.to_string(), "-2*X1 + X4");
        assert_eq!(AffineForm::constant(3.0).to_string(), "3");
        assert_eq!(AffineForm::zero().to_string(), "0");
    }
}
