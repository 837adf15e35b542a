//! Estimators over the per-operation wall times of one run.
//!
//! The gated timing metrics are *floors* (the minimum): on a shared host the
//! noise only ever adds time — pre-emption, a neighbour's cache traffic, a
//! busy sibling hyperthread — so the fastest of many identical operations is
//! the sample least touched by it. A short operation finds a clean window even
//! in a run that is slow overall, which is why the minimum repeats between
//! runs where the median and the mean do not (README.md, "Noise study").

/// The minimum; `NaN` for an empty slice so a run without samples cannot
/// pass for a fast one.
pub fn floor(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::min)
}

/// The `p`-quantile (`0.0..=1.0`) of an ascending slice, by linear
/// interpolation between the two nearest ranks; `NaN` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// `samples` in ascending order.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_is_the_minimum_and_nan_when_empty() {
        assert_eq!(floor(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(floor(&[7.0]), 7.0);
        assert!(floor(&[]).is_nan());
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(percentile(&s, 0.5), 2.5);
        assert!((percentile(&s, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[5.0], 0.9), 5.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn percentile_clamps_its_argument() {
        let s = [1.0, 2.0];
        assert_eq!(percentile(&s, -1.0), 1.0);
        assert_eq!(percentile(&s, 2.0), 2.0);
    }
}
