//! Distribution distance for solver-vs-engine validation.
//!
//! The mean-field solver predicts a backlog *distribution* (a tail
//! vector `s[k] = P(backlog ≥ k)`); the discrete engine measures one.
//! Cross-validation needs a scale-free distance between the two: L∞ on
//! the tail vectors (the Kolmogorov–Smirnov statistic for
//! integer-valued distributions). Vectors of different lengths are
//! compared as if zero-padded — a truncated tail is an implicit zero.

/// L∞ (Kolmogorov–Smirnov) distance between two vectors, treating
/// missing entries as zero.
///
/// ```
/// use rlb_metrics::linf_distance;
///
/// assert_eq!(linf_distance(&[1.0, 0.5, 0.1], &[1.0, 0.4]), 0.1);
/// assert_eq!(linf_distance(&[], &[]), 0.0);
/// ```
pub fn linf_distance(a: &[f64], b: &[f64]) -> f64 {
    let len = a.len().max(b.len());
    let mut worst = 0.0f64;
    for i in 0..len {
        let x = a.get(i).copied().unwrap_or(0.0);
        let y = b.get(i).copied().unwrap_or(0.0);
        let d = (x - y).abs();
        if d > worst {
            worst = d;
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linf_is_symmetric_and_pads_with_zero() {
        let a = [1.0, 0.5, 0.25];
        let b = [1.0, 0.5];
        assert_eq!(linf_distance(&a, &b), 0.25);
        assert_eq!(linf_distance(&b, &a), 0.25);
        assert_eq!(linf_distance(&a, &a), 0.0);
    }

    #[test]
    fn empty_inputs_are_benign() {
        assert_eq!(linf_distance(&[], &[]), 0.0);
    }
}
