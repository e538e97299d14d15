//! Closed-form theory predictions used as reference columns.
//!
//! The experiments compare measured quantities against the classical
//! formulas the paper's analysis stands on:
//!
//! * one-choice max load of `m` balls in `m` bins — the smallest `k`
//!   with `m · Pr[Poisson(1) ≥ k] ≤ 1`, asymptotically
//!   `ln m / ln ln m · (1 + o(1))`;
//! * two-choice max load — `ln ln m / ln 2 + Θ(1)` (Azar et al.).

/// `Pr[Poisson(1) = k] = e^{-1} / k!`.
fn poisson1_pmf(k: u32) -> f64 {
    let mut fact = 1.0f64;
    for i in 1..=k {
        fact *= i as f64;
    }
    (-1.0f64).exp() / fact
}

/// `Pr[Poisson(1) >= k]`.
pub fn poisson1_tail(k: u32) -> f64 {
    // The tail below k=64 captures everything down to ~1e-90.
    (k..64).map(poisson1_pmf).sum()
}

/// Predicted one-choice max load for `m` balls into `m` bins: the
/// smallest `k` such that `m · Pr[Poisson(1) ≥ k] ≤ 1` (the standard
/// first-moment threshold).
pub fn predicted_one_choice_max(m: usize) -> u32 {
    let m = m as f64;
    for k in 1..64u32 {
        if m * poisson1_tail(k) <= 1.0 {
            return k;
        }
    }
    64
}

/// Predicted two-choice max load: `log2 ln m ≈ ln ln m / ln 2`, the
/// leading term of Azar et al.'s bound (the additive constant is left to
/// the measurement).
pub fn predicted_two_choice_max(m: usize) -> f64 {
    (m as f64).ln().ln() / std::f64::consts::LN_2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_tail_is_monotone_and_normalized() {
        assert!((poisson1_tail(0) - 1.0).abs() < 1e-12);
        let mut prev = 1.0;
        for k in 1..20 {
            let t = poisson1_tail(k);
            assert!(t <= prev);
            prev = t;
        }
        // Pr[Poisson(1) >= 1] = 1 - e^{-1}.
        assert!((poisson1_tail(1) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn one_choice_prediction_grows_slowly() {
        let small = predicted_one_choice_max(256);
        let large = predicted_one_choice_max(1 << 20);
        assert!((4..=8).contains(&small), "m=256: {small}");
        assert!(large > small);
        assert!(large <= 12, "m=2^20: {large}");
    }

    #[test]
    fn two_choice_prediction_is_loglog() {
        let v = predicted_two_choice_max(1 << 16);
        // ln ln 65536 / ln 2 ≈ 3.47.
        assert!((v - 3.47).abs() < 0.05, "{v}");
    }
}
