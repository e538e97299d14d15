//! Exponentially weighted moving averages: the migration baseline's
//! per-server arrival-rate tracker.

/// An exponentially weighted moving average with smoothing factor
/// `alpha ∈ (0, 1]` (higher = more reactive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with the given smoothing factor.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1]`.
    pub(crate) fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self { alpha, value: None }
    }

    /// Creates an EWMA whose weight halves every `halflife` samples.
    ///
    /// # Panics
    /// Panics if `halflife` is not positive and finite.
    pub(crate) fn with_halflife(halflife: f64) -> Self {
        assert!(halflife > 0.0 && halflife.is_finite());
        let mut alpha = 1.0 - 0.5f64.powf(1.0 / halflife);
        if alpha <= 0.0 {
            // For very large half-lives `0.5^(1/h)` rounds to exactly
            // 1.0 and the subtraction cancels to 0.0, which `new`
            // rejects. `-expm1(ln(0.5)/h)` computes the same quantity
            // without the cancellation; clamp to the smallest positive
            // double in case `ln2/h` itself underflows.
            alpha = (-(-std::f64::consts::LN_2 / halflife).exp_m1()).max(f64::MIN_POSITIVE);
        }
        Self::new(alpha)
    }

    /// Feeds one observation and returns the updated average.
    pub(crate) fn update(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(prev) => prev + self.alpha * (x - prev),
        };
        self.value = Some(v);
        v
    }

    /// The current average, if any observation has been fed.
    pub(crate) fn value(&self) -> Option<f64> {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes() {
        let mut e = Ewma::new(0.3);
        assert_eq!(e.value(), None);
        assert_eq!(e.update(10.0), 10.0);
        assert_eq!(e.value(), Some(10.0));
    }

    #[test]
    fn converges_to_constant_input() {
        let mut e = Ewma::new(0.2);
        e.update(0.0);
        for _ in 0..200 {
            e.update(5.0);
        }
        assert!((e.value().unwrap() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn alpha_one_tracks_exactly() {
        let mut e = Ewma::new(1.0);
        e.update(1.0);
        e.update(7.0);
        assert_eq!(e.value(), Some(7.0));
    }

    #[test]
    fn halflife_semantics() {
        // After `h` updates from v0 toward 0, the distance halves.
        let h = 10.0;
        let mut e = Ewma::with_halflife(h);
        e.update(1.0);
        for _ in 0..10 {
            e.update(0.0);
        }
        let v = e.value().unwrap();
        assert!((v - 0.5).abs() < 0.02, "value after one halflife: {v}");
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn zero_alpha_panics() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn huge_halflife_still_constructs() {
        // Regression: `1 - 0.5^(1/h)` cancels to exactly 0.0 once
        // `0.5^(1/h)` rounds to 1.0 (h ≳ 2^53), and construction
        // panicked on its own alpha. The expm1 fallback keeps alpha
        // positive for every finite positive half-life.
        for h in [1e16, 1e20, 1e300, f64::MAX] {
            let mut e = Ewma::with_halflife(h);
            // An astronomically long half-life behaves like "hold the
            // first sample".
            e.update(4.0);
            e.update(0.0);
            assert!((e.value().unwrap() - 4.0).abs() < 1e-9, "halflife {h}");
        }
        // Sanity: moderate half-lives are unaffected by the fallback.
        let direct = 1.0 - 0.5f64.powf(1.0 / 10.0);
        let via = Ewma::with_halflife(10.0);
        assert_eq!(via, Ewma::new(direct));
    }

    /// EWMA output is always within the range of inputs seen so far.
    #[test]
    fn ewma_stays_in_input_hull() {
        use rlb_hash::{Pcg64, Rng};
        let gen_f64_in = |rng: &mut Pcg64, lo: f64, hi: f64| lo + rng.gen_f64() * (hi - lo);
        for case in 0..96 {
            let mut rng = Pcg64::new(0x6d657472 ^ (5 << 32) ^ case, 5);
            let alpha = gen_f64_in(&mut rng, 0.01, 1.0);
            let len = 1 + rng.gen_index(99);
            let xs: Vec<f64> = (0..len).map(|_| gen_f64_in(&mut rng, -1e3, 1e3)).collect();
            let mut e = Ewma::new(alpha);
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &x in &xs {
                lo = lo.min(x);
                hi = hi.max(x);
                let v = e.update(x);
                assert!(
                    v >= lo - 1e-9 && v <= hi + 1e-9,
                    "case {case}: v={v} outside [{lo}, {hi}]"
                );
            }
        }
    }
}
