//! Property tests for the metrics crate, driven by a deterministic
//! sweep of PCG-generated cases (no external framework; each failure is
//! reproducible from the printed case number).

use rlb_hash::{Pcg64, Rng};
use rlb_metrics::{wilson95, Histogram};

const CASES: u64 = 96;

fn case_rng(property: u64, case: u64) -> Pcg64 {
    Pcg64::new(0x6d657472 ^ (property << 32) ^ case, property)
}

/// Histogram merge equals recording the concatenation.
#[test]
fn histogram_merge_is_concat() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let xs: Vec<u64> = (0..rng.gen_index(100))
            .map(|_| rng.gen_range(500))
            .collect();
        let ys: Vec<u64> = (0..rng.gen_index(100))
            .map(|_| rng.gen_range(500))
            .collect();
        let mut a = Histogram::new();
        for &x in &xs {
            a.record(x);
        }
        let mut b = Histogram::new();
        for &y in &ys {
            b.record(y);
        }
        a.merge(&b);
        let mut both = Histogram::new();
        for &v in xs.iter().chain(ys.iter()) {
            both.record(v);
        }
        // Structural equality may differ (growth leaves different spare
        // capacity); compare the observable contents.
        assert_eq!(a.count(), both.count(), "case {case}");
        assert_eq!(a.mean(), both.mean(), "case {case}");
        assert_eq!(a.max(), both.max(), "case {case}");
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            both.iter().collect::<Vec<_>>(),
            "case {case}"
        );
    }
}

/// Wilson intervals always bracket the point estimate and stay in
/// [0, 1].
#[test]
fn wilson_is_well_formed() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let n = 1 + rng.gen_range(99_999);
        let frac = rng.gen_f64();
        let k = ((n as f64) * frac) as u64;
        let ci = wilson95(k, n);
        assert!(ci.low >= 0.0 && ci.high <= 1.0, "case {case}");
        assert!(ci.low <= ci.estimate + 1e-12, "case {case}");
        assert!(ci.high >= ci.estimate - 1e-12, "case {case}");
        assert!(ci.contains(ci.estimate), "case {case}");
    }
}
