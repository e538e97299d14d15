//! The noise-robust estimator: the floor of per-window cost, pooled
//! over rounds.
//!
//! Interference on a shared guest only ever adds time, so the cost of a
//! request is read off the *fast* end of the per-window distribution,
//! never off a mean or a whole-run `total / elapsed`. On this box the
//! undisturbed moments are under 1 % of a run, so even the 10th
//! percentile sits inside the interference; the estimator is the
//! [`floor`], the third-smallest window. README.md § "Why the floor of
//! short windows" has the spread numbers behind that choice.

/// One timed window: wall nanoseconds and the requests finished in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    pub ns: u64,
    pub reqs: u64,
}

rlb_json::json_struct!(Window { ns, reqs });

/// Value at quantile `q ∈ [0, 1]` of an ascending slice, linearly
/// interpolated between the two nearest ranks.
///
/// # Panics
/// Panics if `sorted` is empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// [`quantile_sorted`] over an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// Nanoseconds per request at quantile `q` over pooled windows.
/// Windows that finished no request carry no cost sample.
pub fn ns_per_req(windows: &[Window], q: f64) -> f64 {
    let costs: Vec<f64> = windows
        .iter()
        .filter(|w| w.reqs > 0)
        .map(|w| w.ns as f64 / w.reqs as f64)
        .collect();
    quantile(&costs, q)
}

/// Rank of the [`floor`] among the sorted sample: the third smallest.
/// The very smallest would do by the same argument; two spares absorb
/// a clock glitch without moving the estimate (measured: rank 1 and
/// rank 3 spread the same, rank 10 twice as much).
pub const FLOOR_RANK: usize = 3;

/// The floor of a sample of costs: its [`FLOOR_RANK`]-th smallest
/// value, or a lower rank while the sample is too small to spare any.
///
/// # Panics
/// Panics if `values` is empty.
pub fn floor(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "floor of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(FLOOR_RANK - 1).min((sorted.len() - 1) / 4)]
}

/// Floor of nanoseconds per request over pooled windows.
pub fn floor_ns_per_req(windows: &[Window]) -> f64 {
    let costs: Vec<f64> = windows
        .iter()
        .filter(|w| w.reqs > 0)
        .map(|w| w.ns as f64 / w.reqs as f64)
        .collect();
    floor(&costs)
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the acceptance pipeline computes its spreads with that function, so
/// `--agree` must too.
///
/// # Panics
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// Median of a sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile_sorted(&v, 0.0), 10.0);
        assert_eq!(quantile_sorted(&v, 1.0), 50.0);
        assert_eq!(quantile_sorted(&v, 0.5), 30.0);
        assert!((quantile_sorted(&v, 0.1) - 14.0).abs() < 1e-12);
        assert_eq!(quantile(&[50.0, 10.0, 30.0], 0.5), 30.0);
        assert_eq!(quantile(&[7.0], 0.1), 7.0);
    }

    #[test]
    fn floor_is_the_third_smallest_and_ignores_slow_windows() {
        // 5 undisturbed windows among 95 that took up to five times as
        // long: the mean and even the p10 sit in the interference, the
        // floor does not.
        let mut windows = vec![
            Window {
                ns: 1_000_000,
                reqs: 1000
            };
            5
        ];
        windows.extend((0..95).map(|i| Window {
            ns: 2_000_000 + i * 30_000,
            reqs: 1000,
        }));
        assert_eq!(floor_ns_per_req(&windows), 1000.0);
        assert!(ns_per_req(&windows, 0.1) > 2000.0);
        // One impossible fast glitch does not become the estimate.
        windows.push(Window { ns: 10, reqs: 1000 });
        assert_eq!(floor_ns_per_req(&windows), 1000.0);
    }

    #[test]
    fn floor_of_a_small_sample_spares_what_it_can() {
        assert_eq!(floor(&[5.0]), 5.0);
        assert_eq!(floor(&[3.0, 1.0, 2.0, 4.0]), 1.0);
        assert_eq!(floor(&[5.0, 1.0, 2.0, 3.0, 4.0]), 2.0);
        let thirty: Vec<f64> = (0..30).rev().map(f64::from).collect();
        assert_eq!(floor(&thirty), 2.0);
    }

    #[test]
    fn pooling_rounds_is_order_independent_and_skips_empty_windows() {
        let a = [Window { ns: 300, reqs: 3 }, Window { ns: 900, reqs: 3 }];
        let b = [Window { ns: 600, reqs: 3 }, Window { ns: 50, reqs: 0 }];
        let ab: Vec<Window> = a.iter().chain(&b).copied().collect();
        let ba: Vec<Window> = b.iter().chain(&a).copied().collect();
        assert_eq!(ns_per_req(&ab, 0.5), 200.0);
        assert_eq!(ns_per_req(&ab, 0.5), ns_per_req(&ba, 0.5));
    }

    #[test]
    fn windows_of_unequal_size_compare_by_cost_per_request() {
        let windows = [Window { ns: 1000, reqs: 10 }, Window { ns: 1500, reqs: 30 }];
        assert_eq!(ns_per_req(&windows, 0.0), 50.0);
        assert_eq!(ns_per_req(&windows, 1.0), 100.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), 0.0);
    }
}
