//! Exact integer histograms for latency and load distributions.
//!
//! Latencies and backlogs in this workspace are small integers (the paper
//! proves they are `O(log m)` or `O(log log m)`), so an exact dense count
//! vector is both faster and more precise than a bucketed sketch. The
//! vector grows geometrically on demand; recording is O(1) amortized and
//! allocation-free once the maximum observed value has been seen.

/// A percentile read that is honest about truncation.
///
/// Distributions produced under a hard cap — a queue of capacity `q`, a
/// solver tail truncated at `q` — pin all deeper mass onto the final
/// bucket. A plain [`Histogram::quantile`] read on such a histogram
/// reports the bucket upper bound as if it were an observed value; the
/// censor-aware accessors return [`TailValue::AtLeast`] instead, so
/// callers can render `>= q` rather than claiming `q` was seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailValue {
    /// The rank landed in exactly-observed mass.
    Exact(u64),
    /// The rank landed in censored mass: the true value is `>=` this.
    AtLeast(u64),
}

impl TailValue {
    /// The numeric value (a lower bound when censored).
    #[inline]
    pub fn value(&self) -> u64 {
        match *self {
            TailValue::Exact(v) | TailValue::AtLeast(v) => v,
        }
    }

    /// Whether the read landed in censored mass.
    #[inline]
    pub fn is_censored(&self) -> bool {
        matches!(self, TailValue::AtLeast(_))
    }
}

impl std::fmt::Display for TailValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            TailValue::Exact(v) => write!(f, "{v}"),
            TailValue::AtLeast(v) => write!(f, ">={v}"),
        }
    }
}

/// An exact histogram over `u64` sample values.
///
/// ```
/// use rlb_metrics::Histogram;
///
/// let mut h = Histogram::new();
/// for latency in [0, 0, 1, 1, 1, 2, 5] {
///     h.record(latency);
/// }
/// assert_eq!(h.mean(), Some(10.0 / 7.0));
/// assert_eq!(h.quantile(0.5), Some(1));
/// assert_eq!(h.max(), Some(5));
/// assert_eq!(h.count_above(1), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
    /// Samples recorded via [`Histogram::record_censored_n`]: their true
    /// value is only known to be `>=` the bucket they sit in.
    censored: u64,
    /// Smallest bound any censored sample was recorded at; `None` while
    /// the histogram is fully exact.
    censored_from: Option<u64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty histogram with space for values up to `max_value`.
    pub fn with_capacity(max_value: usize) -> Self {
        Self {
            counts: vec![0; max_value + 1], // no vec of usize::MAX + 1 counts is allocated anyway. lint:allow(unchecked-arith)
            ..Self::default()
        }
    }

    /// Records one occurrence of `value`.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` occurrences of `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = usize::try_from(value).unwrap_or(usize::MAX);
        if idx >= self.counts.len() {
            // Grow geometrically, saturating near usize::MAX: the old
            // `(idx + 1).max(len * 2)` wrapped to 0 for idx ==
            // usize::MAX in release builds and then indexed out of
            // bounds below.
            let new_len = idx
                .saturating_add(1)
                .max(self.counts.len().saturating_mul(2))
                .max(8);
            self.counts.resize(new_len, 0);
        }
        if let Some(slot) = self.counts.get_mut(idx) {
            *slot = slot.saturating_add(n);
        }
        self.total = self.total.saturating_add(n);
        // Both factors fit in u64, so the u128 product is exact.
        self.sum = self
            .sum
            .saturating_add(u128::from(value).saturating_mul(u128::from(n)));
        if value > self.max {
            self.max = value;
        }
    }

    /// Records `n` samples whose true value is only known to be
    /// `>= bound` — mass truncated at a queue capacity or a solver's
    /// tail cutoff. The samples are counted at `bound` (so totals,
    /// means, and `count_above` treat `bound` as a lower bound), and
    /// the censor-aware reads ([`Histogram::quantile_tail`],
    /// [`Histogram::max_tail`]) stop reporting `bound` as observed.
    pub fn record_censored_n(&mut self, bound: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.record_n(bound, n);
        self.censored = self.censored.saturating_add(n);
        self.censored_from = Some(match self.censored_from {
            Some(prev) => prev.min(bound),
            None => bound,
        });
    }

    /// Number of censored samples recorded.
    #[inline]
    pub fn censored_count(&self) -> u64 {
        self.censored
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (v, &c) in other.counts.iter().enumerate() {
            if c > 0 {
                self.record_n(v as u64, c);
            }
        }
        if other.censored > 0 {
            // The counts above already include the censored samples at
            // their bounds; carry over only the censor bookkeeping.
            self.censored = self.censored.saturating_add(other.censored);
            self.censored_from = match (self.censored_from, other.censored_from) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
    }

    /// Total number of recorded samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no samples have been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Count recorded at exactly `value`.
    #[inline]
    pub fn count_at(&self, value: u64) -> u64 {
        self.counts.get(value as usize).copied().unwrap_or(0)
    }

    /// Number of samples with value strictly greater than `value`.
    pub fn count_above(&self, value: u64) -> u64 {
        let start = (value as usize).saturating_add(1);
        self.counts
            .get(start..)
            .map_or(0, |above| above.iter().sum())
    }

    /// Mean of the samples; `None` if empty. Censored samples count at
    /// their bound, so on a censored histogram this is a lower bound on
    /// the true mean.
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.sum as f64 / self.total as f64)
        }
    }

    /// Maximum recorded value; `None` if empty.
    ///
    /// On a histogram with censored mass this reports the *bucket*
    /// maximum, which is not an observed value — use
    /// [`Histogram::max_tail`] for an honest read.
    pub fn max(&self) -> Option<u64> {
        if self.total == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Censor-aware maximum: [`TailValue::AtLeast`] whenever any
    /// censored sample was recorded (a censored sample's true value is
    /// unbounded above, so no observed maximum can cap it).
    pub fn max_tail(&self) -> Option<TailValue> {
        if self.total == 0 {
            None
        } else if self.censored > 0 {
            Some(TailValue::AtLeast(self.max))
        } else {
            Some(TailValue::Exact(self.max))
        }
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) using the nearest-rank method;
    /// `None` if empty.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]` or NaN.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.total == 0 {
            return None;
        }
        // q * total is float, and seen below sums counts up to total.
        // lint:allow(unchecked-arith)
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (v, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(v as u64);
            }
        }
        Some(self.max)
    }

    /// Censor-aware `q`-quantile: the same nearest-rank read as
    /// [`Histogram::quantile`], but ranks landing at or above the lowest
    /// censored bound return [`TailValue::AtLeast`] — censored samples
    /// sit at their bound, so any rank in that region is a lower bound
    /// on the true order statistic, not an observation. Ranks strictly
    /// below every censored bound are unaffected (censored true values
    /// can only be larger, so the exact prefix ranking stands).
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]` or NaN.
    pub fn quantile_tail(&self, q: f64) -> Option<TailValue> {
        let v = self.quantile(q)?;
        match self.censored_from {
            Some(bound) if v >= bound => Some(TailValue::AtLeast(v)),
            _ => Some(TailValue::Exact(v)),
        }
    }

    /// Iterates over `(value, count)` pairs with non-zero count.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(v, &c)| (v as u64, c))
    }

    /// Clears all samples but keeps the allocated capacity.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.sum = 0;
        self.max = 0;
        self.censored = 0;
        self.censored_from = None;
    }
}

rlb_json::json_struct!(Histogram {
    counts,
    total,
    sum,
    max,
    censored,
    censored_from
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.count_above(0), 0);
    }

    #[test]
    fn mean_and_max_are_exact() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 10] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), Some(4.0));
        assert_eq!(h.max(), Some(10));
    }

    #[test]
    fn quantiles_nearest_rank() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(0.99), Some(99));
        assert_eq!(h.quantile(1.0), Some(100));
    }

    #[test]
    fn quantile_is_monotone() {
        let mut h = Histogram::new();
        for v in [0u64, 0, 1, 5, 5, 5, 9, 20] {
            h.record(v);
        }
        let mut prev = 0;
        for i in 0..=100 {
            let q = h.quantile(i as f64 / 100.0).unwrap();
            assert!(q >= prev);
            prev = q;
        }
    }

    #[test]
    fn count_above_matches_naive() {
        let mut h = Histogram::new();
        let samples = [0u64, 1, 1, 3, 7, 7, 7, 15];
        for &v in &samples {
            h.record(v);
        }
        for threshold in 0..20u64 {
            let naive = samples.iter().filter(|&&v| v > threshold).count() as u64;
            assert_eq!(h.count_above(threshold), naive, "threshold {threshold}");
        }
    }

    #[test]
    fn merge_combines_totals() {
        let mut a = Histogram::new();
        a.record_n(2, 3);
        let mut b = Histogram::new();
        b.record_n(2, 1);
        b.record(5);
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.count_at(2), 4);
        assert_eq!(a.max(), Some(5));
    }

    #[test]
    fn clear_retains_capacity() {
        let mut h = Histogram::with_capacity(64);
        h.record(64);
        let cap = h.counts.len();
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.counts.len(), cap);
    }

    #[test]
    fn record_n_zero_is_noop() {
        let mut h = Histogram::new();
        h.record_n(5, 0);
        assert!(h.is_empty());
    }

    #[test]
    fn iter_skips_zeros() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(3);
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, vec![(0, 1), (3, 1)]);
    }

    #[test]
    fn empty_histogram_percentiles_are_none_at_every_rank() {
        let h = Histogram::new();
        for q in [0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), None, "q = {q}");
        }
        // An allocated-but-unused histogram behaves identically.
        let h = Histogram::with_capacity(1024);
        assert!(h.is_empty());
        for q in [0.0, 0.99, 1.0] {
            assert_eq!(h.quantile(q), None, "q = {q}");
        }
        assert_eq!(h.mean(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn single_sample_dominates_every_percentile() {
        let mut h = Histogram::new();
        h.record(17);
        assert_eq!(h.count(), 1);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(17), "q = {q}");
        }
        assert_eq!(h.mean(), Some(17.0));
        assert_eq!(h.max(), Some(17));
        assert_eq!(h.count_above(16), 1);
        assert_eq!(h.count_above(17), 0);
    }

    #[test]
    fn top_bucket_saturation_grows_and_stays_exact() {
        // Start with a small preallocated range and slam the top of it,
        // then far past it: the dense vector must grow, and mass piled
        // on the final bucket must keep quantiles, counts, and the mean
        // exact (no sketch-style clipping).
        let mut h = Histogram::with_capacity(4);
        h.record_n(4, 10); // top preallocated bucket
        h.record_n(1000, 90); // far beyond the allocation
        assert_eq!(h.count(), 100);
        assert_eq!(h.count_at(4), 10);
        assert_eq!(h.count_at(1000), 90);
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.quantile(0.05), Some(4));
        // Rank 11 onward lands in the saturated top value.
        assert_eq!(h.quantile(0.11), Some(1000));
        assert_eq!(h.quantile(0.99), Some(1000));
        assert_eq!(h.quantile(1.0), Some(1000));
        assert_eq!(h.mean(), Some((4.0 * 10.0 + 1000.0 * 90.0) / 100.0));
        assert_eq!(h.count_above(999), 90);
        assert_eq!(h.count_above(1000), 0);

        // Heavy counts on one value do not overflow intermediate sums
        // (the per-value count and the rank math are u64; the value sum
        // is u128).
        let mut big = Histogram::new();
        big.record_n(1000, 1 << 32);
        assert_eq!(big.count(), 1 << 32);
        assert_eq!(big.quantile(0.99), Some(1000));
        assert_eq!(big.mean(), Some(1000.0));
    }

    #[test]
    fn censored_top_bucket_is_not_reported_as_observed() {
        // A saturated capacity-16 queue: 97% of mass observed below the
        // cap, 3% pinned at the truncation bucket. The plain reads
        // report 16 as if it were seen; the censor-aware reads do not.
        let mut h = Histogram::new();
        h.record_n(2, 970);
        h.record_censored_n(16, 30);
        assert_eq!(h.count(), 1000);
        assert_eq!(h.censored_count(), 30);

        // Ranks inside the exact prefix are untouched.
        assert_eq!(h.quantile_tail(0.5), Some(TailValue::Exact(2)));
        // p99 lands in the pinned final bucket: the true value is only
        // known to be >= 16.
        assert_eq!(h.quantile(0.99), Some(16), "plain read says observed");
        assert_eq!(h.quantile_tail(0.99), Some(TailValue::AtLeast(16)));
        assert_eq!(h.max_tail(), Some(TailValue::AtLeast(16)));
        assert!(h.quantile_tail(0.99).unwrap().is_censored());
        assert_eq!(h.quantile_tail(0.99).unwrap().value(), 16);
        assert_eq!(format!("{}", h.quantile_tail(0.99).unwrap()), ">=16");
        assert_eq!(format!("{}", h.quantile_tail(0.5).unwrap()), "2");
    }

    #[test]
    fn exact_samples_above_the_censor_bound_are_also_uncertain() {
        // Censored-at-10 samples could truly exceed the exact 15s, so
        // any rank landing at or above the bound is a lower bound.
        let mut h = Histogram::new();
        h.record_n(1, 10);
        h.record_censored_n(10, 5);
        h.record_n(15, 5);
        assert_eq!(h.quantile_tail(0.25), Some(TailValue::Exact(1)));
        assert_eq!(h.quantile_tail(0.75), Some(TailValue::AtLeast(10)));
        assert_eq!(h.quantile_tail(1.0), Some(TailValue::AtLeast(15)));
        assert_eq!(h.max_tail(), Some(TailValue::AtLeast(15)));
    }

    #[test]
    fn uncensored_histogram_tail_reads_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 16] {
            h.record(v);
        }
        assert_eq!(h.censored_count(), 0);
        assert_eq!(h.quantile_tail(0.99), Some(TailValue::Exact(16)));
        assert_eq!(h.max_tail(), Some(TailValue::Exact(16)));
        assert_eq!(h.quantile_tail(0.5), Some(TailValue::Exact(1)));
    }

    #[test]
    fn censoring_survives_merge_and_resets_on_clear() {
        let mut a = Histogram::new();
        a.record_n(3, 99);
        let mut b = Histogram::new();
        b.record_censored_n(8, 1);
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.censored_count(), 1);
        assert_eq!(a.quantile_tail(1.0), Some(TailValue::AtLeast(8)));
        assert_eq!(a.max_tail(), Some(TailValue::AtLeast(8)));
        // Merging a censored histogram into an exact one keeps the
        // smaller of the two bounds.
        let mut c = Histogram::new();
        c.record_censored_n(4, 2);
        a.merge(&c);
        assert_eq!(a.censored_count(), 3);
        // Ranks 100-101 of 102 sit in the bucket-4 censored mass.
        assert_eq!(a.quantile_tail(0.98), Some(TailValue::AtLeast(4)));
        assert_eq!(a.quantile_tail(1.0), Some(TailValue::AtLeast(8)));

        a.clear();
        assert_eq!(a.censored_count(), 0);
        a.record(2);
        assert_eq!(a.quantile_tail(1.0), Some(TailValue::Exact(2)));
    }

    #[test]
    fn record_censored_zero_is_noop() {
        let mut h = Histogram::new();
        h.record_censored_n(5, 0);
        assert!(h.is_empty());
        assert_eq!(h.censored_count(), 0);
        assert_eq!(h.max_tail(), None);
        assert_eq!(h.quantile_tail(0.5), None);
    }

    #[test]
    fn censored_histogram_roundtrips_through_json() {
        let mut h = Histogram::new();
        h.record_n(1, 3);
        h.record_censored_n(7, 2);
        let json = rlb_json::to_string(&h);
        let back: Histogram = rlb_json::from_str(&json).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.quantile_tail(1.0), Some(TailValue::AtLeast(7)));
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0,1]")]
    fn quantile_out_of_range_panics() {
        let mut h = Histogram::new();
        h.record(1);
        let _ = h.quantile(1.5);
    }
}
