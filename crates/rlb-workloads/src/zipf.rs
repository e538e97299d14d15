//! Zipf-distributed workload with the distinct-per-step constraint.
//!
//! Real key-value traffic is heavily skewed (Atikoglu et al.,
//! SIGMETRICS '12 — reference \[2\] of the paper). The model requires the
//! chunks requested within one step to be distinct (§2, "Basic
//! observations"), so this generator samples from a Zipf(α) popularity
//! distribution and rejects within-step duplicates. The *hot* chunks
//! therefore appear in almost every step — a natural, smooth source of
//! reappearance dependencies between (not within) steps.

use crate::bitmap::ChunkBitmap;
use rlb_core::Workload;
use rlb_hash::sample::ZipfSampler;
use rlb_hash::Pcg64;

/// Zipf(α) popularity over `[0, universe)`, `per_step` distinct chunks
/// per step.
#[derive(Debug, Clone)]
pub struct ZipfDistinct {
    sampler: ZipfSampler,
    per_step: usize,
    rng: Pcg64,
    /// This step's chunks, clear between steps: one bit a key, beside
    /// the sampler's twelve bytes.
    seen: ChunkBitmap,
}

impl ZipfDistinct {
    /// Creates the generator.
    ///
    /// # Panics
    /// Panics if `per_step > universe` or `alpha` is invalid.
    pub fn new(universe: usize, per_step: usize, alpha: f64, seed: u64) -> Self {
        assert!(per_step <= universe, "per_step exceeds universe");
        Self {
            sampler: ZipfSampler::new(universe, alpha),
            per_step,
            rng: Pcg64::new(seed, 0x21bf),
            seen: ChunkBitmap::new(universe as u64),
        }
    }
}

impl Workload for ZipfDistinct {
    fn next_step(&mut self, _step: u64, out: &mut Vec<u32>) {
        let start = out.len();
        let mut accepted = 0usize;
        // Rejection sampling over the skewed distribution; when the
        // remaining tail gets thin (can happen with per_step close to
        // universe and large alpha), fall back to a uniform sweep so the
        // step always completes.
        let mut attempts = 0usize;
        let budget = self.per_step * 64;
        while accepted < self.per_step && attempts < budget {
            attempts += 1;
            let c = self.sampler.sample(&mut self.rng) as u32;
            if self.seen.insert(c) {
                out.push(c);
                accepted += 1;
            }
        }
        // Keys are below 2^32 (the sampler's bound), so each fits a u32.
        for c in (0..self.sampler.len()).map(|c| c as u32) {
            if accepted >= self.per_step {
                break;
            }
            if self.seen.insert(c) {
                out.push(c);
                accepted += 1;
            }
        }
        self.seen.clear(&out[start..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_step(w: &mut ZipfDistinct, step: u64) -> Vec<u32> {
        let mut out = Vec::new();
        w.next_step(step, &mut out);
        out
    }

    #[test]
    fn steps_are_distinct_and_full() {
        let mut w = ZipfDistinct::new(1000, 100, 1.0, 1);
        for step in 0..10 {
            let s = collect_step(&mut w, step);
            assert_eq!(s.len(), 100);
            let set: std::collections::BTreeSet<u32> = s.iter().copied().collect();
            assert_eq!(set.len(), 100);
        }
    }

    #[test]
    fn hot_chunks_reappear_across_steps() {
        let mut w = ZipfDistinct::new(10_000, 64, 1.2, 2);
        let mut presence = vec![0u32; 10_000];
        let steps = 50;
        for step in 0..steps {
            for c in collect_step(&mut w, step) {
                presence[c as usize] += 1;
            }
        }
        // Chunk 0 (hottest) should appear in nearly every step.
        assert!(
            presence[0] as u64 >= steps * 9 / 10,
            "chunk 0: {}",
            presence[0]
        );
        // A deep-tail chunk should be rare.
        let tail_max = presence[5000..].iter().max().copied().unwrap_or(0);
        assert!(tail_max <= 5, "tail chunk appeared {tail_max} times");
    }

    #[test]
    fn extreme_skew_still_completes_via_fallback() {
        // per_step equal to universe forces the fallback sweep.
        let mut w = ZipfDistinct::new(32, 32, 3.0, 3);
        let s = collect_step(&mut w, 0);
        assert_eq!(s.len(), 32);
    }

    /// After every step the bitmap is all zeros: universes either side
    /// of a multiple of 64, universe 1, and `per_step == universe` at a
    /// skew that leaves the tail to the fallback sweep.
    #[test]
    fn zipf_distinct_leaves_its_bitmap_clear() {
        for (n, k, alpha) in [
            (1, 1, 1.0),
            (63, 63, 3.0),
            (64, 64, 0.0),
            (65, 65, 3.0),
            (65, 7, 1.1),
            (130, 129, 2.0),
            (1000, 37, 0.9),
        ] {
            let mut w = ZipfDistinct::new(n, k, alpha, 9);
            for step in 0..50 {
                let s = collect_step(&mut w, step);
                assert_eq!(s.len(), k);
                let set: std::collections::BTreeSet<u32> = s.iter().copied().collect();
                assert_eq!(set.len(), k);
                assert!(s.iter().all(|&c| (c as usize) < n));
                assert!(w.seen.is_clear(), "n {n} k {k} step {step}");
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let mut a = ZipfDistinct::new(500, 50, 0.9, 7);
        let mut b = ZipfDistinct::new(500, 50, 0.9, 7);
        for step in 0..5 {
            assert_eq!(collect_step(&mut a, step), collect_step(&mut b, step));
        }
    }
}
