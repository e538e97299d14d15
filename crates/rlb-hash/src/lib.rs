//! Deterministic, seedable randomness for the `reappearance-lb` workspace.
//!
//! Every random decision in the reproduction — replica placement, workload
//! sampling, tie-breaking — flows through this crate so that a whole
//! experiment is reproducible from a single `u64` seed. The paper assumes
//! fully random hash functions; for an *oblivious* adversary (one that does
//! not observe the algorithm's random bits) a high-quality seeded PRNG is an
//! indistinguishable stand-in, which is the standard substitution in
//! implementations of this line of work.
//!
//! Contents:
//!
//! * [`SplitMix64`] — tiny, fast generator used for seeding and cheap streams.
//! * [`Pcg64`] — the workhorse generator (PCG-XSH-RR style, 128-bit state)
//!   with independent streams, used wherever statistical quality matters.
//! * [`mix`] — stateless 64-bit mixing/finalizer functions used to derive
//!   per-chunk hash values without materializing tables.
//! * [`placement`] — replica placement: maps each chunk to `d` *distinct*
//!   servers by a seeded hash of its id, the paper's "first algorithmic
//!   knob" (§2).
//! * [`sample`] — sampling utilities (partial Fisher–Yates, distinct
//!   sampling, shuffles) shared by the workload generators.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mix;
pub mod pcg;
pub mod placement;
pub mod sample;
pub(crate) mod splitmix;

pub use pcg::Pcg64;
pub use placement::ReplicaPlacement;
pub use splitmix::SplitMix64;

/// A minimal pseudo-random generator interface.
///
/// Both [`SplitMix64`] and [`Pcg64`] implement this; generic code in the
/// workspace is written against the trait so tests can substitute
/// deterministic sequences.
pub trait Rng {
    /// Returns the next 64 pseudo-random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniform value in `[0, bound)` using Lemire's
    /// multiply-shift rejection method (unbiased).
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Lemire's nearly-divisionless unbiased range reduction.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let t = bound.wrapping_neg() % bound;
            while lo < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform `usize` index in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_range(bound as u64) as usize
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_range_is_in_bounds() {
        let mut rng = SplitMix64::new(1);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_covers_small_domain() {
        let mut rng = SplitMix64::new(42);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.gen_range(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn gen_range_zero_panics() {
        let mut rng = SplitMix64::new(1);
        let _ = rng.gen_range(0);
    }

    #[test]
    fn gen_f64_is_unit_interval() {
        let mut rng = Pcg64::new(7, 3);
        for _ in 0..1000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Pcg64::new(9, 0);
        for _ in 0..100 {
            assert!(!rng.gen_bool(0.0));
            assert!(rng.gen_bool(1.0));
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        // Chi-squared sanity check over 16 buckets.
        let mut rng = Pcg64::new(1234, 1);
        let mut counts = [0u32; 16];
        let n = 160_000;
        for _ in 0..n {
            counts[rng.gen_range(16) as usize] += 1;
        }
        let expected = n as f64 / 16.0;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // 15 degrees of freedom; 99.9th percentile is ~37.7.
        assert!(chi2 < 45.0, "chi2 = {chi2}");
    }
}
