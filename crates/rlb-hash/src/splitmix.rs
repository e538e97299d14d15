//! SplitMix64: a tiny, fast, well-distributed 64-bit generator.
//!
//! Used for seeding other generators and for cheap randomness where the
//! statistical demands are modest (tie-breaking, test fixtures). The
//! algorithm is the finalizer of Java's `SplittableRandom` (Steele,
//! Lea & Flood, OOPSLA '14) and passes BigCrush when used as a stream.

use crate::Rng;

const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 generator state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Distinct seeds give independent-
    /// looking streams.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Produces the next raw output (also usable as a stateless finalizer
    /// chain by constructing with the value to mix).
    #[inline]
    pub(crate) fn mix_next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl Rng for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.mix_next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn known_reference_values() {
        // Reference vector for seed 0 from the SplitMix64 reference
        // implementation (Vigna).
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220a8397b1dcdaf);
        assert_eq!(rng.next_u64(), 0x6e789e6aa1b965f4);
        assert_eq!(rng.next_u64(), 0x06c45d188009454f);
    }

    #[test]
    fn output_is_balanced() {
        // Each bit position should be ~50% ones over a long stream.
        let mut rng = SplitMix64::new(99);
        let mut ones = [0u32; 64];
        let n = 4096;
        for _ in 0..n {
            let v = rng.next_u64();
            for (i, o) in ones.iter_mut().enumerate() {
                *o += ((v >> i) & 1) as u32;
            }
        }
        for (i, &o) in ones.iter().enumerate() {
            let frac = o as f64 / n as f64;
            assert!((0.45..0.55).contains(&frac), "bit {i} biased: {frac}");
        }
    }
}
