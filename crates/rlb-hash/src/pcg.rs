//! PCG-XSL-RR 128/64: the workspace's workhorse generator.
//!
//! 128-bit LCG state with an xorshift-low + random-rotate output function
//! (O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically
//! Good Algorithms for Random Number Generation"). Supports independent
//! streams via the increment parameter, so each server/chunk/trial can own
//! its own stream derived from one master seed.

use crate::{Rng, SplitMix64};

const PCG_MULTIPLIER: u128 = 0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645;

/// A PCG-XSL-RR 128/64 generator.
///
/// ```
/// use rlb_hash::{Pcg64, Rng};
///
/// let mut rng = Pcg64::new(42, 0);
/// let x = rng.gen_range(100);
/// assert!(x < 100);
/// // Same seed and stream, same sequence:
/// assert_eq!(Pcg64::new(42, 0).gen_range(100), x);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg64 {
    state: u128,
    /// Stream selector; always odd.
    inc: u128,
}

impl Pcg64 {
    /// Creates a generator from a `seed` and a `stream` id.
    ///
    /// Different `(seed, stream)` pairs produce statistically independent
    /// sequences. The raw inputs are pre-mixed through SplitMix64 so that
    /// structured seeds (0, 1, 2, ...) still give unrelated streams.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut sm = SplitMix64::new(seed ^ stream.rotate_left(32));
        let s_lo = sm.mix_next();
        let s_hi = sm.mix_next();
        let i_lo = sm.mix_next();
        let i_hi = sm.mix_next();
        let state = ((s_hi as u128) << 64) | s_lo as u128;
        let inc = ((((i_hi as u128) << 64) | i_lo as u128) << 1) | 1;
        let mut pcg = Self { state, inc };
        // Warm up: decorrelates state from the seeding path.
        pcg.state = pcg.state.wrapping_add(pcg.inc);
        let _ = pcg.next_u64();
        pcg
    }

    /// Splits off an independent child generator. The parent advances.
    pub fn split(&mut self) -> Self {
        let seed = self.next_u64();
        let stream = self.next_u64();
        Self::new(seed, stream)
    }

    #[inline]
    fn step(&mut self) -> u128 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULTIPLIER).wrapping_add(self.inc);
        old
    }
}

impl Rng for Pcg64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let old = self.step();
        // XSL-RR output function.
        let xored = ((old >> 64) as u64) ^ (old as u64);
        let rot = (old >> 122) as u32;
        xored.rotate_right(rot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed_and_stream() {
        let mut a = Pcg64::new(10, 20);
        let mut b = Pcg64::new(10, 20);
        for _ in 0..256 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_are_distinct() {
        let mut a = Pcg64::new(10, 0);
        let mut b = Pcg64::new(10, 1);
        let matches = (0..256).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn split_produces_independent_children() {
        let mut parent = Pcg64::new(77, 0);
        let mut c1 = parent.split();
        let mut c2 = parent.split();
        let matches = (0..256).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn sequential_seeds_are_uncorrelated() {
        // Structured seeds must still be decorrelated by the pre-mixing.
        let mut a = Pcg64::new(1, 0);
        let mut b = Pcg64::new(2, 0);
        let mut agree_bits = 0u32;
        let total = 64 * 64;
        for _ in 0..64 {
            agree_bits += (!(a.next_u64() ^ b.next_u64())).count_ones();
        }
        let frac = agree_bits as f64 / total as f64;
        assert!((0.4..0.6).contains(&frac), "bit agreement {frac}");
    }

    #[test]
    fn mean_of_f64_stream_is_half() {
        let mut rng = Pcg64::new(5, 5);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gen_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }
}
