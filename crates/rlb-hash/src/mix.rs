//! Stateless 64-bit mixing functions.
//!
//! These let us evaluate "hash functions" `h_i(x)` on the fly — the paper's
//! random replica choices — without materializing tables: `h_i(x)` is a
//! finalizer applied to `(seed, i, x)`. All finalizers here are bijective on
//! `u64`, so distinct inputs can never be forced to collide before reduction
//! to the server range.

/// Murmur3's 64-bit finalizer (`fmix64`). Bijective; good avalanche.
#[inline]
pub fn fmix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// The `moremur` finalizer (Pelle Evensen): stronger avalanche than fmix64.
#[inline]
pub fn moremur(mut x: u64) -> u64 {
    x ^= x >> 27;
    x = x.wrapping_mul(0x3c79_ac49_2ba7_b653);
    x ^= x >> 33;
    x = x.wrapping_mul(0x1c69_b3f7_4ac4_ae35);
    x ^ (x >> 27)
}

/// Combines two words into one well-mixed word. Not bijective in the pair,
/// but collision probability over random inputs is 2^-64.
#[inline]
pub fn mix2(a: u64, b: u64) -> u64 {
    moremur(a ^ b.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15)
}

/// Combines three words into one well-mixed word.
#[inline]
pub(crate) fn mix3(a: u64, b: u64, c: u64) -> u64 {
    moremur(mix2(a, b) ^ c.wrapping_mul(0xd6e8_feb8_6659_fd93))
}

/// Evaluates the `i`-th hash of key `x` under a `seed`, reduced to
/// `[0, range)` by the multiply-shift method (unbiased enough for
/// `range << 2^64`; exactness is irrelevant because the adversary is
/// oblivious).
///
/// # Panics
/// Panics if `range == 0`.
#[inline]
pub fn hash_to_range(seed: u64, i: u64, x: u64, range: u64) -> u64 {
    assert!(range > 0, "range must be positive");
    let h = mix3(seed, i, x);
    ((h as u128 * range as u128) >> 64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmix64_is_injective_on_sample() {
        let mut seen = std::collections::BTreeSet::new();
        for x in 0..10_000u64 {
            assert!(seen.insert(fmix64(x)));
        }
    }

    #[test]
    fn moremur_is_injective_on_sample() {
        let mut seen = std::collections::BTreeSet::new();
        for x in 0..10_000u64 {
            assert!(seen.insert(moremur(x)));
        }
    }

    #[test]
    fn avalanche_single_bit_flip() {
        // Flipping one input bit should flip ~32 output bits on average.
        let mut total_flips = 0u32;
        let trials = 64 * 16;
        for x in 0..16u64 {
            let base = moremur(x.wrapping_mul(0x1234_5678_9abc_def1));
            for bit in 0..64 {
                let flipped = moremur(x.wrapping_mul(0x1234_5678_9abc_def1) ^ (1 << bit));
                total_flips += (base ^ flipped).count_ones();
            }
        }
        let avg = total_flips as f64 / trials as f64;
        assert!((28.0..36.0).contains(&avg), "avalanche avg = {avg}");
    }

    #[test]
    fn hash_to_range_in_bounds_and_spread() {
        let range = 97;
        let mut counts = vec![0u32; range as usize];
        for x in 0..97_000u64 {
            let v = hash_to_range(42, 1, x, range);
            assert!(v < range);
            counts[v as usize] += 1;
        }
        let expected = 97_000.0 / range as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > expected * 0.7 && (c as f64) < expected * 1.3,
                "bucket {i} count {c} far from {expected}"
            );
        }
    }

    #[test]
    fn different_hash_indices_decorrelate() {
        let collisions = (0..1000u64)
            .filter(|&x| hash_to_range(7, 0, x, 1000) == hash_to_range(7, 1, x, 1000))
            .count();
        // Expected ~1 collision in 1000 with range 1000.
        assert!(collisions < 10, "collisions = {collisions}");
    }

    #[test]
    #[should_panic(expected = "range must be positive")]
    fn hash_to_range_zero_panics() {
        let _ = hash_to_range(1, 2, 3, 0);
    }
}
