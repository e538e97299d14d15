//! Sampling utilities shared by workload generators and experiments.
//!
//! Floyd's algorithm is written once, in [`sample_distinct_into`],
//! which takes its membership test from the caller:
//! [`sample_k_distinct`] passes a hash set that takes any `n`, and a
//! workload generator drawing every step from a small universe passes
//! its own bitmap.
//!
//! [`ZipfSampler`] is an alias table, 12 bytes a key, built in 16 bytes
//! a key and read either one draw at a time ([`ZipfSampler::sample`]) or
//! a block of draws at a time ([`ZipfSampler::sample_into`]), which
//! returns the same keys from the same rng draws. `zipf_tables_are_pinned`
//! pins the tables bit for bit.

use crate::mix::fmix64;
use crate::Rng;

/// In-place Fisher–Yates shuffle.
pub fn shuffle<T, R: Rng>(rng: &mut R, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_index(i + 1);
        items.swap(i, j);
    }
}

/// Partial Fisher–Yates: after the call, `items[..k]` holds a uniform
/// random `k`-subset of the original slice in uniform random order.
///
/// # Panics
/// Panics if `k > items.len()`.
pub fn partial_shuffle<T, R: Rng>(rng: &mut R, items: &mut [T], k: usize) {
    assert!(k <= items.len(), "k exceeds slice length");
    for i in 0..k {
        let j = i + rng.gen_index(items.len() - i);
        items.swap(i, j);
    }
}

/// Samples `k` distinct values uniformly from `[0, n)`, in uniform
/// random order.
///
/// Uses Floyd's algorithm (O(k) expected, no O(n) allocation), so it is
/// cheap even when `n` is huge (e.g. a chunk universe of `m^3`).
///
/// # Panics
/// Panics if `k > n`.
pub fn sample_k_distinct<R: Rng>(rng: &mut R, n: u64, k: usize) -> Vec<u64> {
    let mut chosen = vec![0; k];
    let mut set = DistinctSet::new(k);
    sample_distinct_into(rng, n, &mut chosen, |v| set.insert(v), |v| v);
    chosen
}

/// Fills `out` with `out.len()` distinct values drawn uniformly from
/// `[0, n)`, in uniform random order: Floyd's algorithm, then a
/// shuffle. [`sample_k_distinct`] is this with a hash set; a caller
/// with a small `n` passes a denser membership test and draws the same
/// values.
///
/// `insert` is that test: it adds a value to a set that is empty on
/// entry and says whether the value was new. Every value the set holds
/// on return is in `out`, through `narrow`, so a caller can clear its
/// set from `out`.
///
/// # Panics
/// Panics if `out.len() > n`.
pub fn sample_distinct_into<T, R: Rng>(
    rng: &mut R,
    n: u64,
    out: &mut [T],
    mut insert: impl FnMut(u64) -> bool,
    narrow: impl Fn(u64) -> T,
) {
    let k = out.len();
    assert!(k as u64 <= n, "cannot sample {k} distinct values from {n}");
    // For j in n-k..n, pick t in [0, j]; take t unless already present,
    // else j (never present: every earlier pick is < j).
    for (j, slot) in ((n - k as u64)..n).zip(out.iter_mut()) {
        let t = rng.gen_range(j + 1);
        let v = if insert(t) {
            t
        } else {
            insert(j);
            j
        };
        *slot = narrow(v);
    }
    shuffle(rng, out);
}

/// Marks an empty slot. No member equals it: every value a caller
/// inserts is a draw below some `n ≤ u64::MAX`.
const EMPTY: u64 = u64::MAX;

/// [`sample_k_distinct`]'s membership set, for any `n ≤ u64::MAX`:
/// open addressing with linear probing on an `fmix64` hash, at most
/// half full.
///
/// It is never iterated, so its layout cannot reach an output. Its
/// members are the caller's own seeded draws, never outside input, so
/// no peer can pick values that collide under the fixed hash.
#[derive(Debug)]
struct DistinctSet {
    /// A power-of-two number of slots, [`EMPTY`] where unused.
    slots: Vec<u64>,
}

impl DistinctSet {
    /// An empty set sized for up to `k` members: at least `2k` slots,
    /// so every probe meets an empty slot.
    fn new(k: usize) -> Self {
        Self {
            slots: vec![EMPTY; k.saturating_mul(2).next_power_of_two()],
        }
    }

    /// Adds `v`; `false` if it was already a member. At most `k` values
    /// may be inserted into [`new`](Self::new)`(k)`, each `< u64::MAX`.
    fn insert(&mut self, v: u64) -> bool {
        debug_assert!(v != EMPTY, "u64::MAX marks an empty slot");
        let mask = self.slots.len().wrapping_sub(1);
        let home = fmix64(v) as usize;
        for probe in 0..self.slots.len() {
            match self.slots.get_mut(home.wrapping_add(probe) & mask) {
                Some(slot) if *slot == EMPTY => {
                    *slot = v;
                    return true;
                }
                Some(slot) if *slot == v => return false,
                _ => {}
            }
        }
        // A full table, which the sizing in `new` rules out; answering
        // rather than probing on keeps a broken caller from hanging.
        false
    }
}

/// Most keys a [`ZipfSampler`] can hold: its aliases are `u32`s.
const MAX_KEYS: u64 = 1 << 32;

/// Draws [`ZipfSampler::sample_into`] makes before it reads the table.
const BLOCK: usize = 32;

/// A precomputed Zipf(α) sampler over `[0, n)` using the alias method,
/// giving O(1) sampling after O(n) setup.
///
/// The table is 12 bytes a key (`prob` + `alias`), and building it takes
/// 16: the weights are computed straight into `prob` and scaled there,
/// and Vose's small and large worklists share one `u32` vector, small
/// growing from the front and large from the back. An index is on at
/// most one list at a time, so the two never meet.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl ZipfSampler {
    /// Builds a sampler with `P(i) ∝ 1/(i+1)^alpha` over `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`, `n > 2^32`, or `alpha` is negative/non-finite.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf domain must be non-empty");
        assert!(
            n as u64 <= MAX_KEYS,
            "Zipf domain must be at most 2^32 keys, got {n}"
        );
        assert!(alpha >= 0.0 && alpha.is_finite(), "alpha must be >= 0");
        Self::build((0..n).map(|i| 1.0 / ((i + 1) as f64).powf(alpha)).collect())
    }

    /// Builds an alias table from arbitrary non-negative weights.
    ///
    /// # Panics
    /// Panics if weights are empty, more than 2^32, contain
    /// negatives/NaN, or sum to zero.
    pub fn from_weights(weights: &[f64]) -> Self {
        assert!(!weights.is_empty());
        Self::build(weights.to_vec())
    }

    /// Vose's alias method over `prob`, which holds the weights on entry
    /// and is scaled in place to mean 1.
    fn build(mut prob: Vec<f64>) -> Self {
        let n = prob.len();
        assert!(
            n as u64 <= MAX_KEYS,
            "Zipf domain must be at most 2^32 keys, got {n}"
        );
        let total: f64 = prob.iter().sum();
        assert!(
            total > 0.0 && prob.iter().all(|&w| w >= 0.0 && w.is_finite()),
            "weights must be non-negative, finite, and not all zero"
        );
        let scale = n as f64 / total;
        let mut alias = vec![0u32; n];
        // Small is `work[..small]`, top at `small - 1`; large is
        // `work[large..]`, top at `large`. Each pops LIFO.
        let mut work = vec![0u32; n];
        let (mut small, mut large) = (0, n);
        for (i, p) in prob.iter_mut().enumerate() {
            *p *= scale;
            if *p < 1.0 {
                work[small] = i as u32;
                small += 1;
            } else {
                large -= 1;
                work[large] = i as u32;
            }
        }
        while small > 0 && large < n {
            small -= 1;
            let s = work[small] as usize;
            let l = work[large];
            alias[s] = l;
            let rest = (prob[l as usize] + prob[s]) - 1.0;
            prob[l as usize] = rest;
            if rest < 1.0 {
                large += 1;
                work[small] = l;
                small += 1;
            }
        }
        for &i in work[..small].iter().chain(&work[large..]) {
            prob[i as usize] = 1.0;
        }
        Self { prob, alias }
    }

    /// Draws one sample.
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let i = rng.gen_index(self.prob.len());
        if rng.gen_f64() < self.prob[i] {
            i as u64
        } else {
            self.alias[i] as u64
        }
    }

    /// Fills `out` with what `out.len()` calls of [`sample`](Self::sample)
    /// return, leaving `rng` where they would.
    ///
    /// The draws are made in the same order, a block of 32 at a time, and
    /// only then is the block looked up, with a select in place of
    /// `sample`'s branch: the table reads of a block are independent, so
    /// their cache misses overlap instead of each waiting behind a
    /// mispredicted branch.
    pub fn sample_into<R: Rng>(&self, rng: &mut R, out: &mut [u64]) {
        let n = self.prob.len();
        let mut u = [0.0f64; BLOCK];
        for block in out.chunks_mut(BLOCK) {
            for (slot, u) in block.iter_mut().zip(&mut u) {
                *slot = rng.gen_index(n) as u64;
                *u = rng.gen_f64();
            }
            for (slot, &u) in block.iter_mut().zip(&u) {
                let i = *slot as usize;
                let alias = u64::from(self.alias[i]);
                let keep = u64::from(u < self.prob[i]).wrapping_neg();
                *slot = alias ^ ((alias ^ *slot) & keep);
            }
        }
    }

    /// Domain size.
    #[inline]
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the domain is empty (never true post-construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pcg64;

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Pcg64::new(1, 0);
        let mut v: Vec<u32> = (0..100).collect();
        shuffle(&mut rng, &mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn partial_shuffle_prefix_is_subset() {
        let mut rng = Pcg64::new(2, 0);
        let mut v: Vec<u32> = (0..50).collect();
        partial_shuffle(&mut rng, &mut v, 10);
        let prefix: std::collections::BTreeSet<u32> = v[..10].iter().copied().collect();
        assert_eq!(prefix.len(), 10);
        assert!(prefix.iter().all(|&x| x < 50));
    }

    #[test]
    fn sample_k_distinct_is_distinct() {
        let mut rng = Pcg64::new(3, 0);
        for _ in 0..20 {
            let s = sample_k_distinct(&mut rng, 1_000_000_000, 100);
            let set: std::collections::BTreeSet<u64> = s.iter().copied().collect();
            assert_eq!(set.len(), 100);
            assert!(s.iter().all(|&x| x < 1_000_000_000));
        }
    }

    /// Digests of three consecutive draws per `(n, k)`, seeded by the
    /// case's index: `k` at 0, 1 and `n` where `n` is small, and `n` up
    /// to `u64::MAX`. Captured from the `HashSet` version this set
    /// replaced.
    #[test]
    fn sample_k_distinct_is_pinned() {
        const CASES: [(u64, usize); 15] = [
            (1, 0),
            (1, 1),
            (2, 1),
            (2, 2),
            (7, 0),
            (7, 1),
            (7, 7),
            (64, 64),
            (1000, 1),
            (1000, 1000),
            (1 << 40, 5000),
            (u64::MAX - 1, 100),
            (u64::MAX, 0),
            (u64::MAX, 1),
            (u64::MAX, 100),
        ];
        const PINNED: [u64; 15] = [
            0xedf6aea79cfc2c5d,
            0xdcfa27a12e4c4f18,
            0xdcfa27a12e4c4f18,
            0x4efa0a2c9263d636,
            0xedf6aea79cfc2c5d,
            0x1d0fb36f6f5c49b2,
            0xe84ca93ce01ada40,
            0x47df9fc77f2e7272,
            0xf8edd9bab8712f5f,
            0xf8c1812ff719dd91,
            0x25cb982b28399e5d,
            0xa9c0eeaa98218d3a,
            0xedf6aea79cfc2c5d,
            0xf59d63f1ab53c523,
            0x0538e4b824c8ff56,
        ];
        let mut got = [0u64; 15];
        for (i, (&(n, k), digest)) in CASES.iter().zip(&mut got).enumerate() {
            let mut rng = Pcg64::new(i as u64, 0x5a);
            for _ in 0..3 {
                let s = sample_k_distinct(&mut rng, n, k);
                assert_eq!(s.len(), k);
                *digest = s.iter().fold(crate::mix::mix2(*digest, k as u64), |h, &v| {
                    crate::mix::mix2(h, v)
                });
            }
        }
        assert_eq!(got, PINNED, "samples moved: {got:#x?}");
    }

    #[test]
    fn distinct_set_is_at_most_half_full() {
        for k in [0, 1, 2, 3, 5, 64, 1000] {
            let set = DistinctSet::new(k);
            assert!(set.slots.len() >= 2 * k && set.slots.len().is_power_of_two());
            assert!(set.slots.iter().all(|&s| s == EMPTY), "k {k}: not empty");
        }
    }

    /// Three values that all hash to the last of 8 slots: the second and
    /// third wrap to slots 0 and 1, and each is found again there.
    #[test]
    fn distinct_set_probe_wraps() {
        let mut set = DistinctSet::new(4);
        let last: Vec<u64> = (0..).filter(|&v| fmix64(v) & 7 == 7).take(3).collect();
        for &v in &last {
            assert!(set.insert(v), "{v} is new");
        }
        assert_eq!(
            [set.slots[7], set.slots[0], set.slots[1]],
            [last[0], last[1], last[2]]
        );
        for &v in &last {
            assert!(!set.insert(v), "{v} is a member");
        }
        assert!(set.insert(u64::MAX - 1));
    }

    #[test]
    fn sample_k_distinct_full_domain() {
        let mut rng = Pcg64::new(4, 0);
        let mut s = sample_k_distinct(&mut rng, 10, 10);
        s.sort_unstable();
        assert_eq!(s, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn sample_k_distinct_is_roughly_uniform() {
        let mut rng = Pcg64::new(5, 0);
        let mut counts = [0u32; 10];
        for _ in 0..4000 {
            for v in sample_k_distinct(&mut rng, 10, 3) {
                counts[v as usize] += 1;
            }
        }
        // Each value appears with probability 3/10 per trial => ~1200.
        for (i, &c) in counts.iter().enumerate() {
            assert!((900..1500).contains(&c), "value {i} count {c}");
        }
    }

    #[test]
    fn zipf_is_monotone_decreasing_in_rank() {
        let mut rng = Pcg64::new(6, 0);
        let z = ZipfSampler::new(100, 1.0);
        let mut counts = vec![0u32; 100];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // Head should dominate tail; rank 0 >> rank 50.
        assert!(
            counts[0] > counts[50] * 5,
            "{} vs {}",
            counts[0],
            counts[50]
        );
        // All mass within domain accounted for.
        assert_eq!(counts.iter().map(|&c| c as usize).sum::<usize>(), 200_000);
    }

    #[test]
    fn zipf_alpha_zero_is_uniform() {
        let mut rng = Pcg64::new(7, 0);
        let z = ZipfSampler::new(16, 0.0);
        let mut counts = [0u32; 16];
        for _ in 0..160_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((8500..11500).contains(&c), "count {c}");
        }
    }

    #[test]
    fn alias_from_weights_respects_ratios() {
        let mut rng = Pcg64::new(8, 0);
        let z = ZipfSampler::from_weights(&[1.0, 3.0]);
        let mut ones = 0u32;
        let n = 100_000;
        for _ in 0..n {
            if z.sample(&mut rng) == 1 {
                ones += 1;
            }
        }
        let frac = ones as f64 / n as f64;
        assert!((0.72..0.78).contains(&frac), "frac = {frac}");
    }

    /// `sample_into` against one `sample` a slot: the same keys, and the
    /// rng left in the same state, at lengths either side of a block and
    /// over one key, a flat table, a skewed one and zero weights.
    #[test]
    fn sample_into_is_repeated_sample() {
        let tables = [
            ZipfSampler::new(1, 1.1),
            ZipfSampler::new(1000, 0.0),
            ZipfSampler::new(1000, 1.1),
            ZipfSampler::from_weights(&[0.0, 2.0, 0.0, 1.0, 5.0, 0.0]),
        ];
        for (t, z) in tables.iter().enumerate() {
            for len in [0, 1, 31, 32, 33, 100] {
                let mut batch = Pcg64::new(t as u64, len as u64);
                let mut one = batch.clone();
                let mut out = vec![u64::MAX; len];
                z.sample_into(&mut batch, &mut out);
                let want: Vec<u64> = (0..len).map(|_| z.sample(&mut one)).collect();
                assert_eq!(out, want, "table {t}, length {len}");
                assert_eq!(batch, one, "table {t}, length {len}: rng state");
            }
        }
    }

    /// Every draw is 0: index 0, then u = 0.0.
    struct Zeros;

    impl Rng for Zeros {
        fn next_u64(&mut self) -> u64 {
            0
        }
    }

    /// A zero-weight key keeps probability 0.0, so it is never drawn,
    /// not even at u = 0.0, where `u < prob` and `u <= prob` part.
    #[test]
    fn a_zero_weight_key_is_never_drawn() {
        let z = ZipfSampler::from_weights(&[0.0, 1.0]);
        assert_eq!(z.sample(&mut Zeros), 1);
        let mut out = [u64::MAX; 3];
        z.sample_into(&mut Zeros, &mut out);
        assert_eq!(out, [1; 3]);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "at most 2^32 keys")]
    fn zipf_refuses_a_domain_past_u32() {
        let _ = ZipfSampler::new((1 << 32) + 1, 1.1);
    }

    /// A table's every `prob` bit pattern and `alias` entry, in order.
    fn table_digest(z: &ZipfSampler) -> u64 {
        let mix2 = crate::mix::mix2;
        z.prob
            .iter()
            .zip(&z.alias)
            .fold(z.len() as u64, |h, (p, &a)| {
                mix2(mix2(h, p.to_bits()), u64::from(a))
            })
    }

    /// The alias tables themselves, bit for bit: n × α through `new`,
    /// then `from_weights` with zero weights between others and with
    /// every weight equal (each scales to exactly 1.0, so no key is
    /// small). Captured from the build that kept its weights, scaled
    /// copy and two worklists in separate vectors.
    #[test]
    fn zipf_tables_are_pinned() {
        const NS: [usize; 5] = [1, 2, 7, 1_000, 100_000];
        const ALPHAS: [f64; 4] = [0.0, 0.5, 1.1, 2.0];
        const PINNED: [[u64; 4]; 5] = [
            [0x323c7766e7664776; 4],
            [
                0xbc02f4a7d64f8c4e,
                0xa8caa581fa2ae535,
                0xf2d84ec46cc324b4,
                0xdea175b3a323053b,
            ],
            [
                0x888df63e43330c62,
                0xd34bb8080d6b9788,
                0x2b468354fcf1cf6c,
                0x8475c6da95f86530,
            ],
            [
                0xa00440620d0a836c,
                0xf22ed51fc13df9ff,
                0xedb4202269e3158d,
                0xbd2403e1c2ceaf64,
            ],
            [
                0x4af554cf45c05ed3,
                0xab67ba9c4a06bae1,
                0x4ff0880c3203be04,
                0xc58efb21fc97cd7f,
            ],
        ];
        const WEIGHTS_PINNED: [u64; 2] = [0x15f24a2dcff4332e, 0xdef7af73e9a88d07];
        let mut got = [[0u64; 4]; 5];
        for (&n, row) in NS.iter().zip(&mut got) {
            for (&alpha, digest) in ALPHAS.iter().zip(row.iter_mut()) {
                *digest = table_digest(&ZipfSampler::new(n, alpha));
            }
        }
        let weights = [
            table_digest(&ZipfSampler::from_weights(&[0.0, 2.0, 0.0, 1.0, 5.0, 0.0])),
            table_digest(&ZipfSampler::from_weights(&[3.0; 9])),
        ];
        assert_eq!(
            (got, weights),
            (PINNED, WEIGHTS_PINNED),
            "tables moved: {got:#x?} {weights:#x?}"
        );
    }

    #[test]
    #[should_panic(expected = "weights must be non-negative")]
    fn alias_rejects_all_zero() {
        let _ = ZipfSampler::from_weights(&[0.0, 0.0]);
    }
}
