//! Core workload generators.

use crate::bitmap::{assert_chunk_universe, ChunkBitmap};
use rlb_core::Workload;
use rlb_hash::sample;
use rlb_hash::{Pcg64, Rng};

/// The same fixed set of chunks requested on every step — the paper's
/// canonical hard workload ("the same set S of m items is accessed on
/// every time step", §1). Arrival order is reshuffled each step by
/// default so policies cannot benefit from a fixed order.
#[derive(Debug, Clone)]
pub struct RepeatedSet {
    chunks: Vec<u32>,
    shuffle_each_step: bool,
    rng: Pcg64,
}

impl RepeatedSet {
    /// Requests `chunks` every step (order reshuffled per step).
    ///
    /// # Panics
    /// Panics if `chunks` contains duplicates.
    pub fn new(chunks: Vec<u32>, seed: u64) -> Self {
        let mut sorted = chunks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), chunks.len(), "chunk set contains duplicates");
        Self {
            chunks,
            shuffle_each_step: true,
            rng: Pcg64::new(seed, 0x5e7),
        }
    }

    /// Uses the first `k` chunks of the universe (`0..k`).
    pub fn first_k(k: u32, seed: u64) -> Self {
        Self::new((0..k).collect(), seed)
    }

    /// Draws a random `k`-subset of a universe of `n` chunks.
    ///
    /// # Panics
    /// Panics if `k > n` or `n > 2^32`.
    pub fn random_subset(n: u64, k: usize, seed: u64) -> Self {
        assert_chunk_universe(n);
        let mut rng = Pcg64::new(seed, 0x5e8);
        let chunks = sample::sample_k_distinct(&mut rng, n, k)
            .into_iter()
            .map(|c| c as u32)
            .collect();
        Self::new(chunks, seed)
    }

    /// Disables the per-step reshuffle (fixed arrival order).
    pub fn fixed_order(mut self) -> Self {
        self.shuffle_each_step = false;
        self
    }
}

impl Workload for RepeatedSet {
    fn next_step(&mut self, _step: u64, out: &mut Vec<u32>) {
        if self.shuffle_each_step {
            sample::shuffle(&mut self.rng, &mut self.chunks);
        }
        out.extend_from_slice(&self.chunks);
    }
}

/// Fresh uniform chunks every step: `k` distinct chunks drawn from
/// `[0, n)` independently per step. No reappearance dependencies beyond
/// chance collisions across steps.
#[derive(Debug, Clone)]
pub struct FreshRandom {
    universe: u64,
    per_step: usize,
    rng: Pcg64,
    /// Floyd's membership test, clear between steps.
    marked: ChunkBitmap,
}

impl FreshRandom {
    /// Draws `per_step` distinct chunks from `[0, universe)` each step.
    ///
    /// # Panics
    /// Panics if `per_step > universe` or `universe > 2^32`.
    pub fn new(universe: u64, per_step: usize, seed: u64) -> Self {
        assert!(per_step as u64 <= universe, "per_step exceeds universe");
        Self {
            universe,
            per_step,
            rng: Pcg64::new(seed, 0xf5e5),
            marked: ChunkBitmap::new(universe),
        }
    }
}

impl Workload for FreshRandom {
    fn next_step(&mut self, _step: u64, out: &mut Vec<u32>) {
        let start = out.len();
        out.resize(start + self.per_step, 0);
        let (drawn, marked) = (&mut out[start..], &mut self.marked);
        sample::sample_distinct_into(
            &mut self.rng,
            self.universe,
            drawn,
            |c| marked.insert(c as u32),
            |c| c as u32,
        );
        marked.clear(drawn);
    }
}

/// Interpolates between [`RepeatedSet`] and [`FreshRandom`]: each step
/// keeps each member of the previous step's set with probability
/// `repeat_prob` and fills the remainder with fresh distinct chunks.
#[derive(Debug, Clone)]
pub struct PartialRepeat {
    universe: u64,
    per_step: usize,
    repeat_prob: f64,
    previous: Vec<u32>,
    rng: Pcg64,
    /// This step's members, clear between steps.
    present: ChunkBitmap,
}

impl PartialRepeat {
    /// Creates the generator.
    ///
    /// # Panics
    /// Panics if `repeat_prob ∉ [0, 1]`, `per_step > universe` or
    /// `universe > 2^32`.
    pub fn new(universe: u64, per_step: usize, repeat_prob: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&repeat_prob), "repeat_prob in [0,1]");
        assert!(per_step as u64 <= universe, "per_step exceeds universe");
        Self {
            universe,
            per_step,
            repeat_prob,
            previous: Vec::new(),
            rng: Pcg64::new(seed, 0xaa17),
            present: ChunkBitmap::new(universe),
        }
    }
}

impl Workload for PartialRepeat {
    fn next_step(&mut self, _step: u64, out: &mut Vec<u32>) {
        let (rng, p) = (&mut self.rng, self.repeat_prob);
        let kept = &mut self.previous;
        kept.retain(|_| rng.gen_bool(p));
        for &c in kept.iter() {
            self.present.insert(c);
        }
        while kept.len() < self.per_step {
            let c = rng.gen_range(self.universe) as u32;
            if self.present.insert(c) {
                kept.push(c);
            }
        }
        self.present.clear(kept);
        sample::shuffle(rng, kept);
        out.extend_from_slice(kept);
    }
}

/// Rotates among `w` fixed working sets, switching every
/// `steps_per_phase` steps — a diurnal / tenant-shift pattern. Each
/// working set individually behaves like a [`RepeatedSet`].
#[derive(Debug, Clone)]
pub struct PhasedWorkingSets {
    sets: Vec<Vec<u32>>,
    steps_per_phase: u64,
    rng: Pcg64,
}

impl PhasedWorkingSets {
    /// Creates `w` random disjoint working sets of `k` chunks each from
    /// a universe of `n`, switching every `steps_per_phase` steps.
    ///
    /// # Panics
    /// Panics if `w * k > n`, `n > 2^32` or any parameter is zero.
    pub fn random(n: u64, w: usize, k: usize, steps_per_phase: u64, seed: u64) -> Self {
        assert!(w > 0 && k > 0 && steps_per_phase > 0, "zero parameter");
        assert_chunk_universe(n);
        assert!(
            w.checked_mul(k).is_some_and(|total| total as u64 <= n),
            "working sets exceed universe"
        );
        let mut rng = Pcg64::new(seed, 0x9a5e);
        let all = sample::sample_k_distinct(&mut rng, n, w * k);
        let sets = all
            .chunks(k)
            .map(|s| s.iter().map(|&c| c as u32).collect())
            .collect();
        Self {
            sets,
            steps_per_phase,
            rng,
        }
    }

    /// Creates the generator from explicit sets.
    ///
    /// # Panics
    /// Panics if any set contains duplicates or `sets` is empty.
    pub fn new(sets: Vec<Vec<u32>>, steps_per_phase: u64, seed: u64) -> Self {
        assert!(!sets.is_empty(), "need at least one working set");
        assert!(steps_per_phase > 0, "steps_per_phase must be positive");
        for (i, s) in sets.iter().enumerate() {
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), s.len(), "working set {i} has duplicates");
        }
        Self {
            sets,
            steps_per_phase,
            rng: Pcg64::new(seed, 0x9a5f),
        }
    }
}

impl Workload for PhasedWorkingSets {
    fn next_step(&mut self, step: u64, out: &mut Vec<u32>) {
        let idx = ((step / self.steps_per_phase) % self.sets.len() as u64) as usize;
        let set = &mut self.sets[idx];
        sample::shuffle(&mut self.rng, set);
        out.extend_from_slice(set);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_step<W: Workload>(w: &mut W, step: u64) -> Vec<u32> {
        let mut out = Vec::new();
        w.next_step(step, &mut out);
        out
    }

    fn assert_distinct(v: &[u32]) {
        let set: std::collections::BTreeSet<u32> = v.iter().copied().collect();
        assert_eq!(set.len(), v.len(), "duplicates in step: {v:?}");
    }

    #[test]
    fn repeated_set_is_same_set_every_step() {
        let mut w = RepeatedSet::first_k(10, 1);
        let mut first = collect_step(&mut w, 0);
        assert_distinct(&first);
        first.sort_unstable();
        for step in 1..5 {
            let mut s = collect_step(&mut w, step);
            s.sort_unstable();
            assert_eq!(s, first);
        }
    }

    #[test]
    fn repeated_set_shuffles_order() {
        let mut w = RepeatedSet::first_k(100, 2);
        let a = collect_step(&mut w, 0);
        let b = collect_step(&mut w, 1);
        assert_ne!(a, b, "order should differ between steps (whp)");
    }

    #[test]
    fn fixed_order_is_stable() {
        let mut w = RepeatedSet::first_k(20, 3).fixed_order();
        let a = collect_step(&mut w, 0);
        let b = collect_step(&mut w, 1);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "duplicates")]
    fn repeated_set_rejects_duplicates() {
        let _ = RepeatedSet::new(vec![1, 2, 2], 0);
    }

    #[test]
    fn random_subset_draws_from_universe() {
        let w = RepeatedSet::random_subset(1000, 50, 4);
        let mut w = w;
        let s = collect_step(&mut w, 0);
        assert_eq!(s.len(), 50);
        assert_distinct(&s);
        assert!(s.iter().all(|&c| c < 1000));
    }

    #[test]
    fn fresh_random_differs_between_steps() {
        let mut w = FreshRandom::new(1_000_000, 64, 5);
        let a = collect_step(&mut w, 0);
        let b = collect_step(&mut w, 1);
        assert_distinct(&a);
        assert_distinct(&b);
        let overlap = a.iter().filter(|c| b.contains(c)).count();
        assert!(overlap < 4, "overlap {overlap} suspiciously high");
    }

    #[test]
    fn partial_repeat_extremes_match_neighbors() {
        // p = 1.0 behaves like a repeated set after the first step.
        let mut w = PartialRepeat::new(10_000, 32, 1.0, 6);
        let mut a = collect_step(&mut w, 0);
        let mut b = collect_step(&mut w, 1);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // p = 0.0 behaves like fresh random.
        let mut w = PartialRepeat::new(1_000_000, 32, 0.0, 7);
        let a = collect_step(&mut w, 0);
        let b = collect_step(&mut w, 1);
        let overlap = a.iter().filter(|c| b.contains(c)).count();
        assert!(overlap < 4);
    }

    #[test]
    fn partial_repeat_steps_are_distinct_and_sized() {
        let mut w = PartialRepeat::new(500, 64, 0.5, 8);
        for step in 0..10 {
            let s = collect_step(&mut w, step);
            assert_eq!(s.len(), 64);
            assert_distinct(&s);
        }
    }

    #[test]
    fn phased_sets_rotate() {
        let mut w = PhasedWorkingSets::new(vec![vec![0, 1], vec![10, 11]], 3, 9);
        for step in 0..12 {
            let mut s = collect_step(&mut w, step);
            s.sort_unstable();
            let expect: Vec<u32> = if (step / 3) % 2 == 0 {
                vec![0, 1]
            } else {
                vec![10, 11]
            };
            assert_eq!(s, expect, "step {step}");
        }
    }

    #[test]
    fn phased_random_sets_are_disjoint() {
        let w = PhasedWorkingSets::random(10_000, 4, 100, 5, 10);
        let mut all: Vec<u32> = w.sets.iter().flatten().copied().collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn fresh_random_is_one_distinct_sample_a_step() {
        for (n, k) in [(1_000_000u64, 64usize), (64, 64), (300, 7)] {
            let mut w = FreshRandom::new(n, k, 31);
            let mut rng = w.rng.clone();
            for step in 0..200 {
                let want: Vec<u32> = sample::sample_k_distinct(&mut rng, n, k)
                    .into_iter()
                    .map(|c| c as u32)
                    .collect();
                assert_eq!(collect_step(&mut w, step), want, "n {n} k {k} step {step}");
            }
        }
    }

    /// Digests of 50 steps of `FreshRandom` and `PartialRepeat` at three
    /// repeat probabilities.
    #[test]
    fn set_drawing_generators_are_pinned() {
        const PINNED: [u64; 4] = [
            0xd038d4595b14adc9,
            0xadf24eb81cb176fa,
            0x6fd95cd4168f6b1a,
            0x0a813f5c4a731378,
        ];
        fn digest<W: Workload>(w: &mut W) -> u64 {
            (0..50).fold(0u64, |h, step| {
                collect_step(w, step)
                    .iter()
                    .fold(rlb_hash::mix::mix2(h, step), |h, &c| {
                        rlb_hash::mix::mix2(h, u64::from(c))
                    })
            })
        }
        let got = [
            digest(&mut FreshRandom::new(5_000, 700, 3)),
            digest(&mut PartialRepeat::new(5_000, 700, 0.0, 3)),
            digest(&mut PartialRepeat::new(5_000, 700, 0.5, 3)),
            digest(&mut PartialRepeat::new(1 << 20, 64, 0.9, 3)),
        ];
        assert_eq!(got, PINNED, "streams moved: {got:#x?}");
    }

    /// Universes either side of a multiple of 64, universe 1, and
    /// `per_step == universe`, where every step takes the whole domain
    /// and Floyd's `j` fallback fires.
    const BITMAP_CASES: [(u64, usize); 9] = [
        (1, 1),
        (1, 0),
        (63, 63),
        (64, 64),
        (65, 65),
        (65, 7),
        (130, 129),
        (1000, 1000),
        (1000, 37),
    ];

    /// Each step marks its chunks in the bitmap, and the step's own
    /// output clears it again: after every step it is all zeros.
    #[test]
    fn fresh_random_leaves_its_bitmap_clear() {
        for (n, k) in BITMAP_CASES {
            let mut w = FreshRandom::new(n, k, 11);
            for step in 0..50 {
                let s = collect_step(&mut w, step);
                assert_eq!(s.len(), k);
                assert_distinct(&s);
                assert!(s.iter().all(|&c| u64::from(c) < n));
                assert!(w.marked.is_clear(), "n {n} k {k} step {step}");
            }
        }
    }

    /// The same for `PartialRepeat`, whose kept chunks are marked
    /// before its fresh ones, at p = 1.0 (every step keeps them all),
    /// 0.5 and 0.0.
    #[test]
    fn partial_repeat_leaves_its_bitmap_clear() {
        for (n, k) in BITMAP_CASES {
            for p in [1.0, 0.5, 0.0] {
                let mut w = PartialRepeat::new(n, k, p, 12);
                for step in 0..50 {
                    let s = collect_step(&mut w, step);
                    assert_eq!(s.len(), k);
                    assert_distinct(&s);
                    assert!(s.iter().all(|&c| u64::from(c) < n));
                    assert!(w.present.is_clear(), "n {n} k {k} p {p} step {step}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunk universe must be at most 2^32, got 4294967297")]
    fn fresh_random_refuses_a_universe_past_u32() {
        let _ = FreshRandom::new((1 << 32) + 1, 1, 0);
    }

    #[test]
    #[should_panic(expected = "chunk universe must be at most 2^32, got 4294967297")]
    fn partial_repeat_refuses_a_universe_past_u32() {
        let _ = PartialRepeat::new((1 << 32) + 1, 1, 0.5, 0);
    }

    #[test]
    #[should_panic(expected = "chunk universe must be at most 2^32, got 4294967297")]
    fn random_subset_refuses_a_universe_past_u32() {
        let _ = RepeatedSet::random_subset((1 << 32) + 1, 1, 0);
    }

    #[test]
    #[should_panic(expected = "chunk universe must be at most 2^32, got 4294967297")]
    fn phased_random_refuses_a_universe_past_u32() {
        let _ = PhasedWorkingSets::random((1 << 32) + 1, 1, 1, 1, 0);
    }

    /// 2^32 chunks is the largest universe whose ids all fit a `u32`,
    /// and it is taken.
    #[test]
    fn a_universe_of_exactly_2_pow_32_is_taken() {
        let n = 1 << 32;
        let mut w = RepeatedSet::random_subset(n, 64, 1);
        assert_distinct(&collect_step(&mut w, 0));
        let mut w = PhasedWorkingSets::random(n, 2, 32, 1, 1);
        assert_distinct(&collect_step(&mut w, 0));
    }

    /// A step appends to what `out` already holds and leaves that as it
    /// was: each generator draws, shuffles and clears only its own part.
    #[test]
    fn steps_append_after_what_out_holds() {
        fn check<W: Workload + Clone>(w: W) {
            let (mut fresh, mut appended) = (w.clone(), w);
            for step in 0..20 {
                let want = collect_step(&mut fresh, step);
                let mut out = vec![u32::MAX; 5];
                appended.next_step(step, &mut out);
                assert_eq!((&out[..5], &out[5..]), (&[u32::MAX; 5][..], &want[..]));
            }
        }
        check(FreshRandom::new(1000, 64, 3));
        check(FreshRandom::new(64, 64, 3));
        check(PartialRepeat::new(1000, 64, 0.5, 3));
        check(crate::ZipfDistinct::new(100, 64, 1.1, 3));
        check(RepeatedSet::first_k(50, 3));
        check(PhasedWorkingSets::random(1000, 3, 16, 2, 3));
        check(OnOffBurst::new(100, 80, 10, 3, 2, 3));
    }

    #[test]
    #[should_panic(expected = "working sets exceed universe")]
    fn phased_sets_that_overflow_are_refused() {
        let _ = PhasedWorkingSets::random(10, 1 << 32, 1 << 32, 1, 0);
    }

    #[test]
    fn generators_are_deterministic() {
        let mut a = FreshRandom::new(1000, 16, 42);
        let mut b = FreshRandom::new(1000, 16, 42);
        for step in 0..5 {
            assert_eq!(collect_step(&mut a, step), collect_step(&mut b, step));
        }
    }
}

/// On/off bursty traffic: alternates between a *burst* load and a
/// *trough* load on a fixed cycle — the classic diurnal/batch-job shape.
/// During bursts, `burst_per_step` distinct chunks are requested per
/// step; during troughs, `trough_per_step`. The chunk population is a
/// fixed working set (reappearance pressure persists across the cycle).
#[derive(Debug, Clone)]
pub struct OnOffBurst {
    working_set: Vec<u32>,
    burst_per_step: usize,
    trough_per_step: usize,
    burst_len: u64,
    trough_len: u64,
    rng: Pcg64,
}

impl OnOffBurst {
    /// Creates the generator over working set `0..universe`.
    ///
    /// # Panics
    /// Panics if either per-step count exceeds `universe`, or a cycle
    /// phase has zero length.
    pub fn new(
        universe: u32,
        burst_per_step: usize,
        trough_per_step: usize,
        burst_len: u64,
        trough_len: u64,
        seed: u64,
    ) -> Self {
        assert!(
            burst_per_step <= universe as usize,
            "burst exceeds universe"
        );
        assert!(
            trough_per_step <= universe as usize,
            "trough exceeds universe"
        );
        assert!(
            burst_len > 0 && trough_len > 0,
            "cycle phases must be non-empty"
        );
        Self {
            working_set: (0..universe).collect(),
            burst_per_step,
            trough_per_step,
            burst_len,
            trough_len,
            rng: Pcg64::new(seed, 0xb0b0),
        }
    }

    /// Whether `step` falls in the burst phase of the cycle.
    pub(crate) fn is_burst_step(&self, step: u64) -> bool {
        step % (self.burst_len + self.trough_len) < self.burst_len
    }
}

impl Workload for OnOffBurst {
    fn next_step(&mut self, step: u64, out: &mut Vec<u32>) {
        let k = if self.is_burst_step(step) {
            self.burst_per_step
        } else {
            self.trough_per_step
        };
        sample::partial_shuffle(&mut self.rng, &mut self.working_set, k);
        out.extend_from_slice(&self.working_set[..k]);
    }
}

#[cfg(test)]
mod burst_tests {
    use super::*;

    #[test]
    fn burst_cycle_alternates_sizes() {
        let mut w = OnOffBurst::new(100, 80, 10, 3, 2, 1);
        let mut out = Vec::new();
        for step in 0..10u64 {
            out.clear();
            w.next_step(step, &mut out);
            let expected = if step % 5 < 3 { 80 } else { 10 };
            assert_eq!(out.len(), expected, "step {step}");
            let set: std::collections::BTreeSet<u32> = out.iter().copied().collect();
            assert_eq!(set.len(), out.len(), "step {step} duplicates");
        }
    }

    #[test]
    fn burst_draws_from_working_set() {
        let mut w = OnOffBurst::new(50, 25, 5, 2, 2, 2);
        let mut out = Vec::new();
        for step in 0..8u64 {
            out.clear();
            w.next_step(step, &mut out);
            assert!(out.iter().all(|&c| c < 50));
        }
    }

    #[test]
    #[should_panic(expected = "burst exceeds universe")]
    fn oversized_burst_panics() {
        let _ = OnOffBurst::new(10, 11, 1, 1, 1, 0);
    }
}
