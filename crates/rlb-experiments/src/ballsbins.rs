//! The classical balls-and-bins substrate of §5 (E6, E11, E17).
//!
//! The paper's analysis and lower bounds lean on classical results:
//! Azar et al.'s power of `d` choices, Vöcking's `Ω(log log m)` lower
//! bound for *any* online `d`-choice strategy (Theorem 5.1 reinterprets
//! it as a queue-length lower bound), and Berenbrink et al.'s
//! heavily-loaded gap theorem (used inside Lemma 4.4). A [`Strategy`]
//! draws a ball's candidate bins; the ball goes to the first
//! least-loaded candidate, irrevocably — the same online constraint the
//! paper imposes on request routing:
//!
//! * [`OneChoice`] — d = 1; the classical `Θ(log m / log log m)` max load.
//! * [`GreedyD`] — Azar et al.: `d` uniform choices,
//!   `log log m / log d + Θ(1)` max load.
//! * [`AlwaysGoLeft`] — Vöcking: bins split into `d` groups, one choice
//!   per group, ties broken to the leftmost group; improves the constant
//!   to `log log m / (d·ln φ_d)` and is the strategy whose lower bound
//!   (his Theorem 2) underlies the paper's Theorem 5.1.
//!
//! Three drivers exhibit the phenomena:
//!
//! * [`single_round_max_load`] — throw `k` balls into `m` bins once; the
//!   max load of any online `d`-choice strategy is `Ω(log log m)`.
//! * [`heavily_loaded_gap`] — throw `h·m` balls with 2 choices; the gap
//!   `max load − h` stays `O(log log m)` (Berenbrink et al.), the fact
//!   invoked by Lemma 4.4.
//! * [`batched_gap`] — stale load information. In the paper's model up
//!   to `m` requests arrive *within one step*; a router that only sees
//!   queue states from the start of the step works with stale
//!   information — exactly the *batched* balls-and-bins model
//!   (Berenbrink et al.; Los & Sauerwald, SPAA '23 — the paper's
//!   reference \[21\]): balls arrive in batches of `b`, and the strategy
//!   sees bin loads updated only between batches. The gap degrades
//!   gracefully from `O(log log m)` at `b = 1` toward one-choice
//!   behaviour as `b` grows past `m`.

use rlb_hash::Rng;

/// How a ball draws its candidate bins.
pub(crate) trait Strategy {
    /// Number of candidate bins the strategy draws per ball.
    fn choices(&self) -> usize;

    /// Draws the candidate bins for a fresh ball into `out`
    /// (`out.len() == self.choices()`), given `num_bins` total bins.
    fn draw<R: Rng>(&self, rng: &mut R, num_bins: usize, out: &mut [usize]);
}

/// d = 1: a single uniform choice.
#[derive(Debug)]
pub(crate) struct OneChoice;

impl Strategy for OneChoice {
    fn choices(&self) -> usize {
        1
    }

    fn draw<R: Rng>(&self, rng: &mut R, num_bins: usize, out: &mut [usize]) {
        out[0] = rng.gen_index(num_bins);
    }
}

/// Azar et al.'s greedy: `d` uniform choices.
#[derive(Debug)]
pub(crate) struct GreedyD {
    d: usize,
}

impl GreedyD {
    /// Creates a greedy strategy with `d` choices.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub(crate) fn new(d: usize) -> Self {
        assert!(d > 0, "d must be positive");
        Self { d }
    }
}

impl Strategy for GreedyD {
    fn choices(&self) -> usize {
        self.d
    }

    fn draw<R: Rng>(&self, rng: &mut R, num_bins: usize, out: &mut [usize]) {
        for slot in out.iter_mut() {
            *slot = rng.gen_index(num_bins);
        }
    }
}

/// Vöcking's Always-Go-Left: the bins are partitioned into `d` contiguous
/// groups and each ball draws one uniform candidate *per group*, listed
/// left to right, so [`place`]'s first-minimum rule breaks ties toward
/// the leftmost (lowest-index) group.
#[derive(Debug)]
pub(crate) struct AlwaysGoLeft {
    d: usize,
}

impl AlwaysGoLeft {
    /// Creates an always-go-left strategy with `d` groups.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub(crate) fn new(d: usize) -> Self {
        assert!(d > 0, "d must be positive");
        Self { d }
    }
}

impl Strategy for AlwaysGoLeft {
    fn choices(&self) -> usize {
        self.d
    }

    fn draw<R: Rng>(&self, rng: &mut R, num_bins: usize, out: &mut [usize]) {
        // Group i covers [i*num_bins/d, (i+1)*num_bins/d).
        let d = self.d;
        for (i, slot) in out.iter_mut().enumerate() {
            let lo = (i * num_bins) / d;
            let hi = ((i + 1) * num_bins) / d;
            debug_assert!(hi > lo, "empty group: need num_bins >= d");
            *slot = lo + rng.gen_index(hi - lo);
        }
    }
}

/// The bin a ball with `candidates` goes to under `loads`: the first
/// candidate of least load (a strictly-less walk, left to right).
fn place(candidates: &[usize], loads: &[u32]) -> usize {
    let mut best = candidates[0];
    for &c in &candidates[1..] {
        if loads[c] < loads[best] {
            best = c;
        }
    }
    best
}

/// Throws `k` balls into `m` bins in one round with fresh choices and
/// returns the maximum load.
///
/// # Panics
/// Panics if `m == 0` or the strategy draws more choices than bins.
pub(crate) fn single_round_max_load<S: Strategy, R: Rng>(
    strategy: &S,
    m: usize,
    k: usize,
    rng: &mut R,
) -> u32 {
    assert!(m > 0, "need at least one bin");
    let mut loads = vec![0u32; m];
    let mut cand = vec![0usize; strategy.choices()];
    for _ in 0..k {
        strategy.draw(rng, m, &mut cand);
        let bin = place(&cand, &loads);
        loads[bin] += 1;
    }
    loads.into_iter().max().unwrap_or(0)
}

/// Heavily-loaded regime: throws `h * m` balls (fresh choices each) and
/// returns `max load − h` — the gap that Berenbrink et al. prove is
/// `O(log log m)` for 2-choice greedy, independent of `h`.
pub(crate) fn heavily_loaded_gap<S: Strategy, R: Rng>(
    strategy: &S,
    m: usize,
    h: usize,
    rng: &mut R,
) -> i64 {
    let max = single_round_max_load(strategy, m, h * m, rng);
    max as i64 - h as i64
}

/// Places `balls` balls into `m` bins in batches of `batch`; the
/// strategy sees only the loads as of the last batch boundary. Returns
/// the final gap `max load − balls/m`.
///
/// # Panics
/// Panics if `m == 0` or `batch == 0`.
pub(crate) fn batched_gap<S: Strategy, R: Rng>(
    strategy: &S,
    m: usize,
    balls: usize,
    batch: usize,
    rng: &mut R,
) -> i64 {
    assert!(m > 0, "need at least one bin");
    assert!(batch > 0, "batch must be positive");
    let mut true_loads = vec![0u32; m];
    let mut stale_loads = vec![0u32; m];
    let mut cand = vec![0usize; strategy.choices()];
    let mut since_sync = 0usize;
    for _ in 0..balls {
        strategy.draw(rng, m, &mut cand);
        true_loads[place(&cand, &stale_loads)] += 1;
        since_sync += 1;
        if since_sync == batch {
            stale_loads.copy_from_slice(&true_loads);
            since_sync = 0;
        }
    }
    let max = true_loads.into_iter().max().unwrap_or(0);
    max as i64 - (balls / m) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlb_hash::Pcg64;

    #[test]
    fn one_choice_places_its_candidate() {
        let s = OneChoice;
        assert_eq!(s.choices(), 1);
        assert_eq!(place(&[7], &[0; 10]), 7);
    }

    #[test]
    fn greedy_picks_least_loaded() {
        let loads = [5u32, 2, 9, 2];
        // First minimum wins ties: candidates 3 and 1 both have load 2.
        assert_eq!(place(&[0, 3, 1], &loads), 3);
        assert_eq!(place(&[2, 0], &loads), 0);
    }

    #[test]
    fn always_go_left_draws_one_per_group() {
        let s = AlwaysGoLeft::new(4);
        let mut rng = Pcg64::new(1, 0);
        let mut out = [0usize; 4];
        for _ in 0..100 {
            s.draw(&mut rng, 100, &mut out);
            for (i, &c) in out.iter().enumerate() {
                let lo = (i * 100) / 4;
                let hi = ((i + 1) * 100) / 4;
                assert!(c >= lo && c < hi);
            }
        }
    }

    #[test]
    fn always_go_left_breaks_ties_left() {
        let loads = [3u32, 3, 3, 3];
        // Candidates from group 0 and group 1, equal loads: group 0 wins.
        assert_eq!(place(&[1, 2], &loads), 1);
    }

    #[test]
    fn greedy_draw_is_in_range() {
        let s = GreedyD::new(2);
        let mut rng = Pcg64::new(2, 0);
        let mut out = [0usize; 2];
        for _ in 0..100 {
            s.draw(&mut rng, 17, &mut out);
            assert!(out.iter().all(|&c| c < 17));
        }
    }

    #[test]
    #[should_panic(expected = "d must be positive")]
    fn zero_d_panics() {
        let _ = GreedyD::new(0);
    }

    #[test]
    fn one_choice_single_round_is_loglog_separated_from_greedy() {
        let m = 4096;
        let mut rng = Pcg64::new(1, 0);
        let one: u32 = (0..5)
            .map(|_| single_round_max_load(&OneChoice, m, m, &mut rng))
            .max()
            .unwrap();
        let two: u32 = (0..5)
            .map(|_| single_round_max_load(&GreedyD::new(2), m, m, &mut rng))
            .max()
            .unwrap();
        // Θ(log m / log log m) vs log log m + Θ(1): a clear gap at 4096.
        assert!(one >= two + 2, "one-choice {one} vs two-choice {two}");
        assert!(two <= 6, "two-choice max load {two} too large");
    }

    #[test]
    fn greedy_max_load_grows_very_slowly_with_m() {
        let mut rng = Pcg64::new(2, 0);
        let small = single_round_max_load(&GreedyD::new(2), 1 << 8, 1 << 8, &mut rng);
        let large = single_round_max_load(&GreedyD::new(2), 1 << 15, 1 << 15, &mut rng);
        // log log growth: going from 2^8 to 2^15 should add at most ~2.
        assert!(large <= small + 2, "small {small}, large {large}");
    }

    #[test]
    fn always_go_left_is_no_worse_than_greedy() {
        let m = 1 << 14;
        let mut rng = Pcg64::new(3, 0);
        let agl = single_round_max_load(&AlwaysGoLeft::new(2), m, m, &mut rng);
        let greedy = single_round_max_load(&GreedyD::new(2), m, m, &mut rng);
        assert!(agl <= greedy + 1, "agl {agl} vs greedy {greedy}");
    }

    #[test]
    fn heavily_loaded_gap_is_small_and_h_independent() {
        let m = 512;
        let mut rng = Pcg64::new(4, 0);
        let gap_small_h = heavily_loaded_gap(&GreedyD::new(2), m, 4, &mut rng);
        let gap_large_h = heavily_loaded_gap(&GreedyD::new(2), m, 32, &mut rng);
        assert!((0..=8).contains(&gap_small_h), "gap {gap_small_h}");
        assert!((0..=8).contains(&gap_large_h), "gap {gap_large_h}");
    }

    #[test]
    fn batch_one_matches_sequential_greedy() {
        let m = 1024;
        let mut rng_a = Pcg64::new(1, 0);
        let mut rng_b = Pcg64::new(1, 0);
        let gap = batched_gap(&GreedyD::new(2), m, m, 1, &mut rng_a);
        let max = single_round_max_load(&GreedyD::new(2), m, m, &mut rng_b);
        assert_eq!(gap + 1, max as i64, "balls/m = 1 so gap = max - 1");
    }

    #[test]
    fn staleness_degrades_two_choice() {
        let m = 1024;
        let balls = 16 * m;
        let mut rng = Pcg64::new(2, 0);
        let fresh = batched_gap(&GreedyD::new(2), m, balls, 1, &mut rng);
        let stale: i64 = (0..3)
            .map(|_| batched_gap(&GreedyD::new(2), m, balls, 4 * m, &mut rng))
            .max()
            .unwrap();
        assert!(
            stale > fresh,
            "stale gap {stale} should exceed fresh gap {fresh}"
        );
    }

    #[test]
    fn one_choice_is_indifferent_to_staleness() {
        let m = 512;
        let balls = 8 * m;
        let mut rng = Pcg64::new(3, 0);
        let g1 = batched_gap(&OneChoice, m, balls, 1, &mut rng);
        let mut rng = Pcg64::new(3, 0);
        let g2 = batched_gap(&OneChoice, m, balls, balls, &mut rng);
        // Identical randomness, load-oblivious strategy: same outcome.
        assert_eq!(g1, g2);
    }

    #[test]
    fn huge_batch_approaches_one_choice_scale() {
        let m = 1024;
        let balls = 8 * m;
        let mut rng = Pcg64::new(4, 0);
        // One giant batch: choices are two fresh bins but loads are all
        // zero, so placement is effectively "first candidate" = random.
        let blind = batched_gap(&GreedyD::new(2), m, balls, balls, &mut rng);
        let fresh = batched_gap(&GreedyD::new(2), m, balls, 1, &mut rng);
        assert!(blind >= fresh, "blind {blind} vs fresh {fresh}");
        assert!(blind >= 5, "blind gap {blind} should be one-choice scale");
    }
}
