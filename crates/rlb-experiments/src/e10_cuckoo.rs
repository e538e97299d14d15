//! E10 — Theorem 4.1 / Lemma 4.2: the cuckoo-hashing substrate.
//!
//! Three measurements on the substrate the paper's §4 stands on:
//!
//! 1. **Stash tail** (Theorem 4.1): place `m/3` random two-choice items;
//!    the optimal stash size is almost always 0, and `Pr[stash > s]`
//!    falls off sharply in `s` and in `m`.
//! 2. **Tripartite assignment** (Lemma 4.2): assign `m` requests to `m`
//!    servers via the three-way split; every server receives `O(1)` —
//!    concretely at most 3 plus stash spill.
//! 3. **Allocator cross-check**: the classical random-walk heuristic
//!    ([`RandomWalkAllocator`], kept here as the comparison) never beats
//!    the exact (peeling) solver's stash; the solver's own tests pin it
//!    to the graph-theoretic optimum.

use crate::common;
use crate::{Check, Findings};
use rlb_cuckoo::offline::{validate_assignment, STASHED};
use rlb_cuckoo::{Choices, RoutingTable, TableBuilder};
use rlb_hash::{Pcg64, Rng};
use rlb_metrics::table::{fmt_f, fmt_rate, fmt_u};
use rlb_metrics::Table;

fn random_items(m: usize, k: usize, rng: &mut Pcg64) -> Vec<Choices> {
    (0..k)
        .map(|_| Choices::new(common::m32(rng.gen_index(m)), common::m32(rng.gen_index(m))))
        .collect()
}

/// The exact solver's stash size for `items`, its slots checked.
fn exact_stash(m: usize, items: &[Choices]) -> usize {
    let mut slots = vec![0; items.len()];
    let stashed = TableBuilder::new().solve(m, items, &mut slots);
    validate_assignment(m, items, &slots).expect("exact assignment invalid");
    stashed
}

fn stash_len(slots: &[u32]) -> usize {
    slots.iter().filter(|&&s| s == STASHED).count()
}

/// Classical random-walk cuckoo insertion with a kick budget.
///
/// Simpler and cache-friendly, but only approximately optimal: it may
/// stash items the exact solver would place. `max_kicks` of
/// `Θ(log n)` is the standard choice.
pub(crate) struct RandomWalkAllocator {
    max_kicks: usize,
}

impl RandomWalkAllocator {
    /// Creates an allocator with the given kick budget per insertion.
    pub(crate) fn new(max_kicks: usize) -> Self {
        Self { max_kicks }
    }

    /// Assigns `items` into `num_positions` positions, in the exact
    /// solver's output form: item `j`'s position, or [`STASHED`] for an
    /// insertion over budget.
    pub(crate) fn assign<R: Rng>(
        &self,
        num_positions: usize,
        items: &[Choices],
        rng: &mut R,
    ) -> Vec<u32> {
        assert!(num_positions > 0, "need at least one position");
        let mut slot: Vec<Option<u32>> = vec![None; num_positions];
        let mut slot_of = vec![STASHED; items.len()];
        for (idx, &choice) in items.iter().enumerate() {
            let mut item = common::m32(idx);
            // Start at a random candidate.
            let mut pos = if rng.gen_bool(0.5) {
                choice.h1
            } else {
                choice.h2
            };
            for _ in 0..=self.max_kicks {
                slot_of[item as usize] = pos;
                // Evict any occupant and send it to its other slot.
                let Some(victim) = slot[pos as usize].replace(item) else {
                    break;
                };
                slot_of[victim as usize] = STASHED;
                item = victim;
                pos = items[victim as usize].other(pos);
            }
        }
        slot_of
    }
}

/// Runs the experiment.
pub fn run(quick: bool) -> Findings {
    let trials = if quick { 60 } else { 400 };
    let ms: Vec<usize> = if quick {
        vec![512, 2048]
    } else {
        vec![256, 1024, 4096, 16384]
    };

    // Part 1: stash-size tail at load m/3.
    let mut stash_table = Table::new(
        "Optimal stash size for m/3 random items into m positions (Theorem 4.1 regime)",
        &["m", "P[stash>0]", "P[stash>1]", "P[stash>2]", "max-stash"],
    );
    let mut tail_rows = Vec::new();
    for &m in &ms {
        let stashes = rlb_pool::global().map_indexed(trials, move |i| {
            let mut rng = Pcg64::new(0xe10 + i as u64, m as u64);
            let items = random_items(m, m / 3, &mut rng);
            exact_stash(m, &items)
        });
        let frac = |s: usize| stashes.iter().filter(|&&x| x > s).count() as f64 / trials as f64;
        let max = stashes.iter().copied().max().unwrap_or(0);
        stash_table.row(vec![
            fmt_u(m as u64),
            fmt_rate(frac(0)),
            fmt_rate(frac(1)),
            fmt_rate(frac(2)),
            fmt_u(max as u64),
        ]);
        tail_rows.push((m, frac(0), frac(2), max));
    }

    // Part 2: tripartite per-server load at full load k = m.
    let mut tri_table = Table::new(
        "Lemma 4.2 tripartite assignment of m requests to m servers",
        &[
            "m",
            "mean max/server",
            "worst max/server",
            "fail-rate",
            "mean stash",
        ],
    );
    let mut tri_rows = Vec::new();
    for &m in &ms {
        let outcomes = rlb_pool::global().map_indexed(trials, move |i| {
            let mut rng = Pcg64::new(0x10e + i as u64, m as u64);
            let items = random_items(m, m, &mut rng);
            let t = RoutingTable::build(m, &items);
            (t.max_per_server(), t.failed(), t.total_stash())
        });
        let mean_max = outcomes.iter().map(|&(x, _, _)| x as f64).sum::<f64>() / trials as f64;
        let worst = outcomes.iter().map(|&(x, _, _)| x).max().unwrap_or(0);
        let fails = outcomes.iter().filter(|&&(_, f, _)| f).count() as f64 / trials as f64;
        let mean_stash = outcomes.iter().map(|&(_, _, s)| s as f64).sum::<f64>() / trials as f64;
        tri_table.row(vec![
            fmt_u(m as u64),
            fmt_f(mean_max, 2),
            fmt_u(worst as u64),
            fmt_rate(fails),
            fmt_f(mean_stash, 3),
        ]);
        tri_rows.push((m, worst, fails));
    }
    tri_table.note("Lemma 4.2: every server receives O(1) — at most 3 placed + stash spill");

    // Part 3: allocator cross-check at a hot load (0.45 m).
    let m = 4096;
    let cross = rlb_pool::global().map_indexed(trials.min(100), move |i| {
        let mut rng = Pcg64::new(0xc4 + i as u64, 3);
        let items = random_items(m, (m as f64 * 0.45) as usize, &mut rng);
        let exact = exact_stash(m, &items);
        let rw = RandomWalkAllocator::new(128).assign(m, &items, &mut rng);
        validate_assignment(m, &items, &rw).expect("random-walk assignment invalid");
        (exact, stash_len(&rw))
    });
    let rw_never_better = cross.iter().all(|&(e, r)| r >= e);
    let mut cross_table = Table::new(
        format!("Exact vs random-walk allocator at load 0.45m (m = {m})"),
        &["allocator", "mean stash", "max stash"],
    );
    for (name, idx) in [("exact (peeling)", 0usize), ("random-walk", 1usize)] {
        let vals: Vec<usize> = cross
            .iter()
            .map(|t| if idx == 0 { t.0 } else { t.1 })
            .collect();
        cross_table.row(vec![
            name.to_string(),
            fmt_f(vals.iter().sum::<usize>() as f64 / vals.len() as f64, 3),
            fmt_u(*vals.iter().max().unwrap() as u64),
        ]);
    }

    // Part 4: the 0.5 orientability threshold. The optimal stash is a
    // vanishing fraction of m below 1/2 and a constant fraction above —
    // the combinatorial cliff behind Theorem 4.1's m/3 choice.
    let m_th = if quick { 4096 } else { 16384 };
    let loads = [0.30f64, 0.45, 0.50, 0.55, 0.70, 1.00];
    let mut threshold_table = Table::new(
        format!("Optimal stash fraction vs load (m = {m_th}): the 1/2 threshold"),
        &["load", "stash/m"],
    );
    let mut stash_fracs = Vec::new();
    for &load in &loads {
        let mut rng = Pcg64::new(0x7507, (load * 100.0) as u64);
        let k = (m_th as f64 * load) as usize;
        let items = random_items(m_th, k, &mut rng);
        let frac = exact_stash(m_th, &items) as f64 / m_th as f64;
        threshold_table.row(vec![fmt_f(load, 2), fmt_rate(frac)]);
        stash_fracs.push((load, frac));
    }
    threshold_table.note("below 0.5 the cuckoo graph is orientable whp; above, excess is Θ(m)");

    let checks = vec![
        Check::new(
            "the orientability threshold sits at load 1/2",
            stash_fracs
                .iter()
                .filter(|&&(l, _)| l <= 0.5)
                .all(|&(_, f)| f < 0.005)
                && stash_fracs
                    .iter()
                    .filter(|&&(l, _)| l >= 0.7)
                    .all(|&(_, f)| f > 0.01),
            stash_fracs
                .iter()
                .map(|&(l, f)| format!("{l}: {f:.4}"))
                .collect::<Vec<_>>()
                .join(", "),
        ),
        Check::new(
            "stash is almost always empty at load m/3, and tail sharpens with m",
            tail_rows.iter().all(|&(_, p0, _, _)| p0 < 0.2)
                && tail_rows.last().unwrap().1 <= tail_rows.first().unwrap().1 + 0.02,
            tail_rows
                .iter()
                .map(|&(m, p0, _, _)| format!("m={m}: P[stash>0]={p0:.3}"))
                .collect::<Vec<_>>()
                .join(", "),
        ),
        Check::new(
            "P[stash > 2] is zero across the sample (poly decay in s)",
            tail_rows.iter().all(|&(_, _, p2, _)| p2 == 0.0),
            "no trial needed a stash larger than 2".to_string(),
        ),
        Check::new(
            "Lemma 4.2: per-server load is O(1) — never above 4 in any trial",
            tri_rows.iter().all(|&(_, worst, _)| worst <= 4),
            tri_rows
                .iter()
                .map(|&(m, w, _)| format!("m={m}: worst {w}"))
                .collect::<Vec<_>>()
                .join(", "),
        ),
        Check::new(
            "Lemma 4.2 failure events are rare and vanish with m",
            tri_rows.last().unwrap().2 == 0.0,
            format!("largest-m failure rate {}", tri_rows.last().unwrap().2),
        ),
        Check::new(
            "random-walk allocator never beats the exact optimum",
            rw_never_better,
            "stash(random-walk) >= stash(exact) in every trial".to_string(),
        ),
    ];
    (
        vec![stash_table, tri_table, cross_table, threshold_table],
        checks,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Below capacity: always valid, never a smaller stash than the
    /// exact solver's (which its own tests pin to the optimum).
    #[test]
    fn random_walk_is_valid_and_no_better_than_exact() {
        let mut rng = Pcg64::new(3, 0);
        for trial in 0..50 {
            let n = 4 + rng.gen_index(40);
            let k = rng.gen_index(n);
            let items = random_items(n, k, &mut rng);
            let rw = RandomWalkAllocator::new(64).assign(n, &items, &mut rng);
            validate_assignment(n, &items, &rw).unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            assert!(stash_len(&rw) >= exact_stash(n, &items), "trial {trial}");
        }
    }

    /// Arbitrary multigraphs and kick budgets: valid and dominated.
    #[test]
    fn random_walk_is_valid_and_dominated() {
        for case in 0..128 {
            let mut case_r = Pcg64::new(0x636b6f6f ^ (2 << 32) ^ case, 2);
            let n = 1 + case_r.gen_index(79);
            let num_edges = case_r.gen_index(120);
            let items: Vec<Choices> = (0..num_edges)
                .map(|_| {
                    let a = case_r.next_u64() as u32;
                    let b = case_r.next_u64() as u32;
                    Choices::new(a % n as u32, b % n as u32)
                })
                .collect();
            let seed = case_r.next_u64();
            let kicks = 1 + case_r.gen_index(63);
            let mut rng = Pcg64::new(seed, 0);
            let rw = RandomWalkAllocator::new(kicks).assign(n, &items, &mut rng);
            assert!(validate_assignment(n, &items, &rw).is_ok(), "case {case}");
            assert!(stash_len(&rw) >= exact_stash(n, &items), "case {case}");
        }
    }

    /// The same seed gives the same assignment.
    #[test]
    fn random_walk_deterministic_in_seed() {
        let m = 64;
        let items = random_items(m, 40, &mut Pcg64::new(9, 9));
        let run = || RandomWalkAllocator::new(32).assign(m, &items, &mut Pcg64::new(1, 2));
        assert_eq!(run(), run());
    }
}
