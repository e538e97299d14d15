//! E4 — the queue-size frontier: how small can `q` go?
//!
//! Theorem 3.1 needs `q = Θ(log m)` for greedy; Theorem 4.3 shows
//! delayed cuckoo routing survives with `q = Θ(log log m)`; Theorem 5.1
//! says no policy can go below `Ω(log log m)`. Sweeping `q` at fixed `m`
//! (with `g = 16`, inside both theorems' "sufficiently large constant"
//! regimes) traces each policy's frontier: the smallest queue at which
//! rejection vanishes.
//!
//! A scale honesty note, recorded here and in EXPERIMENTS.md: at
//! simulatable `m`, `log2 m` (10–13) and `4·log2 log2 m` (14–16) are
//! *numerically comparable*, so the asymptotic `log m` vs `log log m`
//! separation between greedy and DCR cannot manifest as a frontier gap —
//! what the experiment can and does show is (a) both load-aware policies
//! operate at `O(log log m)`-scale queues, (b) the load-oblivious
//! baseline needs strictly more, and (c) everything is monotone in `q`.
//! The `Ω(log log m)` *floor* itself is exhibited directly by E6.

use crate::common::{self, PolicyKind, Scenario};
use crate::{Check, Findings};
use rlb_core::SimConfig;
use rlb_metrics::table::{fmt_rate, fmt_u};
use rlb_metrics::Table;
use rlb_workloads::RepeatedSet;

/// Runs the experiment.
pub fn run(quick: bool) -> Findings {
    let m = if quick { 1024 } else { 4096 };
    let trials = common::trial_count(quick);
    let steps = common::step_count(quick);
    let qs: Vec<u32> = if quick {
        vec![1, 2, 3, 4, 6, 8]
    } else {
        vec![1, 2, 3, 4, 6, 8, 12, 16]
    };
    let mut table = Table::new(
        format!("Rejection rate vs queue capacity (m = {m}, d = 2, g = 16, repeated set)"),
        &["q", "greedy", "delayed-cuckoo", "uniform-random"],
    );
    let policies = [
        PolicyKind::Greedy,
        PolicyKind::DelayedCuckoo,
        PolicyKind::UniformRandom,
    ];
    let cells = common::grid(&qs, &policies, trials, steps, move |&q, &policy, i| {
        let mut config = SimConfig::explicit(m, 2, 16, q).with_seed(0xe4 + i as u64 * 151);
        config.safety_check_every = Some(4);
        let workload = RepeatedSet::first_k(common::m32(m), 7 + i as u64);
        Scenario::new(config, policy, workload)
    });
    let mut per_policy: Vec<(PolicyKind, Vec<f64>)> =
        policies.iter().map(|&p| (p, Vec::new())).collect();
    for (&q, cells) in qs.iter().zip(cells.chunks(policies.len())) {
        let mut row = vec![fmt_u(q as u64)];
        for ((_, rates), cell) in per_policy.iter_mut().zip(cells) {
            rates.push(cell.rejection_rate);
            row.push(fmt_rate(cell.rejection_rate));
        }
        table.row(row);
    }
    table.note("DCR interprets q per class (4 classes); greedy/random use one queue of size q");
    table.note("log m vs loglog m cannot separate numerically at this m; see E6 for the floor");

    let threshold = 1e-3;
    let frontier = |rates: &[f64]| {
        qs.iter()
            .zip(rates.iter())
            .find(|&(_, &r)| r < threshold)
            .map(|(&q, _)| q)
    };
    let greedy_q = frontier(&per_policy[0].1);
    let dcr_q = frontier(&per_policy[1].1);
    let random_q = frontier(&per_policy[2].1);
    let loglog_budget = common::ceil_u32(2.0 * common::loglog2(m));

    let checks = vec![
        Check::new(
            "both load-aware policies reach ~0 rejection at O(log log m)-scale queues",
            matches!((greedy_q, dcr_q), (Some(g), Some(d)) if g <= loglog_budget && d <= loglog_budget.max(8)),
            format!(
                "frontier q: greedy {greedy_q:?}, dcr {dcr_q:?}; 2*loglog(m) = {loglog_budget}"
            ),
        ),
        Check::new(
            "load-oblivious random needs at least as much queue as greedy",
            match (random_q, greedy_q) {
                (Some(r), Some(g)) => r >= g,
                (None, Some(_)) => true,
                (None, None) => true,
                _ => false,
            },
            format!("frontier q: random {random_q:?}, greedy {greedy_q:?}"),
        ),
        Check::new(
            "rejection rate is monotone non-increasing in q for every policy",
            per_policy
                .iter()
                .all(|(_, rates)| rates.windows(2).all(|w| w[1] <= w[0] + 1e-3)),
            "checked pointwise along the sweep".to_string(),
        ),
    ];
    (vec![table], checks)
}
