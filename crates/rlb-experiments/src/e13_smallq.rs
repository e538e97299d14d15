//! E13 — ablation: the "g sufficiently large" constant of Theorem 4.3.
//!
//! Delayed cuckoo routing splits the processing rate `g` across four
//! queues; its analysis needs each `P`-queue's drain `g/4` to exceed the
//! `O(1)` per-step arrivals that Lemma 4.2 guarantees (≈ 3 + stash
//! spill), and the carry-over queues to empty within a phase. So the
//! theorem's "`g = O(1)` sufficiently large" is concretely `g ≳ 16`
//! here. This ablation fixes the queue budget at `q = 2⌈loglog m⌉` and
//! sweeps `g`: DCR collapses below the constant while greedy (one queue
//! receiving the full drain) is insensitive — direct evidence that the
//! four-way split plus the table, not raw capacity, is what the theorem
//! trades for `Θ(log log m)` queues.

use crate::common::{self, PolicyKind, Scenario};
use crate::{Check, Findings};
use rlb_core::SimConfig;
use rlb_metrics::table::{fmt_rate, fmt_u};
use rlb_metrics::Table;
use rlb_workloads::RepeatedSet;

/// Runs the experiment.
pub fn run(quick: bool) -> Findings {
    let m = if quick { 512 } else { 2048 };
    let trials = common::trial_count(quick).min(3);
    let steps = common::step_count(quick);
    let q = common::ceil_u32(2.0 * common::loglog2(m));
    let variants: Vec<(PolicyKind, u32)> = vec![
        (PolicyKind::DelayedCuckoo, 16),
        (PolicyKind::DelayedCuckoo, 8),
        (PolicyKind::DelayedCuckoo, 4),
        (PolicyKind::Greedy, 16),
        (PolicyKind::Greedy, 4),
    ];
    let mut table = Table::new(
        format!("Rejection vs processing rate at fixed small queues (m = {m}, q = {q})"),
        &["policy", "g", "reject-rate", "max-backlog"],
    );
    let cells = common::grid(
        &variants,
        &[()],
        trials,
        steps,
        move |&(policy, g), _, i| {
            let config =
                SimConfig::explicit(m, 2, g, q).with_seed(0xe13 + i as u64 * 211 + g as u64);
            let workload = RepeatedSet::first_k(common::m32(m), 41 + i as u64);
            Scenario::new(config, policy, workload)
        },
    );
    let mut rates = Vec::new();
    for (&(policy, g), agg) in variants.iter().zip(cells) {
        table.row(vec![
            policy.name().to_string(),
            fmt_u(g as u64),
            fmt_rate(agg.rejection_rate),
            fmt_u(agg.max_backlog),
        ]);
        rates.push(((policy, g), agg.rejection_rate));
    }
    table.note("DCR drains g/4 per class; below the Lemma 4.2 constant (~3/step) it degrades");

    let rate_of = |p: PolicyKind, g: u32| {
        rates
            .iter()
            .find(|&&((pp, gg), _)| pp == p && gg == g)
            .map(|&(_, r)| r)
            .unwrap()
    };
    let dcr16 = rate_of(PolicyKind::DelayedCuckoo, 16);
    let dcr4 = rate_of(PolicyKind::DelayedCuckoo, 4);
    let greedy16 = rate_of(PolicyKind::Greedy, 16);
    let greedy4 = rate_of(PolicyKind::Greedy, 4);
    let checks = vec![
        Check::new(
            "in the theorem regime (g = 16), DCR sustains ~zero rejection at loglog queues",
            dcr16 < 5e-3,
            format!("dcr@g=16 rate {dcr16:.2e}"),
        ),
        Check::new(
            "below the constant (g = 4), DCR degrades by orders of magnitude",
            dcr4 > 10.0 * dcr16.max(1e-5),
            format!("dcr@g=4 {dcr4:.2e} vs dcr@g=16 {dcr16:.2e}"),
        ),
        Check::new(
            "greedy (single queue, full drain) is insensitive over the same g range",
            greedy16 < 5e-3 && greedy4 < 5e-3,
            format!("greedy@16 {greedy16:.2e}, greedy@4 {greedy4:.2e}"),
        ),
    ];
    (vec![table], checks)
}
