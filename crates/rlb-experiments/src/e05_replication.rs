//! E5 — the `d = 1` impossibility versus `d ≥ 2`.
//!
//! With no replication, the correlations between time steps are fatal:
//! servers that are oversubscribed at step 1 are oversubscribed at every
//! step, their queues fill, and a **constant fraction** of requests is
//! rejected forever — no matter the queue size (Wang et al., PPoPP '23;
//! §1 of the paper). A single extra choice (`d = 2`) with greedy routing
//! collapses the rejection rate to ≈ 0: the power-of-two-choices
//! phenomenon *does* survive reappearance dependencies (the paper's main
//! positive message).

use crate::common::{self, PolicyKind, Scenario};
use crate::{Check, Findings};
use rlb_core::SimConfig;
use rlb_metrics::table::{fmt_f, fmt_rate, fmt_u};
use rlb_metrics::Table;
use rlb_workloads::RepeatedSet;

/// Runs the experiment.
pub fn run(quick: bool) -> Findings {
    let m = if quick { 512 } else { 2048 };
    let trials = common::trial_count(quick);
    let steps = common::step_count(quick);
    // Tight constant rate so the d = 1 failure is visible: servers
    // receiving more than g chunks of the fixed set saturate.
    let g = 2u32;
    let mut table = Table::new(
        format!("Rejection rate vs replication degree (m = {m}, g = {g}, q = log2(m)+1)"),
        &["d", "reject-rate", "avg-lat", "max-backlog"],
    );
    let ds = [1usize, 2, 3, 4];
    let greedy = [PolicyKind::Greedy];
    let cells = common::grid(&ds, &greedy, trials, steps, move |&d, &policy, i| {
        let q = common::ceil_u32(common::log2(m)) + 1;
        let mut config =
            SimConfig::explicit(m, d, g, q).with_seed(0xe5 + i as u64 * 163 + d as u64 * 7);
        config.safety_check_every = Some(4);
        let workload = RepeatedSet::first_k(common::m32(m), 3 + i as u64);
        Scenario::new(config, policy, workload)
    });
    let mut rates = Vec::new();
    for (d, agg) in ds.into_iter().zip(cells) {
        table.row(vec![
            fmt_u(d as u64),
            fmt_rate(agg.rejection_rate),
            fmt_f(agg.avg_latency, 2),
            fmt_u(agg.max_backlog),
        ]);
        rates.push((d, agg.rejection_rate));
    }
    table.note("same repeated set of m chunks every step; greedy routing for every d");

    let d1 = rates[0].1;
    let d2 = rates[1].1;
    let worst_high_d = rates[1..].iter().map(|&(_, r)| r).fold(0.0f64, f64::max);
    let checks = vec![
        Check::new(
            "d = 1 rejects a constant fraction (Θ(1), not o(1))",
            d1 > 0.01,
            format!("d=1 rate {d1:.4}"),
        ),
        Check::new(
            "d >= 2 rejection collapses to ~0",
            worst_high_d < 1e-3,
            format!("worst rate for d in 2..=4: {worst_high_d:.2e}"),
        ),
        Check::new(
            "the d=1 -> d=2 gap is at least 100x",
            d1 > 100.0 * d2.max(1e-9) || d2 == 0.0,
            format!("d=1 {d1:.4} vs d=2 {d2:.2e}"),
        ),
    ];
    (vec![table], checks)
}
