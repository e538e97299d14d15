//! E1 — Theorem 3.1: the greedy algorithm's guarantees.
//!
//! Setup: `m` servers, replication `d = 4`, rate `g = 8`, queues of
//! `q = ⌈log2 m⌉ + 1`, interleaved drain (the §3 analysis granularity),
//! and the paper's hard workload — the same `m` chunks every step.
//!
//! Theorem 3.1 predicts: rejection rate `O(1/m^{c−1})` (here: essentially
//! zero at simulatable scales), maximum latency `O(log m)` (bounded by
//! the queue size), and expected average latency `O(1)` (independent of
//! `m`).

use crate::common::{self, PolicyKind, Scenario};
use crate::{Check, Findings};
use rlb_core::{DrainMode, SimConfig};
use rlb_metrics::table::{fmt_f, fmt_rate, fmt_u};
use rlb_metrics::Table;
use rlb_workloads::RepeatedSet;

/// Runs the experiment.
pub fn run(quick: bool) -> Findings {
    let mut table = Table::new(
        "Greedy under the repeated-set adversary (q=log2(m)+1)",
        &[
            "m",
            "d",
            "g",
            "q",
            "reject-rate",
            "avg-lat",
            "p99-lat",
            "max-lat",
            "peak-backlog",
            "log2(m)",
        ],
    );
    let trials = common::trial_count(quick);
    let steps = common::step_count(quick);
    // Two parameter points: the theorem's generous constants (d=4, g=8)
    // and a tight rate (d=2, g=2, load factor 1/2) that actually
    // exercises the queues — the guarantees must hold at both.
    let params: Vec<(usize, usize, u32)> = common::m_sweep(quick)
        .into_iter()
        .flat_map(|m| [(m, 4usize, 8u32), (m, 2, 2)])
        .collect();
    let greedy = [PolicyKind::Greedy];
    let cells = common::grid(&params, &greedy, trials, steps, |&(m, d, g), &policy, i| {
        let mut config =
            SimConfig::greedy_theorem(m, d, g, 2.0).with_seed(i as u64 * 7919 + g as u64);
        config.flush_interval = None; // flush cost isolated in E14
        config.drain_mode = DrainMode::Interleaved;
        let workload = RepeatedSet::first_k(common::m32(m), 31 + i as u64);
        Scenario::new(config, policy, workload)
    });
    let mut rows = Vec::new();
    for ((m, d, g), agg) in params.into_iter().zip(cells) {
        let q = common::ceil_u32(common::log2(m)) + 1;
        table.row(vec![
            fmt_u(m as u64),
            fmt_u(d as u64),
            fmt_u(g as u64),
            fmt_u(q as u64),
            fmt_rate(agg.rejection_rate),
            fmt_f(agg.avg_latency, 2),
            fmt_u(agg.p99_latency),
            fmt_u(agg.max_latency),
            fmt_u(agg.peak_backlog as u64),
            fmt_f(common::log2(m), 1),
        ]);
        rows.push((m, agg));
    }
    table.note("workload: the same m chunks requested every step (maximal reappearance)");

    let mut checks = Vec::new();
    let worst_rej = rows
        .iter()
        .map(|&(_, a)| a.rejection_rate)
        .fold(0.0f64, f64::max);
    checks.push(Check::new(
        "rejection rate is O(1/poly m): ~0 at every scale",
        worst_rej < 1e-3,
        format!("worst observed rate {worst_rej:.2e}"),
    ));
    let worst_avg_lat = rows
        .iter()
        .map(|&(_, a)| a.avg_latency)
        .fold(0.0f64, f64::max);
    checks.push(Check::new(
        "average latency is O(1), independent of m",
        worst_avg_lat < 4.0,
        format!("worst mean latency {worst_avg_lat:.2} steps"),
    ));
    let latency_flat = {
        let first = rows.first().map(|&(_, a)| a.avg_latency).unwrap_or(0.0);
        let last = rows.last().map(|&(_, a)| a.avg_latency).unwrap_or(0.0);
        (last - first).abs() < 1.5
    };
    checks.push(Check::new(
        "average latency does not grow with m",
        latency_flat,
        format!(
            "first {:.2}, last {:.2}",
            rows.first().map(|&(_, a)| a.avg_latency).unwrap_or(0.0),
            rows.last().map(|&(_, a)| a.avg_latency).unwrap_or(0.0)
        ),
    ));
    let max_lat_bounded = rows
        .iter()
        .all(|&(m, a)| a.max_latency as f64 <= 2.0 * (common::log2(m) + 1.0));
    checks.push(Check::new(
        "max latency is O(log m) (within 2x of q)",
        max_lat_bounded,
        rows.iter()
            .map(|&(m, a)| format!("m={m}: {}", a.max_latency))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    (vec![table], checks)
}
