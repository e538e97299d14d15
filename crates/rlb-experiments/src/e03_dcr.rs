//! E3 — Theorem 4.3: delayed cuckoo routing's guarantees.
//!
//! Setup: `d = 2`, rate `g = 16` split over the four queue classes,
//! per-class capacity `q = 4·⌈log2 log2 m⌉`, the repeated-set adversary
//! at full load (`m` requests/step).
//!
//! Theorem 4.3 predicts rejection rate `O(1/m^c)` (≈ 0 here), maximum
//! latency `O(log log m)`, and expected average latency `O(1)`. The key
//! *shape* versus E1: queue occupancy and max latency scale with
//! `log log m`, not `log m`.

use crate::common::{self, PolicyKind, Scenario};
use crate::{Check, Findings};
use rlb_core::SimConfig;
use rlb_metrics::table::{fmt_f, fmt_rate, fmt_u};
use rlb_metrics::Table;
use rlb_workloads::RepeatedSet;

/// Runs the experiment.
pub fn run(quick: bool) -> Findings {
    let trials = common::trial_count(quick);
    let steps = common::step_count(quick);
    let mut table = Table::new(
        "Delayed cuckoo routing under the repeated-set adversary (d=2, g=16, q=4*loglog m)",
        &[
            "m",
            "q/class",
            "reject-rate",
            "avg-lat",
            "p99-lat",
            "max-lat",
            "peak-backlog",
            "loglog(m)",
        ],
    );
    let ms = common::m_sweep(quick);
    let dcr = [PolicyKind::DelayedCuckoo];
    let cells = common::grid(&ms, &dcr, trials, steps, |&m, &policy, i| {
        let config = SimConfig::dcr_theorem(m, 16, 4).with_seed(0xe3 + i as u64 * 131);
        let workload = RepeatedSet::first_k(common::m32(m), 97 + i as u64);
        Scenario::new(config, policy, workload)
    });
    let mut rows = Vec::new();
    for (m, agg) in ms.into_iter().zip(cells) {
        let q = SimConfig::dcr_theorem(m, 16, 4).queue_capacity;
        table.row(vec![
            fmt_u(m as u64),
            fmt_u(q as u64),
            fmt_rate(agg.rejection_rate),
            fmt_f(agg.avg_latency, 2),
            fmt_u(agg.p99_latency),
            fmt_u(agg.max_latency),
            fmt_u(agg.peak_backlog as u64),
            fmt_f(common::loglog2(m), 2),
        ]);
        rows.push((m, agg));
    }

    table.note("queues are 4 classes (Q, P, Q', P'), each of the listed capacity");

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
    let worst_avg = rows
        .iter()
        .map(|&(_, a)| a.avg_latency)
        .fold(0.0f64, f64::max);
    checks.push(Check::new(
        "average latency is O(1)",
        worst_avg < 4.0,
        format!("worst mean latency {worst_avg:.2}"),
    ));
    let loglog_bounded = rows
        .iter()
        .all(|&(m, a)| (a.max_latency as f64) <= 10.0 * common::loglog2(m).max(1.0));
    checks.push(Check::new(
        "max latency is O(log log m)",
        loglog_bounded,
        rows.iter()
            .map(|&(m, a)| {
                format!(
                    "m={m}: max-lat {} vs loglog {:.1}",
                    a.max_latency,
                    common::loglog2(m)
                )
            })
            .collect::<Vec<_>>()
            .join(", "),
    ));
    // The loglog growth is extremely slow: the within-step peak backlog
    // between the smallest and largest m should differ by at most a
    // small additive constant (whereas a log m quantity would roughly
    // double), and stay within a constant multiple of loglog m.
    if rows.len() >= 2 {
        let first = rows.first().unwrap().1.peak_backlog as i64;
        let last = rows.last().unwrap().1.peak_backlog as i64;
        checks.push(Check::new(
            "within-step peak backlog grows (at most) additively, log log-style",
            last - first <= 4,
            format!("smallest m peak {first}, largest m peak {last}"),
        ));
        checks.push(Check::new(
            "within-step peak backlog is O(log log m)",
            rows.iter()
                .all(|&(m, a)| (a.peak_backlog as f64) <= 3.0 * common::loglog2(m)),
            rows.iter()
                .map(|&(m, a)| {
                    format!(
                        "m={m}: peak {} vs loglog {:.1}",
                        a.peak_backlog,
                        common::loglog2(m)
                    )
                })
                .collect::<Vec<_>>()
                .join(", "),
        ));
    }
    (vec![table], checks)
}
