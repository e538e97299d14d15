//! E14 — ablation: the greedy flush interval.
//!
//! Theorem 3.1's proof flushes all queues every `m^c` steps so that a
//! low-probability departure from the safe distribution cannot poison
//! the system forever — the flush *costs* `O(m)` rejected requests but
//! buys a clean restart. This experiment measures both sides of the
//! trade: the flush's own rejection contribution (which should scale
//! like `mean_backlog / interval`) and the routing rejection rate, as a
//! function of the interval.

use crate::common::{self, PolicyKind, Scenario};
use crate::{Check, Findings};
use rlb_core::{RunReport, SimConfig};
use rlb_metrics::table::{fmt_f, fmt_rate};
use rlb_metrics::Table;
use rlb_workloads::RepeatedSet;

fn run_one(m: usize, interval: Option<u64>, steps: u64, seed: u64) -> RunReport {
    // A tight rate (d = 2, g = 1, load factor 3/4) keeps standing
    // backlogs in the queues, so the flush has something to drop — at
    // the theorem's generous constants the queues are empty at flush
    // time and the flush cost is exactly zero (an even stronger
    // statement, but a vacuous table). Full load with g = 1 would be
    // critical and conflate flush drops with overflow rejections.
    let q = common::ceil_u32(common::log2(m)) + 1;
    let mut config = SimConfig::explicit(m, 2, 1, q).with_seed(seed);
    config.flush_interval = interval;
    config.safety_check_every = Some(4);
    let workload = RepeatedSet::first_k(common::m32(3 * m / 4), seed ^ 0x5a);
    Scenario::new(config, PolicyKind::Greedy, workload).run(steps)
}

/// Runs the experiment.
pub fn run(quick: bool) -> Findings {
    let m = if quick { 512 } else { 2048 };
    let steps = if quick { 120 } else { 400 };
    let intervals: Vec<Option<u64>> = vec![Some(20), Some(50), Some(100), None];
    let mut table = Table::new(
        format!("Greedy flush-interval ablation (m = {m}, {steps} steps, repeated set)"),
        &[
            "interval",
            "flush-rate",
            "routing-rate",
            "total-rate",
            "pred. flush-rate",
        ],
    );
    let mut rows = Vec::new();
    for &interval in &intervals {
        let report = run_one(m, interval, steps, 0xe14);
        let flush_rate = report.rejected_flush as f64 / report.arrived as f64;
        let routing_rate =
            (report.rejected_total - report.rejected_flush) as f64 / report.arrived as f64;
        // Each flush drops ~mean_backlog per server; per-interval arrivals
        // are interval * m requests.
        let predicted = interval
            .map(|iv| report.mean_backlog / iv as f64)
            .unwrap_or(0.0);
        table.row(vec![
            interval
                .map(|i| i.to_string())
                .unwrap_or_else(|| "never".into()),
            fmt_rate(flush_rate),
            fmt_rate(routing_rate),
            fmt_rate(report.rejection_rate),
            fmt_f(predicted, 4),
        ]);
        rows.push((interval, flush_rate, routing_rate, predicted));
    }
    table.note("flush cost ~ mean_backlog/interval: the m^c interval of Thm 3.1 makes it 1/poly m");

    let flush_decreasing = rows.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-6);
    let prediction_close = rows
        .iter()
        .filter(|r| r.0.is_some())
        .all(|&(_, actual, _, pred)| actual <= pred * 3.0 + 1e-4 && pred <= actual * 3.0 + 1e-4);
    // The reset role of the flush (per the Theorem 3.1 proof): slow tail
    // accumulations on unlucky servers eventually overflow their queues;
    // flushing often enough clears them before they overflow, so the
    // routing-time (overflow) rejection rate *increases* with the flush
    // interval and is ~0 at the shortest one.
    let routing_monotone = rows.windows(2).all(|w| w[1].2 >= w[0].2 - 1e-4);
    let short_interval_clean = rows.first().map(|&(_, _, r, _)| r).unwrap_or(1.0) < 1e-3;
    let checks = vec![
        Check::new(
            "flush cost decreases as the interval grows (1/interval scaling)",
            flush_decreasing,
            rows.iter()
                .map(|&(i, f, _, _)| format!("{i:?}: {f:.2e}"))
                .collect::<Vec<_>>()
                .join(", "),
        ),
        Check::new(
            "flush cost matches the mean_backlog/interval prediction (x3)",
            prediction_close,
            "predicted vs measured within 3x for every finite interval".to_string(),
        ),
        Check::new(
            "flushes contain tail accumulation: overflow rejections grow with the interval",
            routing_monotone && short_interval_clean,
            rows.iter()
                .map(|&(i, _, r, _)| format!("{i:?}: routing {r:.2e}"))
                .collect::<Vec<_>>()
                .join(", "),
        ),
    ];
    (vec![table], checks)
}
