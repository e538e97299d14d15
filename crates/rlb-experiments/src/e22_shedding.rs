//! E22 — the third knob: the latency/throughput trade of voluntary
//! rejection.
//!
//! §2 allows a server to reject even when its queue has room; the paper
//! uses that freedom for its periodic reset, and real systems use it for
//! latency flooring. Sweeping the shedding threshold `t` at a tight rate
//! traces the whole trade in one table: max latency is capped at `≈ t`
//! server-steps while the rejection rate rises as `t` shrinks — with
//! plain greedy (`t = q`) as the throughput-optimal endpoint.

use crate::common::{self, PolicyKind, Scenario};
use crate::{Check, Findings};
use rlb_core::policies::GreedyShedding;
use rlb_core::{RunReport, SimConfig, Simulation};
use rlb_metrics::table::{fmt_f, fmt_rate, fmt_u};
use rlb_metrics::Table;
use rlb_workloads::OnOffBurst;

/// Runs the experiment.
pub fn run(quick: bool) -> Findings {
    let m = if quick { 512 } else { 2048 };
    let steps = common::step_count(quick) * 2;
    let q = 16u32;
    // Bursty traffic at a tight rate: queues actually fill, so the
    // threshold has something to cut.
    let make_workload = || OnOffBurst::new(common::m32(m), m, m / 4, 4, 4, 51);
    let thresholds: Vec<u32> = vec![2, 4, 8, 16];
    let mut table = Table::new(
        format!("Shedding threshold trade (m = {m}, g = 1, q = {q}, 4:4 bursty traffic)"),
        &["threshold", "reject-rate", "avg-lat", "p99-lat", "max-lat"],
    );
    let mut rows: Vec<(u32, RunReport)> = Vec::new();
    for &t in &thresholds {
        let config = SimConfig::explicit(m, 2, 1, q).with_seed(0xe22);
        let mut workload = make_workload();
        let report = if t >= q {
            // t = q is exactly plain greedy.
            Scenario::new(config, PolicyKind::Greedy, workload).run(steps)
        } else {
            let mut sim = Simulation::new(config, GreedyShedding::new(t));
            sim.run(&mut workload, steps);
            common::conserved(sim.finish())
        };
        table.row(vec![
            if t >= q {
                format!("{t} (= q, plain greedy)")
            } else {
                t.to_string()
            },
            fmt_rate(report.rejection_rate),
            fmt_f(report.avg_latency, 2),
            fmt_u(report.p99_latency),
            fmt_u(report.max_latency),
        ]);
        rows.push((t, report));
    }
    table.note("the third knob of §2: rejecting early caps accepted-request latency");

    let max_lat_capped = rows.iter().all(|(t, r)| r.max_latency <= *t as u64 + 1);
    let rejection_monotone = rows
        .windows(2)
        .all(|w| w[1].1.rejection_rate <= w[0].1.rejection_rate + 1e-4);
    let latency_monotone = rows
        .windows(2)
        .all(|w| w[1].1.p99_latency >= w[0].1.p99_latency);
    let trade_is_real = {
        let tight = &rows.first().unwrap().1;
        let loose = &rows.last().unwrap().1;
        tight.max_latency < loose.max_latency && tight.rejection_rate > loose.rejection_rate
    };
    let checks = vec![
        Check::new(
            "max latency of accepted requests is capped by the threshold",
            max_lat_capped,
            rows.iter()
                .map(|(t, r)| format!("t={t}: max-lat {}", r.max_latency))
                .collect::<Vec<_>>()
                .join(", "),
        ),
        Check::new(
            "rejection rate is monotone non-increasing in the threshold",
            rejection_monotone,
            rows.iter()
                .map(|(t, r)| format!("t={t}: {:.2e}", r.rejection_rate))
                .collect::<Vec<_>>()
                .join(", "),
        ),
        Check::new(
            "tail latency is monotone non-decreasing in the threshold",
            latency_monotone,
            "p99 rises as the threshold loosens".to_string(),
        ),
        Check::new(
            "the trade is real: tightest threshold buys latency with throughput",
            trade_is_real,
            format!(
                "t=2: max-lat {} rej {:.2e}; t=q: max-lat {} rej {:.2e}",
                rows.first().unwrap().1.max_latency,
                rows.first().unwrap().1.rejection_rate,
                rows.last().unwrap().1.max_latency,
                rows.last().unwrap().1.rejection_rate
            ),
        ),
    ];
    (vec![table], checks)
}
