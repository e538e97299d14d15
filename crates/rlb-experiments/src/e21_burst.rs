//! E21 — extension: queues as burst absorbers.
//!
//! The model's queues exist to smooth transient imbalance. Bursty
//! traffic (on/off cycles between full load and a trough) stresses
//! exactly that role: during a burst the cluster runs at arrival ≈
//! capacity, and the backlog built up must drain during the trough.
//! The experiment sweeps the burst duty cycle at a tight processing rate
//! (`g = 1`, so bursts run *at* criticality) and shows three regimes:
//! (a) with enough trough to drain, rejections stay ≈ 0 and p99 tracks
//! the burst share; (b) at near-saturation duty (8:2) the same hot
//! servers accumulate every cycle — a reappearance ratchet — and the
//! bounded queue sheds a few percent *gracefully* (bounded p99, no
//! collapse); DCR at its theorem constants rides through everything.

use crate::common::{self, PolicyKind, Scenario};
use crate::{Check, Findings};
use rlb_core::SimConfig;
use rlb_metrics::table::{fmt_f, fmt_rate, fmt_u};
use rlb_metrics::Table;
use rlb_workloads::OnOffBurst;

/// Runs the experiment.
pub fn run(quick: bool) -> Findings {
    let m = if quick { 512 } else { 2048 };
    let steps = common::step_count(quick) * 2;
    let g = 1u32;
    // Burst at full load (m requests/step = exactly g = 1 per server on
    // average, i.e. critical during bursts) vs trough at 20%; sweep the
    // burst fraction of the cycle. Cycle-average load per server:
    // (burst_frac * 1.0 + (1 - burst_frac) * 0.2) / g.
    let cycles: Vec<(u64, u64)> = vec![(2, 8), (5, 5), (8, 2)];
    let mut table = Table::new(
        format!("Bursty traffic (m = {m}, g = {g}; burst = m req/step, trough = m/5)"),
        &[
            "burst:trough",
            "avg-load/srv",
            "greedy rej",
            "greedy p99",
            "dcr rej",
            "dcr p99",
        ],
    );
    let mut rows = Vec::new();
    for &(burst, trough) in &cycles {
        let duty = burst as f64 / (burst + trough) as f64;
        let avg_load = (duty * 1.0 + (1.0 - duty) * 0.2) / g as f64;
        let mut row = vec![format!("{burst}:{trough}"), fmt_f(avg_load, 2)];
        let mut cells = Vec::new();
        for policy in [PolicyKind::Greedy, PolicyKind::DelayedCuckoo] {
            let rate = if policy == PolicyKind::DelayedCuckoo {
                8
            } else {
                g
            };
            let config = SimConfig::explicit(m, 2, rate, 40).with_seed(0xe21 + burst);
            let workload = OnOffBurst::new(common::m32(m), m, m / 5, burst, trough, 43 + burst);
            let report = Scenario::new(config, policy, workload).run(steps);
            row.push(fmt_rate(report.rejection_rate));
            row.push(fmt_u(report.p99_latency));
            cells.push((report.rejection_rate, report.p99_latency));
        }
        table.row(row);
        rows.push(((burst, trough), cells));
    }
    table.note("DCR runs at its constant g = 8 (4-way split); greedy at the tight g = 1");

    // Drainable rows: duty cycles whose trough can absorb the burst.
    let drainable_worst = rows[..rows.len() - 1]
        .iter()
        .flat_map(|(_, c)| c.iter().map(|&(r, _)| r))
        .fold(0.0f64, f64::max);
    let saturated = &rows.last().unwrap().1;
    let p99_tracks_duty = {
        let first = rows.first().unwrap().1[0].1;
        let last = rows.last().unwrap().1[0].1;
        last >= first
    };
    let p99_bounded = rows
        .iter()
        .flat_map(|(_, c)| c.iter().map(|&(_, p)| p))
        .all(|p| p <= 40);
    let checks = vec![
        Check::new(
            "drainable duty cycles keep rejection ~0",
            drainable_worst < 5e-3,
            format!("worst rejection on drainable rows {drainable_worst:.2e}"),
        ),
        Check::new(
            "near-saturation duty degrades gracefully: a few % shed, no collapse",
            saturated[0].0 < 0.05 && saturated[1].0 < 5e-3,
            format!(
                "8:2 duty — greedy@g=1 sheds {:.3}; DCR at theorem constants {:.2e}",
                saturated[0].0, saturated[1].0
            ),
        ),
        Check::new(
            "greedy p99 latency grows with burst share (queues absorb the burst)",
            p99_tracks_duty,
            rows.iter()
                .map(|((b, t), c)| format!("{b}:{t} -> p99 {}", c[0].1))
                .collect::<Vec<_>>()
                .join(", "),
        ),
        Check::new(
            "p99 latency stays bounded by the queue scale (no runaway backlog)",
            p99_bounded,
            "p99 <= q = 40 for every configuration".to_string(),
        ),
    ];
    (vec![table], checks)
}
