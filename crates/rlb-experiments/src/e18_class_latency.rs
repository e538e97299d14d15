//! E18 — the internal anatomy of delayed cuckoo routing (Prop. 4.9).
//!
//! Proposition 4.9's proof splits DCR's latency by queue: `Q`-routed
//! requests inherit the greedy O(1) argument; `P`-routed requests have
//! `Pr[latency ≥ k] ≤ e^{-Ω(k)}` via Lemma 4.8; the carry queues
//! `Q'`, `P'` drain deterministically within a phase. The per-class
//! latency histograms recorded by the engine let us look at each part of
//! that argument directly.

use crate::common::{self, PolicyKind, Scenario};
use crate::{Check, Findings};
use rlb_core::policies::DelayedCuckoo;
use rlb_core::SimConfig;
use rlb_metrics::table::{fmt_f, fmt_u};
use rlb_metrics::Table;
use rlb_workloads::RepeatedSet;

const CLASS_NAMES: [&str; 4] = ["Q", "P", "Q'", "P'"];

/// Runs the experiment.
pub fn run(quick: bool) -> Findings {
    let m = if quick { 512 } else { 2048 };
    let steps = common::step_count(quick);
    // Tight-but-valid DCR: g = 16 keeps the theorem constants; the
    // repeated set routes almost everything through P after each phase's
    // first step.
    let phase_len = DelayedCuckoo::default_phase_length(m);
    let mut table = Table::new(
        format!("DCR latency by queue class (m = {m}, repeated set, phase = {phase_len})"),
        &[
            "g",
            "class",
            "completed",
            "share",
            "avg-lat",
            "p99-lat",
            "max-lat",
        ],
    );
    // g = 16 is the theorem regime; g = 8 halves the per-class drain so
    // queues actually hold requests and the carry classes see traffic.
    let mut per_class: Vec<(usize, u64, f64, u64, u64)> = Vec::new();
    for g in [16u32, 8] {
        let config = SimConfig::dcr_theorem(m, g, 4).with_seed(0xe18 + g as u64);
        let workload = RepeatedSet::first_k(common::m32(m), 29);
        let report = Scenario::new(config, PolicyKind::DelayedCuckoo, workload).run(steps);
        for (c, hist) in report.latency_by_class.iter().enumerate() {
            let count = hist.count();
            table.row(vec![
                fmt_u(g as u64),
                CLASS_NAMES.get(c).copied().unwrap_or("?").to_string(),
                fmt_u(count),
                fmt_f(count as f64 / report.completed.max(1) as f64, 3),
                fmt_f(hist.mean().unwrap_or(0.0), 2),
                fmt_u(hist.quantile(0.99).unwrap_or(0)),
                fmt_u(hist.max().unwrap_or(0)),
            ]);
            if g == 16 {
                per_class.push((
                    c,
                    count,
                    hist.mean().unwrap_or(0.0),
                    hist.quantile(0.99).unwrap_or(0),
                    hist.max().unwrap_or(0),
                ));
            }
        }
    }
    table.note(
        "Q = first access (two-choice greedy); P = table-routed repeats; Q'/P' = phase carry",
    );

    let total: u64 = per_class.iter().map(|&(_, n, _, _, _)| n).sum();
    let p_share = per_class
        .get(1)
        .map(|&(_, n, _, _, _)| n as f64 / total.max(1) as f64)
        .unwrap_or(0.0);
    let q_avg = per_class.first().map(|&(_, _, a, _, _)| a).unwrap_or(0.0);
    let p_avg = per_class.get(1).map(|&(_, _, a, _, _)| a).unwrap_or(0.0);
    let carry_max = per_class
        .iter()
        .skip(2)
        .map(|&(_, _, _, _, mx)| mx)
        .max()
        .unwrap_or(0);
    let checks = vec![
        Check::new(
            "the repeated-set workload is dominated by P-routed (table) traffic",
            p_share > 0.5,
            format!("P share {p_share:.2} of {total} completions"),
        ),
        Check::new(
            "Q and P latencies are both O(1) on average (Prop. 4.9 structure)",
            q_avg < 3.0 && p_avg < 3.0,
            format!("Q avg {q_avg:.2}, P avg {p_avg:.2}"),
        ),
        Check::new(
            "carry-queue residents complete within one extra phase",
            carry_max <= 2 * phase_len + 2,
            format!("carry max latency {carry_max} vs phase {phase_len}"),
        ),
    ];
    (vec![table], checks)
}
