//! E16 — extension: robustness to popularity skew.
//!
//! Production KV workloads are Zipf-skewed (Atikoglu et al., the paper's
//! reference \[2\]). The model's distinct-chunks-per-step constraint caps
//! how much damage skew can do within a step — §2 explains the cap is
//! *necessary* — but across steps the hot chunks reappear constantly,
//! which is exactly the reappearance-dependency regime. This experiment
//! sweeps the Zipf exponent α and verifies the load-aware policies stay
//! flat while the `d = 1` baseline suffers increasingly from the hot
//! set's static placement.

use crate::common::{self, PolicyKind, Scenario};
use crate::{Check, Findings};
use rlb_core::SimConfig;
use rlb_metrics::table::{fmt_f, fmt_rate};
use rlb_metrics::Table;
use rlb_workloads::ZipfDistinct;

/// Runs the experiment.
pub fn run(quick: bool) -> Findings {
    let m = if quick { 256 } else { 1024 };
    let steps = common::step_count(quick);
    let trials = common::trial_count(quick).min(3);
    let g = 2u32;
    let alphas = [0.0f64, 0.5, 0.9, 1.2];
    let policies = [
        PolicyKind::Greedy,
        PolicyKind::DelayedCuckoo,
        PolicyKind::OneChoice,
    ];
    let mut table = Table::new(
        format!("Rejection vs Zipf exponent (m = {m}, g = {g}, full load, universe 4m)"),
        &["alpha", "greedy", "delayed-cuckoo", "one-choice"],
    );
    let cells = common::grid(
        &alphas,
        &policies,
        trials,
        steps,
        move |&alpha, &policy, i| {
            let d = if policy == PolicyKind::OneChoice {
                1
            } else {
                2
            };
            let config = SimConfig::explicit(m, d, g, 12).with_seed(0xe16 + i as u64 * 251);
            let workload = ZipfDistinct::new(4 * m, m, alpha, 61 + i as u64);
            Scenario::new(config, policy, workload)
        },
    );
    let mut grid = Vec::new();
    for (&alpha, cells) in alphas.iter().zip(cells.chunks(policies.len())) {
        let rates: Vec<f64> = cells.iter().map(|cell| cell.rejection_rate).collect();
        let mut row = vec![fmt_f(alpha, 1)];
        row.extend(rates.iter().map(|&rate| fmt_rate(rate)));
        table.row(row);
        grid.push((alpha, rates));
    }
    table.note("hot chunks reappear nearly every step at high alpha: pure reappearance pressure");

    let worst_aware = grid
        .iter()
        .flat_map(|(_, r)| r[..2].iter().copied())
        .fold(0.0f64, f64::max);
    let one_flat = grid.first().unwrap().1[2];
    let one_skewed = grid.last().unwrap().1[2];
    let checks = vec![
        Check::new(
            "load-aware policies stay at ~zero rejection across the entire skew range",
            worst_aware < 5e-3,
            format!("worst greedy/dcr rate {worst_aware:.2e}"),
        ),
        Check::new(
            "d = 1 degrades monotonically as skew grows (hot set = de facto repeated set)",
            grid.windows(2).all(|w| w[1].1[2] >= w[0].1[2] - 1e-3) && one_skewed > 3.0 * one_flat,
            grid.iter()
                .map(|(a, r)| format!("alpha={a}: {:.3}", r[2]))
                .collect::<Vec<_>>()
                .join(", "),
        ),
        Check::new(
            "at high skew, d = 1 is at least 10x worse than the load-aware policies",
            one_skewed > 10.0 * worst_aware.max(1e-4),
            format!("alpha=1.2: one-choice {one_skewed:.3} vs worst aware {worst_aware:.2e}"),
        ),
    ];
    (vec![table], checks)
}
