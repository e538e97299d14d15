//! E17 — extension: the value of within-step information (batched model).
//!
//! The paper's router is *online within a step*: request `i` of a step
//! sees the queues as updated by requests `1..i`. How much is that
//! worth? The batched balls-and-bins model (the paper's reference \[21\],
//! Los & Sauerwald SPAA '23) answers: with loads refreshed only every
//! `b` arrivals, the two-choice gap interpolates from `Θ(log log m)`
//! (b = 1) to one-choice behaviour (b ≫ m). This experiment sweeps the
//! batch size at heavy load and exhibits the interpolation — evidence
//! that the engine's strictly-online routing (the model's requirement)
//! is also the information-optimal point.

use crate::ballsbins::{batched_gap, GreedyD, OneChoice};
use crate::{Check, Findings};
use rlb_hash::Pcg64;
use rlb_metrics::table::{fmt_f, fmt_u};
use rlb_metrics::Table;

/// Runs the experiment.
pub fn run(quick: bool) -> Findings {
    let m = if quick { 512 } else { 2048 };
    let h = 16usize; // heavy load: h*m balls
    let trials = if quick { 3 } else { 9 };
    let batches: Vec<usize> = vec![1, 8, 64, m, 4 * m, 16 * m];
    let mut table = Table::new(
        format!("Two-choice gap vs batch size b (m = {m}, {h}m balls; loads refresh every b)"),
        &["b", "greedy-2 gap", "one-choice gap (ref)"],
    );
    // Each batch size is an independent pool job; rows assemble in
    // sweep order.
    let rows = rlb_pool::global().map(batches.clone(), move |&b| {
        let gaps = rlb_pool::global().map_indexed(trials, move |i| {
            let mut rng = Pcg64::new(0xe17 + i as u64, b as u64);
            let g2 = batched_gap(&GreedyD::new(2), m, h * m, b, &mut rng);
            let g1 = batched_gap(&OneChoice, m, h * m, b, &mut rng);
            (g2, g1)
        });
        let mean2 = gaps.iter().map(|&(a, _)| a as f64).sum::<f64>() / trials as f64;
        let mean1 = gaps.iter().map(|&(_, c)| c as f64).sum::<f64>() / trials as f64;
        (b, mean2, mean1)
    });
    for &(b, mean2, mean1) in &rows {
        table.row(vec![fmt_u(b as u64), fmt_f(mean2, 2), fmt_f(mean1, 2)]);
    }
    table.note("b = 1 is the paper's within-step-online regime; b >= m is step-stale routing");

    let fresh = rows.first().unwrap();
    let stale = rows.last().unwrap();
    let checks = vec![
        Check::new(
            "fresh information (b = 1) keeps the gap at the loglog scale",
            fresh.1 <= 8.0,
            format!("gap {:.1} at b = 1", fresh.1),
        ),
        Check::new(
            "the gap grows monotonically (within noise) as information gets staler",
            rows.windows(2).all(|w| w[1].1 >= w[0].1 - 1.5),
            rows.iter()
                .map(|&(b, g, _)| format!("b={b}: {g:.1}"))
                .collect::<Vec<_>>()
                .join(", "),
        ),
        Check::new(
            "fully stale two-choice approaches one-choice scale",
            stale.1 >= 0.4 * stale.2 && stale.1 > 3.0 * fresh.1,
            format!(
                "b={}: greedy-2 {:.1} vs one-choice {:.1} (fresh greedy-2 {:.1})",
                stale.0, stale.1, stale.2, fresh.1
            ),
        ),
    ];
    (vec![table], checks)
}
