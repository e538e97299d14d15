//! E11 — the heavily-loaded gap (Berenbrink et al.), the ingredient of
//! Lemma 4.4.
//!
//! Lemma 4.4's proof invokes the classical fact: placing `h·m` balls
//! into `m` bins by two-choice greedy leaves the fullest bin at
//! `h + O(log log m)` — a gap independent of `h`. One-choice placement,
//! by contrast, has a gap growing like `√(h log m)`. The h-independence
//! is what lets the DCR analysis bound `Q`-queue occupancy phase after
//! phase.

use crate::ballsbins::{heavily_loaded_gap, GreedyD, OneChoice};
use crate::{Check, Findings};
use rlb_hash::Pcg64;
use rlb_metrics::table::{fmt_f, fmt_u};
use rlb_metrics::Table;

/// Runs the experiment.
pub fn run(quick: bool) -> Findings {
    let m = if quick { 512 } else { 1024 };
    let trials = if quick { 3 } else { 9 };
    let hs: Vec<usize> = if quick {
        vec![4, 32]
    } else {
        vec![4, 16, 64, 256]
    };
    let mut table = Table::new(
        format!("Heavily-loaded gap (max load − h) after h·m balls into m = {m} bins"),
        &["h", "greedy-2 gap", "one-choice gap"],
    );
    // Each h is an independent pool job; rows assemble in sweep order.
    let rows = rlb_pool::global().map(hs.clone(), move |&h| {
        let gaps = rlb_pool::global().map_indexed(trials, move |i| {
            let mut rng = Pcg64::new(0xe11 + i as u64, h as u64);
            let g2 = heavily_loaded_gap(&GreedyD::new(2), m, h, &mut rng);
            let g1 = heavily_loaded_gap(&OneChoice, m, h, &mut rng);
            (g2, g1)
        });
        let mean2 = gaps.iter().map(|&(a, _)| a as f64).sum::<f64>() / trials as f64;
        let mean1 = gaps.iter().map(|&(_, b)| b as f64).sum::<f64>() / trials as f64;
        (h, mean2, mean1)
    });
    for &(h, mean2, mean1) in &rows {
        table.row(vec![fmt_u(h as u64), fmt_f(mean2, 2), fmt_f(mean1, 2)]);
    }
    table.note("Berenbrink et al.: two-choice gap is O(log log m), independent of h");

    let first = rows.first().unwrap();
    let last = rows.last().unwrap();
    let checks = vec![
        Check::new(
            "two-choice gap is small and h-independent",
            rows.iter().all(|&(_, g2, _)| g2 <= 8.0) && (last.1 - first.1).abs() <= 3.0,
            format!(
                "gap at h={}: {:.1}; at h={}: {:.1}",
                first.0, first.1, last.0, last.1
            ),
        ),
        Check::new(
            "one-choice gap grows with h",
            last.2 > first.2 * 1.5,
            format!("one-choice gap {:.1} -> {:.1}", first.2, last.2),
        ),
        Check::new(
            "two-choice beats one-choice at every h",
            rows.iter().all(|&(_, g2, g1)| g2 < g1),
            "pointwise along the sweep".to_string(),
        ),
    ];
    (vec![table], checks)
}
