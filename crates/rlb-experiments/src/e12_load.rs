//! E12 — the load/throughput frontier across policies.
//!
//! How does each policy's rejection rate respond to offered load
//! `ρ·m` requests/step (half-repeated workload)? The theory predicts the
//! ordering greedy ≈ delayed-cuckoo ≪ round-robin / uniform-random ≪
//! one-choice near saturation, with crossovers only at low load where
//! everything is trivially fine.

use crate::common::{self, PolicyKind, Scenario};
use crate::{Check, Findings};
use rlb_core::SimConfig;
use rlb_metrics::table::{fmt_f, fmt_rate};
use rlb_metrics::Table;
use rlb_workloads::PartialRepeat;

/// Runs the experiment.
pub fn run(quick: bool) -> Findings {
    let m = if quick { 512 } else { 2048 };
    let trials = common::trial_count(quick).min(3);
    let steps = common::step_count(quick);
    let g = 2u32;
    let rhos: Vec<f64> = if quick {
        vec![0.8, 1.0]
    } else {
        vec![0.5, 0.7, 0.8, 0.9, 1.0]
    };
    let policies = [
        PolicyKind::Greedy,
        PolicyKind::DelayedCuckoo,
        PolicyKind::RoundRobin,
        PolicyKind::UniformRandom,
        PolicyKind::OneChoice,
    ];
    let mut table = Table::new(
        format!("Rejection rate vs offered load rho*m (m = {m}, g = {g}, half-repeat workload)"),
        &[
            "rho",
            "greedy",
            "delayed-cuckoo",
            "round-robin",
            "uniform-random",
            "one-choice",
        ],
    );
    let cells = common::grid(&rhos, &policies, trials, steps, move |&rho, &policy, i| {
        let per_step = ((m as f64) * rho) as usize;
        let q = common::ceil_u32(common::log2(m)) + 1;
        let config = SimConfig::explicit(m, 2, g, q).with_seed(0xe12 + i as u64 * 191);
        let workload = PartialRepeat::new(4 * m as u64, per_step, 0.5, 23 + i as u64);
        Scenario::new(config, policy, workload)
    });
    let mut grid: Vec<Vec<f64>> = Vec::new();
    for (&rho, cells) in rhos.iter().zip(cells.chunks(policies.len())) {
        let row_rates: Vec<f64> = cells.iter().map(|cell| cell.rejection_rate).collect();
        let mut row = vec![fmt_f(rho, 2)];
        row.extend(row_rates.iter().map(|&rate| fmt_rate(rate)));
        table.row(row);
        grid.push(row_rates);
    }
    table.note("columns ordered by expected quality; rho = 1.0 is the model's full load");

    let at_full = grid.last().unwrap();
    let (greedy, dcr, rr, rand, one) = (at_full[0], at_full[1], at_full[2], at_full[3], at_full[4]);
    let checks = vec![
        Check::new(
            "at full load: load-aware policies (greedy, DCR) beat load-oblivious ones",
            greedy <= rand + 1e-6 && dcr <= rand + 1e-6 && greedy <= one && dcr <= one,
            format!("greedy {greedy:.2e}, dcr {dcr:.2e}, rand {rand:.2e}, one {one:.2e}"),
        ),
        Check::new(
            "one-choice is the worst policy at full load",
            one >= rr && one >= rand && one >= greedy,
            format!("one-choice {one:.4} vs round-robin {rr:.4}"),
        ),
        Check::new(
            "rejection rates are monotone non-decreasing in offered load",
            (0..5).all(|p| grid.windows(2).all(|w| w[1][p] >= w[0][p] - 1e-3)),
            "checked per policy along the rho sweep".to_string(),
        ),
        Check::new(
            "greedy and DCR sustain ~zero rejection even at full load",
            greedy < 5e-3 && dcr < 5e-3,
            format!("greedy {greedy:.2e}, dcr {dcr:.2e}"),
        ),
    ];
    (vec![table], checks)
}
