//! E7 — Theorem 5.2: no policy beats a 1/poly(m) rejection rate.
//!
//! The proof: with probability `≥ 1/m^{gd}`, some `gd + 1` random chunks
//! receive **identical** replica sets; conditioned on that, their `d`
//! servers jointly process `gd` requests per step but receive `gd + 1`,
//! forcing `Ω(1/m)` rejections. Two measurements:
//!
//! 1. **Mechanism** (found): scan chunk ids under the run's own placement
//!    for `gd + 1` that live on servers `{0, 1}`, request them, and verify
//!    the forced rejection rate `≥ ~1/m` — for *every* policy, since the
//!    bound is information-theoretic.
//! 2. **Probability** (Monte-Carlo): estimate the chance that a random
//!    placement contains a pairwise full collision among `m` chunks, and
//!    confirm it decays polynomially in `m` (slope ≈ −(d−...) in
//!    log-log), tying the mechanism back to the oblivious model.

use crate::common::{self, PolicyKind, Scenario};
use crate::{Check, Findings};
use rlb_core::SimConfig;
use rlb_hash::ReplicaPlacement;
use rlb_metrics::table::{fmt_f, fmt_rate, fmt_u};
use rlb_metrics::Table;
use rlb_workloads::planted::{colliding_chunks, collision_probability_estimate};
use rlb_workloads::RepeatedSet;

/// Runs the experiment.
pub fn run(quick: bool) -> Findings {
    let m = if quick { 256 } else { 1024 };
    let steps = common::step_count(quick);
    let d = 2usize;
    let g = 2u32;
    let colliders = (g as usize * d) + 1; // gd + 1 chunks forced together

    // Part 1: the mechanism, greedy and DCR both suffer it. The scan
    // runs under the placement every run with this seed uses; the
    // workload requests the colliders and then the lowest other ids, m
    // chunks a step. `random` ignores its universe argument (no row
    // depends on it); the scan may reach any u32 id.
    let seed = 0xe7;
    let probe = ReplicaPlacement::random(1 << 32, m, d, seed);
    let found = colliding_chunks(&probe, &[0, 1], colliders);
    let requested: Vec<u32> = found
        .iter()
        .copied()
        .chain((0..).filter(|c| !found.contains(c)))
        .take(m)
        .collect();
    let num_chunks = requested.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    let mut mech = Table::new(
        format!(
            "Found collision: {colliders} chunks share the same {d} servers (m = {m}, g = {g}, \
             highest id {})",
            num_chunks - 1
        ),
        &["policy", "reject-rate", "m*rate", "theory-min (1/m)"],
    );
    let mut found_rates = Vec::new();
    for policy in [PolicyKind::Greedy, PolicyKind::DelayedCuckoo] {
        let config = SimConfig {
            num_chunks,
            ..SimConfig::explicit(m, d, g, 8).with_seed(seed)
        };
        let workload = RepeatedSet::new(requested.clone(), 11);
        let report = Scenario::new(config, policy, workload).run(steps);
        mech.row(vec![
            policy.name().to_string(),
            fmt_rate(report.rejection_rate),
            fmt_f(report.rejection_rate * m as f64, 2),
            fmt_rate(1.0 / m as f64),
        ]);
        found_rates.push(report.rejection_rate);
    }
    mech.note("gd+1 requests/step into d servers that process gd => >= 1 forced rejection/step");

    // Part 2: Monte-Carlo collision probability scaling. The chunk count
    // k is held FIXED while m grows, so the probability of a pairwise
    // full collision (k choose 2 pairs, each colliding w.p. 2/(m(m-1)))
    // decays like 1/m^2 — the polynomial decay behind Theorem 5.2. (With
    // k = m the expected number of colliding pairs is Θ(1) at every m,
    // which is constant, not decaying — the fixed-k slice is the one
    // that isolates the scaling.)
    let trials = if quick { 400 } else { 4000 };
    let k_fixed = 8usize;
    let ms_small: Vec<usize> = vec![8, 12, 16, 24, 32, 48];
    let mut prob = Table::new(
        format!(
            "Monte-Carlo Pr[pairwise full replica collision among k = {k_fixed} chunks] (d = 2)"
        ),
        &["m", "estimate", "theory ~ C(k,2)*2/(m(m-1))"],
    );
    let mut estimates = Vec::new();
    for &mm in &ms_small {
        let p = collision_probability_estimate(mm, k_fixed, d, 2, trials, 0x0e7);
        let theory = (k_fixed * (k_fixed - 1) / 2) as f64 * 2.0 / (mm as f64 * (mm - 1) as f64);
        prob.row(vec![
            fmt_u(mm as u64),
            fmt_rate(p),
            fmt_rate(theory.min(1.0)),
        ]);
        estimates.push((mm, p));
    }
    prob.note("decays polynomially in m: the 1/poly m rate of Theorem 5.2 is the right target");

    let forced_min = found_rates.iter().copied().fold(f64::MAX, f64::min);
    let decreasing = estimates.windows(2).all(|w| w[1].1 <= w[0].1 + 0.02);
    // Log-log slope between the endpoints: 1/m^2 decay means slope ~ -2.
    let slope = {
        let (m0, p0) = estimates[0];
        let (m1, p1) = *estimates.last().unwrap();
        (p1.max(1e-6).ln() - p0.max(1e-6).ln()) / ((m1 as f64).ln() - (m0 as f64).ln())
    };
    let checks = vec![
        Check::new(
            "found collision forces rejection rate >= ~1/m for every policy",
            forced_min >= 0.5 / m as f64,
            format!(
                "min measured rate {forced_min:.2e} vs 1/m = {:.2e}",
                1.0 / m as f64
            ),
        ),
        Check::new(
            "collision probability decays polynomially in m (log-log slope <= -1.5)",
            decreasing && slope <= -1.5,
            format!(
                "P(m={}) = {:.3} -> P(m={}) = {:.4}; slope {slope:.2}",
                estimates.first().unwrap().0,
                estimates.first().unwrap().1,
                estimates.last().unwrap().0,
                estimates.last().unwrap().1
            ),
        ),
    ];
    (vec![mech, prob], checks)
}
