//! E23 — capacity thresholds at scale: Θ(log m) vs Θ(log log m),
//! finally at real m.
//!
//! The paper's headline separation — one-choice routing needs
//! `Θ(log m)` queue slots where d-choice greedy needs `Θ(log log m)`
//! (Thm 3.1 vs the d = 1 impossibility) — is about *asymptotics in m*,
//! but the discrete engine tops out around `m = 65536`, where
//! `log₂ m = 16` and `log₂ log₂ m ≈ 4` are barely distinguishable
//! constants. The mean-field solver removes the ceiling: its cost is
//! independent of `m`, so this experiment sweeps `m` from `2^10` to
//! `10^8` and reports, per policy, the *capacity threshold* `q*(m)` —
//! the smallest queue capacity whose steady-state rejection rate is at
//! most `1/m` (one lost request per cluster per step). The threshold is
//! found by bisection, which is sound because rejection is monotone
//! non-increasing in `q` (pinned by the solver's invariant suite).
//!
//! Shape predictions: greedy's threshold is essentially flat over 17
//! octaves of `m` (doubly-exponential tail decay ⇒ `Θ(log log m)`),
//! one-choice's grows by a constant per octave (geometric tail decay at
//! rate `θ* ≈ 0.22` for λ = 7.2, g = 8 ⇒ `Θ(log m)`), and the gap
//! between them widens with `m`.

use crate::{Check, Findings};
use rlb_meanfield::{solve_fixpoint, MfConfig, MfPolicy, SolveOptions};
use rlb_metrics::table::fmt_u;
use rlb_metrics::Table;

/// Arrival intensity and drain rate for the sweep (λ/g = 0.9, the
/// near-critical regime where queue depth is what buys loss).
const LAMBDA: f64 = 7.2;
const RATE: u32 = 8;

/// Solves the model at capacity `q` and returns the rejection rate.
fn rejection_at(m: u64, q: u32, policy: MfPolicy) -> f64 {
    let cfg = MfConfig {
        m,
        lambda: LAMBDA,
        replication: 2,
        process_rate: RATE,
        queue_capacity: Some(q),
        truncation_depth: q,
        policy,
        euler_dt: 0.05,
    };
    let opts = SolveOptions {
        damping: 1.0,
        tolerance: 1e-13,
        max_iters: 50_000,
    };
    let p = solve_fixpoint(&cfg, &opts);
    assert!(p.converged, "solver must converge at m={m} q={q}");
    p.rejection_rate
}

/// Smallest `q` with steady-state rejection ≤ `1/m`, by bisection
/// (rejection is monotone non-increasing in `q`).
fn capacity_threshold(m: u64, policy: MfPolicy) -> u32 {
    let target = 1.0 / m as f64;
    // Grow an upper bracket first.
    let mut hi = RATE + 1;
    while rejection_at(m, hi, policy) > target {
        hi *= 2;
        assert!(hi <= 4096, "threshold bracket blew past q = 4096 at m={m}");
    }
    let mut lo = 1; // rejection_at(lo) > target or lo is the answer's floor
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if rejection_at(m, mid, policy) <= target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Runs the experiment.
pub fn run(quick: bool) -> Findings {
    let sizes: &[u64] = if quick {
        &[1 << 10, 1 << 16, 100_000_000]
    } else {
        &[
            1 << 10,
            1 << 13,
            1 << 16,
            1 << 20,
            1 << 23,
            1 << 26,
            100_000_000,
        ]
    };
    let mut table = Table::new(
        format!(
            "Capacity threshold q*(m): rejection <= 1/m (mean-field, λ = {LAMBDA}, g = {RATE})"
        ),
        &["m", "log2 m", "q* greedy d=2", "q* one-choice", "gap"],
    );
    let mut rows: Vec<(u64, u32, u32)> = Vec::new();
    for &m in sizes {
        let qd = capacity_threshold(m, MfPolicy::Greedy);
        let q1 = capacity_threshold(m, MfPolicy::OneChoice);
        table.row(vec![
            fmt_u(m),
            format!("{:.1}", (m as f64).log2()),
            fmt_u(qd as u64),
            fmt_u(q1 as u64),
            fmt_u((q1 - qd) as u64),
        ]);
        rows.push((m, qd, q1));
    }
    table.note("q* by bisection on the solver; 1/m = one lost request per cluster per step");

    let (m_min, qd_min, q1_min) = rows[0];
    let (m_max, qd_max, q1_max) = rows[rows.len() - 1];
    let octaves = (m_max as f64 / m_min as f64).log2();
    let greedy_growth = qd_max.saturating_sub(qd_min);
    let one_choice_growth = q1_max.saturating_sub(q1_min);
    // Θ(log m) predicts ~1/θ* ≈ 4.5 extra slots per factor-e of m,
    // i.e. ~3.1 per octave at θ* ≈ 0.222; allow a wide band.
    let per_octave = one_choice_growth as f64 / octaves;
    let checks = vec![
        Check::new(
            "greedy's threshold is near-flat over 17 octaves of m (Θ(log log m))",
            greedy_growth <= 3,
            format!("q* grew {qd_min} -> {qd_max} (+{greedy_growth}) over {octaves:.1} octaves"),
        ),
        Check::new(
            "one-choice's threshold grows like log m: a constant per octave",
            one_choice_growth >= 8 && (1.0..=6.0).contains(&per_octave),
            format!(
                "q* grew {q1_min} -> {q1_max} (+{one_choice_growth}), {per_octave:.2} slots/octave"
            ),
        ),
        Check::new(
            "the separation widens with m (log m vs log log m diverge)",
            q1_max - qd_max > q1_min - qd_min,
            format!(
                "gap {} at m = {} vs {} at m = {}",
                q1_min - qd_min,
                fmt_u(m_min),
                q1_max - qd_max,
                fmt_u(m_max)
            ),
        ),
        Check::new(
            "greedy's threshold stays a small constant everywhere the sweep reaches",
            rows.iter().all(|&(_, qd, _)| qd <= 12),
            format!(
                "max greedy q* = {}",
                rows.iter().map(|&(_, qd, _)| qd).max().unwrap_or(0)
            ),
        ),
    ];
    (vec![table], checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisection_returns_the_boundary() {
        // The returned q satisfies the target; q − 1 must not.
        let m = 1 << 16;
        for policy in [MfPolicy::Greedy, MfPolicy::OneChoice] {
            let q = capacity_threshold(m, policy);
            assert!(rejection_at(m, q, policy) <= 1.0 / m as f64);
            assert!(q == 1 || rejection_at(m, q - 1, policy) > 1.0 / m as f64);
        }
    }
}
