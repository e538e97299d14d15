//! E15 — extension: outage resilience through replication.
//!
//! Not a theorem of the paper, but the systems payoff of its model: the
//! `d` replicas that §3–§4 use for load balancing also mask failures. We
//! inject a correlated outage (a fraction `f` of servers down for a
//! window) and compare `d = 2` greedy / delayed-cuckoo against the
//! `d = 1` baseline:
//!
//! * with `d = 1`, every request whose chunk lives on a down server is
//!   lost — the rejection rate during the window is ≈ `f`;
//! * with `d = 2`, a request is lost only if *both* replicas are down —
//!   ≈ `f²` for random placement — plus transient queueing at the
//!   survivors, which the load-aware policies absorb.

use crate::common::{self, PolicyKind, Scenario};
use crate::{Check, Findings};
use rlb_core::{OutageSchedule, RunReport, SimConfig};
use rlb_metrics::table::{fmt_f, fmt_rate};
use rlb_metrics::Table;
use rlb_workloads::RepeatedSet;

fn run_with_outage(
    policy: PolicyKind,
    m: usize,
    d: usize,
    f: f64,
    steps: u64,
    window: (u64, u64),
    seed: u64,
) -> RunReport {
    let config = SimConfig::explicit(m, d, 16, 16).with_seed(seed);
    let down = common::m32(((m as f64) * f) as usize);
    let workload = RepeatedSet::first_k(common::m32(m), seed ^ 0x0f);
    Scenario::new(config, policy, workload)
        .outages(OutageSchedule::mass_failure(down, window.0, window.1))
        .run(steps)
}

/// Runs the experiment.
pub fn run(quick: bool) -> Findings {
    let m = if quick { 256 } else { 1024 };
    let steps = common::step_count(quick);
    // Outage covers the middle half of the run.
    let window = (steps / 4, 3 * steps / 4);
    let window_frac = (window.1 - window.0) as f64 / steps as f64;
    let fracs = [0.05f64, 0.1, 0.2];
    let mut table = Table::new(
        format!(
            "Rejection under a mass outage of f*m servers for the middle {:.0}% of the run (m = {m})",
            window_frac * 100.0
        ),
        &["f", "one-choice (d=1)", "greedy (d=2)", "delayed-cuckoo (d=2)", "f*window", "f^2*window"],
    );
    let mut rows = Vec::new();
    for &f in &fracs {
        let one = run_with_outage(PolicyKind::OneChoice, m, 1, f, steps, window, 0xe15);
        let greedy = run_with_outage(PolicyKind::Greedy, m, 2, f, steps, window, 0xe15);
        let dcr = run_with_outage(PolicyKind::DelayedCuckoo, m, 2, f, steps, window, 0xe15);
        table.row(vec![
            fmt_f(f, 2),
            fmt_rate(one.rejection_rate),
            fmt_rate(greedy.rejection_rate),
            fmt_rate(dcr.rejection_rate),
            fmt_rate(f * window_frac),
            fmt_rate(f * f * window_frac),
        ]);
        rows.push((
            f,
            one.rejection_rate,
            greedy.rejection_rate,
            dcr.rejection_rate,
        ));
    }
    table.note("expected loss: d=1 ~ f per affected step; d=2 ~ f^2 (both replicas down)");

    let checks = vec![
        Check::new(
            "d = 1 loses ~f of the traffic during the outage window",
            rows.iter().all(|&(f, one, _, _)| {
                let expect = f * window_frac;
                one > 0.5 * expect && one < 2.0 * expect
            }),
            rows.iter()
                .map(|&(f, one, _, _)| format!("f={f}: {one:.3} vs {:.3}", f * window_frac))
                .collect::<Vec<_>>()
                .join(", "),
        ),
        Check::new(
            "d = 2 improves on d = 1 by the predicted ~1/f factor (within 2x)",
            rows.iter().all(|&(f, one, greedy, dcr)| {
                // one/d2 should be ~ f/f^2 = 1/f; require at least half.
                let min_ratio = 0.5 / f;
                greedy < one / min_ratio.max(1.0) && dcr < one / min_ratio.max(1.0)
            }),
            rows.iter()
                .map(|&(f, one, g, d)| format!("f={f}: one {one:.3}, greedy {g:.2e}, dcr {d:.2e}"))
                .collect::<Vec<_>>()
                .join("; "),
        ),
        Check::new(
            "d = 2 loss is within the f^2 double-failure scale (x5 for queue transients)",
            rows.iter().all(|&(f, _, greedy, dcr)| {
                let budget = (f * f * window_frac) * 5.0 + 2e-3;
                greedy <= budget && dcr <= budget
            }),
            "greedy and dcr within 5x of f^2 * window".to_string(),
        ),
    ];
    (vec![table], checks)
}
