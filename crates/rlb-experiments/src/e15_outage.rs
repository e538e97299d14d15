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
//!
//! Every cell is the mean over [`PLACEMENTS`] placement seeds. One
//! placement's `d = 1` loss is set by how many of the `m` requested
//! chunks land on the `f·m` downed servers, Binomial(m, f): at m = 256
//! and f = 0.05 its sd is about 0.28 of its mean, so the first check's
//! 0.5× floor sits under 2 sd from one draw and about 5 sd from the mean
//! of eight.

use crate::common::{self, PolicyKind, Scenario};
use crate::{Check, Findings};
use rlb_core::{OutageSchedule, SimConfig};
use rlb_metrics::table::{fmt_f, fmt_rate};
use rlb_metrics::Table;
use rlb_workloads::RepeatedSet;

/// Placement seeds a cell averages over (`0xe15`, `0xe15 + 1`, …).
const PLACEMENTS: usize = 8;

/// The policies compared, with their replication degree.
const POLICIES: [(PolicyKind, usize); 3] = [
    (PolicyKind::OneChoice, 1),
    (PolicyKind::Greedy, 2),
    (PolicyKind::DelayedCuckoo, 2),
];

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
            "Rejection under a mass outage of f*m servers for the middle {:.0}% of the run (m = {m}, mean of {PLACEMENTS} placements)",
            window_frac * 100.0
        ),
        &["f", "one-choice (d=1)", "greedy (d=2)", "delayed-cuckoo (d=2)", "f*window", "f^2*window"],
    );
    let cells = common::grid(
        &fracs,
        &POLICIES,
        PLACEMENTS,
        steps,
        move |&f, &(policy, d), trial| {
            let seed = 0xe15 + trial as u64;
            let config = SimConfig::explicit(m, d, 16, 16).with_seed(seed);
            let down = common::m32(((m as f64) * f) as usize);
            let workload = RepeatedSet::first_k(common::m32(m), seed ^ 0x0f);
            Scenario::new(config, policy, workload)
                .outages(OutageSchedule::mass_failure(down, window.0, window.1))
        },
    );
    let mut rows = Vec::new();
    for (&f, row) in fracs.iter().zip(cells.chunks(POLICIES.len())) {
        let [one, greedy, dcr] = [0, 1, 2].map(|i| row[i].rejection_rate);
        table.row(vec![
            fmt_f(f, 2),
            fmt_rate(one),
            fmt_rate(greedy),
            fmt_rate(dcr),
            fmt_rate(f * window_frac),
            fmt_rate(f * f * window_frac),
        ]);
        rows.push((f, one, greedy, dcr));
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
