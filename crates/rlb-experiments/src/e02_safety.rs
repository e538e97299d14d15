//! E2 — Definition 3.2 / Lemma 3.4: the safe-distribution invariant.
//!
//! Lemma 3.4 proves that greedy (with suitable constants) keeps the
//! backlog distribution *safe* — at most `m/2^j` servers exceed backlog
//! `j` — at the end of every sub-step, with high probability. This
//! experiment samples the backlog distribution at every step under two
//! workloads (fully repeated and half-repeated) and reports:
//!
//! * the violation frequency at the definition's exact constant, and
//! * the *minimal slack*: `max_j #(backlog>j)/(m/2^j)` — how close the
//!   empirical tail sails to the `m/2^j` envelope.

use crate::common::{self, PolicyKind, Scenario};
use crate::{Check, Findings};
use rlb_core::{DrainMode, SimConfig};
use rlb_metrics::table::{fmt_f, fmt_rate, fmt_u};
use rlb_metrics::Table;
use rlb_workloads::{PartialRepeat, RepeatedSet};

/// Runs the experiment.
pub fn run(quick: bool) -> Findings {
    let trials = common::trial_count(quick);
    let steps = common::step_count(quick);
    let mut table = Table::new(
        "Safe-distribution compliance of greedy (Definition 3.2, slack ratio)",
        &[
            "workload",
            "m",
            "d",
            "g",
            "violation-rate",
            "worst-ratio",
            "max-backlog",
        ],
    );
    let mut worst_overall = 0.0f64;
    let mut total_violation_rate = 0.0f64;
    let mut count = 0usize;
    // Two parameter points, as in E1: the theorem constants and a tight
    // rate whose backlog distribution has a real tail to check.
    let params: Vec<(usize, usize, u32)> = common::m_sweep(quick)
        .into_iter()
        .flat_map(|m| [(m, 4usize, 8u32), (m, 2, 2)])
        .collect();
    let workloads = [true, false]; // repeated set, then half-repeat
    let cells = common::grid(
        &params,
        &workloads,
        trials,
        steps,
        |&(m, d, g), &repeated, i| {
            let mut config =
                SimConfig::greedy_theorem(m, d, g, 2.0).with_seed(0xe2 + i as u64 * 101 + g as u64);
            config.flush_interval = None;
            config.drain_mode = DrainMode::Interleaved;
            config.safety_check_every = Some(1);
            let seed = 77 + i as u64;
            if repeated {
                let workload = RepeatedSet::first_k(common::m32(m), seed);
                Scenario::new(config, PolicyKind::Greedy, workload)
            } else {
                let workload = PartialRepeat::new(4 * m as u64, m, 0.5, seed);
                Scenario::new(config, PolicyKind::Greedy, workload)
            }
        },
    );
    for (&(m, d, g), row) in params.iter().zip(cells.chunks(workloads.len())) {
        for (&repeated, agg) in workloads.iter().zip(row) {
            table.row(vec![
                if repeated {
                    "repeated-set"
                } else {
                    "half-repeat"
                }
                .to_string(),
                fmt_u(m as u64),
                fmt_u(d as u64),
                fmt_u(g as u64),
                fmt_rate(agg.safety_violation_rate),
                fmt_f(agg.worst_safety_ratio, 3),
                fmt_u(agg.max_backlog),
            ]);
            worst_overall = worst_overall.max(agg.worst_safety_ratio);
            total_violation_rate += agg.safety_violation_rate;
            count += 1;
        }
    }
    table.note("worst-ratio <= 1 means every sampled snapshot satisfied Definition 3.2 exactly");

    let mean_violation = total_violation_rate / count as f64;
    let checks = vec![
        Check::new(
            "safe distribution holds at (almost) every sampled step",
            mean_violation < 0.02,
            format!("mean violation rate {mean_violation:.4}"),
        ),
        Check::new(
            "empirical tail stays within a small constant of the m/2^j envelope",
            worst_overall < 2.0,
            format!("worst slack ratio {worst_overall:.3}"),
        ),
    ];
    (vec![table], checks)
}
