//! E8 — Lemma 5.3 / Corollary 5.4: time-step-isolated strategies fail.
//!
//! A time-step-isolated strategy routes using only the current step's
//! information. Lemma 5.3: under a fixed request sequence repeated every
//! step, some server receives `Ω(log log m)` requests per step *on
//! average* — even though the same sequence routed statefully (greedy
//! over true backlogs) gives every server ≤ ~1 per step. Queues are made
//! effectively unbounded here (no rejections) so the measurement is the
//! pure arrival-rate quantity of the lemma.

use crate::common::{self, PolicyKind, Scenario};
use crate::{Check, Findings};
use rlb_core::{Decision, Observer, SimConfig};
use rlb_metrics::table::{fmt_f, fmt_u};
use rlb_metrics::Table;
use rlb_workloads::RepeatedSet;

/// Counts accepted arrivals per server.
struct ArrivalCounter {
    counts: Vec<u64>,
}

impl Observer for ArrivalCounter {
    fn on_route(&mut self, _step: u64, _chunk: u32, decision: Decision) {
        if let Decision::Route { server, .. } = decision {
            self.counts[server as usize] += 1;
        }
    }
}

/// Runs the experiment.
pub fn run(quick: bool) -> Findings {
    let steps = common::step_count(quick);
    let trials = common::trial_count(quick).min(3);
    let mut table = Table::new(
        "Max per-server average arrivals/step: isolated vs stateful greedy (d = 2)",
        &["m", "isolated", "stateful", "g", "loglog(m)"],
    );
    let mut rows = Vec::new();
    for m in common::m_sweep(quick) {
        let mut per_policy = [0.0f64; 2];
        for (slot, policy) in [PolicyKind::TimeStepIsolated, PolicyKind::Greedy]
            .into_iter()
            .enumerate()
        {
            let mut worst = 0.0f64;
            for t in 0..trials {
                // Queues large enough that nothing is rejected: the
                // measurement is pure arrival rate per Lemma 5.3. The
                // drain is tight (g = 1 = average load) so that carried
                // backlog is informative — the stateful baseline routes
                // by it, the isolated strategy is blind to it.
                let q = common::m32(steps as usize) * 8;
                let config = SimConfig::explicit(m, 2, 1, q).with_seed(0xe8 + t as u64 * 173);
                // The lemma fixes one sequence sigma and replays it
                // verbatim every step.
                let workload = RepeatedSet::first_k(common::m32(m), 5 + t as u64).fixed_order();
                let mut obs = ArrivalCounter { counts: vec![0; m] };
                let report = Scenario::new(config, policy, workload)
                    .observer(&mut obs)
                    .run(steps);
                assert_eq!(
                    report.rejected_total, 0,
                    "queues were meant to be unbounded"
                );
                let max_avg = obs
                    .counts
                    .iter()
                    .map(|&c| c as f64 / steps as f64)
                    .fold(0.0f64, f64::max);
                worst = worst.max(max_avg);
            }
            per_policy[slot] = worst;
        }
        table.row(vec![
            fmt_u(m as u64),
            fmt_f(per_policy[0], 2),
            fmt_f(per_policy[1], 2),
            fmt_u(1),
            fmt_f(common::loglog2(m), 2),
        ]);
        rows.push((m, per_policy));
    }
    table.note("Lemma 5.3: isolated routing concentrates Omega(log log m) average load somewhere");

    let last = rows.last().unwrap();
    let checks = vec![
        Check::new(
            "isolated routing overloads some server well past the stateful baseline",
            last.1[0] >= 2.0 * last.1[1],
            format!(
                "at m={}: isolated {:.2} vs stateful {:.2}",
                last.0, last.1[0], last.1[1]
            ),
        ),
        Check::new(
            "isolated hot-server average tracks the loglog-scale floor",
            rows.iter().all(|&(m, p)| p[0] >= 0.5 * common::loglog2(m)),
            rows.iter()
                .map(|&(m, p)| format!("m={m}: {:.2} vs loglog {:.2}", p[0], common::loglog2(m)))
                .collect::<Vec<_>>()
                .join(", "),
        ),
        Check::new(
            "stateful greedy keeps every server's average near 1",
            rows.iter().all(|&(_, p)| p[1] <= 2.0),
            format!(
                "worst stateful average {:.2}",
                rows.iter().map(|&(_, p)| p[1]).fold(0.0f64, f64::max)
            ),
        ),
    ];
    (vec![table], checks)
}
