//! E20 — ablation: delayed cuckoo routing's phase length.
//!
//! The phase length `L = Θ(log log m)` is DCR's only free structural
//! parameter; both sides of the theorem constrain it:
//!
//! * **too short** (`L = 1`): *every* access is a first access — there
//!   are no repeats to route by table, so DCR degenerates to two-choice
//!   greedy on quarter-rate `Q` queues and loses its guarantee;
//! * **too long**: repeats stay table-routed (good), but per-phase state
//!   (the `L` step tables and the carry-queue drain budget
//!   `(g/4)·L ≥ q`) grows with `L` — the cost side.
//!
//! The sweep shows the wide plateau in between: any `L` within a
//! constant factor of `log log m` works, which is why the theorem only
//! needs `Θ(·)`.

use crate::common::{self, PolicyKind, Scenario};
use crate::{Check, Findings};
use rlb_core::policies::DelayedCuckoo;
use rlb_core::{SimConfig, Simulation, Workload};
use rlb_metrics::table::{fmt_f, fmt_rate, fmt_u};
use rlb_metrics::Table;
use rlb_workloads::RepeatedSet;

/// Runs the experiment.
pub fn run(quick: bool) -> Findings {
    let m = if quick { 512 } else { 2048 };
    let steps = common::step_count(quick) * 2;
    let loglog = common::loglog2(m).ceil() as u64;
    let phases: Vec<u64> = vec![1, loglog, 2 * loglog, 8 * loglog];
    let mut table = Table::new(
        format!("DCR phase-length ablation (m = {m}, g = 16, repeated set; loglog m = {loglog})"),
        &["L", "reject-rate", "p-share", "avg-lat", "max-lat"],
    );
    let mut rows = Vec::new();
    for &phase_length in &phases {
        let config = SimConfig::dcr_theorem(m, 16, 4).with_seed(0xe20 + phase_length);
        let policy = DelayedCuckoo::with_phase_length(&config, phase_length);
        let mut sim = Simulation::new(config, policy);
        let mut workload = RepeatedSet::first_k(common::m32(m), 37);
        sim.run(&mut workload as &mut dyn Workload, steps);
        let diag = sim.policy().diagnostics();
        let p_share = diag.p_routed as f64 / (diag.p_routed + diag.q_routed).max(1) as f64;
        let report = common::conserved(sim.finish());
        table.row(vec![
            fmt_u(phase_length),
            fmt_rate(report.rejection_rate),
            fmt_f(p_share, 3),
            fmt_f(report.avg_latency, 2),
            fmt_u(report.max_latency),
        ]);
        rows.push((phase_length, report.rejection_rate, p_share));
    }
    table.note("L = 1 has no repeats to table-route; the theorem's Θ(loglog m) sits on a plateau");
    // Context row: plain greedy for comparison.
    let config = SimConfig::dcr_theorem(m, 16, 4).with_seed(0xe20);
    let workload = RepeatedSet::first_k(common::m32(m), 37);
    let greedy = Scenario::new(config, PolicyKind::Greedy, workload).run(steps);

    let l1 = rows[0];
    let plateau: Vec<_> = rows[1..].to_vec();
    let checks = vec![
        Check::new(
            "L = 1 degenerates: (almost) no requests are table-routed",
            l1.2 < 0.05,
            format!("P share at L=1: {:.3}", l1.2),
        ),
        Check::new(
            "every Θ(loglog m)-scale phase length sits on the zero-rejection plateau",
            plateau.iter().all(|&(_, r, _)| r < 5e-3),
            plateau
                .iter()
                .map(|&(l, r, _)| format!("L={l}: {r:.2e}"))
                .collect::<Vec<_>>()
                .join(", "),
        ),
        Check::new(
            "on the plateau, repeats dominate and are table-routed",
            plateau.iter().all(|&(_, _, p)| p > 0.5),
            plateau
                .iter()
                .map(|&(l, _, p)| format!("L={l}: P share {p:.2}"))
                .collect::<Vec<_>>()
                .join(", "),
        ),
        Check::new(
            "DCR on the plateau matches plain greedy's rejection profile",
            plateau
                .iter()
                .all(|&(_, r, _)| r <= greedy.rejection_rate + 5e-3),
            format!("greedy {:.2e}", greedy.rejection_rate),
        ),
    ];
    (vec![table], checks)
}
