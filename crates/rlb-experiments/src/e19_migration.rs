//! E19 — related-work baseline: migration (Wang et al. \[34\]) vs
//! replication (this paper).
//!
//! Wang et al. escape the `d = 1` impossibility by *moving* chunks from
//! hot to cold servers over time; this paper escapes it by *replicating*
//! (`d = 2`) and routing well. This experiment runs both on the repeated
//! workload and quantifies the trade:
//!
//! * static `d = 1`: Θ(1) rejection forever (the shared impossibility);
//! * `d = 1` + migration: rejection decays to ≈ 0 *after a convergence
//!   phase*, at a continuing cost in moved chunks;
//! * `d = 2` greedy: ≈ 0 rejection from step one, zero moves — but 2×
//!   storage.

use crate::common::{self, PolicyKind, Scenario};
use crate::migration::{MigrationConfig, MigrationSim};
use crate::{Check, Findings};
use rlb_core::{SimConfig, Workload};
use rlb_metrics::table::{fmt_rate, fmt_u};
use rlb_metrics::Table;
use rlb_workloads::RepeatedSet;

/// Runs the experiment.
pub fn run(quick: bool) -> Findings {
    let m = if quick { 256 } else { 1024 };
    let steps = if quick { 300 } else { 600 };
    let g = 2u32;
    let mut table = Table::new(
        format!(
            "Migration vs replication under the repeated set (m = {m}, g = {g}, {steps} steps)"
        ),
        &[
            "system",
            "overall-rate",
            "steady-rate",
            "chunk-moves",
            "storage",
        ],
    );
    let mut rows: Vec<(String, f64, f64, u64)> = Vec::new();

    for budget in [0u32, 1, 4] {
        let mut sim = MigrationSim::new(MigrationConfig {
            num_servers: m,
            num_chunks: 4 * m,
            process_rate: g,
            queue_capacity: 8,
            budget_per_step: budget,
            seed: 0xe19,
        });
        let mut workload = RepeatedSet::first_k(common::m32(m), 19);
        let r = sim.run(&mut workload as &mut dyn Workload, steps);
        let name = if budget == 0 {
            "d=1 static".to_string()
        } else {
            format!("d=1 + migration (budget {budget})")
        };
        table.row(vec![
            name.clone(),
            fmt_rate(r.rejection_rate),
            fmt_rate(r.late_rejection_rate),
            fmt_u(r.migrations),
            "1x".into(),
        ]);
        rows.push((name, r.rejection_rate, r.late_rejection_rate, r.migrations));
    }

    // d = 2 greedy on the full engine for the replication column.
    let config = SimConfig::explicit(m, 2, g, 8).with_seed(0xe19);
    let workload = RepeatedSet::first_k(common::m32(m), 19);
    let greedy = Scenario::new(config, PolicyKind::Greedy, workload).run(steps);
    table.row(vec![
        "d=2 greedy (this paper)".into(),
        fmt_rate(greedy.rejection_rate),
        fmt_rate(greedy.rejection_rate),
        "0".into(),
        "2x".into(),
    ]);
    table.note("Wang et al. [34] trade migration bandwidth for storage; the paper trades storage");

    let static_rate = rows[0].2;
    let migrated_rate = rows.last().unwrap().2;
    let migrated_moves = rows.last().unwrap().3;
    let checks = vec![
        Check::new(
            "static d=1 rejects a constant fraction in steady state",
            static_rate > 0.02,
            format!("steady rate {static_rate:.4}"),
        ),
        Check::new(
            "migration recovers ~zero steady-state rejection (the [34] result)",
            migrated_rate < static_rate / 5.0 && migrated_rate < 0.02,
            format!("steady rate {migrated_rate:.2e} after {migrated_moves} moves"),
        ),
        Check::new(
            "replication achieves ~zero rejection with zero moves",
            greedy.rejection_rate < 1e-3,
            format!("greedy rate {:.2e}", greedy.rejection_rate),
        ),
        Check::new(
            "migration needs a convergence phase: overall rate exceeds steady rate",
            rows.last().unwrap().1 > migrated_rate,
            format!(
                "overall {:.3} vs steady {:.2e}",
                rows.last().unwrap().1,
                migrated_rate
            ),
        ),
    ];
    (vec![table], checks)
}
