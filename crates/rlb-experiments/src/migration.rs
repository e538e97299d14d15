//! The chunk-migration baseline (Wang et al., PPoPP '23 — the paper's
//! reference \[34\] and closest related work).
//!
//! With no replication (`d = 1`), no routing policy can achieve `o(1)`
//! rejection under a repeated workload — the impossibility the paper
//! builds on (§1, §6). Wang et al.'s way out is a *relaxation*: keep
//! `d = 1` but allow the system to **move chunks** from heavily loaded
//! servers to lightly loaded ones over time, paying migration bandwidth
//! instead of storage. This module implements that baseline so the
//! reproduction can quantify the trade the paper describes in Related
//! Work: replication (`d = 2`, zero moves) versus migration (`d = 1`,
//! continuous moves).
//!
//! The migrator here is the natural rate-based one: it tracks a
//! per-server EWMA of request arrivals; whenever a server's rate exceeds
//! its processing rate `g`, it moves that server's hottest chunks to the
//! currently coldest servers, up to `budget_per_step` moves per step.
//! It is E19's comparison baseline, not the paper's §2 model, so it is
//! its own mini-simulator rather than an `rlb-core` policy.

mod ewma;

use crate::common::m32;
use ewma::Ewma;
use rlb_core::Workload;
use rlb_hash::{Pcg64, Rng};

/// Parameters of the migration baseline.
#[derive(Debug, Clone)]
pub(crate) struct MigrationConfig {
    /// Servers `m`.
    pub(crate) num_servers: usize,
    /// Chunks `n` (each on exactly one server).
    pub(crate) num_chunks: usize,
    /// Per-server processing rate `g`.
    pub(crate) process_rate: u32,
    /// Queue capacity `q`.
    pub(crate) queue_capacity: u32,
    /// Maximum chunk moves per step (0 = static d = 1).
    pub(crate) budget_per_step: u32,
    /// Master seed for the initial placement.
    pub(crate) seed: u64,
}

/// Outcome of a migration-baseline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MigrationReport {
    /// Definition 2.1 rejection rate.
    pub(crate) rejection_rate: f64,
    /// Rejection rate over the last quarter of the run (steady state,
    /// after the migrator has had time to converge).
    pub(crate) late_rejection_rate: f64,
    /// Total chunk moves performed.
    pub(crate) migrations: u64,
}

/// The `d = 1` system with a rate-based chunk migrator.
#[derive(Debug)]
pub(crate) struct MigrationSim {
    config: MigrationConfig,
    /// Owner server of each chunk.
    owner: Vec<u32>,
    /// Current backlog per server.
    backlog: Vec<u32>,
    /// Smoothed arrival rate per server.
    rate: Vec<Ewma>,
    /// Arrivals this step per server (scratch).
    step_arrivals: Vec<u32>,
    /// Chunks requested this step per server (for picking a hot chunk).
    hot_chunk: Vec<Option<u32>>,
}

impl MigrationSim {
    /// Builds the system with a uniform random initial placement.
    ///
    /// # Panics
    /// Panics if any size parameter is zero.
    pub(crate) fn new(config: MigrationConfig) -> Self {
        assert!(config.num_servers > 0 && config.num_chunks > 0);
        assert!(config.process_rate > 0 && config.queue_capacity > 0);
        let mut rng = Pcg64::new(config.seed, 0x319);
        let owner = (0..config.num_chunks)
            .map(|_| m32(rng.gen_index(config.num_servers)))
            .collect();
        let m = config.num_servers;
        Self {
            owner,
            backlog: vec![0; m],
            rate: vec![Ewma::with_halflife(8.0); m],
            step_arrivals: vec![0; m],
            hot_chunk: vec![None; m],
            config,
        }
    }

    /// Runs `steps` steps of `workload` and reports.
    pub(crate) fn run(&mut self, workload: &mut dyn Workload, steps: u64) -> MigrationReport {
        let m = self.config.num_servers;
        let g = self.config.process_rate;
        let q = self.config.queue_capacity;
        let budget = self.config.budget_per_step;
        let mut chunks = Vec::with_capacity(m);
        let mut arrived = 0u64;
        let mut rejected = 0u64;
        let mut late_arrived = 0u64;
        let mut late_rejected = 0u64;
        let mut migrations = 0u64;
        let late_start = steps - steps / 4;
        for step in 0..steps {
            chunks.clear();
            workload.next_step(step, &mut chunks);
            self.step_arrivals.fill(0);
            self.hot_chunk.fill(None);
            for &chunk in &chunks {
                let server = self.owner[chunk as usize] as usize;
                arrived += 1;
                if step >= late_start {
                    late_arrived += 1;
                }
                self.step_arrivals[server] += 1;
                self.hot_chunk[server] = Some(chunk);
                if self.backlog[server] >= q {
                    rejected += 1;
                    if step >= late_start {
                        late_rejected += 1;
                    }
                } else {
                    self.backlog[server] += 1;
                }
            }
            // Serve.
            for b in self.backlog.iter_mut() {
                *b = b.saturating_sub(g);
            }
            // Update rates and migrate.
            for (r, &a) in self.rate.iter_mut().zip(self.step_arrivals.iter()) {
                r.update(a as f64);
            }
            for _ in 0..budget {
                // Hottest overloaded server with a movable requested chunk.
                let mut hottest: Option<(usize, f64)> = None;
                for s in 0..m {
                    let rate = self.rate[s].value().unwrap_or(0.0);
                    if rate > g as f64
                        && self.hot_chunk[s].is_some()
                        && hottest.is_none_or(|(_, hr)| rate > hr)
                    {
                        hottest = Some((s, rate));
                    }
                }
                let Some((src, src_rate)) = hottest else {
                    break;
                };
                // Coldest destination.
                let (dst, dst_rate) = (0..m)
                    .map(|s| (s, self.rate[s].value().unwrap_or(0.0)))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("nonempty cluster");
                if dst == src || dst_rate + 1.0 >= src_rate {
                    break; // no useful move available
                }
                let chunk = self.hot_chunk[src].take().expect("checked above");
                self.owner[chunk as usize] = m32(dst);
                migrations += 1;
                // Account the moved chunk's future traffic optimistically
                // in the rate trackers so repeated moves spread out.
                self.rate[src].update((src_rate - 1.0).max(0.0));
                self.rate[dst].update(dst_rate + 1.0);
            }
        }
        MigrationReport {
            rejection_rate: if arrived > 0 {
                rejected as f64 / arrived as f64
            } else {
                0.0
            },
            late_rejection_rate: if late_arrived > 0 {
                late_rejected as f64 / late_arrived as f64
            } else {
                0.0
            },
            migrations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repeated(k: u32) -> impl Workload {
        move |_s: u64, out: &mut Vec<u32>| out.extend(0..k)
    }

    fn config(m: usize, budget: u32) -> MigrationConfig {
        MigrationConfig {
            num_servers: m,
            num_chunks: 4 * m,
            process_rate: 2,
            queue_capacity: 8,
            budget_per_step: budget,
            seed: 5,
        }
    }

    #[test]
    fn static_d1_rejects_a_constant_fraction() {
        let m = 512;
        let mut sim = MigrationSim::new(config(m, 0));
        let report = sim.run(&mut repeated(m as u32), 200);
        assert_eq!(report.migrations, 0);
        assert!(
            report.late_rejection_rate > 0.02,
            "static d=1 should reject steadily: {report:?}"
        );
    }

    #[test]
    fn migration_drives_rejection_down() {
        let m = 512;
        let mut sim = MigrationSim::new(config(m, 4));
        let report = sim.run(&mut repeated(m as u32), 400);
        assert!(report.migrations > 0);
        let mut static_sim = MigrationSim::new(config(m, 0));
        let static_report = static_sim.run(&mut repeated(m as u32), 400);
        assert!(
            report.late_rejection_rate < static_report.late_rejection_rate / 5.0,
            "migration {} vs static {}",
            report.late_rejection_rate,
            static_report.late_rejection_rate
        );
    }

    #[test]
    fn migration_converges_to_near_zero_on_repeated_set() {
        let m = 256;
        let mut sim = MigrationSim::new(config(m, 8));
        let report = sim.run(&mut repeated(m as u32), 600);
        assert!(
            report.late_rejection_rate < 1e-2,
            "late rate {}",
            report.late_rejection_rate
        );
    }

    #[test]
    fn migrations_stop_once_balanced() {
        let m = 256;
        let mut sim = MigrationSim::new(config(m, 8));
        let _ = sim.run(&mut repeated(m as u32), 600);
        // Run further with a fresh report: the system is balanced, so
        // almost no additional moves should happen.
        let more = sim.run(&mut repeated(m as u32), 100);
        assert!(
            more.migrations < 50,
            "still migrating heavily after convergence: {}",
            more.migrations
        );
    }

    #[test]
    fn owner_tracking_is_consistent() {
        let m = 64;
        let mut sim = MigrationSim::new(config(m, 2));
        let _ = sim.run(&mut repeated(m as u32), 100);
        assert!(sim.owner.iter().all(|&server| (server as usize) < m));
    }
}
