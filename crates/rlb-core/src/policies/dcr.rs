//! Delayed cuckoo routing (§4 of the paper — the main algorithm).
//!
//! Uses replication `d = 2` and per-server queues of size only
//! `Θ(log log m)` — optimal by Theorem 5.1 — while keeping rejection
//! rate `O(1/m^c)` and expected average latency `O(1)` (Theorem 4.3).
//!
//! Time is divided into **phases** of `Θ(log log m)` steps. Each server
//! runs four queues, each draining `g/4` per step:
//!
//! | class | name | role |
//! |---|---|---|
//! | 0 | `Q`  | first access of a chunk in the phase: two-choice greedy |
//! | 1 | `P`  | repeat access: routed by the *delayed* cuckoo table |
//! | 2 | `Q'` | previous phase's residual `Q`, drained to empty |
//! | 3 | `P'` | previous phase's residual `P`, drained to empty |
//!
//! After each step `t`, the policy builds the cuckoo assignment `T_t`
//! over the step's request set `S_t` (Lemma 4.2 via
//! [`rlb_cuckoo::RoutingTable`]): every server receives `O(1)` of `S_t`.
//! `T_t` cannot help at step `t` (it needs all of `S_t`), but when a
//! chunk `x ∈ S_t` is requested again at `t'' > t` in the same phase, it
//! is sent to `P_{T_t(x)}` — a queue that deterministically receives only
//! `O(log log m)` requests per phase (Lemma 4.5). If `T_t` failed (the
//! Lemma 4.2 stash-overflow event, probability `O(1/m^c)`), the repeat is
//! rejected.
//!
//! The tables of a phase are not kept one by one. A repeat always
//! consults the table of the chunk's *latest* access, and chunks are
//! distinct within a step, so one word per chunk holds everything a
//! repeat can ask for: `plan[x] = T_{last_access[x]}(x)`, overwritten
//! after each step for exactly that step's chunks. Per step of the phase
//! only the table's failure flag is remembered.

use super::probe;
use crate::config::SimConfig;
use crate::policy::{Decision, Policy, RejectReason, RouteCtx, StepOps};
use crate::queue::ClassSpec;
use crate::view::ClusterView;
use rlb_cuckoo::{Choices, TableBuilder};

/// Queue class indices.
const Q: u8 = 0;
const P: u8 = 1;
const Q_PREV: usize = 2;
const P_PREV: usize = 3;

/// Sentinel for "never accessed".
const NEVER: u64 = u64::MAX;

/// What is kept of `T_t` beside its `plan` entries.
#[derive(Debug, Clone, Copy)]
struct StepSlot {
    failed: bool,
    /// Step the table was built for (guards stale slots in debug builds).
    step: u64,
}

/// Counters exposed for experiments and debugging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
// return type of `DelayedCuckoo::diagnostics`. lint:allow(dead-pub)
pub struct DcrDiagnostics {
    /// Repeat requests rejected because their table had failed.
    pub table_failure_rejects: u64,
    /// First-access requests rejected with both `Q` queues full.
    pub q_rejects: u64,
    /// Repeat requests routed to `P`.
    pub p_routed: u64,
    /// First accesses routed to `Q`.
    pub q_routed: u64,
    /// Tables built.
    pub tables_built: u64,
    /// Tables that experienced the Lemma 4.2 failure event.
    pub tables_failed: u64,
    /// Phases started.
    pub phases: u64,
}

/// The delayed cuckoo routing policy.
#[derive(Debug, Clone)]
pub struct DelayedCuckoo {
    /// Steps per phase (`Θ(log log m)`).
    phase_length: u64,
    /// Last step each chunk was requested (`NEVER` if none).
    last_access: Vec<u64>,
    /// `plan[chunk] = T_{last_access[chunk]}(chunk)`. Entries of earlier
    /// phases are never cleared: `route` reads an entry only behind the
    /// `last_access` phase guard, and then it was written this phase.
    plan: Vec<u32>,
    /// Per step of the current phase, indexed by `step - phase_start`.
    slots: Vec<StepSlot>,
    /// The candidate servers of this step's requests, in arrival order.
    step_choices: Vec<Choices>,
    /// The table solver and its output buffer, reused every step.
    builder: TableBuilder,
    server_of: Vec<u32>,
    /// First step of the current phase.
    phase_start: u64,
    diagnostics: DcrDiagnostics,
    num_servers: usize,
    started: bool,
}

impl DelayedCuckoo {
    /// Creates the policy for the given config, with
    /// [`default_phase_length`](Self::default_phase_length) of
    /// `config.num_servers`.
    pub fn new(config: &SimConfig) -> Self {
        Self::with_phase_length(config, Self::default_phase_length(config.num_servers))
    }

    /// The phase length for `m` servers: `2·⌈log2 log2 m⌉` (min 2).
    pub fn default_phase_length(m: usize) -> u64 {
        let loglog = (m.max(4) as f64).log2().log2().ceil().max(1.0) as u64;
        loglog.saturating_mul(2).max(2)
    }

    /// Creates the policy with an explicit phase length.
    ///
    /// # Panics
    /// Panics if the phase length is zero or replication is not 2.
    pub fn with_phase_length(config: &SimConfig, phase_length: u64) -> Self {
        assert!(phase_length > 0, "phase length must be positive");
        assert_eq!(
            config.replication, 2,
            "delayed cuckoo routing requires d = 2"
        );
        Self {
            phase_length,
            last_access: vec![NEVER; config.num_chunks],
            plan: vec![0; config.num_chunks],
            slots: vec![
                StepSlot {
                    failed: false,
                    step: NEVER,
                };
                phase_length as usize
            ],
            step_choices: Vec::with_capacity(config.num_servers),
            builder: TableBuilder::new(),
            server_of: Vec::new(),
            phase_start: 0,
            diagnostics: DcrDiagnostics::default(),
            num_servers: config.num_servers,
            started: false,
        }
    }

    /// [`new`](Self::new), or an error naming the bytes when the
    /// allocator refuses the per-chunk tables.
    pub(crate) fn try_new(config: &SimConfig) -> Result<Self, String> {
        probe::<u64>(config.num_chunks)?;
        probe::<u32>(config.num_chunks)?;
        Ok(Self::new(config))
    }

    /// Runtime counters.
    pub fn diagnostics(&self) -> DcrDiagnostics {
        self.diagnostics
    }

    /// Steps per phase.
    pub fn phase_length(&self) -> u64 {
        self.phase_length
    }

    /// Two-choice greedy on the Q queues (first access in a phase, or
    /// the fallback when a repeat's preplanned server is down).
    fn route_first_access(&mut self, h1: u32, h2: u32, view: &ClusterView<'_>) -> Decision {
        let avail1 = view.is_available(h1, Q as usize);
        let avail2 = view.is_available(h2, Q as usize);
        let server = match (avail1, avail2) {
            (false, false) => {
                self.diagnostics.q_rejects = self.diagnostics.q_rejects.saturating_add(1);
                return Decision::Reject(RejectReason::Policy);
            }
            (true, false) => h1,
            (false, true) => h2,
            (true, true) => {
                if view.class_backlog(h2, Q as usize) < view.class_backlog(h1, Q as usize) {
                    h2
                } else {
                    h1
                }
            }
        };
        self.diagnostics.q_routed = self.diagnostics.q_routed.saturating_add(1);
        Decision::Route { server, class: Q }
    }
}

impl Policy for DelayedCuckoo {
    fn name(&self) -> &'static str {
        "delayed-cuckoo"
    }

    fn queue_classes(&self, config: &SimConfig) -> Vec<ClassSpec> {
        // Four queues, each draining g/4 (min 1) per step.
        let drain = (config.process_rate / 4).max(1);
        let spec = ClassSpec {
            capacity: config.queue_capacity,
            drain_per_step: drain,
        };
        vec![spec; 4]
    }

    fn on_step_begin(&mut self, step: u64, ops: &mut dyn StepOps) {
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "phase_length > 0 (asserted at build); step % p <= step"
        )]
        let phase_start = step - step % self.phase_length;
        if phase_start != self.phase_start || !self.started {
            if self.started {
                // Phase boundary: carry residuals to the primed queues.
                // The drain budget guarantees Q'/P' emptied during the
                // previous phase, so the migration cannot overflow.
                ops.migrate_class(Q as usize, Q_PREV);
                ops.migrate_class(P as usize, P_PREV);
            }
            self.phase_start = phase_start;
            self.diagnostics.phases = self.diagnostics.phases.saturating_add(1);
            self.started = true;
        }
    }

    fn route(&mut self, ctx: RouteCtx<'_>, view: &ClusterView<'_>) -> Decision {
        debug_assert_eq!(ctx.replicas.len(), 2, "DCR requires d = 2");
        #[expect(clippy::indexing_slicing, reason = "d = 2, asserted at build")]
        let (h1, h2) = (ctx.replicas[0], ctx.replicas[1]);
        let chunk = ctx.chunk as usize;
        self.step_choices.push(Choices::new(h1, h2));

        #[expect(
            clippy::indexing_slicing,
            reason = "chunk < num_chunks = last_access.len()"
        )]
        let prev = std::mem::replace(&mut self.last_access[chunk], ctx.step);

        // A repeat is a chunk whose last access lies in the current
        // phase; `NEVER` and earlier phases wrap far past the phase
        // length.
        let offset = prev.wrapping_sub(self.phase_start);
        if offset >= self.phase_length {
            return self.route_first_access(h1, h2, view);
        }
        // Route by the table built after the previous access.
        #[expect(
            clippy::indexing_slicing,
            reason = "offset < phase_length = slots.len()"
        )]
        let slot = self.slots[offset as usize];
        debug_assert_eq!(slot.step, prev, "table slot mismatch for repeat access");
        if slot.failed {
            self.diagnostics.table_failure_rejects =
                self.diagnostics.table_failure_rejects.saturating_add(1);
            return Decision::Reject(RejectReason::TableFailed);
        }
        #[expect(clippy::indexing_slicing, reason = "chunk < num_chunks = plan.len()")]
        let server = self.plan[chunk];
        if !view.is_up(server) {
            // The preplanned server is down; fall back to the live Q
            // path (the repeat loses its table guarantee but the request
            // survives).
            return self.route_first_access(h1, h2, view);
        }
        self.diagnostics.p_routed = self.diagnostics.p_routed.saturating_add(1);
        Decision::Route { server, class: P }
    }

    fn on_step_end(&mut self, step: u64, chunks: &[u32], _view: &ClusterView<'_>) {
        // Build T_step over the chunks requested this step.
        assert_eq!(
            chunks.len(),
            self.step_choices.len(),
            "on_step_end must receive the chunks routed this step"
        );
        let status =
            self.builder
                .build_table(self.num_servers, &self.step_choices, &mut self.server_of);
        let diag = &mut self.diagnostics;
        diag.tables_built = diag.tables_built.saturating_add(1);
        if status.failed {
            diag.tables_failed = diag.tables_failed.saturating_add(1);
        }
        #[expect(clippy::indexing_slicing, reason = "chunk < num_chunks = plan.len()")]
        for (&chunk, &server) in chunks.iter().zip(&self.server_of) {
            self.plan[chunk as usize] = server;
        }
        #[expect(
            clippy::indexing_slicing,
            clippy::arithmetic_side_effects,
            reason = "phase_start <= step < phase_start + phase_length = phase_start + slots.len()"
        )]
        let slot = &mut self.slots[(step - self.phase_start) as usize];
        *slot = StepSlot {
            failed: status.failed,
            step,
        };
        self.step_choices.clear();
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects)]
mod tests {
    use super::*;
    use crate::config::DrainMode;
    use crate::sim::{Simulation, Workload};

    fn dcr_config(m: usize) -> SimConfig {
        SimConfig {
            num_servers: m,
            num_chunks: 4 * m,
            replication: 2,
            process_rate: 16,
            queue_capacity: 16,
            flush_interval: None,
            drain_mode: DrainMode::EndOfStep,
            seed: 3,
            safety_check_every: Some(1),
        }
    }

    fn repeated_workload(k: u32) -> impl Workload {
        move |_step: u64, out: &mut Vec<u32>| out.extend(0..k)
    }

    #[test]
    fn repeated_set_is_mostly_routed_to_p() {
        let cfg = dcr_config(64);
        let policy = DelayedCuckoo::new(&cfg);
        let mut sim = Simulation::new(cfg, policy);
        sim.run(&mut repeated_workload(64), 40);
        let diag = sim.policy().diagnostics();
        // Only the first access of each phase is a Q access.
        assert!(diag.p_routed > diag.q_routed, "{diag:?}");
        assert!(diag.tables_built >= 40);
        let report = sim.finish();
        report.check_conservation().unwrap();
        assert_eq!(report.rejected_total, 0, "no rejections expected");
    }

    #[test]
    fn fresh_chunks_always_use_q() {
        let cfg = dcr_config(64);
        let policy = DelayedCuckoo::new(&cfg);
        let mut sim = Simulation::new(cfg, policy);
        // Different chunk range each step: no repeats within a phase.
        let mut step_counter = 0u32;
        let mut workload = move |_s: u64, out: &mut Vec<u32>| {
            let base = (step_counter * 16) % 192;
            out.extend(base..base + 16);
            step_counter += 3; // stride avoids revisits within a phase
        };
        sim.run(&mut workload, 12);
        let diag = sim.policy().diagnostics();
        assert_eq!(diag.table_failure_rejects, 0);
        let report = sim.finish();
        report.check_conservation().unwrap();
    }

    #[test]
    fn phase_bookkeeping_counts_phases() {
        let cfg = dcr_config(64);
        let policy = DelayedCuckoo::with_phase_length(&cfg, 5);
        let mut sim = Simulation::new(cfg, policy);
        sim.run(&mut repeated_workload(32), 23);
        // Steps 0..23 with phase length 5 -> phases 0..4 => 5 phases.
        assert_eq!(sim.policy().diagnostics().phases, 5);
    }

    #[test]
    fn full_load_repeated_set_stays_bounded() {
        // m requests per step to the same m chunks: the paper's hard
        // case. Queues must stay within O(log log m)-scale capacity and
        // rejections must be essentially absent.
        let cfg = dcr_config(256);
        let policy = DelayedCuckoo::new(&cfg);
        let mut sim = Simulation::new(cfg, policy);
        sim.run(&mut repeated_workload(256), 60);
        let report = sim.finish();
        report.check_conservation().unwrap();
        assert_eq!(report.rejected_total, 0, "rejections: {report:?}");
        assert!(
            report.max_backlog <= 4 * 16,
            "max backlog {}",
            report.max_backlog
        );
    }

    #[test]
    fn step_end_stops_allocating_after_the_first_step() {
        // A fixed request-set size: everything `on_step_end` touches is
        // sized during step 0 and only reused afterwards.
        let cfg = dcr_config(256);
        let policy = DelayedCuckoo::new(&cfg);
        let phase_length = policy.phase_length();
        let mut sim = Simulation::new(cfg, policy);
        let footprint = |p: &DelayedCuckoo| {
            (
                p.builder.capacity_bytes(),
                p.server_of.capacity(),
                p.step_choices.capacity(),
                p.plan.capacity(),
                p.slots.capacity(),
            )
        };
        // Arrival order rotates, so the tables (and their cycles) differ
        // from step to step.
        let mut workload = |step: u64, out: &mut Vec<u32>| {
            out.extend((0..256u32).map(|c| (c + step as u32) % 256))
        };
        sim.run(&mut workload, 1);
        let after_first = footprint(sim.policy());
        assert!(after_first.0 > 0);
        sim.run(&mut workload, 3 * phase_length);
        assert_eq!(footprint(sim.policy()), after_first);
        assert_eq!(
            sim.policy().diagnostics().tables_built,
            1 + 3 * phase_length
        );
    }

    #[test]
    fn requires_replication_two() {
        let mut cfg = dcr_config(16);
        cfg.replication = 3;
        let result = std::panic::catch_unwind(|| DelayedCuckoo::new(&cfg));
        assert!(result.is_err());
    }

    #[test]
    fn queue_classes_are_four_way_split() {
        let cfg = dcr_config(64);
        let classes = DelayedCuckoo::new(&cfg).queue_classes(&cfg);
        assert_eq!(classes.len(), 4);
        assert!(classes.iter().all(|c| c.drain_per_step == 4));
        assert!(classes.iter().all(|c| c.capacity == 16));
    }
}
