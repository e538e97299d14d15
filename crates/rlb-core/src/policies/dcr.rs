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
//! consults the table of the chunk's *latest* access, chunks are
//! distinct within a step, and `T_t` puts every chunk on one of its own
//! two replicas (a stashed one on `h1`). So one 4-byte word per chunk
//! holds everything a repeat can ask for: the step of its latest access
//! and one bit naming the replica `T_t` chose. The placement is a pure
//! function of the chunk, so the repeat finds the same two servers in
//! its own route context. Per step of the phase only the table's
//! failure flag is remembered. The table of a phase's last step is not
//! built at all: the next access of any of its chunks opens a new phase
//! as a first access, so no repeat could read it.
//!
//! The word counts steps from `base`, a phase start, and 0 means "not
//! accessed since `base`", so the vector starts as lazily zeroed pages
//! and only the chunks actually requested become resident. Once the
//! phase start is [`REBASE_AFTER`] steps past `base`, every word is
//! cleared and `base` moves to the phase start. That is exact: an
//! access before the phase start is a first access either way. It also
//! keeps the step field below 2³¹, so no access ever aliases into a
//! later phase.

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

/// Phase lengths stay below 2²⁹, so a word's step field
/// (`step − base + 1 < REBASE_AFTER + MAX_PHASE_LENGTH`) fits in 31 bits.
const MAX_PHASE_LENGTH: u64 = 1 << 29;

/// `seen` is cleared and re-based at the first phase start this many
/// steps past `base`.
const REBASE_AFTER: u64 = 1 << 30;

/// What is kept of `T_t` beside the chunks' replica bits.
#[derive(Debug, Clone, Copy)]
struct StepSlot {
    failed: bool,
    /// Step the table was built for (guards stale slots in debug builds).
    step: u64,
}

/// Counters exposed for experiments and debugging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DcrDiagnostics {
    /// Repeat requests rejected because their table had failed.
    pub table_failure_rejects: u64,
    /// First-access requests rejected with both `Q` queues full.
    pub q_rejects: u64,
    /// Repeat requests routed to `P`.
    pub p_routed: u64,
    /// First accesses routed to `Q`.
    pub q_routed: u64,
    /// Tables built: one after every step but the last of each phase,
    /// whose table no repeat can read.
    pub tables_built: u64,
    /// Tables built that experienced the Lemma 4.2 failure event.
    pub tables_failed: u64,
    /// Phases started.
    pub phases: u64,
}

/// The delayed cuckoo routing policy.
#[derive(Debug, Clone)]
pub struct DelayedCuckoo {
    /// Steps per phase (`Θ(log log m)`).
    phase_length: u64,
    /// Per chunk, `((t − base + 1) << 1) | bit` for its latest access
    /// `t`, where `bit` is 0 if `T_t` put it on its first replica and 1
    /// on its second; 0 if it was not requested since `base`. The bit
    /// is written by `on_step_end`, and only read for a `t` in the
    /// current phase.
    seen: Vec<u32>,
    /// The step the `seen` words count from: a phase start.
    base: u64,
    /// `phase_start − base + 1`: the step field of the phase's first step.
    phase_word: u32,
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
    /// Panics if the phase length is zero or not below 2²⁹, or
    /// replication is not 2.
    pub fn with_phase_length(config: &SimConfig, phase_length: u64) -> Self {
        assert!(phase_length > 0, "phase length must be positive");
        assert!(
            phase_length < MAX_PHASE_LENGTH,
            "phase length must be below 2^29, got {phase_length}"
        );
        assert_eq!(
            config.replication, 2,
            "delayed cuckoo routing requires d = 2"
        );
        Self {
            phase_length,
            seen: vec![0; config.num_chunks],
            base: 0,
            phase_word: 1,
            slots: vec![
                StepSlot {
                    failed: false,
                    step: u64::MAX,
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
    /// allocator refuses the per-chunk words (4 bytes a chunk: over 2³²
    /// chunk ids, 17 179 869 184 bytes).
    pub(crate) fn try_new(config: &SimConfig) -> Result<Self, String> {
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
            // Wrapping: a phase start before `base` re-bases too.
            if phase_start.wrapping_sub(self.base) >= REBASE_AFTER {
                self.seen.fill(0);
                self.base = phase_start;
            }
            // phase_start − base < 2³⁰ here, so the cast keeps every bit.
            self.phase_word = (phase_start.wrapping_sub(self.base) as u32).wrapping_add(1);
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

        // step − base + 1 < 2³¹ (ctx.step lies in the current phase), so
        // the shift keeps every bit; the replica bit starts at 0.
        let word = (ctx.step.wrapping_sub(self.base) as u32).wrapping_add(1) << 1;
        #[expect(clippy::indexing_slicing, reason = "chunk < num_chunks = seen.len()")]
        let prev = std::mem::replace(&mut self.seen[chunk], word);

        // A repeat is a chunk whose last access lies in the current
        // phase; 0 and earlier steps wrap far past the phase length.
        let offset = (prev >> 1).wrapping_sub(self.phase_word);
        if u64::from(offset) >= self.phase_length {
            return self.route_first_access(h1, h2, view);
        }
        // Route by the table built after the previous access.
        #[expect(
            clippy::indexing_slicing,
            reason = "offset < phase_length = slots.len()"
        )]
        let slot = self.slots[offset as usize];
        debug_assert_eq!(
            slot.step,
            self.phase_start.wrapping_add(u64::from(offset)),
            "table slot mismatch for repeat access"
        );
        if slot.failed {
            self.diagnostics.table_failure_rejects =
                self.diagnostics.table_failure_rejects.saturating_add(1);
            return Decision::Reject(RejectReason::TableFailed);
        }
        let server = if prev & 1 == 0 { h1 } else { h2 };
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
        assert_eq!(
            chunks.len(),
            self.step_choices.len(),
            "on_step_end must receive the chunks routed this step"
        );
        let offset = step.wrapping_sub(self.phase_start);
        // The phase's last step: its chunks' next accesses are first
        // accesses of a later phase, so no repeat reads T_step.
        if offset.wrapping_add(1) == self.phase_length {
            self.step_choices.clear();
            return;
        }
        // Build T_step over the chunks requested this step.
        let status =
            self.builder
                .build_table(self.num_servers, &self.step_choices, &mut self.server_of);
        let diag = &mut self.diagnostics;
        diag.tables_built = diag.tables_built.saturating_add(1);
        if status.failed {
            diag.tables_failed = diag.tables_failed.saturating_add(1);
        }
        // `route` wrote each chunk's word this step with the bit clear.
        // Which replica the table chose is a coin flip, so the bit is
        // or-ed in without a branch.
        #[expect(clippy::indexing_slicing, reason = "chunk < num_chunks = seen.len()")]
        for ((&chunk, &server), choices) in
            chunks.iter().zip(&self.server_of).zip(&self.step_choices)
        {
            self.seen[chunk as usize] |= u32::from(server != choices.h1);
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "phase_start <= step < phase_start + phase_length = phase_start + slots.len()"
        )]
        let slot = &mut self.slots[offset as usize];
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
    use crate::queue::QueueArray;
    use crate::sim::{Simulation, Workload};
    use rlb_cuckoo::RoutingTable;

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
        // Phase length 6: 40 steps hold 6 phase-final steps (5, 11, ..,
        // 35), which build no table.
        assert_eq!(diag.tables_built, 34);
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
                p.seen.capacity(),
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
        // Steps 0..=3L: every step but the three phase-final ones
        // (L - 1, 2L - 1, 3L - 1) builds a table.
        assert_eq!(
            sim.policy().diagnostics().tables_built,
            1 + 3 * (phase_length - 1)
        );
    }

    // --- The 4-byte word, driven by hand ----------------------------

    /// A `StepOps` that ignores migrations: the hand-driven tests below
    /// look only at routing decisions.
    struct NoOps;

    impl StepOps for NoOps {
        fn migrate_class(&mut self, _from: usize, _to: usize) {}
    }

    /// One request: the chunk and its two replicas.
    type Request = (u32, [u32; 2]);

    /// Runs `step` the way the engine does: `on_step_begin`, `route` for
    /// each request in arrival order, `on_step_end`.
    fn drive(
        dcr: &mut DelayedCuckoo,
        view: &ClusterView<'_>,
        step: u64,
        requests: &[Request],
    ) -> Vec<Decision> {
        dcr.on_step_begin(step, &mut NoOps);
        let decisions = requests
            .iter()
            .map(|(chunk, replicas)| {
                let ctx = RouteCtx {
                    step,
                    chunk: *chunk,
                    replicas,
                };
                dcr.route(ctx, view)
            })
            .collect();
        let chunks: Vec<u32> = requests.iter().map(|r| r.0).collect();
        dcr.on_step_end(step, &chunks, view);
        decisions
    }

    /// `count` requests for chunks `first..`, all on servers 0..4: a
    /// crowded table, so it puts some chunks on their second replica.
    fn crowded(first: u32, count: u32) -> Vec<Request> {
        (first..first + count)
            .map(|c| (c, [c % 4, (c + 1 + c / 4) % 4]))
            .collect()
    }

    /// Steps 2³¹ and 2³² apart alias in 31 and 32 bits. Phase length 4
    /// divides both, so a far access sits at the same phase offset as a
    /// step of the current phase whose table is healthy: a word that was
    /// never re-based reads it as a repeat and routes it to `P`. And a
    /// step field of `step as u32` loses its top bit from step 2³¹ on,
    /// so repeats in the phase that starts there miss their table.
    #[test]
    fn far_accesses_are_first_accesses_across_rebases() {
        let cfg = SimConfig {
            num_chunks: 64,
            ..dcr_config(8)
        };
        let queues = QueueArray::new(8, &DelayedCuckoo::new(&cfg).queue_classes(&cfg));
        let view = ClusterView::new(&queues);
        let mut dcr = DelayedCuckoo::with_phase_length(&cfg, 4);
        let (a, b): (Request, Request) = ((1, [2, 5]), (2, [6, 3]));
        let filler = crowded(40, 8);
        let repeats = crowded(16, 16);
        let table = RoutingTable::build(
            8,
            &repeats
                .iter()
                .map(|(_, r)| Choices::new(r[0], r[1]))
                .collect::<Vec<_>>(),
        );
        assert!(!table.failed());
        // `repeats`, requested at a phase's first step, go where that
        // step's table put them, on both sides.
        let check_repeats = |late: &[Decision]| {
            let mut second = 0;
            for (i, (d, (chunk, [h1, h2]))) in late.iter().zip(&repeats).enumerate() {
                let want = table.server_of(i);
                second += usize::from(want != *h1);
                assert!(want == *h1 || want == *h2);
                assert_eq!(
                    *d,
                    Decision::Route {
                        server: want,
                        class: P
                    },
                    "chunk {chunk}"
                );
            }
            assert!(
                second > 0 && second < repeats.len(),
                "the table used only one side: the bit is untested"
            );
        };
        let two31 = 1u64 << 31;
        let two32 = 1u64 << 32;

        drive(&mut dcr, &view, 0, &filler);
        let first = drive(&mut dcr, &view, 1, &[&[a], &filler[..]].concat());
        assert!(matches!(first[0], Decision::Route { class: Q, .. }));
        // Phase start 2³¹ re-bases; `b` lands at offset 1.
        drive(&mut dcr, &view, two31, &repeats);
        drive(&mut dcr, &view, two31 + 1, &[&[b], &filler[..]].concat());
        check_repeats(&drive(&mut dcr, &view, two31 + 2, &repeats));
        // Phase start 2³² re-bases again, and offset 1's table is healthy.
        drive(&mut dcr, &view, two32, &repeats);
        drive(&mut dcr, &view, two32 + 1, &filler);
        let late = drive(
            &mut dcr,
            &view,
            two32 + 2,
            &[&[a, b], &repeats[..]].concat(),
        );
        // `a` was last requested 2³² steps before step 2³² + 1, `b`
        // 2³¹ steps before it: both are first accesses.
        for (d, (chunk, [h1, h2])) in late.iter().zip([a, b]) {
            assert!(
                matches!(*d, Decision::Route { class: Q, server } if server == h1 || server == h2),
                "chunk {chunk}: {d:?}"
            );
        }
        check_repeats(&late[2..]);
        // P: the filler's 8 at step 1 and the 16 repeats twice.
        let diag = dcr.diagnostics();
        assert_eq!((diag.p_routed, diag.table_failure_rejects), (40, 0));
    }

    /// The word keeps no step of an earlier phase: a chunk requested at
    /// the last step of a phase (whose table is never built) and again
    /// at the next step is a first access.
    #[test]
    fn phase_final_step_builds_no_table() {
        let cfg = dcr_config(8);
        let queues = QueueArray::new(8, &DelayedCuckoo::new(&cfg).queue_classes(&cfg));
        let view = ClusterView::new(&queues);
        let mut dcr = DelayedCuckoo::with_phase_length(&cfg, 3);
        let requests = crowded(0, 6);
        let classes: Vec<Vec<u8>> = (0..7)
            .map(|step| {
                drive(&mut dcr, &view, step, &requests)
                    .iter()
                    .map(|d| match d {
                        Decision::Route { class, .. } => *class,
                        Decision::Reject(r) => panic!("step {step}: {r:?}"),
                    })
                    .collect()
            })
            .collect();
        for (step, row) in classes.iter().enumerate() {
            let want = if step % 3 == 0 { Q } else { P };
            assert!(row.iter().all(|&c| c == want), "step {step}: {row:?}");
        }
        // Steps 0..7 at phase length 3: steps 2 and 5 are phase-final.
        assert_eq!(dcr.diagnostics().tables_built, 5);
    }

    #[test]
    fn phase_length_stays_below_two_to_the_29() {
        let cfg = dcr_config(16);
        let too_long = std::panic::catch_unwind(|| DelayedCuckoo::with_phase_length(&cfg, 1 << 29));
        assert!(too_long.is_err());
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
