//! Property tests of delayed cuckoo routing's structural invariants,
//! swept over deterministic PCG-generated cases.

use rlb_core::policies::{DcrDiagnostics, DelayedCuckoo};
use rlb_core::policy::StepOps;
use rlb_core::{
    ClassSpec, ClusterView, Decision, DrainMode, Observer, OutageSchedule, Policy, RejectReason,
    RouteCtx, SimConfig, Simulation,
};
use rlb_cuckoo::{Choices, RoutingTable, TableBuilder};
use rlb_hash::{sample, Pcg64, ReplicaPlacement, Rng};

/// Records arrivals to class P per (server, step).
struct PArrivals {
    m: usize,
    current: Vec<u32>,
    per_step: Vec<Vec<u32>>,
}

impl Observer for PArrivals {
    fn on_route(&mut self, _step: u64, _chunk: u32, decision: Decision) {
        if let Decision::Route { server, class: 1 } = decision {
            self.current[server as usize] += 1;
        }
    }
    fn on_step_end(&mut self, _step: u64, _view: &ClusterView<'_>) {
        self.per_step
            .push(std::mem::replace(&mut self.current, vec![0; self.m]));
    }
}

const CASES: u64 = 24;

fn case_rng(property: u64, case: u64) -> Pcg64 {
    Pcg64::new(0x64637269 ^ (property << 32) ^ case, property)
}

/// Lemma 4.5 (deterministic form): within any phase, the number of
/// requests routed to one server's P queue is at most
/// `max_per_server · phase_length`, where `max_per_server` is the
/// Lemma 4.2 constant (3 + stash spill; we assert against a slack of
/// 4 per step, matching E10's measured worst case).
#[test]
fn p_arrivals_per_phase_are_bounded() {
    for case in 0..CASES {
        let mut case_r = case_rng(1, case);
        let m_exp = 5 + case_r.gen_index(4); // m in 32..256
        let m = 1usize << m_exp;
        let phase_length = 2 + case_r.gen_range(6);
        let seed = case_r.next_u64();
        let repeat_frac = 0.3 + case_r.gen_f64() * 0.7;
        let steps = 4 * phase_length;
        let config = SimConfig {
            num_servers: m,
            num_chunks: 4 * m,
            replication: 2,
            process_rate: 16,
            queue_capacity: 4 * phase_length as u32 + 8,
            flush_interval: None,
            drain_mode: DrainMode::EndOfStep,
            seed,
            safety_check_every: None,
        };
        let policy = DelayedCuckoo::with_phase_length(&config, phase_length);
        let mut sim = Simulation::new(config, policy);
        // Workload: a sticky core (repeat_frac of m) plus fresh filler —
        // chunks distinct within each step by construction.
        let core = ((m as f64) * repeat_frac) as u32;
        let mut rng = Pcg64::new(seed ^ 0x77, 3);
        let mut workload = move |_s: u64, out: &mut Vec<u32>| {
            out.extend(0..core);
            let filler = m as u32 - core;
            for c in
                sample::sample_k_distinct(&mut rng, (4 * m) as u64 - core as u64, filler as usize)
            {
                out.push(core + c as u32);
            }
        };
        let mut obs = PArrivals {
            m,
            current: vec![0; m],
            per_step: Vec::new(),
        };
        sim.run_observed(&mut workload, steps, &mut obs);
        let report = sim.finish();
        assert!(report.check_conservation().is_ok(), "case {case}");

        // Per-phase, per-server P arrivals.
        let bound = 4 * phase_length as u32;
        for phase_start in (0..obs.per_step.len()).step_by(phase_length as usize) {
            let phase_end = (phase_start + phase_length as usize).min(obs.per_step.len());
            for server in 0..m {
                let total: u32 = obs.per_step[phase_start..phase_end]
                    .iter()
                    .map(|v| v[server])
                    .sum();
                assert!(
                    total <= bound,
                    "case {case}: server {server} got {total} P arrivals in a phase (bound {bound})"
                );
            }
        }
    }
}

/// Rerunning the same configuration gives identical diagnostics —
/// DCR's bookkeeping is deterministic end to end.
#[test]
fn dcr_is_deterministic() {
    for case in 0..CASES {
        let mut case_r = case_rng(2, case);
        let seed = case_r.next_u64();
        let phase_length = 2 + case_r.gen_range(4);
        let run = || {
            let config = SimConfig {
                num_servers: 64,
                num_chunks: 256,
                replication: 2,
                process_rate: 16,
                queue_capacity: 16,
                flush_interval: None,
                drain_mode: DrainMode::EndOfStep,
                seed,
                safety_check_every: None,
            };
            let policy = DelayedCuckoo::with_phase_length(&config, phase_length);
            let mut sim = Simulation::new(config, policy);
            let mut workload = |_s: u64, out: &mut Vec<u32>| out.extend(0..64u32);
            sim.run(&mut workload, 30);
            let d = sim.policy().diagnostics();
            let r = sim.finish();
            (d, r.accepted, r.completed)
        };
        assert_eq!(run(), run(), "case {case}");
    }
}

// --- The chunk-indexed word ---------------------------------------
//
// `DelayedCuckoo` keeps one word a chunk (its latest access and the
// replica that access's table chose) instead of one table per step of
// the phase. The tests below pin the cases where a word is older than
// the newest table: it must be read exactly when the paper's
// `T_{last access}` says so, and never across a phase boundary.

const Q_CLASS: u8 = 0;
const P_CLASS: u8 = 1;

/// Records every routing decision as `(step, chunk, decision)`.
#[derive(Default)]
struct Decisions(Vec<(u64, u32, Decision)>);

impl Observer for Decisions {
    fn on_route(&mut self, step: u64, chunk: u32, decision: Decision) {
        self.0.push((step, chunk, decision));
    }
}

impl Decisions {
    fn of(&self, step: u64, chunk: u32) -> Decision {
        let mut hits = self.0.iter().filter(|d| d.0 == step && d.1 == chunk);
        let hit = hits.next().expect("chunk was not requested at that step");
        assert!(hits.next().is_none(), "chunk requested twice in a step");
        hit.2
    }
}

fn plan_config(m: usize, num_chunks: usize) -> SimConfig {
    SimConfig {
        num_servers: m,
        num_chunks,
        replication: 2,
        process_rate: 16,
        queue_capacity: 64,
        flush_interval: None,
        drain_mode: DrainMode::EndOfStep,
        seed: 0x706c616e,
        safety_check_every: None,
    }
}

/// The reference `T_t`: Lemma 4.2 over one step's request list, in
/// arrival order, built by the cold path.
fn reference_table(placement: &ReplicaPlacement, m: usize, chunks: &[u32]) -> RoutingTable {
    let items: Vec<Choices> = chunks
        .iter()
        .map(|&c| {
            let r = placement.replicas(c);
            Choices::new(r[0], r[1])
        })
        .collect();
    RoutingTable::build(m, &items)
}

/// The first `count` chunk ids, ascending, that `keep` accepts by
/// their replica row under `placement`.
fn scan(placement: &ReplicaPlacement, count: usize, keep: impl Fn(&[u32]) -> bool) -> Vec<u32> {
    (0..=u32::MAX)
        .filter(|&c| keep(&placement.replicas(c)))
        .take(count)
        .collect()
}

/// Whether `row` lives on servers `{a, b}` and nowhere else.
fn on_pair(row: &[u32], a: u32, b: u32) -> bool {
    row == [a, b] || row == [b, a]
}

/// (a) A chunk last requested in phase `p` is a first access in phase
/// `p + 1`, although its word still holds its access in phase `p`.
#[test]
fn plan_entry_from_an_earlier_phase_is_not_consulted() {
    let m = 64;
    let config = plan_config(m, 4 * m);
    let policy = DelayedCuckoo::with_phase_length(&config, 4);
    let mut sim = Simulation::new(config, policy);
    // Chunks 0..32 at steps 2, 3 (phase 0) and 4, 5 (phase 1).
    let mut workload = |step: u64, out: &mut Vec<u32>| {
        if (2..6).contains(&step) {
            out.extend(0..32u32);
        }
    };
    let mut obs = Decisions::default();
    sim.run_observed(&mut workload, 6, &mut obs);
    for chunk in 0..32u32 {
        let class_at = |step| match obs.of(step, chunk) {
            Decision::Route { class, .. } => class,
            other => panic!("chunk {chunk} step {step}: {other:?}"),
        };
        assert_eq!(class_at(2), Q_CLASS, "first access");
        assert_eq!(class_at(3), P_CLASS, "repeat inside phase 0");
        assert_eq!(class_at(4), Q_CLASS, "phase 1 starts over");
        assert_eq!(class_at(5), P_CLASS, "repeat inside phase 1");
    }
    let d = sim.policy().diagnostics();
    assert_eq!((d.q_routed, d.p_routed), (64, 64), "{d:?}");
}

/// (b) A repeat consults the table of the chunk's *latest* access: a
/// chunk requested at steps `t` and `t + 2` but not `t + 1` is routed by
/// `T_t`, while its neighbours requested at `t + 1` are routed by
/// `T_{t+1}` — both checked against cold reference builds.
#[test]
fn repeat_is_routed_by_the_table_of_its_latest_access() {
    let m = 256;
    let k = 192u32;
    let config = plan_config(m, 4 * m);
    let policy = DelayedCuckoo::with_phase_length(&config, 6);
    let mut sim = Simulation::new(config, policy);
    let placement = *sim.placement();
    // Step 0: 0..k. Step 1: k/2..3k/2, reversed so that positions (and
    // with them the i mod 3 groups) differ from step 0. Step 2: 0..k.
    let step_chunks = |step: u64| -> Vec<u32> {
        match step {
            0 | 2 => (0..k).collect(),
            _ => (k / 2..k + k / 2).rev().collect(),
        }
    };
    let mut workload = |step: u64, out: &mut Vec<u32>| out.extend(step_chunks(step));
    let mut obs = Decisions::default();
    sim.run_observed(&mut workload, 3, &mut obs);

    let t0 = reference_table(&placement, m, &step_chunks(0));
    let t1 = reference_table(&placement, m, &step_chunks(1));
    assert!(!t0.failed() && !t1.failed());
    let mut differing = 0;
    for (i0, chunk) in step_chunks(0).into_iter().enumerate() {
        let want = if chunk < k / 2 {
            t0.server_of(i0)
        } else {
            let i1 = step_chunks(1).iter().position(|&c| c == chunk).unwrap();
            differing += (t1.server_of(i1) != t0.server_of(i0)) as u32;
            t1.server_of(i1)
        };
        assert_eq!(
            obs.of(2, chunk),
            Decision::Route {
                server: want,
                class: P_CLASS
            },
            "chunk {chunk}"
        );
    }
    assert!(
        differing > 0,
        "T_0 and T_1 agree everywhere: test is vacuous"
    );
}

/// 16 servers: 30 chunks that all live on servers {0, 1} (any step
/// that requests more than a handful of them overflows the stash), and
/// 30 that avoid both, found by scanning the run's own placement.
fn concentrated_chunks(placement: &ReplicaPlacement) -> (Vec<u32>, Vec<u32>) {
    let pair = scan(placement, 30, |r| on_pair(r, 0, 1));
    let spread = scan(placement, 30, |r| r.iter().all(|&s| s > 1));
    (pair, spread)
}

/// (c) Repeats of a failed table are rejected and counted; repeats in
/// the same step that consult a later, healthy table are routed.
#[test]
fn failed_table_rejects_only_the_repeats_that_consult_it() {
    let config = plan_config(16, 1 << 16);
    let policy = DelayedCuckoo::with_phase_length(&config, 4);
    let mut sim = Simulation::new(config, policy);
    let (pair, spread) = concentrated_chunks(sim.placement());
    let mut workload = |step: u64, out: &mut Vec<u32>| match step {
        0 => out.extend(&pair),                                 // T_0 fails
        1 => out.extend(pair[..5].iter().chain(&spread[..10])), // T_1 is healthy
        2 => out.extend(&pair[..10]),
        _ => {}
    };
    let mut obs = Decisions::default();
    sim.run_observed(&mut workload, 3, &mut obs);
    let failed = Decision::Reject(RejectReason::TableFailed);
    for &chunk in &pair[..5] {
        assert_eq!(obs.of(1, chunk), failed, "consults failed T_0");
        assert!(
            matches!(obs.of(2, chunk), Decision::Route { class: P_CLASS, .. }),
            "chunk {chunk} consults healthy T_1: {:?}",
            obs.of(2, chunk)
        );
    }
    for &chunk in &pair[5..10] {
        assert_eq!(obs.of(2, chunk), failed, "still consults failed T_0");
    }
    let d = sim.policy().diagnostics();
    assert_eq!(d.tables_built, 3);
    assert_eq!(d.tables_failed, 1);
    assert_eq!(d.table_failure_rejects, 10);
    assert_eq!(d.p_routed, 5);
    assert_eq!(d.q_routed, 40);
}

/// (d) A repeat whose planned server is down falls back to the Q path
/// on its live replica.
#[test]
fn planned_server_down_falls_back_to_q() {
    let m = 64;
    let config = plan_config(m, 4 * m);
    let policy = DelayedCuckoo::with_phase_length(&config, 4);
    let sim = Simulation::new(config, policy);
    let placement = *sim.placement();
    let chunks: Vec<u32> = (0..48).collect();
    let t0 = reference_table(&placement, m, &chunks);
    let victim = 17u32;
    let planned = t0.server_of(victim as usize);
    let live = {
        let r = placement.replicas(victim);
        if r[0] == planned {
            r[1]
        } else {
            r[0]
        }
    };
    let mut outage = OutageSchedule::none();
    outage.push(planned, 1, 2);
    let mut sim = sim.with_outages(outage);
    let mut workload = |_step: u64, out: &mut Vec<u32>| out.extend(chunks.iter().copied());
    let mut obs = Decisions::default();
    sim.run_observed(&mut workload, 3, &mut obs);
    assert_eq!(
        obs.of(1, victim),
        Decision::Route {
            server: live,
            class: Q_CLASS
        }
    );
    // Back up at step 2: T_1 covers the same list in the same order.
    assert_eq!(
        obs.of(2, victim),
        Decision::Route {
            server: planned,
            class: P_CLASS
        }
    );
}

/// Diagnostics of a fixed mixed scenario (sticky core, fresh filler,
/// phase rolls, a failing concentrated burst), pinned to the values the
/// per-step sorted-table implementation produced (commit `a214c3f`).
/// They count the scenario's structure, so the hashed placement's own
/// chunks reproduce them. The table counts leave out the 8 phase-final
/// steps of 43 (4, 9, .., 39), whose tables no repeat can read: that
/// implementation built 43 tables, 15 of them failed, and 3 of the
/// failed ones (steps 9, 24 and 39, where the concentrated chunks
/// arrive) were phase-final.
#[test]
fn diagnostics_match_the_per_step_table_implementation() {
    let m = 96;
    let config = plan_config(m, 1 << 18);
    let policy = DelayedCuckoo::with_phase_length(&config, 5);
    let mut sim = Simulation::new(config, policy);
    // 24 chunks on servers {3, 4}, then the lowest other ids: a sticky
    // core of 40 and a filler pool of 4m - 64.
    let concentrated = scan(sim.placement(), 24, |r| on_pair(r, 3, 4));
    let others: Vec<u32> = (0..)
        .filter(|c| !concentrated.contains(c))
        .take(4 * m - 24)
        .collect();
    let (core, pool) = others.split_at(40);
    let pool = pool.to_vec();
    let mut rng = Pcg64::new(77, 1);
    let mut workload = move |step: u64, out: &mut Vec<u32>| {
        // The concentrated chunks every third step, the sticky core
        // every step, and fresh filler.
        if step.is_multiple_of(3) {
            out.extend(&concentrated);
        }
        out.extend(core);
        for i in sample::sample_k_distinct(&mut rng, pool.len() as u64, 20) {
            out.push(pool[i as usize]);
        }
    };
    sim.run(&mut workload, 43);
    let d = sim.policy().diagnostics();
    let report = sim.finish();
    report.check_conservation().unwrap();
    assert_eq!(
        (
            d.p_routed,
            d.q_routed,
            d.tables_built,
            d.tables_failed,
            d.table_failure_rejects,
            d.q_rejects,
            d.phases,
        ),
        (993, 1334, 35, 12, 613, 0, 9),
        "{d:?}"
    );
}

// --- The two-vector layout as a reference --------------------------
//
// `DelayedCuckoo` keeps one 4-byte word a chunk and builds no table on
// a phase's last step. `RefDcr` keeps the layout it replaced, a `u64`
// last-access step and a `u32` planned server a chunk, and builds a
// table after every step. Run side by side, every decision must agree.

/// Delayed cuckoo routing with `last_access` + `plan` and a table
/// every step.
struct RefDcr {
    phase_length: u64,
    last_access: Vec<u64>,
    plan: Vec<u32>,
    /// Per step of the phase: (table failed, step it was built for).
    slots: Vec<(bool, u64)>,
    step_choices: Vec<Choices>,
    builder: TableBuilder,
    server_of: Vec<u32>,
    phase_start: u64,
    started: bool,
    num_servers: usize,
    diag: DcrDiagnostics,
}

impl RefDcr {
    fn new(config: &SimConfig, phase_length: u64) -> Self {
        Self {
            phase_length,
            last_access: vec![u64::MAX; config.num_chunks],
            plan: vec![0; config.num_chunks],
            slots: vec![(false, u64::MAX); phase_length as usize],
            step_choices: Vec::new(),
            builder: TableBuilder::new(),
            server_of: Vec::new(),
            phase_start: 0,
            started: false,
            num_servers: config.num_servers,
            diag: DcrDiagnostics::default(),
        }
    }

    fn route_first_access(&mut self, h1: u32, h2: u32, view: &ClusterView<'_>) -> Decision {
        let server = match (view.is_available(h1, 0), view.is_available(h2, 0)) {
            (false, false) => {
                self.diag.q_rejects += 1;
                return Decision::Reject(RejectReason::Policy);
            }
            (true, false) => h1,
            (false, true) => h2,
            (true, true) if view.class_backlog(h2, 0) < view.class_backlog(h1, 0) => h2,
            (true, true) => h1,
        };
        self.diag.q_routed += 1;
        Decision::Route {
            server,
            class: Q_CLASS,
        }
    }
}

impl Policy for RefDcr {
    fn name(&self) -> &'static str {
        "reference-dcr"
    }

    fn queue_classes(&self, config: &SimConfig) -> Vec<ClassSpec> {
        let spec = ClassSpec {
            capacity: config.queue_capacity,
            drain_per_step: (config.process_rate / 4).max(1),
        };
        vec![spec; 4]
    }

    fn on_step_begin(&mut self, step: u64, ops: &mut dyn StepOps) {
        let phase_start = step - step % self.phase_length;
        if phase_start != self.phase_start || !self.started {
            if self.started {
                ops.migrate_class(0, 2);
                ops.migrate_class(1, 3);
            }
            self.phase_start = phase_start;
            self.diag.phases += 1;
            self.started = true;
        }
    }

    fn route(&mut self, ctx: RouteCtx<'_>, view: &ClusterView<'_>) -> Decision {
        let (h1, h2) = (ctx.replicas[0], ctx.replicas[1]);
        let chunk = ctx.chunk as usize;
        self.step_choices.push(Choices::new(h1, h2));
        let prev = std::mem::replace(&mut self.last_access[chunk], ctx.step);
        let offset = prev.wrapping_sub(self.phase_start);
        if offset >= self.phase_length {
            return self.route_first_access(h1, h2, view);
        }
        let (failed, built_for) = self.slots[offset as usize];
        assert_eq!(built_for, prev, "stale table slot");
        if failed {
            self.diag.table_failure_rejects += 1;
            return Decision::Reject(RejectReason::TableFailed);
        }
        let server = self.plan[chunk];
        if !view.is_up(server) {
            return self.route_first_access(h1, h2, view);
        }
        self.diag.p_routed += 1;
        Decision::Route {
            server,
            class: P_CLASS,
        }
    }

    fn on_step_end(&mut self, step: u64, chunks: &[u32], _view: &ClusterView<'_>) {
        let status =
            self.builder
                .build_table(self.num_servers, &self.step_choices, &mut self.server_of);
        self.diag.tables_built += 1;
        self.diag.tables_failed += u64::from(status.failed);
        for (&chunk, &server) in chunks.iter().zip(&self.server_of) {
            self.plan[chunk as usize] = server;
        }
        self.slots[(step - self.phase_start) as usize] = (status.failed, step);
        self.step_choices.clear();
    }
}

/// PCG-drawn scenarios at phase lengths 1..=6: a sticky core, fresh
/// filler, a burst of chunks on servers {0, 1} that makes its tables
/// fail, and outages of server 0 and of a drawn server. The word and
/// the reference route every request alike and count alike; only the
/// tables of phase-final steps are missing from `tables_built`.
#[test]
fn word_routes_exactly_as_the_two_vector_reference() {
    let mut failed_tables = 0;
    let mut failure_rejects = 0;
    for case in 0..CASES {
        let mut case_r = case_rng(3, case);
        let phase_length = 1 + case % 6;
        let m = 16usize << case_r.gen_index(3); // 16, 32 or 64
        let seed = case_r.next_u64();
        let steps = 5 * phase_length + case_r.gen_range(2 * phase_length);
        let config = SimConfig {
            num_servers: m,
            num_chunks: 1 << 18,
            replication: 2,
            process_rate: 16,
            queue_capacity: 4 + case_r.gen_range(12) as u32,
            flush_interval: None,
            drain_mode: DrainMode::EndOfStep,
            seed,
            safety_check_every: None,
        };
        let placement = ReplicaPlacement::random(config.num_chunks, m, 2, seed);
        let burst = scan(&placement, 24, |r| on_pair(r, 0, 1));
        assert!(burst.iter().all(|&c| (c as usize) < config.num_chunks));
        let others: Vec<u32> = (0..).filter(|c| !burst.contains(c)).take(4 * m).collect();
        let core_len = m / 4 + case_r.gen_index(m / 2);
        let (core, pool) = others.split_at(core_len);
        let burst_every = 2 + case_r.gen_range(3);
        let workload_seed = case_r.next_u64();
        let workload = || {
            let (core, pool, burst) = (core.to_vec(), pool.to_vec(), burst.clone());
            let mut rng = Pcg64::new(workload_seed, 5);
            move |step: u64, out: &mut Vec<u32>| {
                if step % burst_every == 1 {
                    let k = 8 + rng.gen_index(burst.len() - 8);
                    out.extend(&burst[..k]);
                }
                out.extend(&core);
                for i in sample::sample_k_distinct(&mut rng, pool.len() as u64, m / 4) {
                    out.push(pool[i as usize]);
                }
            }
        };
        let mut outages = OutageSchedule::none();
        let down_at = case_r.gen_range(steps - 1);
        outages.push(0, down_at, down_at + 2);
        let other = 2 + case_r.gen_index(m - 2) as u32;
        let other_at = case_r.gen_range(steps - 1);
        outages.push(other, other_at, other_at + 1 + case_r.gen_range(3));

        let mut word = Simulation::new(
            config.clone(),
            DelayedCuckoo::with_phase_length(&config, phase_length),
        )
        .with_outages(outages.clone());
        let mut reference = Simulation::new(config.clone(), RefDcr::new(&config, phase_length))
            .with_outages(outages);
        let (mut word_obs, mut ref_obs) = (Decisions::default(), Decisions::default());
        word.run_observed(&mut workload(), steps, &mut word_obs);
        reference.run_observed(&mut workload(), steps, &mut ref_obs);
        assert_eq!(word_obs.0.len(), ref_obs.0.len(), "case {case}");
        for (w, r) in word_obs.0.iter().zip(&ref_obs.0) {
            assert_eq!(w, r, "case {case}: (step, chunk, decision)");
        }

        let (w, r) = (word.policy().diagnostics(), reference.policy().diag);
        let routing = |d: DcrDiagnostics| DcrDiagnostics {
            tables_built: 0,
            tables_failed: 0,
            ..d
        };
        assert_eq!(routing(w), routing(r), "case {case}");
        let phase_final_steps = steps / phase_length;
        assert_eq!(r.tables_built, steps, "case {case}");
        assert_eq!(
            r.tables_built - w.tables_built,
            phase_final_steps,
            "case {case}"
        );
        assert!(w.tables_failed <= r.tables_failed, "case {case}");
        failed_tables += w.tables_failed;
        failure_rejects += w.table_failure_rejects;
    }
    // The bursts must reach the failed-table path.
    assert!(
        failed_tables > 0 && failure_rejects > 0,
        "the burst is too small"
    );
}
