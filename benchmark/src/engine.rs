//! The three engine workloads: `Simulation::run` driven open loop in
//! simulated time, timed in windows of a fixed number of steps.
//!
//! The traced mode never edits the engine. It wraps the `Workload` and
//! `Policy` it hands to `Simulation::run` in timing adapters, attaches
//! a recording `TraceSink` to a second run, and replays the recorded
//! enqueue/drain stream against a stand-alone `QueueArray` on the
//! engine's own sub-step schedule.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use rlb_core::policies::{DelayedCuckoo, Greedy};
use rlb_core::policy::StepOps;
use rlb_core::{
    ClassSpec, ClusterView, Decision, DrainMode, Policy, QueueArray, RouteCtx, SimConfig,
    Simulation, TraceEvent, TraceSink, Workload,
};
use rlb_hash::{Pcg64, ReplicaPlacement};
use rlb_metrics::Histogram;
use rlb_workloads::{FreshRandom, RepeatedSet};

use crate::child::{
    cold_setups, collect_windows, driver_layers, per, ChildArgs, ChildResult, Quality,
};
use crate::estimate::Window;
use crate::host;
use crate::spans::{fold, SpanLog, Tracer};

/// The traced policy adapter times one `route` call in this many. A
/// prime, so the sampled positions drift through the request stream
/// instead of hitting the same chunks of a repeated set every step.
pub const ROUTE_SAMPLE_EVERY: u32 = 61;

/// Steps the recording run keeps after warm-up for the queue replay.
const RECORDED_STEPS: u64 = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Dense,
    Sparse,
    Dcr,
}

/// Sizes of one engine workload.
pub struct EngineSpec {
    pub servers: usize,
    /// Chunk requests per simulated step.
    pub per_step: usize,
    /// Steps per timed window: 2–3 ms of wall time on this box, short
    /// enough that some windows fall wholly into undisturbed moments.
    pub window_steps: u64,
    /// Leading timed windows whose simulated-time quality
    /// (`p99_latency_steps`, `fail_ratio`) is read: a fixed count, so
    /// the two are functions of the seed alone, however many windows
    /// the time budget allows after.
    pub quality_windows: usize,
    /// Fixed warm-up to steady state, part of `setup_s`.
    pub warmup_steps: u64,
}

impl Engine {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "engine-dense" => Some(Self::Dense),
            "engine-sparse" => Some(Self::Sparse),
            "engine-dcr" => Some(Self::Dcr),
            _ => None,
        }
    }

    pub fn spec(self) -> EngineSpec {
        match self {
            // m = 16 384: queue rows and the 64 Ki-chunk placement stay
            // L2-resident; every server holds work every step.
            Self::Dense => EngineSpec {
                servers: 1 << 14,
                per_step: 1 << 14,
                window_steps: 4,
                quality_windows: 64,
                warmup_steps: 48,
            },
            // m = 262 144: arena + placement ≈ 24 MB, far outside L2;
            // m/64 fresh chunks a step leave almost every queue empty.
            Self::Sparse => EngineSpec {
                servers: 1 << 18,
                per_step: 1 << 12,
                window_steps: 4,
                quality_windows: 64,
                warmup_steps: 64,
            },
            // One window is one DCR phase (8 steps at this m, 27 ms): a
            // step's cost depends on its place in the phase, so a
            // shorter window would time only the cheapest place.
            Self::Dcr => EngineSpec {
                servers: 1 << 14,
                per_step: 1 << 14,
                window_steps: 8,
                quality_windows: 16,
                warmup_steps: 16,
            },
        }
    }

    fn config(self, seed: u64) -> SimConfig {
        let m = self.spec().servers;
        let mut config = match self {
            Self::Dense => SimConfig {
                process_rate: 2,
                queue_capacity: 16,
                drain_mode: DrainMode::EndOfStep,
                ..SimConfig::baseline(m)
            },
            Self::Sparse => SimConfig {
                process_rate: 16,
                queue_capacity: 16,
                drain_mode: DrainMode::Interleaved,
                ..SimConfig::baseline(m)
            },
            // g = 16 gives each of the four classes 4 per step; at
            // g = 8 the carry-over classes overflow (7 270 rejects in
            // 80 steps), and a workload must not fail requests.
            Self::Dcr => SimConfig::dcr_theorem(m, 16, 2),
        };
        config.seed = seed;
        // The per-step O(m) backlog snapshot is instrumentation, not a
        // request's path; rlb-bench's engine scenarios turn it off too.
        config.safety_check_every = None;
        config
    }

    /// The request stream, generated from the seed by the benchmark.
    fn workload(self, seed: u64) -> Box<dyn Workload> {
        let spec = self.spec();
        let universe = 4 * spec.servers as u64;
        match self {
            Self::Dense | Self::Dcr => {
                let mut rng = Pcg64::new(seed, 0xbe7c);
                let chunks = rlb_hash::sample::sample_k_distinct(&mut rng, universe, spec.per_step)
                    .into_iter()
                    .map(|c| c as u32)
                    .collect();
                // Fixed arrival order: generation is a memcpy, so the
                // engine is what these two workloads time.
                Box::new(RepeatedSet::new(chunks, seed).fixed_order())
            }
            Self::Sparse => Box::new(FreshRandom::new(universe, spec.per_step, seed)),
        }
    }
}

/// Runs one engine child.
///
/// # Errors
/// A failed correctness gate, described.
pub fn run(engine: Engine, args: &ChildArgs) -> Result<ChildResult, String> {
    match engine {
        Engine::Dcr => run_with(engine, args, DelayedCuckoo::new),
        Engine::Dense | Engine::Sparse => run_with(engine, args, |_| Greedy::new()),
    }
}

fn run_with<P: Policy>(
    engine: Engine,
    args: &ChildArgs,
    make_policy: impl Fn(&SimConfig) -> P,
) -> Result<ChildResult, String> {
    let spec = engine.spec();
    let config = engine.config(args.seed);
    let mut result = ChildResult::new(args);
    let (mut sim, mut workload) = cold_setups(
        args.setup_reps,
        &mut result.setup_ns,
        || {
            let mut sim = Simulation::new(config.clone(), make_policy(&config));
            let mut workload = engine.workload(args.seed);
            sim.run(workload.as_mut(), spec.warmup_steps);
            sim.reset_stats();
            Ok((sim, workload))
        },
        |old| {
            drop(old);
            Ok(())
        },
    )?;

    let reqs = spec.window_steps * spec.per_step as u64;
    let cpu_before = host::this_thread_cpu_ns();
    result.windows = collect_windows(args.segment_ns(), spec.quality_windows, |i| {
        let t = Instant::now();
        sim.run(workload.as_mut(), spec.window_steps);
        let ns = t.elapsed().as_nanos() as u64;
        if i + 1 == spec.quality_windows {
            result.quality = snapshot_quality(&sim, &spec)?;
        }
        Ok(Window { ns, reqs })
    })?;
    let cpu_ns = host::this_thread_cpu_ns() - cpu_before;

    let report = sim.finish();
    report.check_conservation()?;
    result.attempted = result.windows.iter().map(|w| w.reqs).sum();
    result.failed = report.rejected_total;
    result.hwm_kb = host::vm_hwm_kb();

    if args.traced {
        let mut layers = trace_layers(engine, args, &config, &make_policy, &result.windows)?;
        layers.push((
            "driver.cpu_us_per_req".into(),
            cpu_ns as f64 / 1e3 / result.attempted as f64,
        ));
        result.layers = layers;
    }
    Ok(result)
}

/// A genuine `RunReport` of the run so far, without ending it.
fn snapshot_quality<P: Policy, S: TraceSink>(
    sim: &Simulation<P, S>,
    spec: &EngineSpec,
) -> Result<Quality, String> {
    let report = sim
        .stats()
        .clone()
        .finish(sim.step_count(), sim.view().total_backlog());
    report.check_conservation()?;
    Ok(Quality {
        attempted: spec.quality_windows as u64 * spec.window_steps * spec.per_step as u64,
        failed: report.rejected_total,
        p99_latency_steps: report.p99_latency,
    })
}

// ---------------------------------------------------------------------
// Timing adapters
// ---------------------------------------------------------------------

type SharedLog = Rc<RefCell<SpanLog>>;

/// Forwards every `Workload` call unchanged inside a span.
pub struct TimedWorkload<'a> {
    inner: &'a mut dyn Workload,
    log: SharedLog,
    pub chunks_emitted: u64,
}

impl Workload for TimedWorkload<'_> {
    fn next_step(&mut self, step: u64, out: &mut Vec<u32>) {
        let h = self.log.borrow_mut().enter("workloads.next_step", step);
        self.inner.next_step(step, out);
        self.log.borrow_mut().exit(h);
        self.chunks_emitted += out.len() as u64;
    }
}

/// Forwards every `Policy` call unchanged; spans the step hooks and one
/// `route` call in [`ROUTE_SAMPLE_EVERY`].
pub struct TimedPolicy<P> {
    inner: P,
    log: SharedLog,
    until_sample: u32,
}

impl<P: Policy> TimedPolicy<P> {
    pub fn new(inner: P, log: SharedLog) -> Self {
        Self {
            inner,
            log,
            until_sample: ROUTE_SAMPLE_EVERY,
        }
    }
}

impl<P: Policy> Policy for TimedPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn queue_classes(&self, config: &SimConfig) -> Vec<ClassSpec> {
        self.inner.queue_classes(config)
    }

    fn on_step_begin(&mut self, step: u64, ops: &mut dyn StepOps) {
        let h = self.log.borrow_mut().enter("core.policy_step_hooks", step);
        self.inner.on_step_begin(step, ops);
        self.log.borrow_mut().exit(h);
    }

    #[inline]
    fn route(&mut self, ctx: RouteCtx<'_>, view: &ClusterView<'_>) -> Decision {
        self.until_sample -= 1;
        if self.until_sample != 0 {
            return self.inner.route(ctx, view);
        }
        self.until_sample = ROUTE_SAMPLE_EVERY;
        let mut log = self.log.borrow_mut();
        let start = log.now_ns();
        let decision = self.inner.route(ctx, view);
        let end = log.now_ns();
        log.sampled(
            "core.policy_route",
            ctx.step,
            start,
            end,
            ROUTE_SAMPLE_EVERY,
        );
        decision
    }

    fn on_step_end(&mut self, step: u64, chunks: &[u32], view: &ClusterView<'_>) {
        let h = self.log.borrow_mut().enter("core.policy_step_hooks", step);
        self.inner.on_step_end(step, chunks, view);
        self.log.borrow_mut().exit(h);
    }
}

// ---------------------------------------------------------------------
// Recording sink and queue replay
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Enqueue,
    Reject,
    /// `class` → `server` (reused as the destination class).
    Roll,
}

/// One recorded queue-level event, 12 bytes.
#[derive(Debug, Clone, Copy)]
struct Op {
    step: u32,
    server: u32,
    class: u8,
    kind: OpKind,
}

/// Counts every event and keeps the enqueue/reject/roll stream from
/// step 0, so a replay can start from empty queues.
#[derive(Default)]
struct Recorder {
    ops: Vec<Op>,
    enqueues: u64,
    rejects: u64,
    drain_events: u64,
    completions: u64,
    phase_rolls: u64,
    /// Completion latencies in drain order, for the histogram bench.
    latencies: Vec<u32>,
}

impl TraceSink for Recorder {
    fn on_event(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Enqueue {
                step,
                server,
                class,
                ..
            } => {
                self.enqueues += 1;
                self.ops.push(Op {
                    step: *step as u32,
                    server: *server,
                    class: *class,
                    kind: OpKind::Enqueue,
                });
            }
            TraceEvent::Reject { step, .. } => {
                self.rejects += 1;
                self.ops.push(Op {
                    step: *step as u32,
                    server: 0,
                    class: 0,
                    kind: OpKind::Reject,
                });
            }
            TraceEvent::Drain { step, arrivals, .. } => {
                self.drain_events += 1;
                self.completions += arrivals.len() as u64;
                self.latencies
                    .extend(arrivals.iter().map(|&a| (*step as u32).wrapping_sub(a)));
            }
            TraceEvent::PhaseRoll { step, from, to, .. } => {
                self.phase_rolls += 1;
                self.ops.push(Op {
                    step: *step as u32,
                    server: u32::from(*to),
                    class: *from,
                    kind: OpKind::Roll,
                });
            }
            _ => {}
        }
    }
}

#[derive(Debug, Default)]
struct ReplayTimes {
    enqueue_ns: u64,
    enqueues: u64,
    drain_ns: u64,
    completions: u64,
    /// Sub-step drain rounds (one per step under `EndOfStep`).
    drain_rounds: u64,
    migrate_ns: u64,
    rolls: u64,
    final_backlog: u64,
}

/// Re-applies a recorded stream to a stand-alone `QueueArray` on the
/// engine's schedule: per step the phase rolls, then per sub-step its
/// share of the arrivals followed by each class's share of the drain.
fn replay(
    config: &SimConfig,
    classes: &[ClassSpec],
    ops: &[Op],
    steps: u64,
) -> Result<ReplayTimes, String> {
    let mut queues = QueueArray::new(config.num_servers, classes);
    let substeps = match config.drain_mode {
        DrainMode::EndOfStep => 1,
        DrainMode::Interleaved => config.process_rate.max(1),
    };
    let mut times = ReplayTimes::default();
    let mut sunk = 0u32;
    let mut at = 0;
    for step in 0..steps as u32 {
        while let Some(op) = ops
            .get(at)
            .filter(|o| o.step == step && o.kind == OpKind::Roll)
        {
            let t = Instant::now();
            queues.migrate_class(op.class as usize, op.server as usize, |a| sunk ^= a);
            times.migrate_ns += t.elapsed().as_nanos() as u64;
            times.rolls += 1;
            at += 1;
        }
        let from = at;
        while ops.get(at).is_some_and(|o| o.step == step) {
            at += 1;
        }
        let arrivals = &ops[from..at];
        let n = arrivals.len();
        for s in 0..substeps {
            let lo = n * s as usize / substeps as usize;
            let hi = n * (s as usize + 1) / substeps as usize;
            let t = Instant::now();
            for op in &arrivals[lo..hi] {
                if op.kind == OpKind::Enqueue {
                    queues
                        .enqueue(op.server, op.class as usize, step)
                        .map_err(|_| {
                            format!("replay: recorded enqueue overflowed at step {step}")
                        })?;
                    times.enqueues += 1;
                }
            }
            times.enqueue_ns += t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            for (class, spec) in classes.iter().enumerate() {
                let rate = spec.drain_per_step;
                let take = rate * (s + 1) / substeps - rate * s / substeps;
                if take > 0 {
                    times.completions += queues.drain_class(class, take, |a| sunk ^= a);
                }
            }
            times.drain_ns += t.elapsed().as_nanos() as u64;
            times.drain_rounds += 1;
        }
    }
    black_box(sunk);
    times.final_backlog = queues.total_backlog();
    Ok(times)
}

// ---------------------------------------------------------------------
// The traced passes
// ---------------------------------------------------------------------

fn trace_layers<P: Policy>(
    engine: Engine,
    args: &ChildArgs,
    config: &SimConfig,
    make_policy: &impl Fn(&SimConfig) -> P,
    untraced: &[Window],
) -> Result<Vec<(String, f64)>, String> {
    let spec = engine.spec();
    let mut layers: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| layers.push((name.to_string(), value));

    // Pass A: the adapters around the policy and the workload.
    let log: SharedLog = Rc::new(RefCell::new(SpanLog::new()));
    let mut sim = Simulation::new(
        config.clone(),
        TimedPolicy::new(make_policy(config), Rc::clone(&log)),
    );
    let mut inner = engine.workload(args.seed);
    let mut workload = TimedWorkload {
        inner: inner.as_mut(),
        log: Rc::clone(&log),
        chunks_emitted: 0,
    };
    sim.run(&mut workload, spec.warmup_steps);
    sim.reset_stats();
    log.borrow_mut().clear();
    let warm_chunks = workload.chunks_emitted;
    let window_reqs = spec.window_steps * spec.per_step as u64;
    let traced = collect_windows(args.segment_ns(), spec.quality_windows, |i| {
        let t = Instant::now();
        let root = log.borrow_mut().enter("driver.window", i as u64);
        let run = log.borrow_mut().enter("core.run", i as u64);
        sim.run(&mut workload, spec.window_steps);
        log.borrow_mut().exit(run);
        log.borrow_mut().exit(root);
        Ok(Window {
            ns: t.elapsed().as_nanos() as u64,
            reqs: window_reqs,
        })
    })?;
    let chunks_emitted = workload.chunks_emitted - warm_chunks;
    let steps = traced.len() as u64 * spec.window_steps;
    let reqs = steps * spec.per_step as u64;
    let t = Instant::now();
    let report = sim.finish();
    let finish_ns = t.elapsed().as_nanos() as u64;
    report.check_conservation()?;
    let log = log.borrow();
    let folded = fold(log.spans());
    let get = |name: &str| folded.get(name).copied().unwrap_or_default();
    put("core.run_ns_per_req", per(get("core.run").total_ns, reqs));
    put("core.self_ns_per_req", per(get("core.run").self_ns, reqs));
    put(
        "core.policy_route_ns_per_req",
        per(get("core.policy_route").total_ns, reqs),
    );
    put(
        "core.policy_step_hooks_ns_per_step",
        per(get("core.policy_step_hooks").total_ns, steps),
    );
    put(
        "workloads.next_step_ns_per_req",
        per(get("workloads.next_step").total_ns, reqs),
    );
    put("workloads.chunks_emitted", chunks_emitted as f64);
    put("core.finish_ns", finish_ns as f64);
    put("core.peak_backlog", f64::from(report.peak_backlog));
    put(
        "driver.unattributed_share",
        per(get("driver.window").self_ns, get("driver.window").total_ns),
    );
    drop(log);

    // Pass B: record the queue-level stream, then replay it.
    let classes = make_policy(config).queue_classes(config);
    let mut sim =
        Simulation::new(config.clone(), make_policy(config)).with_sink(Recorder::default());
    let mut workload = engine.workload(args.seed);
    let recorded_steps = spec.warmup_steps + RECORDED_STEPS;
    sim.run(workload.as_mut(), recorded_steps);
    let live_backlog = sim.view().total_backlog();
    let (report, rec) = sim.finish_traced();
    report.check_conservation()?;
    let times = replay(config, &classes, &rec.ops, recorded_steps)?;
    crate::child::counts_agree(&[
        ("replayed enqueues", rec.enqueues, times.enqueues),
        ("replayed completions", rec.completions, times.completions),
        ("replayed final backlog", live_backlog, times.final_backlog),
        ("replayed phase rolls", rec.phase_rolls, times.rolls),
    ])?;
    put("core.enqueues", rec.enqueues as f64);
    put("core.rejects", rec.rejects as f64);
    put("core.drain_events", rec.drain_events as f64);
    put("core.phase_rolls", rec.phase_rolls as f64);
    put(
        "core.queue_enqueue_ns",
        per(times.enqueue_ns, times.enqueues),
    );
    put(
        "core.queue_drain_ns_per_completion",
        per(times.drain_ns, times.completions),
    );
    put(
        "core.queue_drain_ns_per_substep",
        per(times.drain_ns, times.drain_rounds),
    );
    put(
        "core.queue_migrate_ns_per_roll",
        per(times.migrate_ns, times.rolls),
    );

    // rlb-metrics: the latency histogram fed the recorded completions.
    let t = Instant::now();
    let mut hist = Histogram::new();
    for &l in &rec.latencies {
        hist.record(u64::from(l));
    }
    black_box(hist.count());
    put(
        "metrics.hist_record_ns",
        per(t.elapsed().as_nanos() as u64, rec.latencies.len() as u64),
    );

    // rlb-hash: placement build, and lookups over one step's chunks.
    let t = Instant::now();
    let placement = ReplicaPlacement::random(
        config.num_chunks,
        config.num_servers,
        config.replication,
        config.seed,
    );
    put(
        "hash.placement_build_ns_per_chunk",
        per(t.elapsed().as_nanos() as u64, config.num_chunks as u64),
    );
    let mut chunks = Vec::new();
    engine.workload(args.seed).next_step(0, &mut chunks);
    const LOOKUP_PASSES: u64 = 32;
    let t = Instant::now();
    let mut acc = 0u32;
    for _ in 0..LOOKUP_PASSES {
        for &c in &chunks {
            acc ^= placement.replicas(c)[0];
        }
    }
    black_box(acc);
    put(
        "hash.replicas_lookup_ns",
        per(
            t.elapsed().as_nanos() as u64,
            LOOKUP_PASSES * chunks.len() as u64,
        ),
    );
    layers.extend(driver_layers(untraced, &traced));
    Ok(layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(engine: Engine) -> SimConfig {
        let mut c = engine.config(9);
        c.num_servers = 64;
        c.num_chunks = 256;
        c
    }

    fn stream(seed: u64) -> impl Workload {
        RepeatedSet::random_subset(256, 64, seed)
    }

    /// The adapters must be invisible to the engine: the same
    /// `RunReport`, byte for byte, with and without them.
    fn adapters_are_transparent<P: Policy>(config: SimConfig, make: impl Fn(&SimConfig) -> P) {
        let mut plain = Simulation::new(config.clone(), make(&config));
        plain.run(&mut stream(3), 40);
        let plain = rlb_json::to_string(&plain.finish());

        let log: SharedLog = Rc::new(RefCell::new(SpanLog::new()));
        let mut timed = Simulation::new(
            config.clone(),
            TimedPolicy::new(make(&config), Rc::clone(&log)),
        );
        let mut inner = stream(3);
        let mut workload = TimedWorkload {
            inner: &mut inner,
            log: Rc::clone(&log),
            chunks_emitted: 0,
        };
        timed.run(&mut workload, 40);
        assert_eq!(workload.chunks_emitted, 40 * 64);
        assert_eq!(rlb_json::to_string(&timed.finish()), plain);

        let folded = fold(log.borrow().spans());
        assert_eq!(folded["workloads.next_step"].calls, 40);
        assert_eq!(
            folded["core.policy_step_hooks"].calls, 80,
            "begin and end of each step"
        );
        let routed = folded["core.policy_route"].calls;
        assert_eq!(
            routed,
            u64::from(40 * 64 / ROUTE_SAMPLE_EVERY * ROUTE_SAMPLE_EVERY)
        );
    }

    #[test]
    fn adapters_forward_every_call_unchanged() {
        adapters_are_transparent(small(Engine::Dense), |_| Greedy::new());
        adapters_are_transparent(small(Engine::Sparse), |_| Greedy::new());
        adapters_are_transparent(small(Engine::Dcr), DelayedCuckoo::new);
    }

    /// The replay must land in the engine's own final state on both
    /// drain schedules and across phase rolls.
    #[test]
    fn replay_reproduces_the_recorded_run() {
        fn check<P: Policy>(mut config: SimConfig, make: impl Fn(&SimConfig) -> P) {
            config.process_rate = config.process_rate.min(4);
            let classes = make(&config).queue_classes(&config);
            let mut sim =
                Simulation::new(config.clone(), make(&config)).with_sink(Recorder::default());
            sim.run(&mut stream(5), 40);
            let backlog = sim.view().total_backlog();
            let (report, rec) = sim.finish_traced();
            let times = replay(&config, &classes, &rec.ops, 40).unwrap();
            assert_eq!(times.enqueues, report.accepted);
            assert_eq!(times.completions, report.completed);
            assert_eq!(times.final_backlog, backlog);
            assert_eq!(times.rolls, rec.phase_rolls);
            assert_eq!(rec.latencies.len() as u64, report.completed);
        }
        check(small(Engine::Dense), |_| Greedy::new());
        check(small(Engine::Sparse), |_| Greedy::new());
        let dcr = small(Engine::Dcr);
        check(dcr, DelayedCuckoo::new);
    }
}
