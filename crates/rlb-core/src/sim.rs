//! The discrete-time simulation engine.
//!
//! One [`Simulation`] owns the cluster state (queues + replica placement)
//! and a [`Policy`], and advances in time steps per the model of §2:
//!
//! 1. the workload produces this step's distinct chunks;
//! 2. each request is routed **online** by the policy and enqueued (or
//!    rejected);
//! 3. every server consumes up to `g` requests (end-of-step, or
//!    interleaved at sub-step granularity per the §3 analysis);
//! 4. optional periodic flush (voluntary rejection, the §3 reset);
//! 5. metrics sampling (backlog snapshot + Definition 3.2 safety check).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects
)]

use crate::config::{DrainMode, SimConfig};
use crate::outage::OutageSchedule;
use crate::policy::{Decision, Policy, RejectReason, RouteCtx, StepOps};
use crate::queue::QueueArray;
use crate::stats::{RunReport, RunStats};
use crate::trace::{latency_steps, NoopSink, TraceCause, TraceEvent, TraceSink};
use crate::view::ClusterView;
use rlb_hash::ReplicaPlacement;
use rlb_metrics::BacklogSnapshot;

/// Requests per warm/route block in the routing loop (see
/// `Simulation::route_range`).
const PREFETCH_BLOCK: usize = 32;

/// Estimate of the cache a core keeps to itself (a mid-size L2). The
/// routing loop warms each block's cache lines before routing it only
/// when the rows it reads at random — [`routed_row_bytes`] — outgrow
/// this: rows that fit mostly stay resident between steps, so a second
/// pass over them has little latency left to hide — and under a policy
/// whose repeat path reads none of them, as delayed cuckoo routing's,
/// it only evicts what the policy does read.
///
/// Two points are measured (`benchmark/`, ARCHITECTURE.md "What a table
/// built one group at a time cost"): 0.75 MiB of rows (m = 16 384,
/// n = 4m, d = 2), where the pass costs `engine-dcr` 9–11 % and is worth
/// 2–3 % to `engine-dense`, and 12 MiB (m = 262 144), where it pays
/// `engine-sparse` 8–14 %. Where between 1 and 12 MiB the pass starts
/// to pay is unmeasured until the benchmark has a row there (ROADMAP
/// 1(iii)).
const ROUTE_CACHE_BYTES: usize = 2 << 20;

/// Bytes of the rows a routing pass reads at random: every chunk's
/// replica row, and per server class 0's control entry, which holds
/// the routing word.
fn routed_row_bytes(config: &SimConfig) -> usize {
    let placement = config
        .num_chunks
        .saturating_mul(config.replication)
        .saturating_mul(std::mem::size_of::<u32>());
    placement.saturating_add(
        config
            .num_servers
            .saturating_mul(QueueArray::ROUTE_ROW_BYTES),
    )
}

/// A source of per-step request sets.
///
/// Implementations must produce chunk ids `< num_chunks` that are
/// **distinct within a step** (the model's constraint; see §2 "Basic
/// observations" for why it is necessary). The engine checks this in
/// debug builds.
pub trait Workload {
    /// Fills `out` (cleared by the caller) with this step's chunks, in
    /// arrival order.
    fn next_step(&mut self, step: u64, out: &mut Vec<u32>);
}

/// Blanket implementation so closures can serve as workloads in tests.
impl<F: FnMut(u64, &mut Vec<u32>)> Workload for F {
    fn next_step(&mut self, step: u64, out: &mut Vec<u32>) {
        self(step, out)
    }
}

/// Passive instrumentation attached to a run (used by the experiment
/// harness, e.g. to track per-queue arrival tails for Lemma 4.8).
pub trait Observer {
    /// Called after each routing decision has been applied.
    fn on_route(&mut self, _step: u64, _chunk: u32, _decision: Decision) {}
    /// Called at the end of each step (after drains and flushes).
    fn on_step_end(&mut self, _step: u64, _view: &ClusterView<'_>) {}
}

/// A no-op observer.
pub struct NullObserver;

impl Observer for NullObserver {}

struct OpsAdapter<'a, S: TraceSink> {
    queues: &'a mut QueueArray,
    stats: &'a mut RunStats,
    sink: &'a mut S,
    step: u64,
}

impl<S: TraceSink> StepOps for OpsAdapter<'_, S> {
    fn migrate_class(&mut self, from: usize, to: usize) {
        let stats = &mut *self.stats;
        // Entries that do not fit are voluntarily rejected; they share
        // the flush bucket (both are post-acceptance voluntary drops).
        let dropped = self
            .queues
            .migrate_class(from, to, |_| stats.record_reject(RejectReason::Flush));
        let step = self.step;
        self.sink.emit(|| TraceEvent::PhaseRoll {
            step,
            from: from as u8,
            to: to as u8,
            dropped,
        });
    }
}

/// Everything a run owns except its sink. Tracing observes this state
/// and never holds any of it, so [`Simulation::with_sink`] moves it
/// whole.
struct Engine<P: Policy> {
    config: SimConfig,
    placement: ReplicaPlacement,
    queues: QueueArray,
    policy: P,
    stats: RunStats,
    step: u64,
    chunk_scratch: Vec<u32>,
    backlog_scratch: Vec<u64>,
    /// Cached queue classes (avoids re-querying the policy per drain).
    classes: Vec<crate::queue::ClassSpec>,
    outages: OutageSchedule,
    /// Scratch for the schedule's mask at the current step. The queue
    /// array owns liveness; nothing reads this after the sync.
    up_mask: Vec<bool>,
    /// One server's completed-arrival steps, for its drain event.
    drain_scratch: Vec<u32>,
    /// Per-latency completion counts accumulated within one sweep
    /// (indexed by latency), flushed into the histograms after it.
    lat_counts: Vec<u64>,
    /// Latencies holding a non-zero `lat_counts` entry, in first-seen
    /// order.
    lat_touched: Vec<u64>,
    /// Whether `route_range` warms each block before routing it: the
    /// routed rows outgrow [`ROUTE_CACHE_BYTES`].
    warm_blocks: bool,
}

/// A running simulation.
///
/// Generic over its [`TraceSink`]; the default [`NoopSink`] disables
/// tracing entirely (the emission sites are compiled out). Attach a
/// real sink with [`Simulation::with_sink`] and recover it with
/// [`Simulation::finish_traced`].
pub struct Simulation<P: Policy, S: TraceSink = NoopSink> {
    engine: Engine<P>,
    sink: S,
}

impl<P: Policy> Simulation<P> {
    /// Builds a simulation with a random replica placement derived from
    /// `config.seed`.
    ///
    /// # Panics
    /// Panics if the config is invalid or the policy's queue classes are
    /// inconsistent with it.
    pub fn new(config: SimConfig, policy: P) -> Self {
        #[expect(
            clippy::panic,
            reason = "constructor precondition, documented above; never on the per-step hot path"
        )]
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid config: {e}"));
        let placement = ReplicaPlacement::random(
            config.num_chunks,
            config.num_servers,
            config.replication,
            config.seed,
        );
        Self::with_placement(config, policy, placement)
    }

    /// Builds a simulation with an explicit placement (used by the
    /// planted-collision lower-bound experiment E7 and by tests).
    ///
    /// # Panics
    /// Panics on config/placement mismatch.
    pub fn with_placement(config: SimConfig, policy: P, placement: ReplicaPlacement) -> Self {
        #[expect(
            clippy::panic,
            reason = "constructor precondition, documented above; never on the per-step hot path"
        )]
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid config: {e}"));
        assert_eq!(
            placement.num_chunks(),
            config.num_chunks,
            "placement chunk count"
        );
        assert_eq!(
            placement.num_servers(),
            config.num_servers,
            "placement server count"
        );
        assert_eq!(
            placement.replication(),
            config.replication,
            "placement degree"
        );
        let classes = policy.queue_classes(&config);
        assert!(!classes.is_empty(), "policy declared no queue classes");
        let queues = QueueArray::new(config.num_servers, &classes);
        let engine = Engine {
            placement,
            queues,
            policy,
            stats: RunStats::new(),
            step: 0,
            chunk_scratch: Vec::with_capacity(config.num_servers),
            backlog_scratch: vec![0; config.num_servers],
            classes,
            outages: OutageSchedule::none(),
            up_mask: vec![true; config.num_servers],
            drain_scratch: Vec::new(),
            lat_counts: Vec::new(),
            lat_touched: Vec::new(),
            warm_blocks: routed_row_bytes(&config) > ROUTE_CACHE_BYTES,
            config,
        };
        Self {
            engine,
            sink: NoopSink,
        }
    }
}

impl<P: Policy, S: TraceSink> Simulation<P, S> {
    /// Attaches a server-outage schedule (builder style). Down servers
    /// accept no requests and do not drain; see [`crate::outage`].
    ///
    /// # Panics
    /// Panics if the schedule references a server outside the cluster.
    pub fn with_outages(mut self, outages: OutageSchedule) -> Self {
        if let Some(max) = outages.max_server() {
            assert!(
                (max as usize) < self.engine.config.num_servers,
                "outage references server {max} outside the cluster of {}",
                self.engine.config.num_servers
            );
        }
        self.engine.outages = outages;
        self
    }

    /// Replaces the trace sink (builder style). Typically called right
    /// after construction, before any step has run; events already sent
    /// to the previous sink are dropped with it.
    pub fn with_sink<S2: TraceSink>(self, sink: S2) -> Simulation<P, S2> {
        Simulation {
            engine: self.engine,
            sink,
        }
    }

    /// The attached trace sink, read-only.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// The attached trace sink (e.g. for a layered emitter such as the
    /// KV façade, which records its own events into the same stream).
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.engine.config
    }

    /// The replica placement in use.
    pub fn placement(&self) -> &ReplicaPlacement {
        &self.engine.placement
    }

    /// The policy (immutable access, e.g. for instrumentation reads).
    pub fn policy(&self) -> &P {
        &self.engine.policy
    }

    /// Current step counter (steps executed so far).
    pub fn step_count(&self) -> u64 {
        self.engine.step
    }

    /// Live statistics (counters so far; the authoritative summary is
    /// [`Simulation::finish`]).
    pub fn stats(&self) -> &RunStats {
        &self.engine.stats
    }

    /// Discards the statistics collected so far (queues and policy state
    /// are untouched). Use after a warmup period so the final report
    /// covers only steady state. Requests still queued at the reset are
    /// re-counted as arrived-and-accepted in the new window, so their
    /// later completions (or flush drops) land against that carried
    /// backlog and conservation holds within the measured window.
    pub fn reset_stats(&mut self) {
        let engine = &mut self.engine;
        engine.stats = RunStats::new();
        // Requests currently queued were accepted before the window;
        // count them as accepted so completion accounting balances.
        engine.stats.accepted = engine.queues.total_backlog();
        engine.stats.arrived = engine.stats.accepted;
    }

    /// A read-only view of the queues.
    pub fn view(&self) -> ClusterView<'_> {
        ClusterView::new(&self.engine.queues)
    }

    /// Runs `steps` steps drawing requests from `workload`.
    ///
    /// Generic (with `?Sized`) so both concrete workloads and
    /// `&mut dyn Workload` callers monomorphize naturally; closures and
    /// the null observer inline into the routing loop.
    pub fn run<W: Workload + ?Sized>(&mut self, workload: &mut W, steps: u64) {
        self.run_observed(workload, steps, &mut NullObserver)
    }

    /// Runs `steps` steps with an observer attached.
    pub fn run_observed<W: Workload + ?Sized, O: Observer + ?Sized>(
        &mut self,
        workload: &mut W,
        steps: u64,
        observer: &mut O,
    ) {
        for _ in 0..steps {
            self.engine.execute_step(&mut self.sink, workload, observer);
        }
    }

    /// Test hook (feature `sanitize`): mutable access to the queue
    /// array so sanitizer tests can inject corruption.
    #[cfg(feature = "sanitize")]
    #[doc(hidden)]
    pub fn sanitize_queues_mut(&mut self) -> &mut QueueArray {
        &mut self.engine.queues
    }

    /// Finishes the run and returns the report.
    pub fn finish(self) -> RunReport {
        self.finish_traced().0
    }

    /// Finishes the run, returning the report and the trace sink (so a
    /// recorder's buffer or an exporter's output can be read out).
    pub fn finish_traced(self) -> (RunReport, S) {
        let engine = self.engine;
        let in_flight = engine.queues.total_backlog();
        let report = engine.stats.finish(engine.step, in_flight);
        debug_assert!(
            report.check_conservation().is_ok(),
            "conservation violated: {:?}",
            report.check_conservation()
        );
        (report, self.sink)
    }
}

impl<P: Policy> Engine<P> {
    #[expect(clippy::arithmetic_side_effects, reason = "a u64 step never wraps")]
    fn execute_step<S: TraceSink, W: Workload + ?Sized, O: Observer + ?Sized>(
        &mut self,
        sink: &mut S,
        workload: &mut W,
        observer: &mut O,
    ) {
        let step = self.step;
        self.chunk_scratch.clear();
        workload.next_step(step, &mut self.chunk_scratch);
        // With no scheduled outages every server stays live, as built;
        // skip the O(m) per-step refill.
        if !self.outages.is_empty() {
            self.outages.fill_up_mask(step, &mut self.up_mask);
            // The queue array owns the liveness that routing, the
            // accept path and the drain consult.
            self.queues.set_liveness(&self.up_mask, |server, live| {
                sink.emit(|| {
                    if live {
                        TraceEvent::OutageEnd { step, server }
                    } else {
                        TraceEvent::OutageBegin { step, server }
                    }
                })
            });
        }
        debug_assert!(
            {
                #[expect(
                    clippy::disallowed_types,
                    reason = "membership-only duplicate probe inside a debug assert; \
                              iteration order never escapes"
                )]
                let mut set = std::collections::HashSet::new();
                self.chunk_scratch.iter().all(|&c| set.insert(c))
            },
            "workload produced duplicate chunks in step {step}"
        );

        self.policy.on_step_begin(
            step,
            &mut OpsAdapter {
                queues: &mut self.queues,
                stats: &mut self.stats,
                sink: &mut *sink,
                step,
            },
        );

        let n = self.chunk_scratch.len();
        match self.config.drain_mode {
            DrainMode::EndOfStep => {
                self.route_range(sink, 0, n, step, observer);
                // The single drain is sub-step 0 of 1. (Passing index 1
                // here happens to yield the same quota only because the
                // cumulative split is exact for one sub-step; see the
                // `end_of_step_drains_exactly_rate_per_server` test.)
                self.drain(sink, 0, 1, step);
            }
            DrainMode::Interleaved => {
                // g sub-steps; arrivals split evenly; each class drains a
                // proportional share per sub-step (exactly its full rate
                // over the whole step).
                let substeps = self.config.process_rate.max(1) as usize;
                #[expect(
                    clippy::arithmetic_side_effects,
                    reason = "substeps >= 1 asserted by Config::validate; n small"
                )]
                for s in 0..substeps {
                    let lo = n * s / substeps;
                    let hi = n * (s + 1) / substeps;
                    self.route_range(sink, lo, hi, step, observer);
                    self.drain(sink, s as u32, substeps as u32, step);
                }
            }
        }

        let view = ClusterView::new(&self.queues);
        self.policy.on_step_end(step, &self.chunk_scratch, &view);

        if let Some(f) = self.config.flush_interval {
            if (step + 1).is_multiple_of(f) {
                let stats = &mut self.stats;
                let dropped = self.queues.flush_all(|_| {
                    stats.record_reject(RejectReason::Flush);
                });
                sink.emit(|| TraceEvent::Flush { step, dropped });
            }
        }

        if let Some(every) = self.config.safety_check_every {
            if step.is_multiple_of(every) {
                for (dst, b) in self.backlog_scratch.iter_mut().zip(self.queues.backlogs()) {
                    *dst = b as u64;
                }
                let snapshot = BacklogSnapshot::from_backlogs(&self.backlog_scratch);
                self.stats.record_snapshot(&snapshot);
            }
        }

        let view = ClusterView::new(&self.queues);
        observer.on_step_end(step, &view);
        #[cfg(feature = "sanitize")]
        self.sanitize_step(step);
        self.step += 1;
    }

    /// Routes the requests at `chunk_scratch[lo..hi]`, in arrival order.
    ///
    /// The arrival counter and scratch-slice borrow are hoisted out of
    /// the per-request loop. The [`ClusterView`] handed to the policy
    /// is rebuilt per request and *cannot* be hoisted:
    ///
    /// * semantically, the model is online-within-a-step — request `i`
    ///   must observe the backlogs as updated by requests `1..i`, so a
    ///   view captured before the loop would route against stale loads
    ///   (exactly the staleness E17 quantifies);
    /// * borrow-wise, the view holds `&self.queues` while the accept
    ///   path needs `&mut self.queues` for `enqueue`, so a loop-lived
    ///   shared borrow would not compile.
    ///
    /// Neither costs anything: the view is a one-pointer `Copy` wrapper
    /// over `&QueueArray` (which owns liveness), so "rebuilding" it is a
    /// register move, not a scan. The engine-equivalence goldens pin the
    /// resulting routing sequence.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "hi >= lo by the substep partition"
    )]
    fn route_range<S: TraceSink, O: Observer + ?Sized>(
        &mut self,
        sink: &mut S,
        lo: usize,
        hi: usize,
        step: u64,
        observer: &mut O,
    ) {
        // Detach the scratch list so a slice over it can coexist with
        // queue mutations; reattached (untouched) at the end.
        let chunks = std::mem::take(&mut self.chunk_scratch);
        self.stats.arrived += (hi - lo) as u64;

        // When the routed rows outgrow the cache (`warm_blocks`), each
        // request's replica-table row and each candidate's class-0
        // control entry sit on random cold cache lines, and the
        // serial routing loop eats one miss latency after another.
        // Walking the requests in blocks with a read-only warm pass
        // ahead of the routing pass lets those misses overlap: the warm
        // reads are folded into a checksum handed to `black_box` so they
        // cannot be elided, and the routing pass right behind hits lines
        // already in flight or resident. The warm pass never changes
        // state, so the routed sequence is untouched (pinned by the
        // engine-equivalence goldens and by
        // `warm_pass_is_selected_by_bytes_and_changes_no_report`).
        #[expect(
            clippy::indexing_slicing,
            reason = "lo..hi within chunks: substep partition bound"
        )]
        for block in chunks[lo..hi].chunks(PREFETCH_BLOCK) {
            if self.warm_blocks {
                let mut warm = 0u32;
                for &chunk in block {
                    for &server in self.placement.replicas(chunk) {
                        warm = warm.wrapping_add(self.queues.route_backlog(server));
                    }
                }
                std::hint::black_box(warm);
            }
            for &chunk in block {
                let replicas = self.placement.replicas(chunk);
                let ctx = RouteCtx {
                    step,
                    chunk,
                    replicas,
                };
                let view = ClusterView::new(&self.queues);
                let mut decision = self.policy.route(ctx, &view);
                match decision {
                    Decision::Route { server, class } => {
                        debug_assert!(
                            replicas.contains(&server),
                            "policy routed chunk {chunk} to non-replica server {server}"
                        );
                        sink.emit(|| TraceEvent::Route {
                            step,
                            chunk,
                            server,
                            class,
                            candidates: replicas.to_vec(),
                            backlogs: replicas.iter().map(|&r| self.queues.backlog(r)).collect(),
                        });
                        if !self.queues.is_live(server) {
                            decision = Decision::Reject(RejectReason::ServerDown);
                            self.stats.record_reject(RejectReason::ServerDown);
                            sink.emit(|| TraceEvent::Reject {
                                step,
                                chunk,
                                cause: TraceCause::Outage,
                            });
                            observer.on_route(step, chunk, decision);
                            continue;
                        }
                        match self.queues.enqueue(server, class as usize, step as u32) {
                            #[expect(
                                clippy::arithmetic_side_effects,
                                reason = "accepted <= arrived, a u64"
                            )]
                            Ok(()) => {
                                self.stats.accepted += 1;
                                let backlog = self.queues.backlog(server);
                                self.stats.record_enqueue_backlog(backlog);
                                sink.emit(|| TraceEvent::Enqueue {
                                    step,
                                    server,
                                    class,
                                    backlog,
                                });
                            }
                            Err(_) => {
                                decision = Decision::Reject(RejectReason::Overflow);
                                self.stats.record_reject(RejectReason::Overflow);
                                sink.emit(|| TraceEvent::Reject {
                                    step,
                                    chunk,
                                    cause: TraceCause::Overflow,
                                });
                            }
                        }
                    }
                    Decision::Reject(reason) => {
                        self.stats.record_reject(reason);
                        sink.emit(|| TraceEvent::Reject {
                            step,
                            chunk,
                            cause: TraceCause::from_reason(reason),
                        });
                    }
                }
                observer.on_route(step, chunk, decision);
            }
        }
        self.chunk_scratch = chunks;
    }

    /// Drains each class by its share for sub-step `s` of `substeps`:
    /// one [`QueueArray::sweep_class`] per class, whatever the sink.
    ///
    /// A sweep under load completes thousands of requests sharing a
    /// handful of distinct latencies, so completions are tallied per
    /// latency and each latency becomes one histogram update. The
    /// tallies flush in first-seen order because that replays the
    /// per-request histogram growth sequence, which keeps serialized
    /// reports byte-identical to recording one completion at a time.
    /// Outside this call every `lat_counts` entry is zero and
    /// `lat_touched` is empty.
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        reason = "lat < lat_counts.len(): histogram sized to max latency; a sweep's tally fits a u64"
    )]
    fn drain<S: TraceSink>(&mut self, sink: &mut S, s: u32, substeps: u32, step: u64) {
        for (class, spec) in self.classes.iter().enumerate() {
            let rate = spec.drain_per_step;
            // Cumulative-quota split: over `substeps` sub-steps the class
            // drains exactly `rate`.
            #[expect(
                clippy::arithmetic_side_effects,
                reason = "substeps >= 1 asserted by Config::validate"
            )]
            let take = rate * (s + 1) / substeps - rate * s / substeps;
            if take == 0 {
                continue;
            }
            // The sweep finishes one server before it starts the next,
            // so a change of server closes the previous server's event.
            let mut draining = 0u32;
            self.queues.sweep_class(class, take, |server, arrival| {
                let lat = latency_steps(step, arrival) as usize;
                #[expect(
                    clippy::arithmetic_side_effects,
                    reason = "lat < 2^32, a u32 difference"
                )]
                if lat >= self.lat_counts.len() {
                    self.lat_counts.resize(lat + 1, 0);
                }
                if self.lat_counts[lat] == 0 {
                    self.lat_touched.push(lat as u64);
                }
                self.lat_counts[lat] += 1;
                if S::ENABLED {
                    if server != draining {
                        emit_drain(sink, step, draining, class, &mut self.drain_scratch);
                        draining = server;
                    }
                    self.drain_scratch.push(arrival);
                }
            });
            emit_drain(sink, step, draining, class, &mut self.drain_scratch);
            for lat in self.lat_touched.drain(..) {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "lat_touched holds only latencies tallied above"
                )]
                let n = std::mem::take(&mut self.lat_counts[lat as usize]);
                self.stats.record_completion_in_class_n(class, lat, n);
            }
        }
    }

    /// Feature `sanitize`: re-derives the engine's invariants from
    /// scratch after the step just executed and panics on any drift.
    /// Compiled out entirely without the feature.
    #[cfg(feature = "sanitize")]
    #[expect(
        clippy::panic,
        reason = "aborting on invariant drift is this feature's purpose"
    )]
    fn sanitize_step(&self, step: u64) {
        if let Err(e) = self.queues.sanitize_check() {
            panic!("sanitize failed after step {step}: {e}"); // deliberate fail-fast: sanitize violations must abort.
        }
        // The queue array's liveness (what the routing sentinel, the
        // accept path and the sweep all read) must be what the outage
        // schedule says for this step; with no schedule, all live.
        for server in 0..self.config.num_servers as u32 {
            if self.queues.is_live(server) != self.outages.is_up(server, step) {
                panic!(
                    "sanitize failed after step {step}: queue-owned liveness of server {server} \
                     drifted from the outage schedule"
                );
            }
        }
    }
}

/// Emits `server`'s completions in `arrivals` (if any) as one
/// [`TraceEvent::Drain`] and empties the buffer for the next server.
/// Nothing ever reaches `arrivals` under a disabled sink.
fn emit_drain<S: TraceSink>(
    sink: &mut S,
    step: u64,
    server: u32,
    class: usize,
    arrivals: &mut Vec<u32>,
) {
    if !arrivals.is_empty() {
        sink.emit(|| TraceEvent::Drain {
            step,
            server,
            class: class as u8,
            arrivals: arrivals.clone(),
        });
        arrivals.clear();
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects)]
mod tests {
    use super::*;
    use crate::policies::{DelayedCuckoo, Greedy};

    fn small_config() -> SimConfig {
        SimConfig {
            num_servers: 8,
            num_chunks: 32,
            replication: 2,
            process_rate: 4,
            queue_capacity: 4,
            flush_interval: None,
            drain_mode: DrainMode::EndOfStep,
            seed: 1,
            safety_check_every: Some(1),
        }
    }

    /// Workload: requests chunks 0..k every step.
    fn fixed_workload(k: u32) -> impl Workload {
        move |_step: u64, out: &mut Vec<u32>| {
            out.extend(0..k);
        }
    }

    #[test]
    fn conservation_holds_end_to_end() {
        let mut sim = Simulation::new(small_config(), Greedy::new());
        sim.run(&mut fixed_workload(8), 50);
        let report = sim.finish();
        report.check_conservation().unwrap();
        assert_eq!(report.arrived, 8 * 50);
        assert_eq!(report.steps, 50);
    }

    #[test]
    fn light_load_is_all_accepted_with_low_latency() {
        // 4 requests/step, rate 4/server across 8 servers: trivially fine.
        let mut sim = Simulation::new(small_config(), Greedy::new());
        sim.run(&mut fixed_workload(4), 100);
        let report = sim.finish();
        assert_eq!(report.rejected_total, 0);
        assert!(
            report.avg_latency <= 1.0,
            "avg latency {}",
            report.avg_latency
        );
    }

    #[test]
    fn overload_rejects_requests() {
        // 32 distinct chunks/step but total processing is 8 * 4 = 32;
        // with skewed placement some queues must overflow eventually
        // given tiny capacity... use more chunks than capacity allows.
        let mut cfg = small_config();
        cfg.process_rate = 1; // total capacity 8/step < 32 arrivals/step
        let mut sim = Simulation::new(cfg, Greedy::new());
        sim.run(&mut fixed_workload(32), 50);
        let report = sim.finish();
        assert!(report.rejected_total > 0);
        report.check_conservation().unwrap();
    }

    #[test]
    fn flush_rejects_queued_requests() {
        let mut cfg = small_config();
        cfg.process_rate = 1;
        cfg.flush_interval = Some(5);
        let mut sim = Simulation::new(cfg, Greedy::new());
        sim.run(&mut fixed_workload(16), 20);
        let report = sim.finish();
        assert!(report.rejected_flush > 0);
        report.check_conservation().unwrap();
    }

    #[test]
    fn interleaved_mode_preserves_conservation() {
        let mut cfg = small_config();
        cfg.drain_mode = DrainMode::Interleaved;
        let mut sim = Simulation::new(cfg, Greedy::new());
        sim.run(&mut fixed_workload(8), 50);
        let report = sim.finish();
        report.check_conservation().unwrap();
    }

    #[test]
    fn interleaved_drains_same_total_as_end_of_step() {
        // Under saturating load both modes consume g per server per step.
        let mut reports = Vec::new();
        for mode in [DrainMode::EndOfStep, DrainMode::Interleaved] {
            let mut cfg = small_config();
            cfg.drain_mode = mode;
            let mut sim = Simulation::new(cfg, Greedy::new());
            sim.run(&mut fixed_workload(32), 30);
            reports.push(sim.finish());
        }
        // Equal arrivals; each mode respects the processing budget
        // (g = 4 per server per step) and conservation. Interleaved mode
        // accepts at least as many: mid-step drains free queue space.
        assert_eq!(reports[0].arrived, reports[1].arrived);
        for r in &reports {
            r.check_conservation().unwrap();
            assert!(r.completed <= 30 * 8 * 4, "over budget: {}", r.completed);
        }
        assert!(reports[1].accepted >= reports[0].accepted);
    }

    #[test]
    fn end_of_step_drains_exactly_rate_per_server() {
        // Regression guard against a silent double-drain: the end-of-step
        // drain used to be invoked as sub-step 1 of 1, which only yields
        // the right quota because the cumulative split is exact when
        // `substeps == 1`. Pin the actual budget: under saturating load
        // with full queues, each extra step completes exactly
        // `num_servers * process_rate` requests — a mis-indexed quota
        // (e.g. cumulative across calls) would complete twice that.
        let mut cfg = small_config();
        cfg.process_rate = 2; // 32 arrivals/step vs 8 * 2 drained
        let completed_after = |steps: u64| {
            let mut sim = Simulation::new(cfg.clone(), Greedy::new());
            sim.run(&mut fixed_workload(32), steps);
            sim.finish().completed
        };
        let warm = 10;
        let delta = completed_after(warm + 1) - completed_after(warm);
        assert_eq!(delta, 8 * 2, "one saturated step must drain m * g");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut sim = Simulation::new(small_config(), Greedy::new());
            sim.run(&mut fixed_workload(16), 40);
            let r = sim.finish();
            (r.accepted, r.rejected_total, r.completed, r.max_latency)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn observer_sees_every_routing_decision() {
        struct Counter {
            routes: u64,
            steps: u64,
        }
        impl Observer for Counter {
            fn on_route(&mut self, _s: u64, _c: u32, _d: Decision) {
                self.routes += 1;
            }
            fn on_step_end(&mut self, _s: u64, _v: &ClusterView<'_>) {
                self.steps += 1;
            }
        }
        let mut sim = Simulation::new(small_config(), Greedy::new());
        let mut obs = Counter {
            routes: 0,
            steps: 0,
        };
        sim.run_observed(&mut fixed_workload(8), 10, &mut obs);
        assert_eq!(obs.routes, 80);
        assert_eq!(obs.steps, 10);
    }

    /// A sink that keeps every event (test-only; the production sink
    /// is `trace::JsonlSink`).
    struct VecSink(Vec<TraceEvent>);

    impl TraceSink for VecSink {
        fn on_event(&mut self, event: &TraceEvent) {
            self.0.push(event.clone());
        }
    }

    /// Runs one scenario untraced and traced and checks what must hold
    /// for every scenario: attaching a sink does not perturb the run,
    /// the event stream carries the report's accounting, and `Drain`
    /// events are one per draining server per class per sub-step, never
    /// for a down server. Returns the traced report and events for the
    /// row's own assertions.
    fn check_traced<P: Policy>(
        case: &str,
        cfg: &SimConfig,
        policy: impl Fn() -> P,
        outages: &OutageSchedule,
        load: u32,
        steps: u64,
    ) -> (RunReport, Vec<TraceEvent>) {
        let baseline = {
            let mut sim = Simulation::new(cfg.clone(), policy()).with_outages(outages.clone());
            sim.run(&mut fixed_workload(load), steps);
            sim.finish()
        };
        let mut sim = Simulation::new(cfg.clone(), policy())
            .with_outages(outages.clone())
            .with_sink(VecSink(Vec::new()));
        sim.run(&mut fixed_workload(load), steps);
        let (report, sink) = sim.finish_traced();
        assert_eq!(
            rlb_json::to_string(&report),
            rlb_json::to_string(&baseline),
            "{case}: attaching a sink perturbed the run"
        );

        let substeps = match cfg.drain_mode {
            DrainMode::EndOfStep => 1,
            DrainMode::Interleaved => cfg.process_rate.max(1),
        };
        let mut enqueues = 0u64;
        let mut routes = 0u64;
        let mut rejects = 0u64;
        let mut drained = 0u64;
        let mut dropped_after_accept = 0u64;
        let mut drains = std::collections::BTreeMap::new();
        for ev in &sink.0 {
            match ev {
                TraceEvent::Route {
                    server,
                    candidates,
                    backlogs,
                    ..
                } => {
                    routes += 1;
                    assert!(candidates.contains(server));
                    assert_eq!(candidates.len(), backlogs.len());
                }
                TraceEvent::Enqueue { .. } => enqueues += 1,
                TraceEvent::Reject { .. } => rejects += 1,
                TraceEvent::Drain {
                    step,
                    server,
                    class,
                    arrivals,
                } => {
                    drained += arrivals.len() as u64;
                    assert!(!arrivals.is_empty(), "{case}: empty drain event");
                    assert!(arrivals.iter().all(|&a| (a as u64) <= *step));
                    assert!(
                        outages.is_up(*server, *step),
                        "{case}: down server {server} drained at step {step}"
                    );
                    *drains.entry((*step, *class, *server)).or_insert(0u32) += 1;
                }
                TraceEvent::Flush { dropped, .. } | TraceEvent::PhaseRoll { dropped, .. } => {
                    dropped_after_accept += dropped
                }
                _ => {}
            }
        }
        assert_eq!(enqueues, report.accepted, "{case}");
        assert_eq!(
            rejects,
            report.rejected_total - report.rejected_flush,
            "{case}"
        );
        assert_eq!(drained, report.completed, "{case}");
        assert_eq!(dropped_after_accept, report.rejected_flush, "{case}");
        assert!(routes >= enqueues, "every enqueue follows a route decision");
        assert!(
            drains.values().all(|&events| events <= substeps),
            "{case}: a server's completions in one sweep were split across events"
        );
        (report, sink.0)
    }

    /// Most distinct servers with a `Drain` event in any one step: at
    /// least the occupancy any sweep of that step saw among live
    /// servers, and exactly it under end-of-step drain.
    fn max_servers_drained_in_a_step(events: &[TraceEvent]) -> usize {
        let mut per_step = std::collections::BTreeMap::new();
        for ev in events {
            if let TraceEvent::Drain { step, server, .. } = ev {
                per_step
                    .entry(*step)
                    .or_insert_with(std::collections::BTreeSet::new)
                    .insert(*server);
            }
        }
        per_step.values().map(|s| s.len()).max().unwrap_or(0)
    }

    #[test]
    fn traced_run_matches_untraced_and_events_balance() {
        let none = OutageSchedule::none();

        // Greedy, end-of-step, saturated: every server holds work, so
        // each sweep takes the dense walk; flushes and routing-time
        // rejections are both in play.
        let mut cfg = small_config();
        cfg.process_rate = 1;
        cfg.flush_interval = Some(5);
        let (report, events) = check_traced("dense", &cfg, Greedy::new, &none, 16, 20);
        assert!(max_servers_drained_in_a_step(&events) * 2 >= cfg.num_servers);
        assert!(report.rejected_flush > 0, "scenario must exercise flushes");
        assert!(
            report.rejected_total > report.rejected_flush,
            "scenario must exercise routing-time rejections"
        );

        // Greedy, interleaved, 8 requests a step over 64 servers: under
        // half the servers ever hold work, so every sweep walks the
        // occupancy list.
        let mut cfg = small_config();
        cfg.num_servers = 64;
        cfg.num_chunks = 256;
        cfg.drain_mode = DrainMode::Interleaved;
        let (report, events) = check_traced("sparse", &cfg, Greedy::new, &none, 8, 20);
        assert!(report.completed > 0);
        assert!(max_servers_drained_in_a_step(&events) * 2 < cfg.num_servers);

        // Delayed cuckoo routing over three phases: four classes, with
        // the carry-over classes filled by `migrate_class` at the rolls.
        let cfg = SimConfig::dcr_theorem(64, 4, 2).with_seed(9);
        let phase = DelayedCuckoo::new(&cfg).params().phase_length;
        let (report, events) = check_traced(
            "dcr",
            &cfg,
            || DelayedCuckoo::new(&cfg),
            &none,
            64,
            3 * phase,
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::PhaseRoll { .. })));
        assert!(
            report
                .latency_by_class
                .iter()
                .skip(2)
                .any(|h| h.count() > 0),
            "scenario must drain a carry-over class"
        );

        // An outage window over a saturated cluster: server 3 goes down
        // holding work, keeps it, and drains it after coming back.
        let mut cfg = small_config();
        cfg.process_rate = 1;
        let mut outage = OutageSchedule::none();
        outage.push(3, 2, 5);
        let (_, events) = check_traced("outage", &cfg, Greedy::new, &outage, 16, 10);
        assert!(
            events.iter().any(
                |e| matches!(e, TraceEvent::Drain { step, server: 3, arrivals, .. }
                if *step >= 5 && arrivals.iter().any(|&a| a < 2))
            ),
            "scenario must freeze queued work across the outage"
        );
    }

    #[test]
    fn outage_transitions_are_traced() {
        let mut schedule = OutageSchedule::none();
        schedule.push(3, 2, 5);
        let mut sim = Simulation::new(small_config(), Greedy::new())
            .with_outages(schedule)
            .with_sink(VecSink(Vec::new()));
        sim.run(&mut fixed_workload(8), 10);
        let (_, sink) = sim.finish_traced();
        let transitions: Vec<_> = sink
            .0
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::OutageBegin { .. } | TraceEvent::OutageEnd { .. }
                )
            })
            .collect();
        assert_eq!(transitions.len(), 2);
        assert_eq!(
            transitions[0],
            &TraceEvent::OutageBegin { step: 2, server: 3 }
        );
        assert_eq!(
            transitions[1],
            &TraceEvent::OutageEnd { step: 5, server: 3 }
        );
    }

    #[test]
    fn step_counter_passes_two_to_the_32_with_work_queued() {
        // The queues keep the low 32 bits of a request's arrival step.
        // A run that crosses step 2^32 with requests waiting must read
        // their latencies modulo 2^32 — the same run started at step 0
        // is the reference — instead of sizing the per-sweep tally by a
        // latency of ~2^32 (which aborted on a 32 GiB allocation).
        for mode in [DrainMode::EndOfStep, DrainMode::Interleaved] {
            let mut cfg = small_config();
            cfg.process_rate = 2; // 32 arrivals a step against 8 * 2 drained
            cfg.drain_mode = mode;
            let run = |start: u64| {
                let mut sim =
                    Simulation::new(cfg.clone(), Greedy::new()).with_sink(VecSink(Vec::new()));
                sim.engine.step = start;
                sim.run(&mut fixed_workload(32), 6);
                let (mut report, sink) = sim.finish_traced();
                report.check_conservation().unwrap();
                assert_eq!(report.steps, start + 6);
                report.steps = 6;
                // What a trace consumer derives from the `Drain` events.
                let mut traced = rlb_metrics::Histogram::new();
                for ev in &sink.0 {
                    if let TraceEvent::Drain { step, arrivals, .. } = ev {
                        for &arrival in arrivals {
                            traced.record(latency_steps(*step, arrival));
                        }
                    }
                }
                assert_eq!(
                    rlb_json::to_string(&traced),
                    rlb_json::to_string(&report.latency),
                    "{mode:?}: the events' latencies are not the report's"
                );
                report
            };
            let reference = run(0);
            assert!(
                reference.max_latency >= 1 && reference.in_flight > 0,
                "{mode:?}: the scenario must carry queued work from step to step"
            );
            // Steps 2^32 - 3 ..= 2^32 + 2.
            let wrapped = run((1 << 32) - 3);
            assert_eq!(
                rlb_json::to_string(&wrapped),
                rlb_json::to_string(&reference),
                "{mode:?}: crossing step 2^32 changed the report"
            );
        }
    }

    #[test]
    fn warm_pass_is_selected_by_bytes_and_changes_no_report() {
        // The two measured points, both n = 4m, d = 2. m = 16 384 (the
        // benchmark's `engine-dense` / `engine-dcr`): 512 KiB of replica
        // rows + 256 KiB of class-0 control entries fit the estimate, no
        // warm pass. m = 262 144 (`engine-sparse`): 12 MiB do not, and
        // its warm pass must stay on.
        let engine =
            |m: usize| Simulation::new(SimConfig::explicit(m, 2, 1, 1), Greedy::new()).engine;
        let small = engine(16_384);
        assert_eq!(routed_row_bytes(&small.config), 768 << 10);
        assert!(!small.warm_blocks);
        let large = engine(262_144);
        assert_eq!(routed_row_bytes(&large.config), 12 << 20);
        assert!(large.warm_blocks);

        // The pass only reads: the same run, warmed or not, reports the
        // same bytes.
        let mut cfg = small_config();
        cfg.process_rate = 1;
        cfg.drain_mode = DrainMode::Interleaved;
        let run = |warm: bool| {
            let mut sim = Simulation::new(cfg.clone(), Greedy::new());
            assert!(!sim.engine.warm_blocks);
            sim.engine.warm_blocks = warm;
            sim.run(&mut fixed_workload(32), 20);
            rlb_json::to_string(&sim.finish())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn empty_workload_is_fine() {
        let mut sim = Simulation::new(small_config(), Greedy::new());
        sim.run(&mut |_s: u64, _out: &mut Vec<u32>| {}, 10);
        let report = sim.finish();
        assert_eq!(report.arrived, 0);
        assert_eq!(report.rejection_rate, 0.0);
    }
}

#[cfg(test)]
mod warmup_tests {
    use super::*;
    use crate::policies::Greedy;

    #[test]
    fn reset_stats_gives_steady_state_window() {
        let config = SimConfig::baseline(32).with_seed(3);
        let mut sim = Simulation::new(config, Greedy::new());
        let mut workload = |_s: u64, out: &mut Vec<u32>| out.extend(0..32u32);
        sim.run(&mut workload, 50);
        let warm_arrived = sim.stats().arrived;
        assert_eq!(warm_arrived, 50 * 32);
        sim.reset_stats();
        sim.run(&mut workload, 25);
        let report = sim.finish();
        report.check_conservation().unwrap();
        // Only the post-reset window is counted (plus carried backlog).
        assert!(report.arrived <= 25 * 32 + 32 * 16);
        assert!(report.arrived >= 25 * 32);
        assert_eq!(report.steps, 75, "step counter is not reset");
    }
}
