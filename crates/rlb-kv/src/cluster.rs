//! The KV-store façade: keys in, metrics out.
//!
//! [`KvCluster`] wraps a [`Simulation`] behind a key-oriented API. Client
//! `get`s accumulate into the current time step; [`KvCluster::commit_step`]
//! advances the simulated cluster by one step. Requests to keys whose
//! chunk is already being fetched this step are *coalesced* (a chunk read
//! serves every key inside the chunk — this is also how the model's
//! distinct-chunks-per-step constraint manifests in a real store).

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

use crate::directory::ChunkDirectory;
use rlb_core::{
    Decision, NoopSink, Observer, Policy, RunReport, SimConfig, Simulation, TraceEvent, TraceSink,
    Workload,
};

/// Per-step accounting returned by [`KvCluster::commit_step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// return type of `KvCluster::commit_step`. lint:allow(dead-pub)
pub struct StepSummary {
    /// Step index just executed.
    pub step: u64,
    /// Distinct chunk requests issued this step.
    pub chunk_requests: u64,
    /// Key requests coalesced into an already-pending chunk request.
    pub coalesced_keys: u64,
    /// Chunk requests rejected this step (all causes).
    pub rejected: u64,
}

/// Cumulative per-tenant accounting (see [`KvCluster::get_for`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Key-level `get`s issued by this tenant.
    pub key_requests: u64,
    /// Key requests that coalesced into an already-pending chunk.
    pub coalesced: u64,
    /// Chunk requests owned by this tenant that the cluster accepted.
    pub accepted: u64,
    /// Chunk requests owned by this tenant that the cluster rejected.
    pub rejected: u64,
}

/// Per-step chunk-request index: which slot of this step's pending list
/// a chunk already occupies, keyed by chunk id.
///
/// A stamped dense array instead of a `HashMap`: chunk ids are `<
/// num_chunks`, so one entry per chunk with a generation stamp gives O(1)
/// insert/lookup, an O(1) per-step clear (bump the generation), and —
/// unlike a hash table — a deterministic memory layout with no
/// iteration-order hazard (the root `clippy.toml` disallows
/// `HashMap`/`HashSet` in the workspace).
struct PendingIndex {
    /// Generation at which each chunk was last inserted.
    stamp: Vec<u32>,
    /// The chunk's slot, valid only where `stamp` matches `current`.
    slot: Vec<u32>,
    /// Current step's generation; never 0 so a zeroed stamp is "absent".
    current: u32,
}

impl PendingIndex {
    fn new(num_chunks: usize) -> Self {
        Self {
            stamp: vec![0; num_chunks],
            slot: vec![0; num_chunks],
            current: 1,
        }
    }

    /// Marks `chunk` pending in slot `next` unless it already holds a
    /// slot this step; returns the slot it holds. Total: a chunk id
    /// outside the table (none exists — `chunk_of` hashes into
    /// `0..num_chunks` and `pin` validates) would open a slot of its
    /// own every time rather than index out of bounds.
    fn slot_of(&mut self, chunk: u32, next: u32) -> u32 {
        let i = chunk as usize;
        let (Some(stamp), Some(slot)) = (self.stamp.get_mut(i), self.slot.get_mut(i)) else {
            return next;
        };
        if *stamp != self.current {
            *stamp = self.current;
            *slot = next;
        }
        *slot
    }

    /// O(1) clear: start the next generation. On the (practically
    /// unreachable) u32 wrap, fall back to an O(n) stamp reset so stale
    /// generations can never alias.
    fn clear(&mut self) {
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "current < u32::MAX in the else arm"
        )]
        if self.current == u32::MAX {
            self.stamp.fill(0);
            self.current = 1;
        } else {
            self.current += 1;
        }
    }
}

/// The one observer of a committed step. The engine routes the pending
/// chunks in the order they were handed over, so the decisions made so
/// far count the slot being decided: the outcome is attributed to the
/// tenant whose key opened that slot, then kept for
/// [`KvCluster::decision`].
struct StepTap<'a> {
    pending: &'a [u32],
    owners: &'a [u16],
    stats: &'a mut [TenantStats],
    decisions: &'a mut Vec<Decision>,
}

impl Observer for StepTap<'_> {
    fn on_route(&mut self, _step: u64, chunk: u32, decision: Decision) {
        let slot = self.decisions.len();
        debug_assert_eq!(
            self.pending.get(slot),
            Some(&chunk),
            "the engine left pending order"
        );
        let owner = self.owners.get(slot);
        if let Some(entry) = owner.and_then(|&tenant| self.stats.get_mut(tenant as usize)) {
            #[expect(clippy::arithmetic_side_effects, reason = "request counts fit a u64")]
            match decision {
                Decision::Route { .. } => entry.accepted += 1,
                Decision::Reject(_) => entry.rejected += 1,
            }
        }
        self.decisions.push(decision);
    }
}

/// One-shot workload feeding a prepared request set into the engine.
struct OneShot<'a> {
    chunks: &'a [u32],
}

impl Workload for OneShot<'_> {
    fn next_step(&mut self, _step: u64, out: &mut Vec<u32>) {
        out.extend_from_slice(self.chunks);
    }
}

/// A simulated distributed KV store.
///
/// ```
/// use rlb_core::{SimConfig, policies::Greedy};
/// use rlb_kv::KvCluster;
///
/// let mut kv = KvCluster::new(SimConfig::baseline(16).with_seed(1), Greedy::new());
/// for key in 0..40u64 {
///     kv.get(key);
/// }
/// let step = kv.commit_step();
/// assert!(step.chunk_requests > 0);
/// kv.idle(8);
/// let report = kv.finish();
/// assert_eq!(report.in_flight, 0);
/// ```
pub struct KvCluster<P: Policy, S: TraceSink = NoopSink> {
    sim: Simulation<P, S>,
    keys: KeyFront,
}

/// The key-facing state in front of the engine; nothing in it depends
/// on the sink, so [`KvCluster::with_sink`] moves it whole.
struct KeyFront {
    directory: ChunkDirectory,
    /// This step's distinct chunks, in first-seen order: slot `i` is
    /// `pending[i]`, opened by a key of tenant `owners[i]`.
    pending: Vec<u32>,
    owners: Vec<u16>,
    pending_index: PendingIndex,
    /// The last committed step's routing decisions, one per slot.
    decisions: Vec<Decision>,
    coalesced_this_step: u64,
    /// Cumulative per-tenant accounting, indexed by tenant id.
    tenant_stats: Vec<TenantStats>,
}

impl<P: Policy> KvCluster<P> {
    /// Builds a cluster from a simulation config and a policy. The key
    /// directory is salted from the config seed.
    pub fn new(config: SimConfig, policy: P) -> Self {
        let keys = KeyFront {
            directory: ChunkDirectory::new(config.num_chunks, config.seed ^ 0x6b76, 64),
            pending: Vec::new(),
            owners: Vec::new(),
            pending_index: PendingIndex::new(config.num_chunks),
            decisions: Vec::new(),
            coalesced_this_step: 0,
            tenant_stats: Vec::new(),
        };
        Self {
            sim: Simulation::new(config, policy),
            keys,
        }
    }
}

impl<P: Policy, S: TraceSink> KvCluster<P, S> {
    /// Replaces the trace sink (builder style). The sink receives both
    /// the engine's events and this façade's [`TraceEvent::TenantOp`]
    /// key-operation events, interleaved in issue order.
    pub fn with_sink<S2: TraceSink>(self, sink: S2) -> KvCluster<P, S2> {
        KvCluster {
            sim: self.sim.with_sink(sink),
            keys: self.keys,
        }
    }

    /// The key directory (e.g. for pinning keys).
    pub fn directory_mut(&mut self) -> &mut ChunkDirectory {
        &mut self.keys.directory
    }

    /// The key directory, read-only.
    pub fn directory(&self) -> &ChunkDirectory {
        &self.keys.directory
    }

    /// The underlying simulation (read-only; e.g. policy diagnostics).
    pub fn simulation(&self) -> &Simulation<P, S> {
        &self.sim
    }

    /// The attached trace sink, read-only.
    pub fn sink(&self) -> &S {
        self.sim.sink()
    }

    /// Issues a `get` for `key` in the current step, attributed to
    /// tenant 0. Returns the slot, as [`KvCluster::get_for`] does.
    pub fn get(&mut self, key: u64) -> u32 {
        self.get_for(0, key)
    }

    /// Issues a `get` on behalf of `tenant` (multi-tenant accounting:
    /// per-tenant accepted/rejected/coalesced counters, readable via
    /// [`KvCluster::tenant_stats`]). A chunk request is attributed to the
    /// tenant whose key created it; coalesced followers are counted per
    /// their own tenant.
    ///
    /// Returns the **slot** of the chunk request the key rides on this
    /// step. Slots count a step's distinct chunks from 0 in first-seen
    /// order, so two keys get the same slot exactly when they coalesce,
    /// and after the commit [`KvCluster::decision`] of that slot is the
    /// key's routing outcome.
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        reason = "tenant is a u16, and tenant_stats is resized to hold it just below; request \
                  counts fit a u64"
    )]
    pub fn get_for(&mut self, tenant: u16, key: u64) -> u32 {
        if self.keys.tenant_stats.len() <= tenant as usize {
            self.keys
                .tenant_stats
                .resize(tenant as usize + 1, TenantStats::default());
        }
        self.keys.tenant_stats[tenant as usize].key_requests += 1;
        let chunk = self.keys.directory.chunk_of(key);
        let next = self.keys.pending.len() as u32;
        let slot = self.keys.pending_index.slot_of(chunk, next);
        let created = slot == next;
        if created {
            self.keys.pending.push(chunk);
            self.keys.owners.push(tenant);
        } else {
            self.keys.coalesced_this_step += 1;
            self.keys.tenant_stats[tenant as usize].coalesced += 1;
        }
        let step = self.sim.step_count();
        self.sim.sink_mut().emit(|| TraceEvent::TenantOp {
            step,
            tenant,
            key,
            chunk,
            coalesced: !created,
        });
        slot
    }

    /// Accounting for `tenant` so far (zeros if the tenant never issued
    /// a request).
    pub fn tenant_stats(&self, tenant: u16) -> TenantStats {
        self.keys
            .tenant_stats
            .get(tenant as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Chunk requests currently queued for the next commit.
    pub fn pending_requests(&self) -> usize {
        self.keys.pending.len()
    }

    /// Requests already accepted into server queues but not yet
    /// processed (excludes [`KvCluster::pending_requests`], which have
    /// not been committed). O(1).
    pub fn queued(&self) -> u64 {
        self.sim.view().total_backlog()
    }

    /// Executes one time step with the accumulated requests. Each
    /// slot's routing decision stays readable through
    /// [`KvCluster::decision`] until the next commit.
    pub fn commit_step(&mut self) -> StepSummary {
        let step = self.sim.step_count();
        let rejected_before = self.sim.stats().rejected_total();
        let chunk_requests = self.keys.pending.len() as u64;
        let mut oneshot = OneShot {
            chunks: &self.keys.pending,
        };
        self.keys.decisions.clear();
        let mut tap = StepTap {
            pending: &self.keys.pending,
            owners: &self.keys.owners,
            stats: &mut self.keys.tenant_stats,
            decisions: &mut self.keys.decisions,
        };
        self.sim.run_observed(&mut oneshot, 1, &mut tap);
        #[expect(clippy::arithmetic_side_effects, reason = "rejected_total only grows")]
        let rejected = self.sim.stats().rejected_total() - rejected_before;
        let summary = StepSummary {
            step,
            chunk_requests,
            coalesced_keys: self.keys.coalesced_this_step,
            rejected,
        };
        self.keys.pending.clear();
        self.keys.owners.clear();
        self.keys.pending_index.clear();
        self.keys.coalesced_this_step = 0;
        summary
    }

    /// What the last committed step decided for `slot` (see
    /// [`KvCluster::get_for`]): the replica and queue class the chunk
    /// request was enqueued on, or why it was rejected — after the
    /// engine's own rewrites, so a `Route` the chosen queue had no room
    /// for reads as `Reject(Overflow)`. `None` for a slot that step did
    /// not have.
    pub fn decision(&self, slot: u32) -> Option<Decision> {
        self.keys.decisions.get(slot as usize).copied()
    }

    /// Advances `steps` idle steps (no new requests; queues drain).
    pub fn idle(&mut self, steps: u64) {
        let mut empty = OneShot { chunks: &[] };
        self.sim.run(&mut empty, steps);
    }

    /// Finishes the run and returns the full report.
    pub fn finish(self) -> RunReport {
        self.sim.finish()
    }

    /// Finishes the run, returning the report and the trace sink.
    pub fn finish_traced(self) -> (RunReport, S) {
        self.sim.finish_traced()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlb_core::policies::Greedy;
    use rlb_core::{ClassSpec, ClusterView, RejectReason, RouteCtx};

    fn cluster() -> KvCluster<Greedy> {
        let config = SimConfig::baseline(16).with_seed(5);
        KvCluster::new(config, Greedy::new())
    }

    #[test]
    fn gets_accumulate_and_commit() {
        let mut kv = cluster();
        for key in 0..20u64 {
            kv.get(key);
        }
        let n = kv.pending_requests();
        assert!(n > 0 && n <= 20);
        let summary = kv.commit_step();
        assert_eq!(summary.chunk_requests, n as u64);
        assert_eq!(summary.step, 0);
        assert_eq!(kv.pending_requests(), 0);
    }

    #[test]
    fn same_chunk_keys_coalesce() {
        let mut kv = cluster();
        // Pin two keys to the same chunk to force coalescing.
        kv.directory_mut().pin(1, 3).unwrap();
        kv.directory_mut().pin(2, 3).unwrap();
        assert_eq!(kv.get(1), kv.get(2));
        let summary = kv.commit_step();
        assert_eq!(summary.chunk_requests, 1);
        assert_eq!(summary.coalesced_keys, 1);
    }

    #[test]
    fn idle_steps_drain_queues() {
        let mut kv = cluster();
        for key in 0..200u64 {
            kv.get(key);
        }
        kv.commit_step();
        kv.idle(16);
        let report = kv.finish();
        report.check_conservation().unwrap();
        assert_eq!(report.in_flight, 0, "queues should fully drain");
        assert_eq!(report.completed + report.rejected_total, report.arrived);
    }

    #[test]
    fn queued_tracks_committed_backlog() {
        let mut kv = cluster();
        assert_eq!(kv.queued(), 0);
        for key in 0..200u64 {
            kv.get(key);
        }
        // Uncommitted requests are pending, not queued.
        assert_eq!(kv.queued(), 0);
        let summary = kv.commit_step();
        let queued = kv.queued();
        let per_server: u64 = kv.simulation().view().backlogs().map(u64::from).sum();
        assert_eq!(queued, per_server);
        assert_eq!(
            queued + summary.rejected + kv.simulation().stats().completed,
            summary.chunk_requests
        );
        kv.idle(16);
        assert_eq!(kv.queued(), 0);
        assert!(kv.simulation().view().backlogs().all(|b| b == 0));
    }

    #[test]
    fn tenant_accounting_splits_traffic() {
        let mut kv = cluster();
        for step in 0..20u64 {
            // Tenant 1: fixed hot keys; tenant 2: churning keys.
            for key in 0..20u64 {
                kv.get_for(1, key);
            }
            for key in 0..20u64 {
                kv.get_for(2, 1000 + key * 7 + step * 131);
            }
            kv.commit_step();
        }
        let t1 = kv.tenant_stats(1);
        let t2 = kv.tenant_stats(2);
        assert_eq!(t1.key_requests, 20 * 20);
        assert_eq!(t2.key_requests, 20 * 20);
        // Every key request is accounted as a new chunk, a coalesce, or
        // (after commit) an accepted/rejected chunk request.
        assert_eq!(t1.accepted + t1.rejected + t1.coalesced, t1.key_requests);
        assert_eq!(t2.accepted + t2.rejected + t2.coalesced, t2.key_requests);
        // Unknown tenants read as zeros.
        assert_eq!(kv.tenant_stats(9), TenantStats::default());
        let report = kv.finish();
        report.check_conservation().unwrap();
    }

    #[test]
    fn default_get_is_tenant_zero() {
        let mut kv = cluster();
        kv.get(7);
        kv.commit_step();
        let t0 = kv.tenant_stats(0);
        assert_eq!(t0.key_requests, 1);
        assert_eq!(t0.accepted + t0.rejected, 1);
    }

    #[test]
    fn every_slot_of_a_committed_step_has_its_decision() {
        let mut kv = cluster();
        let slots: Vec<u32> = (0..50u64).map(|key| kv.get(key)).collect();
        let summary = kv.commit_step();
        let decisions: Vec<Decision> = (0..).map_while(|slot| kv.decision(slot)).collect();
        assert_eq!(decisions.len() as u64, summary.chunk_requests);
        assert!(slots.iter().all(|&slot| kv.decision(slot).is_some()));
        let rejects = decisions
            .iter()
            .filter(|d| matches!(d, Decision::Reject(_)))
            .count() as u64;
        assert_eq!(rejects, summary.rejected);
        // Keeping the decisions and attributing tenants are one observer
        // pass, so tenant attribution still balances.
        let t0 = kv.tenant_stats(0);
        assert_eq!(t0.accepted + t0.rejected + t0.coalesced, t0.key_requests);
        // Readable until the next commit, which replaces them.
        kv.idle(1);
        assert_eq!(kv.decision(0), decisions.first().copied());
        kv.commit_step();
        assert_eq!(kv.decision(0), None);
    }

    /// Routes to the first replica without asking whether it has room,
    /// so the engine has `Route`s to rewrite into `Reject(Overflow)`.
    struct FirstReplicaBlind;

    impl Policy for FirstReplicaBlind {
        fn name(&self) -> &'static str {
            "first-replica-blind"
        }
        fn queue_classes(&self, config: &SimConfig) -> Vec<ClassSpec> {
            Greedy::new().queue_classes(config)
        }
        fn route(&mut self, ctx: RouteCtx<'_>, _: &ClusterView<'_>) -> Decision {
            Decision::Route {
                server: ctx.replicas[0],
                class: 0,
            }
        }
    }

    #[test]
    fn slots_are_dense_in_first_seen_order_and_name_the_engines_decisions() {
        // 4 servers, g = 1, q = 2 under 40 keys over 16 chunks a step:
        // first replicas fill and the engine overflows.
        let config = SimConfig::explicit(4, 2, 1, 2).with_seed(3);
        let mut kv = KvCluster::new(config.clone(), FirstReplicaBlind);
        let mut twin = Simulation::new(config, FirstReplicaBlind);
        let mut overflows = 0;
        for step in 0..4u64 {
            // First-seen order of this step's chunks, and each key's slot.
            let mut chunks: Vec<u32> = Vec::new();
            for key in (step * 100..).take(40) {
                let chunk = kv.directory().chunk_of(key);
                let slot = kv.get_for((key % 3) as u16, key);
                // The slot its chunk already holds, else the next one.
                let seen = chunks.iter().position(|&c| c == chunk);
                assert_eq!(slot as usize, seen.unwrap_or(chunks.len()));
                if seen.is_none() {
                    chunks.push(chunk);
                }
            }
            assert_eq!(kv.pending_requests(), chunks.len());
            kv.commit_step();
            // What the observer is told when the bare engine routes the
            // same chunks in that order.
            let mut seen = Vec::new();
            let mut tap = StepTap {
                pending: &chunks,
                owners: &[],
                stats: &mut [],
                decisions: &mut seen,
            };
            twin.run_observed(&mut OneShot { chunks: &chunks }, 1, &mut tap);
            assert_eq!(seen.len(), chunks.len());
            let ours: Vec<Decision> = (0..).map_while(|slot| kv.decision(slot)).collect();
            assert_eq!(ours, seen, "step {step}");
            let overflow = Decision::Reject(RejectReason::Overflow);
            overflows += seen.iter().filter(|&&d| d == overflow).count();
        }
        assert!(overflows > 0, "no step had an overflow rewrite");
    }

    #[test]
    fn repeated_key_traffic_is_handled() {
        let mut kv = cluster();
        for step in 0..30 {
            for key in 0..64u64 {
                kv.get(key);
            }
            let s = kv.commit_step();
            assert_eq!(s.step, step);
        }
        let report = kv.finish();
        report.check_conservation().unwrap();
        assert!(
            report.rejection_rate < 0.05,
            "rate {}",
            report.rejection_rate
        );
    }
}
