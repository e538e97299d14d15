//! The KV-store façade: keys in, metrics out.
//!
//! [`KvCluster`] wraps a [`Simulation`] behind a key-oriented API. Client
//! `get`s accumulate into the current time step; [`KvCluster::commit_step`]
//! advances the simulated cluster by one step. Requests to keys whose
//! chunk is already being fetched this step are *coalesced* (a chunk read
//! serves every key inside the chunk — this is also how the model's
//! distinct-chunks-per-step constraint manifests in a real store).

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

/// Per-step chunk-request index: membership ("is this chunk already
/// pending?") plus the owning tenant, keyed by chunk id.
///
/// A stamped dense array instead of a `HashMap`: chunk ids are `<
/// num_chunks`, so one slot per chunk with a generation stamp gives O(1)
/// insert/lookup, an O(1) per-step clear (bump the generation), and —
/// unlike a hash table — a deterministic memory layout with no
/// iteration-order hazard (the workspace `determinism` lint forbids
/// `HashMap`/`HashSet` in this crate).
struct PendingIndex {
    /// Generation at which each chunk was last inserted.
    stamp: Vec<u32>,
    /// Owning tenant, valid only where `stamp` matches `current`.
    owner: Vec<u16>,
    /// Current step's generation; never 0 so a zeroed stamp is "absent".
    current: u32,
}

impl PendingIndex {
    fn new(num_chunks: usize) -> Self {
        Self {
            stamp: vec![0; num_chunks],
            owner: vec![0; num_chunks],
            current: 1,
        }
    }

    /// Marks `chunk` pending with owner `tenant`. Returns `true` if the
    /// chunk was not yet pending this step.
    fn insert(&mut self, chunk: u32, tenant: u16) -> bool {
        let i = chunk as usize;
        if self.stamp[i] == self.current {
            return false;
        }
        self.stamp[i] = self.current;
        self.owner[i] = tenant;
        true
    }

    /// The tenant whose key created the pending request for `chunk`
    /// this step, if any.
    fn owner_of(&self, chunk: u32) -> Option<u16> {
        let i = chunk as usize;
        (self.stamp[i] == self.current).then(|| self.owner[i])
    }

    /// O(1) clear: start the next generation. On the (practically
    /// unreachable) u32 wrap, fall back to an O(n) stamp reset so stale
    /// generations can never alias.
    fn clear(&mut self) {
        if self.current == u32::MAX {
            self.stamp.fill(0);
            self.current = 1;
        } else {
            self.current += 1;
        }
    }
}

/// The one observer of a committed step: attributes each chunk's routing
/// outcome to the tenant whose key created the chunk request, then hands
/// the decision to the caller's tap (see
/// [`KvCluster::commit_step_observed`]).
struct DecisionTap<'a, F: FnMut(u32, Decision)> {
    owner_of_chunk: &'a PendingIndex,
    stats: &'a mut [TenantStats],
    on_decision: F,
}

impl<F: FnMut(u32, Decision)> Observer for DecisionTap<'_, F> {
    fn on_route(&mut self, _step: u64, chunk: u32, decision: Decision) {
        if let Some(tenant) = self.owner_of_chunk.owner_of(chunk) {
            let entry = &mut self.stats[tenant as usize];
            match decision {
                Decision::Route { .. } => entry.accepted += 1,
                Decision::Reject(_) => entry.rejected += 1,
            }
        }
        (self.on_decision)(chunk, decision);
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
    pending: Vec<u32>,
    /// Membership + tenant attribution for this step's pending chunks.
    pending_index: PendingIndex,
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
            pending_index: PendingIndex::new(config.num_chunks),
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

    /// Issues a `get` for `key` in the current step. Returns `true` if a
    /// new chunk request was created, `false` if it coalesced into an
    /// existing one. Attributed to tenant 0.
    pub fn get(&mut self, key: u64) -> bool {
        self.get_for(0, key)
    }

    /// Issues a `get` on behalf of `tenant` (multi-tenant accounting:
    /// per-tenant accepted/rejected/coalesced counters, readable via
    /// [`KvCluster::tenant_stats`]). A chunk request is attributed to the
    /// tenant whose key created it; coalesced followers are counted per
    /// their own tenant.
    pub fn get_for(&mut self, tenant: u16, key: u64) -> bool {
        if self.keys.tenant_stats.len() <= tenant as usize {
            self.keys
                .tenant_stats
                .resize(tenant as usize + 1, TenantStats::default());
        }
        self.keys.tenant_stats[tenant as usize].key_requests += 1;
        let chunk = self.keys.directory.chunk_of(key);
        let created = if self.keys.pending_index.insert(chunk, tenant) {
            self.keys.pending.push(chunk);
            true
        } else {
            self.keys.coalesced_this_step += 1;
            self.keys.tenant_stats[tenant as usize].coalesced += 1;
            false
        };
        if S::ENABLED {
            let step = self.sim.step_count();
            self.sim.sink_mut().on_event(&TraceEvent::TenantOp {
                step,
                tenant,
                key,
                chunk,
                coalesced: !created,
            });
        }
        created
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

    /// Executes one time step with the accumulated requests.
    pub fn commit_step(&mut self) -> StepSummary {
        self.commit_step_observed(|_, _| {})
    }

    /// Like [`KvCluster::commit_step`], but also invokes `on_decision`
    /// with each pending chunk's routing decision as the engine makes
    /// it, in engine routing order. This is how a serving layer learns
    /// *which replica* each accepted request landed on (and why each
    /// reject happened) without re-deriving policy state: the tap fires
    /// inside the one observer pass, right after tenant attribution.
    pub fn commit_step_observed<F>(&mut self, on_decision: F) -> StepSummary
    where
        F: FnMut(u32, Decision),
    {
        let step = self.sim.step_count();
        let rejected_before = self.sim.stats().rejected_total();
        let chunk_requests = self.keys.pending.len() as u64;
        let mut oneshot = OneShot {
            chunks: &self.keys.pending,
        };
        let mut tap = DecisionTap {
            owner_of_chunk: &self.keys.pending_index,
            stats: &mut self.keys.tenant_stats,
            on_decision,
        };
        self.sim.run_observed(&mut oneshot, 1, &mut tap);
        let rejected = self.sim.stats().rejected_total() - rejected_before;
        let summary = StepSummary {
            step,
            chunk_requests,
            coalesced_keys: self.keys.coalesced_this_step,
            rejected,
        };
        self.keys.pending.clear();
        self.keys.pending_index.clear();
        self.keys.coalesced_this_step = 0;
        summary
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
        assert!(kv.get(1));
        assert!(!kv.get(2));
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
    fn observed_commit_taps_every_decision() {
        let mut kv = cluster();
        for key in 0..50u64 {
            kv.get(key);
        }
        let mut decisions = Vec::new();
        let summary = kv.commit_step_observed(|chunk, d| decisions.push((chunk, d)));
        assert_eq!(decisions.len() as u64, summary.chunk_requests);
        let rejects = decisions
            .iter()
            .filter(|(_, d)| matches!(d, Decision::Reject(_)))
            .count() as u64;
        assert_eq!(rejects, summary.rejected);
        // The tap and the plain commit share one observer pass, so
        // tenant attribution still balances.
        let t0 = kv.tenant_stats(0);
        assert_eq!(t0.accepted + t0.rejected + t0.coalesced, t0.key_requests);
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
