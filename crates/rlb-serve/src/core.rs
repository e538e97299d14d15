//! The transport-agnostic serving core.
//!
//! [`ServerCore`] owns the simulated cluster ([`KvCluster`]), the
//! admission gate, the value store, and the reply schedule. It consumes
//! decoded [`Frame`]s and produces response frames tagged with the
//! session they belong to — it never touches a socket or a pipe, which
//! is what lets the live TCP reactor (`server.rs`) and the virtual-time
//! co-simulation (`rlb-load`'s sim driver) run *the same code* and pin
//! byte-identical behavior.
//!
//! ## Time
//!
//! The core advances in discrete **ticks**, each mapping to one engine
//! step. A request is written down once, at admission: its key is
//! folded and handed to the cluster on the spot, and the same record
//! waits for the step, then for its reply. [`ServerCore::tick`] commits
//! the step, routing every distinct chunk with the configured policy
//! against live replica backlogs, and reads each request's outcome back
//! by the slot the cluster gave its key at admission
//! ([`KvCluster::decision`]); nothing in a tick walks the servers or
//! the chunk universe. An accepted request's reply is scheduled
//! `1 + backlog(server)/rate` ticks out — a modeled service latency:
//! the queue the routing policy just lengthened is the queue the reply
//! waits behind. Queues are bounded, so the schedule is a short ring of
//! per-tick buckets, not a general ordered map; a bucket that comes off
//! the ring keeps its allocation for the ring's next growth, so a steady
//! run schedules replies without allocating. Live mode drives ticks
//! from wall time; sim-clock mode drives them from the driver loop.
//! Neither changes routing, admission, or reply content.
//!
//! ## The store
//!
//! Values live in one ordered map keyed `(fold, tenant, key)`, where
//! `fold` is the `key_to_u64` the request already carries for the chunk
//! directory: a lookup is decided by one inline word at almost every
//! node and reads key bytes only where folds tie. Puts apply and gets
//! read in reply order, at the tick the reply leaves. The buffer a put
//! replaces is not freed there: a later get of the same tick copies its
//! reply into it, so a tick that writes and reads values moves bytes
//! between buffers it already holds. What no get took is dropped when
//! the tick ends, so no value outlives the tick that replaced it.
//!
//! ## Admission and rejects
//!
//! A request holds one unit of the admission gate (`gate.rs`) from
//! acceptance until its reply or reject frame is handed back, bounding
//! staged + in-engine + reply-pending work. A full gate rejects at
//! arrival with [`RejectCause::Admission`]. Every reject frame,
//! whatever its cause and whichever layer refused the request, is built
//! by [`ServerCore::reject`], which is what makes the per-tenant,
//! per-cause counts complete.

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

use std::collections::{BTreeMap, VecDeque};

use rlb_core::{Decision, Policy, SimConfig};
use rlb_kv::KvCluster;

use crate::gate::BacklogGate;
use crate::proto::{Frame, RejectCause, REJECT_CAUSES};

/// Caller-assigned session identity: the key of the session in the
/// transport's session map — the daemon's accept serial, never reused,
/// or the co-simulation's client index.
pub(crate) type SessionId = u32;

/// One admitted request, written down once in `admit` and carried
/// unchanged through the engine step to its reply or reject.
struct Request {
    session: SessionId,
    req_id: u32,
    tenant: u16,
    /// The cluster's slot for the chunk request this key rides on:
    /// where `tick` finds the routing decision.
    slot: u32,
    /// The tick it was admitted in; a reply's `latency` counts from it.
    admitted: u64,
    /// `key_to_u64(tenant, key)`, computed once in `admit`: the chunk
    /// directory hashes it, and the store's order leads with it.
    fold: u64,
    key: Vec<u8>,
    /// A put's value, applied to the store at reply time; `None` reads.
    value: Option<Vec<u8>>,
}

/// Per-tenant serving-layer accounting (frame-level, unlike the
/// chunk-level [`TenantStats`] inside the cluster).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
// return type of `ServerCore::tenant_serve_stats`. lint:allow(dead-pub)
pub struct TenantServeStats {
    /// Get/put frames admitted and eventually replied to.
    pub replies: u64,
    /// Reject frames sent, by [`RejectCause`] wire tag.
    pub rejects_by_cause: [u64; REJECT_CAUSES.len()],
}

impl TenantServeStats {
    /// Total reject frames sent to this tenant.
    pub fn rejects(&self) -> u64 {
        self.rejects_by_cause.iter().sum()
    }
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The simulated cluster (servers, replication, rate, queues, seed).
    /// `safety_check_every` is ignored: the daemon takes no per-step
    /// Def. 3.2 snapshot, whatever this says.
    pub engine: SimConfig,
    /// Admission gate limit (max requests in flight through the server).
    pub gate_limit: u64,
}

impl ServeConfig {
    /// `engine` behind the default gate: four ticks of the cluster's
    /// total service capacity (`servers × rate × 4`).
    pub fn for_engine(engine: SimConfig) -> Self {
        let gate_limit = (engine.num_servers as u64)
            .saturating_mul(u64::from(engine.process_rate))
            .saturating_mul(4);
        Self { engine, gate_limit }
    }

    /// A small default cluster: `servers` servers at the baseline
    /// configuration behind the default gate.
    pub fn baseline(servers: usize, seed: u64) -> Self {
        Self::for_engine(SimConfig::baseline(servers).with_seed(seed))
    }
}

/// The serving core: frames in, frames out, one engine step per tick.
pub struct ServerCore<P: Policy> {
    kv: KvCluster<P>,
    gate: BacklogGate,
    /// The value store. `BTreeMap` (not `HashMap`, which `clippy.toml`
    /// disallows): deterministic iteration, and the key space is
    /// tenant-scoped. The request's fold
    /// leads the key so a lookup compares inline words down the tree and
    /// dereferences key bytes only where the fold ties — on the hit, or
    /// on a 64-bit collision, which `(tenant, key)` then tells apart.
    /// Nothing iterates the store, so its order is nobody's output.
    /// A put hands the value it replaces to `replaced`, not to the
    /// allocator.
    store: BTreeMap<(u64, u16, Vec<u8>), Vec<u8>>,
    /// Admitted since the last tick, already handed to `kv`.
    staged: Vec<Request>,
    /// Routed requests awaiting their reply: bucket `i` is due `i + 1`
    /// ticks from now. A bucket is filled in admission order and a
    /// reply waits at most `queue capacity / rate` ticks, so emission is
    /// FIFO within a tick and the ring stays that short.
    scheduled: VecDeque<Vec<Request>>,
    /// Emptied buckets that came off the ring, kept for the ring's next
    /// growth: ring + spares never hold more buckets than the ring's
    /// longest extent, and a steady run allocates none.
    spare: Vec<Vec<Request>>,
    /// Values a put in this tick's replies took out of the store: the
    /// gets after it copy their replies into these buffers instead of
    /// new ones. Emptied at the end of every tick, so no buffer
    /// outlives the tick that replaced it.
    replaced: Vec<Vec<u8>>,
    tick: u64,
    tenants: Vec<TenantServeStats>,
    pings: u64,
}

impl<P: Policy> ServerCore<P> {
    /// Builds the core from a config and a routing policy.
    pub fn new(config: ServeConfig, policy: P) -> Self {
        // The snapshot is O(servers) a step and feeds a report the
        // daemon never finishes; a request's path does not include it.
        let engine = SimConfig {
            safety_check_every: None,
            ..config.engine
        };
        Self {
            kv: KvCluster::new(engine, policy),
            gate: BacklogGate::new(config.gate_limit),
            store: BTreeMap::new(),
            staged: Vec::new(),
            scheduled: VecDeque::new(),
            spare: Vec::new(),
            replaced: Vec::new(),
            tick: 0,
            tenants: Vec::new(),
            pings: 0,
        }
    }

    /// Serving-layer accounting for `tenant` (zeros if unseen).
    pub fn tenant_serve_stats(&self, tenant: u16) -> TenantServeStats {
        self.tenants
            .get(tenant as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Ping frames served.
    pub fn pings(&self) -> u64 {
        self.pings
    }

    /// Reply and reject frames produced so far, over every tenant
    /// (pings are not counted).
    #[expect(clippy::arithmetic_side_effects, reason = "frame counts fit a u64")]
    pub fn responses(&self) -> u64 {
        self.tenants.iter().map(|t| t.replies + t.rejects()).sum()
    }

    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        reason = "tenant is a u16, and the vec is resized to hold it just above"
    )]
    fn tenant_mut(&mut self, tenant: u16) -> &mut TenantServeStats {
        if self.tenants.len() <= tenant as usize {
            self.tenants
                .resize(tenant as usize + 1, TenantServeStats::default());
        }
        &mut self.tenants[tenant as usize]
    }

    /// Counts one reject against `tenant` and builds its frame. Every
    /// `Reject` the daemon sends is made here, so every cause is counted
    /// per tenant; the transport calls it for what never reaches
    /// [`on_frame`](ServerCore::on_frame) — a request refused after
    /// shutdown, and the `req_id` 0 answer to an undecodable byte stream
    /// (tenant 0: no frame, so no tenant, was read).
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        reason = "one slot per RejectCause; frame counts fit a u64"
    )]
    pub fn reject(&mut self, tenant: u16, req_id: u32, cause: RejectCause) -> Frame {
        self.tenant_mut(tenant).rejects_by_cause[cause as usize] += 1;
        Frame::Reject { req_id, cause }
    }

    /// Handles one decoded frame from `session`. An immediate response
    /// (ping echo, admission/protocol reject) comes back as
    /// `Some(frame)`; admitted get/put requests stage for the next
    /// [`tick`](ServerCore::tick) and return `None`.
    pub fn on_frame(&mut self, session: SessionId, frame: Frame) -> Option<Frame> {
        match frame {
            #[expect(clippy::arithmetic_side_effects, reason = "frame counts fit a u64")]
            Frame::Ping { nonce } => {
                self.pings += 1;
                Some(Frame::Ping { nonce })
            }
            Frame::Get {
                req_id,
                tenant,
                key,
            } => self.admit(session, req_id, tenant, key, None),
            Frame::Put {
                req_id,
                tenant,
                key,
                value,
            } => self.admit(session, req_id, tenant, key, Some(value)),
            // Reply/Reject are server→client frames; receiving one is a
            // protocol violation by the client.
            Frame::Reply { req_id, .. } | Frame::Reject { req_id, .. } => {
                Some(self.reject(0, req_id, RejectCause::Malformed))
            }
        }
    }

    fn admit(
        &mut self,
        session: SessionId,
        req_id: u32,
        tenant: u16,
        key: Vec<u8>,
        value: Option<Vec<u8>>,
    ) -> Option<Frame> {
        if !self.gate.try_acquire(1) {
            return Some(self.reject(tenant, req_id, RejectCause::Admission));
        }
        // The cluster takes the request now, in arrival order (same-chunk
        // requests coalesce into one chunk request inside it); the next
        // tick only has to commit the step.
        let fold = key_to_u64(tenant, &key);
        let slot = self.kv.get_for(tenant, fold);
        self.staged.push(Request {
            session,
            req_id,
            tenant,
            slot,
            admitted: self.tick,
            fold,
            key,
            value,
        });
        None
    }

    /// Commits one engine step: routes every staged request, schedules
    /// replies behind the chosen replica's backlog, and returns every
    /// response frame due at the new tick, in deterministic
    /// (reject-then-due, FIFO) order.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "ticks and frame counts fit a u64; a reply's admission tick is at most the \
                  current one; the buckets and `out` hold requests under the gate"
    )]
    pub fn tick(&mut self) -> Vec<(SessionId, Frame)> {
        // Every response is a staged request turned away or a member of
        // the front bucket (as it stands, plus staged requests routed
        // behind an empty queue).
        let due = self.scheduled.front().map_or(0, Vec::len);
        let mut out = Vec::with_capacity(due + self.staged.len());

        // 1. Commit the step; the cluster keeps one decision per slot.
        self.kv.commit_step();

        // 2. Resolve every staged request from its slot's decision.
        let rate = self.kv.simulation().config().process_rate;
        let mut staged = std::mem::take(&mut self.staged);
        for req in staged.drain(..) {
            let cause = match self.kv.decision(req.slot) {
                Some(Decision::Route { server, .. }) => {
                    // The post-step backlog: the queue the reply waits
                    // behind.
                    let backlog = self.kv.simulation().view().backlog(server);
                    #[expect(
                        clippy::arithmetic_side_effects,
                        reason = "rate >= 1: the engine's config is validated"
                    )]
                    let wait = (backlog / rate) as usize;
                    if self.scheduled.len() <= wait {
                        let spare = &mut self.spare;
                        self.scheduled
                            .resize_with(wait + 1, || spare.pop().unwrap_or_default());
                    }
                    if let Some(bucket) = self.scheduled.get_mut(wait) {
                        bucket.push(req);
                    }
                    continue;
                }
                Some(Decision::Reject(reason)) => RejectCause::from_engine(reason),
                // Every staged request was handed to the cluster at
                // admission, so its slot has a decision; were that ever
                // broken, a live daemon answers rather than panics.
                None => RejectCause::Policy,
            };
            self.gate.release(1);
            out.push((req.session, self.reject(req.tenant, req.req_id, cause)));
        }
        self.staged = staged;

        // 3. Advance time and emit the replies now due (service
        //    completion: puts apply to the store here, gets read here).
        //    Only a bucket that came off the ring is kept as a spare: an
        //    idle tick pops nothing and banks nothing.
        self.tick += 1;
        let Some(mut bucket) = self.scheduled.pop_front() else {
            return out;
        };
        for req in bucket.drain(..) {
            let key = (req.fold, req.tenant, req.key);
            let value = match req.value {
                None => match self.store.get(&key) {
                    Some(stored) => {
                        let mut reply = self.replaced.pop().unwrap_or_default();
                        reply.clear();
                        reply.extend_from_slice(stored);
                        reply
                    }
                    None => Vec::new(),
                },
                Some(value) => {
                    if let Some(old) = self.store.insert(key, value) {
                        self.replaced.push(old);
                    }
                    Vec::new()
                }
            };
            self.tenant_mut(req.tenant).replies += 1;
            self.gate.release(1);
            out.push((
                req.session,
                Frame::Reply {
                    req_id: req.req_id,
                    latency: u32::try_from(self.tick - req.admitted).unwrap_or(u32::MAX),
                    value,
                },
            ));
        }
        self.spare.push(bucket);
        self.replaced.clear();
        out
    }

    /// Whether all admitted work has been replied to or rejected.
    pub fn drained(&self) -> bool {
        self.staged.is_empty() && self.scheduled.is_empty() && self.gate.inflight() == 0
    }

    /// Stable multi-line accounting summary: totals and per-tenant
    /// accept/reject counts. Printed by the live server at shutdown and
    /// embedded in sim-mode transcripts — both sides of the CI count
    /// comparison read this exact text.
    pub fn render_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let total_replies: u64 = self.tenants.iter().map(|t| t.replies).sum();
        let total_rejects: u64 = self.tenants.iter().map(|t| t.rejects()).sum();
        let _ = writeln!(
            s,
            "server: replies={total_replies} rejects={total_rejects} pings={} tick={}",
            self.pings, self.tick
        );
        for (id, t) in self.tenants.iter().enumerate() {
            if t.replies == 0 && t.rejects() == 0 {
                continue;
            }
            let _ = write!(
                s,
                "tenant {id}: replies={} rejects={}",
                t.replies,
                t.rejects()
            );
            for (cause, &n) in REJECT_CAUSES.iter().zip(&t.rejects_by_cause) {
                if n > 0 {
                    let _ = write!(s, " {}={n}", cause.name());
                }
            }
            let _ = writeln!(s);
        }
        s
    }
}

/// Folds arbitrary key bytes (tenant-scoped) into the `u64` key space
/// the chunk directory hashes. Pure mixing, no ambient hashing state —
/// the same bytes always land in the same chunk, across runs and
/// transports.
pub fn key_to_u64(tenant: u16, key: &[u8]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15 ^ u64::from(tenant);
    #[expect(
        clippy::indexing_slicing,
        reason = "`chunks(8)` yields at most 8 bytes"
    )]
    for part in key.chunks(8) {
        let mut b = [0u8; 8];
        b[..part.len()].copy_from_slice(part);
        h = rlb_hash::mix::mix2(h, u64::from_le_bytes(b));
    }
    rlb_hash::mix::fmix64(h ^ key.len() as u64)
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects)]
mod tests {
    use super::*;
    use rlb_core::policies::Greedy;

    fn core() -> ServerCore<Greedy> {
        ServerCore::new(ServeConfig::baseline(16, 7), Greedy::new())
    }

    #[test]
    fn ping_echoes_immediately() {
        let mut c = core();
        let resp = c.on_frame(0, Frame::Ping { nonce: 42 });
        assert_eq!(resp, Some(Frame::Ping { nonce: 42 }));
        assert_eq!(c.pings(), 1);
    }

    #[test]
    fn put_then_get_round_trips_through_ticks() {
        let mut c = core();
        let put = Frame::Put {
            req_id: 1,
            tenant: 3,
            key: b"alpha".to_vec(),
            value: b"beta".to_vec(),
        };
        assert_eq!(c.on_frame(0, put), None, "admitted puts stage");
        // Tick until the put's reply arrives.
        let mut got_put_reply = false;
        for _ in 0..64 {
            for (sess, f) in c.tick() {
                assert_eq!(sess, 0);
                if let Frame::Reply {
                    req_id: 1, value, ..
                } = f
                {
                    assert!(value.is_empty());
                    got_put_reply = true;
                }
            }
            if got_put_reply {
                break;
            }
        }
        assert!(got_put_reply);
        // Now the get sees the stored value.
        let get = Frame::Get {
            req_id: 2,
            tenant: 3,
            key: b"alpha".to_vec(),
        };
        assert_eq!(c.on_frame(0, get), None);
        let mut value = None;
        for _ in 0..64 {
            for (_, f) in c.tick() {
                if let Frame::Reply {
                    req_id: 2,
                    value: v,
                    latency,
                } = f
                {
                    assert!(latency >= 1, "modeled latency is at least one tick");
                    value = Some(v);
                }
            }
            if value.is_some() {
                break;
            }
        }
        assert_eq!(value.as_deref(), Some(b"beta".as_slice()));
        assert!(c.drained());
        assert_eq!(c.tenant_serve_stats(3).replies, 2);
    }

    #[test]
    fn tenants_do_not_share_a_keyspace() {
        let mut c = core();
        c.on_frame(
            0,
            Frame::Put {
                req_id: 1,
                tenant: 1,
                key: b"k".to_vec(),
                value: b"one".to_vec(),
            },
        );
        // Run the put to completion, then read as tenant 2.
        for _ in 0..64 {
            c.tick();
            if c.drained() {
                break;
            }
        }
        c.on_frame(
            0,
            Frame::Get {
                req_id: 2,
                tenant: 2,
                key: b"k".to_vec(),
            },
        );
        let mut value = None;
        for _ in 0..64 {
            for (_, f) in c.tick() {
                if let Frame::Reply {
                    req_id: 2,
                    value: v,
                    ..
                } = f
                {
                    value = Some(v);
                }
            }
            if value.is_some() {
                break;
            }
        }
        assert_eq!(value.as_deref(), Some(b"".as_slice()), "unset for tenant 2");
    }

    #[test]
    fn the_default_gate_is_four_ticks_of_service_capacity() {
        for (servers, rate) in [(16, 1), (64, 8), (3, 5)] {
            let engine = SimConfig::explicit(servers, 2, rate, 16);
            let want = servers as u64 * u64::from(rate) * 4;
            assert_eq!(ServeConfig::for_engine(engine).gate_limit, want);
        }
    }

    #[test]
    fn full_gate_rejects_with_admission_cause() {
        let mut c = ServerCore::new(
            ServeConfig {
                engine: SimConfig::baseline(4).with_seed(1),
                gate_limit: 2,
            },
            Greedy::new(),
        );
        let mk = |id: u32| Frame::Get {
            req_id: id,
            tenant: 0,
            key: vec![id as u8],
        };
        assert_eq!(c.on_frame(0, mk(1)), None);
        assert_eq!(c.on_frame(0, mk(2)), None);
        let resp = c.on_frame(0, mk(3));
        assert_eq!(
            resp,
            Some(Frame::Reject {
                req_id: 3,
                cause: RejectCause::Admission,
            })
        );
        assert_eq!(
            c.tenant_serve_stats(0).rejects_by_cause[RejectCause::Admission as usize],
            1
        );
        // Draining frees the gate again.
        for _ in 0..64 {
            c.tick();
            if c.drained() {
                break;
            }
        }
        assert_eq!(c.on_frame(0, mk(4)), None);
    }

    #[test]
    fn client_sending_server_frames_is_rejected_as_malformed() {
        let mut c = core();
        let resp = c.on_frame(
            0,
            Frame::Reply {
                req_id: 9,
                latency: 0,
                value: Vec::new(),
            },
        );
        assert_eq!(
            resp,
            Some(Frame::Reject {
                req_id: 9,
                cause: RejectCause::Malformed,
            })
        );
    }

    #[test]
    fn summary_is_stable_and_accounts_everything() {
        let mut c = core();
        for id in 0..10u32 {
            c.on_frame(
                0,
                Frame::Get {
                    req_id: id,
                    tenant: (id % 2) as u16,
                    key: vec![id as u8],
                },
            );
        }
        for _ in 0..64 {
            c.tick();
            if c.drained() {
                break;
            }
        }
        let s = c.render_summary();
        assert!(s.starts_with("server: replies="), "summary:\n{s}");
        let t0 = c.tenant_serve_stats(0);
        let t1 = c.tenant_serve_stats(1);
        assert_eq!(t0.replies + t0.rejects() + t1.replies + t1.rejects(), 10);
    }

    #[test]
    fn a_refused_frame_is_counted_under_its_own_tenant_and_cause() {
        let mut c = core();
        let frame = c.reject(5, 77, RejectCause::Shutdown);
        assert_eq!(
            frame,
            Frame::Reject {
                req_id: 77,
                cause: RejectCause::Shutdown,
            }
        );
        c.reject(0, 0, RejectCause::Malformed);
        assert_eq!(
            c.tenant_serve_stats(5).rejects_by_cause[RejectCause::Shutdown as usize],
            1
        );
        assert_eq!(
            c.tenant_serve_stats(0).rejects_by_cause[RejectCause::Malformed as usize],
            1
        );
        assert_eq!(c.responses(), 2);
        let summary = c.render_summary();
        assert!(summary.contains("tenant 0: replies=0 rejects=1 malformed=1"));
        assert!(summary.contains("tenant 5: replies=0 rejects=1 shutdown=1"));
    }

    /// Two servers, both a replica of every chunk: Greedy splits a tick's
    /// distinct chunks evenly, so every post-step backlog is known.
    fn two_servers(rate: u32, queue: u32) -> ServerCore<Greedy> {
        let cfg = ServeConfig {
            engine: SimConfig {
                num_chunks: 256,
                ..SimConfig::explicit(2, 2, rate, queue)
            },
            gate_limit: 1 << 20,
        };
        ServerCore::new(cfg, Greedy::new())
    }

    /// Candidate keys of tenant 0, each with the slot it takes when they
    /// are admitted in this order within one tick — read off a scratch
    /// cluster over `c`'s directory, so `c` itself admits nothing.
    fn probe_slots(c: &ServerCore<Greedy>) -> impl Iterator<Item = (Vec<u8>, u32)> {
        let mut probe = KvCluster::new(c.kv.simulation().config().clone(), Greedy::new());
        (0u32..).map(move |k| {
            let key = k.to_le_bytes().to_vec();
            let slot = probe.get(key_to_u64(0, &key));
            (key, slot)
        })
    }

    /// Admits gets for `n` keys that fall in `n` distinct chunks, with
    /// `req_id`s counting up from `first_id`.
    fn admit_distinct(c: &mut ServerCore<Greedy>, first_id: u32, n: usize) {
        let mut admitted = 0;
        for (key, slot) in probe_slots(c) {
            if admitted == n {
                break;
            }
            // A key falls in a new chunk exactly when it opens the next
            // slot.
            if slot as usize == admitted {
                let get = Frame::Get {
                    req_id: first_id + admitted as u32,
                    tenant: 0,
                    key,
                };
                assert_eq!(c.on_frame(0, get), None);
                admitted += 1;
            }
        }
    }

    fn reply_ids_and_latencies(out: Vec<(SessionId, Frame)>) -> Vec<(u32, u32)> {
        out.into_iter()
            .map(|(_, f)| match f {
                Frame::Reply {
                    req_id, latency, ..
                } => (req_id, latency),
                other => panic!("expected a reply, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn a_reply_waits_one_tick_plus_the_backlog_it_queued_behind() {
        // 14 chunks over 2 servers at g = 2: 7 each, 5 left after the
        // drain, so every reply is due 1 + 5/2 = 3 ticks after admission.
        let mut c = two_servers(2, 8);
        admit_distinct(&mut c, 0, 14);
        assert!(c.tick().is_empty());
        let backlogs: Vec<u32> = c.kv.simulation().view().backlogs().collect();
        assert_eq!(backlogs, [5, 5]);
        assert!(!c.drained(), "a bucket holds the replies");
        assert!(c.tick().is_empty());
        assert!(!c.drained());
        let replies = reply_ids_and_latencies(c.tick());
        let want: Vec<(u32, u32)> = (0..14).map(|id| (id, 3)).collect();
        assert_eq!(replies, want);
        assert!(c.drained());
    }

    #[test]
    fn replies_due_the_same_tick_leave_in_admission_order() {
        // Tick 0 admits 8 (4 a server, 2 left after the drain: due at
        // tick 2); tick 1 admits 2 more (2 + 1 - 2 = 1 left: due at tick
        // 2 as well). The earlier admissions leave first.
        let mut c = two_servers(2, 8);
        admit_distinct(&mut c, 100, 8);
        assert!(c.tick().is_empty());
        admit_distinct(&mut c, 0, 2);
        let replies = reply_ids_and_latencies(c.tick());
        let mut want: Vec<(u32, u32)> = (100..108).map(|id| (id, 2)).collect();
        want.extend([(0, 1), (1, 1)]);
        assert_eq!(replies, want);
        assert!(c.drained());
    }

    #[test]
    fn a_get_admitted_after_a_put_in_one_tick_reads_the_put() {
        let mut c = core();
        let key = b"k".to_vec();
        let put = Frame::Put {
            req_id: 1,
            tenant: 0,
            key: key.clone(),
            value: b"new".to_vec(),
        };
        let get = Frame::Get {
            req_id: 2,
            tenant: 0,
            key,
        };
        assert_eq!(c.on_frame(0, put), None);
        assert_eq!(c.on_frame(1, get), None);
        let out = c.tick();
        assert_eq!(
            out,
            vec![
                (
                    0,
                    Frame::Reply {
                        req_id: 1,
                        latency: 1,
                        value: Vec::new(),
                    }
                ),
                (
                    1,
                    Frame::Reply {
                        req_id: 2,
                        latency: 1,
                        value: b"new".to_vec(),
                    }
                ),
            ]
        );
    }

    #[test]
    fn the_reply_ring_is_bounded_by_queue_capacity_over_rate() {
        // g = 2, q = 5, 24 distinct chunks a tick against 2 x 2 drained:
        // queues sit full and Greedy turns the overflow away.
        let (rate, queue) = (2u32, 5u32);
        let mut c = two_servers(rate, queue);
        let view = c.kv.simulation().view();
        let capacity: u32 = (0..view.num_classes()).map(|k| view.capacity(k)).sum();
        assert_eq!(capacity, queue);
        let bound = capacity.div_ceil(rate) as usize + 1;
        let mut longest = 0;
        for t in 0..200 {
            admit_distinct(&mut c, t * 24, 24);
            c.tick();
            longest = longest.max(c.scheduled.len());
            assert!(c.scheduled.len() <= bound, "tick {t}");
        }
        assert!(longest >= 1, "replies did wait behind a backlog");
        let stats = c.tenant_serve_stats(0);
        assert!(stats.rejects() > 0, "the run was saturated: {stats:?}");
        for _ in 0..bound {
            c.tick();
        }
        assert!(c.drained(), "{bound} ticks empty the ring");
    }

    #[test]
    fn idle_ticks_after_a_burst_bank_no_buckets() {
        // As in the first case above: 14 chunks leave 5 behind a server,
        // so the ring grows to 3 buckets and the replies leave on the
        // third tick.
        let mut c = two_servers(2, 8);
        for round in 0..3 {
            admit_distinct(&mut c, round * 100, 14);
            for _ in 0..2 {
                assert!(c.tick().is_empty());
                assert_eq!(c.scheduled.len() + c.spare.len(), 3);
            }
            assert_eq!(c.tick().len(), 14);
            for _ in 0..50 {
                assert!(c.tick().is_empty());
                assert!(c.scheduled.is_empty() && c.drained());
                assert_eq!(c.spare.len(), 3, "what came off the ring, no more");
            }
        }
        assert!(c.spare.iter().all(Vec::is_empty));
    }

    /// Random gets, puts and overwrites against a plain
    /// `(tenant, key) -> value` map, applied in the order the core
    /// replies: the fold that leads the store's key changes no answer.
    #[test]
    fn the_store_answers_like_a_map_on_tenant_and_key() {
        use rlb_hash::{Pcg64, Rng};

        // Lengths 0..=128, with neighbours that agree on their first 8
        // bytes (one fold word) and part later, or only at the last byte.
        let mut keys: Vec<Vec<u8>> = vec![Vec::new(), vec![0], vec![0; 7], vec![0; 8], vec![0; 9]];
        for tail in [&b""[..], b"a", b"b", b"ab", b"\0"] {
            keys.push([b"8 bytes!", tail].concat());
        }
        for last in 0..4u8 {
            let mut long = vec![0x5a; 128];
            long[127] = last;
            keys.push(long);
            keys.push(vec![last; 64]);
        }

        for seed in 0..4u64 {
            let mut rng = Pcg64::new(seed, 0x73746f7265);
            let mut c = core();
            let mut model: BTreeMap<(u16, Vec<u8>), Vec<u8>> = BTreeMap::new();
            // The request frames, by req_id, until they are answered.
            let mut asked: BTreeMap<u32, Frame> = BTreeMap::new();
            let (mut reads, mut hits) = (0, 0);
            for t in 0..400u32 {
                for i in 0..rng.gen_range(12) as u32 {
                    let req_id = t * 16 + i;
                    let tenant = rng.gen_range(3) as u16;
                    let key = keys[rng.gen_index(keys.len())].clone();
                    let frame = if rng.gen_range(2) == 0 {
                        let len = rng.gen_index(33);
                        let value = (0..len).map(|_| rng.next_u64() as u8).collect();
                        Frame::Put {
                            req_id,
                            tenant,
                            key,
                            value,
                        }
                    } else {
                        Frame::Get {
                            req_id,
                            tenant,
                            key,
                        }
                    };
                    asked.insert(req_id, frame.clone());
                    assert_eq!(c.on_frame(0, frame), None);
                }
                for (_, frame) in c.tick() {
                    let Frame::Reply { req_id, value, .. } = frame else {
                        continue;
                    };
                    match asked.remove(&req_id).expect("asked once") {
                        Frame::Put {
                            tenant,
                            key,
                            value: put,
                            ..
                        } => {
                            assert!(value.is_empty());
                            model.insert((tenant, key), put);
                        }
                        Frame::Get { tenant, key, .. } => {
                            let want = model.get(&(tenant, key)).cloned().unwrap_or_default();
                            assert_eq!(value, want, "seed {seed} tick {t} req {req_id}");
                            reads += 1;
                            hits += usize::from(!want.is_empty());
                        }
                        other => panic!("{other:?} was never asked"),
                    }
                }
            }
            assert!(reads > 500 && hits > 250, "{reads} reads, {hits} non-empty");
            assert_eq!(c.store.len(), model.len());
        }
    }

    /// Admits `frames` in one tick, then ticks until replies come out,
    /// and returns them with the frames they answer, in reply order.
    fn one_batch(c: &mut ServerCore<Greedy>, frames: Vec<Frame>) -> Vec<(Frame, Vec<u8>)> {
        let mut asked = BTreeMap::new();
        for frame in frames {
            let req_id = match &frame {
                Frame::Get { req_id, .. } | Frame::Put { req_id, .. } => *req_id,
                other => panic!("{other:?} is not a request"),
            };
            asked.insert(req_id, frame.clone());
            assert_eq!(c.on_frame(0, frame), None);
        }
        let mut out = Vec::new();
        while out.is_empty() {
            out = c.tick();
            assert!(c.replaced.is_empty(), "a replaced value outlived its tick");
        }
        assert_eq!(out.len(), asked.len(), "one key's batch is one bucket");
        out.into_iter()
            .map(|(_, frame)| match frame {
                Frame::Reply { req_id, value, .. } => {
                    (asked.remove(&req_id).expect("asked once"), value)
                }
                other => panic!("expected a reply, got {other:?}"),
            })
            .collect()
    }

    /// Overwrites and reads of one key, admitted together so that they
    /// share a bucket, with values empty, a byte, either side of 8 bytes
    /// and at the wire's 4 KiB limit: every get's reply holds exactly
    /// what a plain map holds at that point of the bucket, whichever
    /// buffer it was built in. A put's bytes differ from those of the
    /// puts just before it, so a reply that kept a recycled buffer's old
    /// bytes, or a get answered after a put that followed it, reads
    /// wrong.
    #[test]
    fn replies_built_in_recycled_buffers_are_exactly_the_stored_values() {
        use rlb_hash::{Pcg64, Rng};

        const LENS: [usize; 6] = [0, 1, 8, 9, 4095, 4096];
        let key = b"one key".to_vec();
        let mut rng = Pcg64::new(1, 0x7265_6379_636c_6564);
        let mut c = core();
        let mut model: BTreeMap<(u16, Vec<u8>), Vec<u8>> = BTreeMap::new();
        let (mut req_id, mut puts) = (0u32, 0u8);
        // Gets answered after a put in their bucket replaced a non-empty
        // value, and gets whose reply came in a buffer longer than it.
        let (mut after_a_replace, mut in_a_spare) = (0, 0);
        for _ in 0..300 {
            let mut frames = Vec::new();
            for _ in 0..1 + rng.gen_range(12) {
                req_id += 1;
                frames.push(if rng.gen_range(2) == 0 {
                    puts = puts.wrapping_add(1);
                    let len = LENS[rng.gen_index(LENS.len())];
                    Frame::Put {
                        req_id,
                        tenant: 0,
                        key: key.clone(),
                        value: (0..len).map(|i| puts ^ (i as u8)).collect(),
                    }
                } else {
                    get(req_id, &key)
                });
            }
            let mut replaced = false;
            for (asked, value) in one_batch(&mut c, frames) {
                match asked {
                    Frame::Put {
                        tenant,
                        key,
                        value: put,
                        ..
                    } => {
                        assert!(value.is_empty());
                        let old = model.insert((tenant, key), put);
                        replaced |= old.is_some_and(|old| !old.is_empty());
                    }
                    Frame::Get { tenant, key, .. } => {
                        let want = model.get(&(tenant, key)).cloned().unwrap_or_default();
                        assert_eq!(value, want, "req {req_id}");
                        after_a_replace += usize::from(replaced);
                        in_a_spare += usize::from(value.capacity() >= 4095 && value.len() < 4095);
                    }
                    other => panic!("{other:?} was never asked"),
                }
            }
        }
        assert!(
            after_a_replace > 200,
            "{after_a_replace} gets after a replace"
        );
        assert!(in_a_spare > 50, "{in_a_spare} replies in a replaced buffer");
        assert_eq!(c.store.len(), 1);
    }

    /// The buffers a tick's puts replace are gone when the tick ends,
    /// whether the tick only writes, only reads or does both: the store
    /// holds no more values than the parent's did.
    #[test]
    fn no_value_buffer_outlives_its_tick() {
        let keys: Vec<Vec<u8>> = (0..4u8).map(|k| vec![k; 8]).collect();
        let put = |req_id: u32, key: &[u8]| Frame::Put {
            req_id,
            tenant: 0,
            key: key.to_vec(),
            value: vec![req_id as u8; 4096],
        };
        let only_puts = |_: u32| true;
        let only_gets = |_: u32| false;
        let mixed = |req_id: u32| req_id % 3 != 2;
        for is_put in [only_puts as fn(u32) -> bool, only_gets, mixed] {
            let mut c = core();
            let mut req_id = 0;
            for _ in 0..64 {
                for key in &keys {
                    for _ in 0..3 {
                        req_id += 1;
                        let frame = if is_put(req_id) {
                            put(req_id, key)
                        } else {
                            get(req_id, key)
                        };
                        assert_eq!(c.on_frame(0, frame), None);
                    }
                }
                c.tick();
                assert!(c.replaced.is_empty(), "a replaced value outlived its tick");
            }
            for _ in 0..64 {
                c.tick();
                assert!(c.replaced.is_empty());
            }
            assert!(c.drained());
            let stored = if is_put(1) { keys.len() } else { 0 };
            assert_eq!(c.store.len(), stored);
        }
    }

    #[test]
    fn a_tick_takes_no_safety_snapshot() {
        let config = ServeConfig::baseline(16, 7);
        assert_eq!(config.engine.safety_check_every, Some(1));
        let mut c = ServerCore::new(config, Greedy::new());
        for t in 0..32u32 {
            for i in 0..8u32 {
                let get = Frame::Get {
                    req_id: t * 8 + i,
                    tenant: 0,
                    key: vec![t as u8, i as u8],
                };
                assert_eq!(c.on_frame(0, get), None);
            }
            c.tick();
        }
        assert!(c.tenant_serve_stats(0).replies > 0, "the ticks were loaded");
        assert_eq!(c.kv.simulation().stats().safety_samples, 0);
    }

    /// Keys in distinct chunks up to the first candidate that shares a
    /// chunk with one of them: `(keys, leader, follower)`, where
    /// `keys[leader]` and `follower` coalesce.
    fn a_coalescing_pair(c: &ServerCore<Greedy>) -> (Vec<Vec<u8>>, usize, Vec<u8>) {
        let mut keys = Vec::new();
        for (key, slot) in probe_slots(c) {
            if (slot as usize) < keys.len() {
                return (keys, slot as usize, key);
            }
            keys.push(key);
        }
        panic!("the candidates never run out")
    }

    fn get(req_id: u32, key: &[u8]) -> Frame {
        Frame::Get {
            req_id,
            tenant: 0,
            key: key.to_vec(),
        }
    }

    #[test]
    fn gets_coalesced_onto_one_chunk_are_served_alike() {
        let mut c = core();
        let (keys, leader, follower) = a_coalescing_pair(&c);
        assert_eq!(c.on_frame(0, get(1, &keys[leader])), None);
        assert_eq!(c.on_frame(1, get(2, &follower)), None);
        let reply = |req_id| Frame::Reply {
            req_id,
            latency: 1,
            value: Vec::new(),
        };
        assert_eq!(c.tick(), vec![(0, reply(1)), (1, reply(2))]);
        let stats = c.kv.tenant_stats(0);
        assert_eq!((stats.key_requests, stats.coalesced), (2, 1));
        assert_eq!((stats.accepted, stats.rejected), (1, 0));
    }

    #[test]
    fn a_get_coalesced_onto_a_rejected_chunk_is_rejected_with_its_cause() {
        // q = 1: the first two chunks of a tick fill the two servers and
        // Greedy turns every later one away. The other keys go first, so
        // the pair's chunk is refused.
        let mut c = two_servers(1, 1);
        let (keys, leader, follower) = a_coalescing_pair(&c);
        for (i, key) in keys.iter().enumerate().filter(|&(i, _)| i != leader) {
            assert_eq!(c.on_frame(0, get(100 + i as u32, key)), None);
        }
        assert_eq!(c.on_frame(0, get(1, &keys[leader])), None);
        assert_eq!(c.on_frame(1, get(2, &follower)), None);
        let mut rejects = c.tick();
        rejects.retain(|(_, frame)| matches!(frame, Frame::Reject { .. }));
        let refused = |req_id| Frame::Reject {
            req_id,
            cause: RejectCause::Policy,
        };
        assert_eq!(
            rejects.last_chunk::<2>(),
            Some(&[(0, refused(1)), (1, refused(2))]),
            "{rejects:?}"
        );
        // The pair is one refused chunk request and two counted frames.
        assert_eq!(c.kv.tenant_stats(0).rejected + 1, rejects.len() as u64);
        assert_eq!(c.tenant_serve_stats(0).rejects(), rejects.len() as u64);
    }

    #[test]
    fn key_folding_is_pure_and_tenant_scoped() {
        assert_eq!(key_to_u64(1, b"abc"), key_to_u64(1, b"abc"));
        assert_ne!(key_to_u64(1, b"abc"), key_to_u64(2, b"abc"));
        assert_ne!(key_to_u64(1, b"abc"), key_to_u64(1, b"abd"));
        // Length is mixed in: a zero-padded prefix is not an alias.
        assert_ne!(key_to_u64(1, b"a\0"), key_to_u64(1, b"a"));
    }
}
