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
//! step. Requests arriving between ticks are staged; [`ServerCore::tick`]
//! commits them as one engine step, routing every distinct chunk with
//! the configured policy against live replica backlogs (via
//! [`KvCluster::commit_step_observed`]). An accepted request's reply is
//! scheduled `1 + backlog(server)/rate` ticks out — a modeled service
//! latency: the queue the routing policy just lengthened is the queue
//! the reply waits behind. Live mode drives ticks from wall time;
//! sim-clock mode drives them from the driver loop. Neither changes
//! routing, admission, or reply content.
//!
//! ## Admission
//!
//! A request holds one [`BacklogGate`] unit from acceptance until its
//! reply or reject frame is handed back, bounding staged + in-engine +
//! reply-pending work. A full gate rejects at arrival with
//! [`RejectCause::Admission`] — the typed, per-tenant-counted reject
//! frame the issue asks for.

use std::collections::BTreeMap;

use rlb_core::{Decision, Policy, SimConfig};
use rlb_kv::{KvCluster, StepSummary};

use crate::gate::BacklogGate;
use crate::proto::{Frame, RejectCause, REJECT_CAUSES};

/// Caller-assigned session identity (index into the transport's
/// session table).
pub(crate) type SessionId = u32;

/// What the server does with one admitted request at service time.
enum Op {
    /// Read: look the key up at reply emission.
    Get { tenant: u16, key: Vec<u8> },
    /// Write: apply to the store at reply emission, reply empty.
    Put {
        tenant: u16,
        key: Vec<u8>,
        value: Vec<u8>,
    },
}

impl Op {
    fn tenant(&self) -> u16 {
        match self {
            Op::Get { tenant, .. } | Op::Put { tenant, .. } => *tenant,
        }
    }
}

/// One staged (admitted, not yet committed) request.
struct Staged {
    session: SessionId,
    req_id: u32,
    chunk: u32,
    op: Op,
}

/// One scheduled reply awaiting its due tick.
struct PendingReply {
    session: SessionId,
    req_id: u32,
    latency: u32,
    op: Op,
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
    pub engine: SimConfig,
    /// Admission gate limit (max requests in flight through the server).
    pub gate_limit: u64,
}

impl ServeConfig {
    /// A small default cluster: `servers` servers at the baseline
    /// configuration, gate limit scaled to total service capacity.
    pub fn baseline(servers: usize, seed: u64) -> Self {
        let engine = SimConfig::baseline(servers).with_seed(seed);
        let gate_limit = (servers as u64) * u64::from(engine.process_rate) * 4;
        Self { engine, gate_limit }
    }
}

/// The serving core: frames in, frames out, one engine step per tick.
pub struct ServerCore<P: Policy> {
    kv: KvCluster<P>,
    gate: BacklogGate,
    /// The value store. `BTreeMap` (not `HashMap`): deterministic
    /// iteration keeps this crate inside the workspace determinism
    /// lint, and the key space is tenant-scoped.
    store: BTreeMap<(u16, Vec<u8>), Vec<u8>>,
    staged: Vec<Staged>,
    /// Replies keyed by (due tick, admission sequence): emission order
    /// is deterministic and FIFO within a tick.
    scheduled: BTreeMap<(u64, u64), PendingReply>,
    seq: u64,
    tick: u64,
    tenants: Vec<TenantServeStats>,
    /// This tick's per-chunk decision, stamped scratch (see
    /// `PendingIndex` in rlb-kv for the idiom).
    decisions: Vec<Option<Decision>>,
    touched: Vec<u32>,
    process_rate: u32,
    pings: u64,
}

impl<P: Policy> ServerCore<P> {
    /// Builds the core from a config and a routing policy.
    pub fn new(config: ServeConfig, policy: P) -> Self {
        let process_rate = config.engine.process_rate;
        let num_chunks = config.engine.num_chunks;
        Self {
            kv: KvCluster::new(config.engine, policy),
            gate: BacklogGate::new(config.gate_limit),
            store: BTreeMap::new(),
            staged: Vec::new(),
            scheduled: BTreeMap::new(),
            seq: 0,
            tick: 0,
            tenants: Vec::new(),
            decisions: vec![None; num_chunks],
            touched: Vec::new(),
            process_rate,
            pings: 0,
        }
    }

    /// Current virtual time (ticks committed so far).
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// The admission gate (for diagnostics).
    pub fn gate(&self) -> &BacklogGate {
        &self.gate
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

    /// Replies and rejects not yet emitted (gate units still held).
    pub fn in_flight(&self) -> u64 {
        self.gate.inflight()
    }

    fn tenant_mut(&mut self, tenant: u16) -> &mut TenantServeStats {
        if self.tenants.len() <= tenant as usize {
            self.tenants
                .resize(tenant as usize + 1, TenantServeStats::default());
        }
        &mut self.tenants[tenant as usize]
    }

    fn count_reject(&mut self, tenant: u16, cause: RejectCause) {
        self.tenant_mut(tenant).rejects_by_cause[cause as usize] += 1;
    }

    /// Handles one decoded frame from `session`. An immediate response
    /// (ping echo, admission/protocol reject) comes back as
    /// `Some(frame)`; admitted get/put requests stage for the next
    /// [`tick`](ServerCore::tick) and return `None`.
    pub fn on_frame(&mut self, session: SessionId, frame: Frame) -> Option<Frame> {
        match frame {
            Frame::Ping { nonce } => {
                self.pings += 1;
                Some(Frame::Ping { nonce })
            }
            Frame::Get {
                req_id,
                tenant,
                key,
            } => self.admit(session, req_id, tenant, Op::Get { tenant, key }),
            Frame::Put {
                req_id,
                tenant,
                key,
                value,
            } => self.admit(session, req_id, tenant, Op::Put { tenant, key, value }),
            // Reply/Reject are server→client frames; receiving one is a
            // protocol violation by the client.
            Frame::Reply { req_id, .. } | Frame::Reject { req_id, .. } => {
                self.count_reject(0, RejectCause::Malformed);
                Some(Frame::Reject {
                    req_id,
                    cause: RejectCause::Malformed,
                })
            }
        }
    }

    fn admit(&mut self, session: SessionId, req_id: u32, tenant: u16, op: Op) -> Option<Frame> {
        if !self.gate.try_acquire(1) {
            self.count_reject(tenant, RejectCause::Admission);
            return Some(Frame::Reject {
                req_id,
                cause: RejectCause::Admission,
            });
        }
        let key = match &op {
            Op::Get { key, .. } | Op::Put { key, .. } => key.as_slice(),
        };
        let chunk = self.kv.directory().chunk_of(key_to_u64(tenant, key));
        self.staged.push(Staged {
            session,
            req_id,
            chunk,
            op,
        });
        None
    }

    /// Commits one engine step: routes every staged request, schedules
    /// replies behind the chosen replica's backlog, and returns every
    /// response frame due at or before the new tick, in deterministic
    /// (reject-then-due, FIFO) order.
    pub fn tick(&mut self) -> Vec<(SessionId, Frame)> {
        let mut out = Vec::new();

        // 1. Feed staged requests into the cluster (coalescing happens
        //    inside: same-chunk requests become one chunk request).
        for s in &self.staged {
            let (tenant, key) = match &s.op {
                Op::Get { tenant, key } | Op::Put { tenant, key, .. } => (*tenant, key),
            };
            self.kv.get_for(tenant, key_to_u64(tenant, key));
        }

        // 2. Commit the step, tapping each chunk's routing decision
        //    into stamped scratch.
        let decisions = &mut self.decisions;
        let touched = &mut self.touched;
        let summary: StepSummary = self.kv.commit_step_observed(|chunk, d| {
            let slot = &mut decisions[chunk as usize];
            if slot.is_none() {
                touched.push(chunk);
            }
            *slot = Some(d);
        });
        let _ = summary;

        // 3. Resolve every staged request from its chunk's decision.
        let staged = std::mem::take(&mut self.staged);
        for s in staged {
            let decision = self.decisions[s.chunk as usize];
            match decision {
                Some(Decision::Route { server, .. }) => {
                    // The post-step backlog: the queue the reply waits
                    // behind.
                    let backlog = self.kv.simulation().view().backlog(server);
                    let wait = u64::from(backlog) / u64::from(self.process_rate.max(1));
                    let due = self.tick + 1 + wait;
                    let latency = u32::try_from(due - self.tick).unwrap_or(u32::MAX);
                    self.scheduled.insert(
                        (due, self.seq),
                        PendingReply {
                            session: s.session,
                            req_id: s.req_id,
                            latency,
                            op: s.op,
                        },
                    );
                    self.seq += 1;
                }
                Some(Decision::Reject(reason)) => {
                    let cause = RejectCause::from_engine(reason);
                    self.count_reject(s.op.tenant(), cause);
                    self.gate.release(1);
                    out.push((
                        s.session,
                        Frame::Reject {
                            req_id: s.req_id,
                            cause,
                        },
                    ));
                }
                // A staged request whose chunk produced no decision
                // cannot happen (every staged chunk was fed in step 1);
                // treat it as a policy reject rather than panicking in
                // a live daemon.
                None => {
                    self.count_reject(s.op.tenant(), RejectCause::Policy);
                    self.gate.release(1);
                    out.push((
                        s.session,
                        Frame::Reject {
                            req_id: s.req_id,
                            cause: RejectCause::Policy,
                        },
                    ));
                }
            }
        }
        for chunk in self.touched.drain(..) {
            self.decisions[chunk as usize] = None;
        }

        // 4. Advance time and emit due replies (service completion:
        //    puts apply to the store here, gets read here).
        self.tick += 1;
        while let Some(entry) = self.scheduled.first_entry() {
            if entry.key().0 > self.tick {
                break;
            }
            let (_, reply) = entry.remove_entry();
            let (tenant, value) = match reply.op {
                Op::Get { tenant, key } => (
                    tenant,
                    self.store.get(&(tenant, key)).cloned().unwrap_or_default(),
                ),
                Op::Put { tenant, key, value } => {
                    self.store.insert((tenant, key), value);
                    (tenant, Vec::new())
                }
            };
            self.tenant_mut(tenant).replies += 1;
            self.gate.release(1);
            out.push((
                reply.session,
                Frame::Reply {
                    req_id: reply.req_id,
                    latency: reply.latency,
                    value,
                },
            ));
        }
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
            for (ci, &n) in t.rejects_by_cause.iter().enumerate() {
                if n > 0 {
                    let _ = write!(s, " {}={n}", REJECT_CAUSES[ci].name());
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
    for part in key.chunks(8) {
        let mut b = [0u8; 8];
        b[..part.len()].copy_from_slice(part);
        h = rlb_hash::mix::mix2(h, u64::from_le_bytes(b));
    }
    rlb_hash::mix::fmix64(h ^ key.len() as u64)
}

#[cfg(all(test, not(feature = "model")))]
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
    fn key_folding_is_pure_and_tenant_scoped() {
        assert_eq!(key_to_u64(1, b"abc"), key_to_u64(1, b"abc"));
        assert_ne!(key_to_u64(1, b"abc"), key_to_u64(2, b"abc"));
        assert_ne!(key_to_u64(1, b"abc"), key_to_u64(1, b"abd"));
        // Length is mixed in: a zero-padded prefix is not an alias.
        assert_ne!(key_to_u64(1, b"a\0"), key_to_u64(1, b"a"));
    }
}
