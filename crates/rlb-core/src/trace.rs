//! Event-level tracing: the engine's observability layer.
//!
//! The simulator's aggregate statistics ([`crate::RunReport`]) answer
//! *how often* something happened; a trace answers *which request*,
//! *why*, and *when*. Every structural transition in the hot path emits
//! a typed [`TraceEvent`] to a [`TraceSink`] chosen at compile time:
//!
//! * [`NoopSink`] (the default) — [`TraceSink::ENABLED`] is `false`, so
//!   [`TraceSink::emit`], the one emission path, never calls the closure
//!   that builds an event, and monomorphization erases every emission
//!   with its event construction and allocations. A traced-off run is
//!   bit-identical to (and as fast as) an untraced one; the
//!   `engine_equivalence` golden suite and the `rlb-sim bench` gate pin
//!   this down.
//! * [`JsonlSink`] — streams every event as one compact JSON line, and
//!   [`parse_jsonl`] reads such a stream back. `rlb-sim trace` writes
//!   the stream to a file, re-parses it and folds it into per-class
//!   latency histograms (its aggregator lives in `rlb-cli`).
//!
//! Events serialize as single-line JSON objects tagged by an `"ev"`
//! field (one per line = JSONL), via the workspace's `rlb-json`. The
//! encoding round-trips exactly: `parse(write(e)) == e`.

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

use crate::policy::RejectReason;
use rlb_json::{field, Json, ToJson};

/// Why a request left the system without completing, as recorded in a
/// trace. This is [`RejectReason`] under the names a production router
/// would use (see [`TraceCause::from_reason`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceCause {
    /// The policy declined the request (voluntary load shedding).
    Shed,
    /// Delayed cuckoo routing: the routing table build failed.
    Table,
    /// The chosen server's class queue was full.
    Overflow,
    /// Dropped after acceptance by a flush or phase-migration overflow.
    Flush,
    /// The chosen server was down per the outage schedule.
    Outage,
}

rlb_json::json_unit_enum!(TraceCause {
    Shed,
    Table,
    Overflow,
    Flush,
    Outage
});

impl TraceCause {
    /// Maps an engine [`RejectReason`] to its trace name.
    pub fn from_reason(reason: RejectReason) -> Self {
        match reason {
            RejectReason::Policy => TraceCause::Shed,
            RejectReason::TableFailed => TraceCause::Table,
            RejectReason::Overflow => TraceCause::Overflow,
            RejectReason::Flush => TraceCause::Flush,
            RejectReason::ServerDown => TraceCause::Outage,
        }
    }
}

/// One engine event.
///
/// Field conventions: `step` is the simulation step the event occurred
/// in; `class` is the queue class index (greedy has one; DCR four);
/// request identity is the chunk id (the model routes chunks, not
/// opaque request ids).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A routing decision that chose a server: the candidates the
    /// policy saw and their total backlogs at decision time.
    Route {
        /// Step of the decision.
        step: u64,
        /// Requested chunk.
        chunk: u32,
        /// Chosen server (one of `candidates`).
        server: u32,
        /// Chosen queue class.
        class: u8,
        /// The chunk's replica servers, in placement order.
        candidates: Vec<u32>,
        /// Total backlog of each candidate when the policy decided.
        backlogs: Vec<u32>,
    },
    /// A request entered a queue (follows a successful `Route`).
    Enqueue {
        /// Step of the enqueue.
        step: u64,
        /// Server that accepted the request.
        server: u32,
        /// Queue class it joined.
        class: u8,
        /// The server's total backlog after the enqueue.
        backlog: u32,
    },
    /// A request left the system without completing.
    Reject {
        /// Step of the rejection.
        step: u64,
        /// Requested chunk.
        chunk: u32,
        /// Why it was rejected.
        cause: TraceCause,
    },
    /// A server drained requests from one class (one event per
    /// non-empty `(server, class)` drain; `arrivals` holds the arrival
    /// step of each completed request as the queues keep it — its low
    /// 32 bits — so latency is [`latency_steps`]`(step, arrival)`).
    Drain {
        /// Step of the drain.
        step: u64,
        /// Draining server.
        server: u32,
        /// Drained class.
        class: u8,
        /// Arrival steps of the completed requests, FIFO order.
        arrivals: Vec<u32>,
    },
    /// A periodic flush reset every queue (greedy's §3 reset).
    Flush {
        /// Step of the flush.
        step: u64,
        /// Queued requests dropped by the reset.
        dropped: u64,
    },
    /// A phase boundary migrated a queue class (DCR's `Q → Q'`,
    /// `P → P'` roll).
    PhaseRoll {
        /// Step of the migration.
        step: u64,
        /// Source class.
        from: u8,
        /// Destination class.
        to: u8,
        /// Entries dropped for lack of room (0 in the theorem regime).
        dropped: u64,
    },
    /// A server went down per the outage schedule.
    OutageBegin {
        /// First step of the outage.
        step: u64,
        /// Affected server.
        server: u32,
    },
    /// A server came back up.
    OutageEnd {
        /// First step after the outage.
        step: u64,
        /// Recovered server.
        server: u32,
    },
    /// A KV-layer key operation (emitted by `rlb-kv`, not the engine):
    /// a tenant's `get` either created a chunk request or coalesced
    /// into a pending one.
    TenantOp {
        /// Step the key request was issued in.
        step: u64,
        /// Issuing tenant.
        tenant: u16,
        /// Requested key.
        key: u64,
        /// The key's chunk.
        chunk: u32,
        /// Whether the request coalesced into a pending chunk fetch.
        coalesced: bool,
    },
}

impl TraceEvent {
    /// The event's `"ev"` tag.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Route { .. } => "route",
            TraceEvent::Enqueue { .. } => "enqueue",
            TraceEvent::Reject { .. } => "reject",
            TraceEvent::Drain { .. } => "drain",
            TraceEvent::Flush { .. } => "flush",
            TraceEvent::PhaseRoll { .. } => "phase_roll",
            TraceEvent::OutageBegin { .. } => "outage_begin",
            TraceEvent::OutageEnd { .. } => "outage_end",
            TraceEvent::TenantOp { .. } => "tenant_op",
        }
    }

    /// The step the event occurred in.
    pub fn step(&self) -> u64 {
        match *self {
            TraceEvent::Route { step, .. }
            | TraceEvent::Enqueue { step, .. }
            | TraceEvent::Reject { step, .. }
            | TraceEvent::Drain { step, .. }
            | TraceEvent::Flush { step, .. }
            | TraceEvent::PhaseRoll { step, .. }
            | TraceEvent::OutageBegin { step, .. }
            | TraceEvent::OutageEnd { step, .. }
            | TraceEvent::TenantOp { step, .. } => step,
        }
    }
}

/// Latency, in steps, of a request that arrived at `arrival` — the low
/// 32 bits of its step, which is what the queues and
/// [`TraceEvent::Drain`] hold — and completes at `step`: the difference
/// modulo 2³². A request waits far fewer than 2³² steps (queues are
/// bounded and drain every step), so this is its true latency whether
/// or not the step counter passed a multiple of 2³² while it waited.
#[inline]
pub fn latency_steps(step: u64, arrival: u32) -> u64 {
    u64::from((step as u32).wrapping_sub(arrival))
}

fn obj(kind: &str, step: u64, rest: Vec<(String, Json)>) -> Json {
    #[expect(clippy::arithmetic_side_effects, reason = "a handful of fields")]
    let mut fields = Vec::with_capacity(rest.len() + 2);
    fields.push(("ev".to_string(), Json::Str(kind.to_string())));
    fields.push(("step".to_string(), Json::UInt(step as u128)));
    fields.extend(rest);
    Json::Obj(fields)
}

fn kv(key: &str, v: impl ToJson) -> (String, Json) {
    (key.to_string(), v.to_json())
}

impl ToJson for TraceEvent {
    fn to_json(&self) -> Json {
        match self {
            TraceEvent::Route {
                step,
                chunk,
                server,
                class,
                candidates,
                backlogs,
            } => obj(
                "route",
                *step,
                vec![
                    kv("chunk", *chunk),
                    kv("server", *server),
                    kv("class", *class),
                    kv("candidates", candidates),
                    kv("backlogs", backlogs),
                ],
            ),
            TraceEvent::Enqueue {
                step,
                server,
                class,
                backlog,
            } => obj(
                "enqueue",
                *step,
                vec![
                    kv("server", *server),
                    kv("class", *class),
                    kv("backlog", *backlog),
                ],
            ),
            TraceEvent::Reject { step, chunk, cause } => obj(
                "reject",
                *step,
                vec![kv("chunk", *chunk), kv("cause", *cause)],
            ),
            TraceEvent::Drain {
                step,
                server,
                class,
                arrivals,
            } => obj(
                "drain",
                *step,
                vec![
                    kv("server", *server),
                    kv("class", *class),
                    kv("arrivals", arrivals),
                ],
            ),
            TraceEvent::Flush { step, dropped } => {
                obj("flush", *step, vec![kv("dropped", *dropped)])
            }
            TraceEvent::PhaseRoll {
                step,
                from,
                to,
                dropped,
            } => obj(
                "phase_roll",
                *step,
                vec![kv("from", *from), kv("to", *to), kv("dropped", *dropped)],
            ),
            TraceEvent::OutageBegin { step, server } => {
                obj("outage_begin", *step, vec![kv("server", *server)])
            }
            TraceEvent::OutageEnd { step, server } => {
                obj("outage_end", *step, vec![kv("server", *server)])
            }
            TraceEvent::TenantOp {
                step,
                tenant,
                key,
                chunk,
                coalesced,
            } => obj(
                "tenant_op",
                *step,
                vec![
                    kv("tenant", *tenant),
                    kv("key", *key),
                    kv("chunk", *chunk),
                    kv("coalesced", *coalesced),
                ],
            ),
        }
    }
}

impl rlb_json::FromJson for TraceEvent {
    fn from_json(v: &Json) -> Result<Self, String> {
        let kind: String = field(v, "ev")?;
        let ev = match kind.as_str() {
            "route" => TraceEvent::Route {
                step: field(v, "step")?,
                chunk: field(v, "chunk")?,
                server: field(v, "server")?,
                class: field(v, "class")?,
                candidates: field(v, "candidates")?,
                backlogs: field(v, "backlogs")?,
            },
            "enqueue" => TraceEvent::Enqueue {
                step: field(v, "step")?,
                server: field(v, "server")?,
                class: field(v, "class")?,
                backlog: field(v, "backlog")?,
            },
            "reject" => TraceEvent::Reject {
                step: field(v, "step")?,
                chunk: field(v, "chunk")?,
                cause: field(v, "cause")?,
            },
            "drain" => TraceEvent::Drain {
                step: field(v, "step")?,
                server: field(v, "server")?,
                class: field(v, "class")?,
                arrivals: field(v, "arrivals")?,
            },
            "flush" => TraceEvent::Flush {
                step: field(v, "step")?,
                dropped: field(v, "dropped")?,
            },
            "phase_roll" => TraceEvent::PhaseRoll {
                step: field(v, "step")?,
                from: field(v, "from")?,
                to: field(v, "to")?,
                dropped: field(v, "dropped")?,
            },
            "outage_begin" => TraceEvent::OutageBegin {
                step: field(v, "step")?,
                server: field(v, "server")?,
            },
            "outage_end" => TraceEvent::OutageEnd {
                step: field(v, "step")?,
                server: field(v, "server")?,
            },
            "tenant_op" => TraceEvent::TenantOp {
                step: field(v, "step")?,
                tenant: field(v, "tenant")?,
                key: field(v, "key")?,
                chunk: field(v, "chunk")?,
                coalesced: field(v, "coalesced")?,
            },
            other => return Err(format!("unknown event kind {other:?}")),
        };
        Ok(ev)
    }
}

/// A consumer of engine events.
///
/// The engine is generic over its sink ([`crate::Simulation`] defaults
/// to [`NoopSink`]) and hands it every event through
/// [`TraceSink::emit`], which builds the event only when
/// [`TraceSink::ENABLED`]: a disabled sink costs nothing — not even the
/// event construction.
pub trait TraceSink {
    /// Whether this sink receives events. [`TraceSink::emit`] (including
    /// the event construction) compiles out when `false`.
    const ENABLED: bool = true;

    /// Receives one event. Called in deterministic engine order.
    fn on_event(&mut self, event: &TraceEvent);

    /// The one way an event is emitted: `make` builds it, and runs only
    /// when the sink is enabled. Under a disabled sink the branch is
    /// constant-false, so monomorphization deletes the closure, the
    /// event and its allocations.
    #[inline(always)]
    fn emit(&mut self, make: impl FnOnce() -> TraceEvent) {
        if Self::ENABLED {
            self.on_event(&make())
        }
    }
}

/// The disabled sink: receives nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn on_event(&mut self, _event: &TraceEvent) {}
}

impl<T: TraceSink> TraceSink for &mut T {
    const ENABLED: bool = T::ENABLED;

    #[inline]
    fn on_event(&mut self, event: &TraceEvent) {
        (**self).on_event(event)
    }
}

/// Serializes every event as one compact JSON line.
///
/// The engine emits events in deterministic order for a given seed, and
/// `rlb-json` writes object fields in declaration order, so the same
/// run always produces a byte-identical stream — the golden-trace
/// determinism test in `rlb-kv` relies on this.
///
/// Serialize, persist, parse is the route `rlb-sim trace` takes through
/// a file on every invocation:
///
/// ```
/// use rlb_core::trace::{parse_jsonl, JsonlSink, TraceEvent};
/// use rlb_core::{policies::Greedy, SimConfig, Simulation};
///
/// let config = SimConfig::baseline(16).with_seed(3);
/// let mut sim = Simulation::new(config, Greedy::new()).with_sink(JsonlSink::new());
/// let mut workload = |_s: u64, out: &mut Vec<u32>| out.extend(0..16u32);
/// sim.run(&mut workload, 10);
/// let (report, jsonl) = sim.finish_traced();
/// let events = parse_jsonl(jsonl.as_str()).unwrap();
/// assert_eq!(events.len() as u64, jsonl.lines());
/// let drained: usize = events
///     .iter()
///     .map(|event| match event {
///         TraceEvent::Drain { arrivals, .. } => arrivals.len(),
///         _ => 0,
///     })
///     .sum();
/// assert_eq!(drained as u64, report.completed);
/// ```
#[derive(Debug, Clone, Default)]
pub struct JsonlSink {
    out: String,
    lines: u64,
}

impl JsonlSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of lines (= events) written.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// The stream so far: `lines()` lines, each `\n`-terminated.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Consumes the sink, yielding the stream.
    pub fn into_string(self) -> String {
        self.out
    }
}

impl TraceSink for JsonlSink {
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "one per written event: a u64 never wraps"
    )]
    fn on_event(&mut self, event: &TraceEvent) {
        self.out.push_str(&rlb_json::to_string(event));
        self.out.push('\n');
        self.lines += 1;
    }
}

/// Parses a JSONL trace back into events. Blank lines are skipped;
/// errors carry the 1-based line number.
pub fn parse_jsonl(s: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (number, line) in (1usize..).zip(s.lines()) {
        if line.trim().is_empty() {
            continue;
        }
        let ev: TraceEvent = rlb_json::from_str(line).map_err(|e| format!("line {number}: {e}"))?;
        events.push(ev);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlb_json::{from_str, to_string};

    fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Route {
                step: 3,
                chunk: 17,
                server: 2,
                class: 0,
                candidates: vec![2, 9],
                backlogs: vec![1, 4],
            },
            TraceEvent::Enqueue {
                step: 3,
                server: 2,
                class: 0,
                backlog: 2,
            },
            TraceEvent::Reject {
                step: 4,
                chunk: 9,
                cause: TraceCause::Overflow,
            },
            TraceEvent::Drain {
                step: 5,
                server: 2,
                class: 1,
                arrivals: vec![3, 3, 4],
            },
            TraceEvent::Flush {
                step: 49,
                dropped: 12,
            },
            TraceEvent::PhaseRoll {
                step: 8,
                from: 0,
                to: 2,
                dropped: 0,
            },
            TraceEvent::OutageBegin {
                step: 10,
                server: 7,
            },
            TraceEvent::OutageEnd {
                step: 20,
                server: 7,
            },
            TraceEvent::TenantOp {
                step: 6,
                tenant: 3,
                key: 0xdead_beef,
                chunk: 11,
                coalesced: true,
            },
        ]
    }

    #[test]
    fn every_event_round_trips_through_json() {
        for ev in samples() {
            let s = to_string(&ev);
            assert!(!s.contains('\n'), "single line: {s}");
            let back: TraceEvent = from_str(&s).unwrap();
            assert_eq!(back, ev, "{s}");
        }
    }

    #[test]
    fn events_are_tagged_and_stepped() {
        for ev in samples() {
            let s = to_string(&ev);
            let v = Json::parse(&s).unwrap();
            assert_eq!(v.get("ev").and_then(Json::as_str), Some(ev.kind()));
            assert_eq!(v.get("step").and_then(Json::as_u64), Some(ev.step()));
        }
    }

    #[test]
    fn cause_maps_every_reason() {
        use RejectReason::*;
        assert_eq!(TraceCause::from_reason(Policy), TraceCause::Shed);
        assert_eq!(TraceCause::from_reason(TableFailed), TraceCause::Table);
        assert_eq!(TraceCause::from_reason(Overflow), TraceCause::Overflow);
        assert_eq!(TraceCause::from_reason(Flush), TraceCause::Flush);
        assert_eq!(TraceCause::from_reason(ServerDown), TraceCause::Outage);
    }

    #[test]
    fn unknown_kind_is_an_error() {
        assert!(from_str::<TraceEvent>(r#"{"ev":"warp","step":1}"#).is_err());
    }

    /// Collects what it receives.
    #[derive(Default)]
    struct VecSink(Vec<TraceEvent>);

    impl TraceSink for VecSink {
        fn on_event(&mut self, event: &TraceEvent) {
            self.0.push(event.clone());
        }
    }

    /// Emits through `S`'s own `emit`, as the engine does with its
    /// generic sink (here `S` is `&mut T`).
    fn emit_via<S: TraceSink>(mut sink: S, make: impl FnOnce() -> TraceEvent) {
        sink.emit(make)
    }

    #[test]
    fn emit_builds_the_event_only_for_an_enabled_sink() {
        let never = || -> TraceEvent { panic!("a disabled sink built an event") };
        NoopSink.emit(never);
        emit_via(&mut NoopSink, never);
        let ev = || TraceEvent::OutageBegin { step: 4, server: 1 };
        let mut sink = VecSink::default();
        let mut built = 0;
        sink.emit(|| {
            built += 1;
            ev()
        });
        emit_via(&mut sink, ev);
        assert_eq!(built, 1);
        assert_eq!(sink.0, [ev(), ev()]);
    }

    #[test]
    fn noop_sink_is_disabled() {
        // Evaluated at compile time; the &mut blanket impl must not
        // re-enable what the base sink disables.
        const { assert!(!NoopSink::ENABLED) }
        const { assert!(!<&mut NoopSink as TraceSink>::ENABLED) }
    }

    #[test]
    fn one_line_per_event_and_round_trip() {
        let mut sink = JsonlSink::new();
        for ev in samples() {
            sink.on_event(&ev);
        }
        let n = samples().len();
        assert_eq!(sink.lines(), n as u64);
        assert_eq!(sink.as_str().lines().count(), n);
        assert!(sink.as_str().ends_with('\n'));
        let back = parse_jsonl(sink.as_str()).unwrap();
        assert_eq!(back, samples());
    }

    #[test]
    fn blank_lines_are_skipped() {
        let mut sink = JsonlSink::new();
        sink.on_event(&TraceEvent::Flush {
            step: 7,
            dropped: 0,
        });
        let padded = format!("\n{}\n\n", sink.as_str());
        let back = parse_jsonl(&padded).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].step(), 7);
    }

    #[test]
    fn parse_errors_name_the_line() {
        let err =
            parse_jsonl("{\"ev\":\"flush\",\"step\":1,\"dropped\":0}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
