//! Virtual-time client state machines.
//!
//! A [`Client`] is a pure state machine over ticks and frames — it
//! owns no transport. The sim driver wires it to a framed pipe; tests
//! drive it directly. Two modes:
//!
//! * **Open loop**: requests arrive by a Poisson process regardless of
//!   outstanding work — the mode that exposes overload behavior
//!   (admission rejects, latency growth);
//! * **Closed loop**: a fixed concurrency window; a new request is
//!   issued the moment a response retires an old one. The outstanding
//!   high-water mark equals the window (pinned by `tests/stats.rs`).
//!
//! A client issues its `req_id`s itself, consecutively, so it finds a
//! request again by position ([`Outstanding`]) — no search, no hashing,
//! one allocation that is reused for the whole run.
//!
//! [`Client::on_tick`] draws all of a tick's keys into a reused buffer
//! before it issues the first request. The key picker's rng is its own,
//! apart from the op choice and the arrivals, so the frames are the
//! ones a key drawn per request gave (`on_tick_frames_are_pinned`).

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

use std::collections::VecDeque;

use rlb_metrics::Histogram;
use rlb_serve::proto::{Frame, REJECT_CAUSES};

use crate::arrivals::PoissonArrivals;
use crate::keys::{KeyPicker, Popularity};

/// Request-issuing discipline.
#[derive(Debug, Clone, PartialEq)]
pub enum Mode {
    /// Poisson arrivals at `rate` requests per tick.
    Open {
        /// Mean requests per tick.
        rate: f64,
    },
    /// Keep exactly `concurrency` requests outstanding.
    Closed {
        /// Window size.
        concurrency: u32,
    },
}

/// Per-client construction parameters.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Tenant id stamped on every request.
    pub tenant: u16,
    /// Issuing discipline.
    pub mode: Mode,
    /// Key popularity shape.
    pub popularity: Popularity,
    /// Fraction of requests that are puts (rest are gets).
    pub put_ratio: f64,
    /// Stop issuing after this many requests.
    pub total_requests: u64,
    /// Client seed (arrivals, keys, and op choice derive from it).
    pub seed: u64,
}

/// The ledger of unanswered requests: a window over the client's own
/// consecutive `req_id`s, indexed by position.
///
/// Slot `req_id − base` holds the request's issue tick, or `None` once
/// it is retired; the front compacts as it retires, so the window spans
/// from the oldest unanswered request to the newest issued one. Same
/// idiom as `rlb-kv`'s `PendingIndex`: a dense array instead of a map,
/// O(1) issue and retire, no hashing and no iteration order, so it
/// needs none of the hash types `clippy.toml` disallows.
///
/// **Memory bound:** one slot per request issued since the oldest
/// unanswered one — where a map would hold only the unanswered. The two
/// are equal when replies come back in issue order; a request the
/// server never answers pins every later slot (16 bytes each) until
/// the run ends. The daemon answers every request within
/// `⌈queue / rate⌉ + 1` ticks of reading it, so against it a closed
/// loop of window `c` spans at most `c` slots for each of those ticks.
///
/// `req_id` 0 is the protocol's session-level id (the daemon answers an
/// undecodable byte stream with it) and is never issued: when the
/// sequence wraps, 0's slot is born retired and the request takes 1.
struct Outstanding {
    /// `req_id` of `slots[0]`. Wraps with the id sequence.
    base: u32,
    /// The next id in sequence: `base + slots.len()`, wrapping.
    next: u32,
    slots: VecDeque<Option<u64>>,
    /// Slots still holding an issue tick.
    live: usize,
}

impl Outstanding {
    fn starting_at(first_req_id: u32) -> Self {
        Self {
            base: first_req_id,
            next: first_req_id,
            slots: VecDeque::new(),
            live: 0,
        }
    }

    /// Opens the next slot for a request issued at `now`; returns its id.
    #[expect(clippy::arithmetic_side_effects, reason = "live <= slots.len()")]
    fn issue(&mut self, now: u64) -> u32 {
        if self.next == 0 {
            self.slots.push_back(None);
            self.compact();
            self.next = 1;
        }
        let req_id = self.next;
        self.slots.push_back(Some(now));
        self.live += 1;
        self.next = self.next.wrapping_add(1);
        req_id
    }

    /// Retires `req_id` and returns its issue tick; `None` — and no
    /// change — for an id outside the window (never issued, or long
    /// answered), already retired, or 0.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "the slot held a live request"
    )]
    fn retire(&mut self, req_id: u32) -> Option<u64> {
        let slot = self
            .slots
            .get_mut(req_id.wrapping_sub(self.base) as usize)?;
        let sent_at = slot.take()?;
        self.live -= 1;
        self.compact();
        Some(sent_at)
    }

    /// Drops retired slots off the front, so `slots[0]` is live or the
    /// window is empty.
    fn compact(&mut self) {
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base = self.base.wrapping_add(1);
        }
    }
}

/// One simulated client.
pub struct Client {
    cfg: ClientConfig,
    arrivals: Option<PoissonArrivals>,
    picker: KeyPicker,
    /// A tick's keys, drawn before its requests are issued; reused.
    keys: Vec<u64>,
    op_rng: rlb_hash::Pcg64,
    outstanding: Outstanding,
    /// Outstanding high-water mark.
    hwm: usize,
    sent: u64,
    /// Successful responses, latency in ticks.
    pub latency: Histogram,
    /// Replies received.
    pub replies: u64,
    /// Rejects received, by cause wire tag.
    pub rejects_by_cause: [u64; REJECT_CAUSES.len()],
}

impl Client {
    /// Builds the client; all randomness derives from `cfg.seed`.
    pub fn new(cfg: ClientConfig) -> Self {
        let arrivals = match cfg.mode {
            Mode::Open { rate } => Some(PoissonArrivals::new(rate, cfg.seed ^ 0x6f70)),
            Mode::Closed { .. } => None,
        };
        let picker = KeyPicker::new(&cfg.popularity, cfg.seed);
        let op_rng = rlb_hash::Pcg64::new(cfg.seed, 0x6f70_7321); // "op s"
        Self {
            cfg,
            arrivals,
            picker,
            keys: Vec::new(),
            op_rng,
            outstanding: Outstanding::starting_at(1),
            hwm: 0,
            sent: 0,
            latency: Histogram::new(),
            replies: 0,
            rejects_by_cause: [0; REJECT_CAUSES.len()],
        }
    }

    /// The tenant this client runs as.
    pub fn tenant(&self) -> u16 {
        self.cfg.tenant
    }

    /// The issuing discipline (the live driver paces open-loop clients
    /// by ticks but lets closed-loop clients refill continuously).
    pub fn mode(&self) -> Mode {
        self.cfg.mode.clone()
    }

    /// Requests issued so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Outstanding high-water mark over the run.
    pub fn high_water(&self) -> usize {
        self.hwm
    }

    /// Total responses received (replies + rejects).
    #[expect(clippy::arithmetic_side_effects, reason = "frame counts fit a u64")]
    pub fn responses(&self) -> u64 {
        self.replies + self.rejects()
    }

    /// Total rejects received.
    pub fn rejects(&self) -> u64 {
        self.rejects_by_cause.iter().sum()
    }

    /// Requests issued and not yet answered.
    pub fn outstanding(&self) -> usize {
        self.outstanding.live
    }

    /// All requests issued and every one answered.
    pub fn done(&self) -> bool {
        self.sent >= self.cfg.total_requests && self.outstanding.live == 0
    }

    /// Issues this tick's requests into `out`.
    pub fn on_tick(&mut self, now: u64, out: &mut Vec<Frame>) {
        let want = match self.cfg.mode {
            Mode::Open { .. } => {
                let n = self
                    .arrivals
                    .as_mut()
                    .map(|a| a.arrivals_in_tick())
                    .unwrap_or(0);
                u64::from(n)
            }
            Mode::Closed { concurrency } => {
                (concurrency as u64).saturating_sub(self.outstanding.live as u64)
            }
        };
        let want = want.min(self.cfg.total_requests.saturating_sub(self.sent));
        // `want` is at most the window or one tick's arrivals, both u32.
        let want = usize::try_from(want).unwrap_or(0);
        let mut keys = std::mem::take(&mut self.keys);
        keys.resize(want, 0);
        self.picker.pick_into(now, &mut keys);
        out.reserve(want);
        for &key_id in &keys {
            out.push(self.issue(now, key_id));
        }
        self.keys = keys;
    }

    #[expect(clippy::arithmetic_side_effects, reason = "frame counts fit a u64")]
    fn issue(&mut self, now: u64, key_id: u64) -> Frame {
        use rlb_hash::Rng as _;
        let req_id = self.outstanding.issue(now);
        let key = key_id.to_le_bytes().to_vec();
        self.hwm = self.hwm.max(self.outstanding.live);
        self.sent += 1;
        if self.op_rng.gen_f64() < self.cfg.put_ratio {
            // Value content derives from the key so runs are seed-pure.
            let value = rlb_hash::mix::fmix64(key_id).to_le_bytes().to_vec();
            Frame::Put {
                req_id,
                tenant: self.cfg.tenant,
                key,
                value,
            }
        } else {
            Frame::Get {
                req_id,
                tenant: self.cfg.tenant,
                key,
            }
        }
    }

    /// Consumes one server frame; returns whether it retired an
    /// outstanding request.
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        reason = "one slot per RejectCause; frame counts fit a u64"
    )]
    pub fn on_frame(&mut self, now: u64, frame: &Frame) -> bool {
        match frame {
            Frame::Reply { req_id, .. } => {
                if let Some(sent_at) = self.outstanding.retire(*req_id) {
                    self.replies += 1;
                    self.latency.record(now.saturating_sub(sent_at));
                    return true;
                }
                false
            }
            Frame::Reject { req_id, cause } => {
                // Session-level rejects (req_id 0) retire nothing: 0 is
                // never issued.
                if self.outstanding.retire(*req_id).is_some() {
                    self.rejects_by_cause[*cause as usize] += 1;
                    return true;
                }
                false
            }
            Frame::Ping { .. } | Frame::Get { .. } | Frame::Put { .. } => false,
        }
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects)]
mod tests {
    use super::*;
    use rlb_hash::{Pcg64, Rng};
    use rlb_serve::proto::RejectCause;
    use std::collections::BTreeMap;

    fn closed(concurrency: u32, total: u64) -> Client {
        Client::new(ClientConfig {
            tenant: 1,
            mode: Mode::Closed { concurrency },
            popularity: Popularity::Uniform { universe: 100 },
            put_ratio: 0.25,
            total_requests: total,
            seed: 5,
        })
    }

    fn ids(frames: &[Frame]) -> Vec<u32> {
        frames
            .iter()
            .map(|f| match f {
                Frame::Get { req_id, .. } | Frame::Put { req_id, .. } => *req_id,
                other => panic!("unexpected frame {other:?}"),
            })
            .collect()
    }

    fn reply(req_id: u32) -> Frame {
        Frame::Reply {
            req_id,
            latency: 0,
            value: Vec::new(),
        }
    }

    fn session_reject() -> Frame {
        Frame::Reject {
            req_id: 0,
            cause: RejectCause::Malformed,
        }
    }

    #[test]
    fn closed_loop_holds_its_window() {
        let mut c = closed(4, 100);
        let mut out = Vec::new();
        c.on_tick(0, &mut out);
        assert_eq!(out.len(), 4, "fills the window");
        let mut out2 = Vec::new();
        c.on_tick(1, &mut out2);
        assert!(out2.is_empty(), "window full, nothing issued");
        // Retire one; the next tick issues exactly one.
        let req_id = ids(&out)[0];
        assert!(c.on_frame(
            3,
            &Frame::Reply {
                req_id,
                latency: 3,
                value: Vec::new(),
            }
        ));
        let mut out3 = Vec::new();
        c.on_tick(3, &mut out3);
        assert_eq!(out3.len(), 1);
        assert_eq!(c.high_water(), 4);
        assert_eq!(c.latency.max(), Some(3));
    }

    #[test]
    fn rejects_are_counted_by_cause() {
        let mut c = closed(2, 10);
        let mut out = Vec::new();
        c.on_tick(0, &mut out);
        let ids = ids(&out);
        c.on_frame(
            1,
            &Frame::Reject {
                req_id: ids[0],
                cause: RejectCause::Admission,
            },
        );
        c.on_frame(
            1,
            &Frame::Reject {
                req_id: ids[1],
                cause: RejectCause::Overflow,
            },
        );
        assert_eq!(c.rejects(), 2);
        assert_eq!(c.rejects_by_cause[RejectCause::Admission as usize], 1);
        assert_eq!(c.rejects_by_cause[RejectCause::Overflow as usize], 1);
        // Unknown req_id retires nothing.
        assert!(!c.on_frame(
            1,
            &Frame::Reject {
                req_id: 999,
                cause: RejectCause::Admission,
            }
        ));
    }

    #[test]
    fn open_loop_respects_total_and_finishes() {
        let mut c = Client::new(ClientConfig {
            tenant: 0,
            mode: Mode::Open { rate: 2.0 },
            popularity: Popularity::Uniform { universe: 10 },
            put_ratio: 0.0,
            total_requests: 20,
            seed: 9,
        });
        let mut all = Vec::new();
        for t in 0..100 {
            let mut out = Vec::new();
            c.on_tick(t, &mut out);
            all.extend(out);
        }
        assert_eq!(all.len(), 20, "total_requests caps the run");
        assert_eq!(c.sent(), 20);
        for f in &all {
            let Frame::Get { req_id, .. } = f else {
                panic!("put_ratio 0 issued a non-get")
            };
            assert!(c.on_frame(
                50,
                &Frame::Reply {
                    req_id: *req_id,
                    latency: 1,
                    value: Vec::new(),
                }
            ));
        }
        assert!(c.done());
        assert_eq!(c.responses(), 20);
    }

    #[test]
    fn the_id_sequence_skips_the_session_level_zero_across_the_wrap() {
        let mut c = closed(8, 100);
        c.outstanding = Outstanding::starting_at(u32::MAX - 3);
        assert!(!c.on_frame(0, &session_reject()), "before anything is sent");
        let mut out = Vec::new();
        c.on_tick(0, &mut out);
        let max = u32::MAX;
        assert_eq!(ids(&out), [max - 3, max - 2, max - 1, max, 1, 2, 3, 4]);
        assert_eq!(c.outstanding(), 8);

        // Out of order, on both sides of the wrap; req_id 0 retires
        // nothing before, at and after it.
        assert!(!c.on_frame(1, &session_reject()));
        assert!(c.on_frame(1, &reply(1)), "the request that took 0's place");
        assert!(!c.on_frame(1, &reply(1)), "once");
        assert!(c.on_frame(1, &reply(max)));
        assert!(!c.on_frame(1, &session_reject()));
        assert_eq!(c.outstanding(), 6);
        for req_id in [3, max - 3, max - 1, 2, max - 2] {
            assert!(c.on_frame(2, &reply(req_id)), "req_id {req_id}");
            assert!(!c.on_frame(2, &session_reject()));
        }
        assert_eq!(c.outstanding(), 1);
        assert_eq!(c.outstanding.slots.len(), 1, "compacted past 0's slot");

        out.clear();
        c.on_tick(3, &mut out);
        assert_eq!(ids(&out), [5, 6, 7, 8, 9, 10, 11]);
        assert!(!c.on_frame(3, &session_reject()));
        assert!(c.on_frame(3, &reply(4)));
        assert_eq!((c.replies, c.rejects(), c.outstanding()), (8, 0, 7));
        assert_eq!(c.high_water(), 8);
    }

    #[test]
    fn a_window_that_drains_right_at_the_wrap_restarts_at_one() {
        let mut c = closed(1, 10);
        c.outstanding = Outstanding::starting_at(u32::MAX);
        let mut out = Vec::new();
        c.on_tick(0, &mut out);
        assert!(c.on_frame(0, &reply(u32::MAX)));
        c.on_tick(1, &mut out);
        assert_eq!(ids(&out), [u32::MAX, 1]);
        assert!(!c.on_frame(1, &session_reject()));
        assert!(c.on_frame(1, &reply(1)));
        assert_eq!(c.outstanding.slots.len(), 0);
    }

    #[test]
    fn the_window_compacts_to_the_live_span() {
        let mut c = closed(4, 100);
        let mut out = Vec::new();
        c.on_tick(0, &mut out);
        for req_id in [2, 3, 4] {
            assert!(c.on_frame(1, &reply(req_id)));
        }
        assert_eq!(c.outstanding(), 1);
        assert_eq!(
            c.outstanding.slots.len(),
            4,
            "1 is unanswered and holds the front"
        );
        assert!(c.on_frame(1, &reply(1)));
        assert_eq!(c.outstanding.slots.len(), 0);

        out.clear();
        c.on_tick(2, &mut out);
        assert_eq!(ids(&out), [5, 6, 7, 8]);
        assert!(c.on_frame(3, &reply(7)));
        assert!(c.on_frame(3, &reply(5)));
        // 6 (live), 7 (retired), 8 (live).
        assert_eq!((c.outstanding(), c.outstanding.slots.len()), (2, 3));
        assert!(c.on_frame(3, &reply(6)));
        assert_eq!((c.outstanding(), c.outstanding.slots.len()), (1, 1));
    }

    #[test]
    fn the_window_holds_every_request_issued_since_the_oldest_unanswered_one() {
        let mut c = closed(4, 1000);
        let mut out = Vec::new();
        for t in 0..200 {
            out.clear();
            c.on_tick(t, &mut out);
            for req_id in ids(&out).into_iter().filter(|&id| id != 1) {
                assert!(c.on_frame(t, &reply(req_id)));
            }
            // Request 1 is never answered: the bound is reached.
            assert_eq!(c.outstanding.slots.len() as u64, c.sent());
            assert!(c.outstanding() <= 4);
        }
        assert!(c.sent() > 400);
        assert!(c.on_frame(200, &reply(1)));
        assert_eq!(c.outstanding.slots.len(), c.outstanding());
    }

    /// What `Client` kept before it indexed by position: a map from id to
    /// issue tick, and the counters derived from it.
    #[derive(Default)]
    struct Reference {
        outstanding: BTreeMap<u32, u64>,
        latency: Histogram,
        replies: u64,
        rejects_by_cause: [u64; REJECT_CAUSES.len()],
        hwm: usize,
        sent: u64,
        newest: u32,
    }

    impl Reference {
        fn on_issued(&mut self, now: u64, frames: &[Frame]) {
            for req_id in ids(frames) {
                assert_ne!(req_id, 0, "the session-level id was issued");
                let clash = self.outstanding.insert(req_id, now);
                assert_eq!(clash, None, "req_id {req_id} issued while outstanding");
                self.hwm = self.hwm.max(self.outstanding.len());
                self.sent += 1;
                self.newest = req_id;
            }
        }

        /// Ids from the oldest unanswered to the newest issued, counting
        /// back from the newest so the wrap is no special case.
        fn span(&self) -> usize {
            let back = |id: &u32| self.newest.wrapping_sub(*id) as usize;
            self.outstanding.keys().map(back).max().map_or(0, |b| b + 1)
        }

        fn on_frame(&mut self, now: u64, frame: &Frame) -> bool {
            match frame {
                Frame::Reply { req_id, .. } => match self.outstanding.remove(req_id) {
                    Some(sent_at) => {
                        self.replies += 1;
                        self.latency.record(now - sent_at);
                        true
                    }
                    None => false,
                },
                Frame::Reject { req_id, cause } => {
                    let known = self.outstanding.remove(req_id).is_some();
                    self.rejects_by_cause[*cause as usize] += u64::from(known);
                    known
                }
                _ => false,
            }
        }
    }

    /// Random interleavings of `on_tick` and `on_frame` — answers out of
    /// order, duplicated, for ids never issued and ids long retired —
    /// against the map-based reference, compared after every call.
    fn sweep(mode: Mode, first_req_id: u32, seed: u64) {
        let total = 3_000;
        let mut c = Client::new(ClientConfig {
            tenant: 2,
            mode,
            popularity: Popularity::Uniform { universe: 64 },
            put_ratio: 0.3,
            total_requests: total,
            seed,
        });
        c.outstanding = Outstanding::starting_at(first_req_id);
        let mut model = Reference::default();
        let mut rng = Pcg64::new(seed, 0x77696e);
        let mut retired: Vec<u32> = Vec::new();
        let mut out = Vec::new();
        let mut now = 0u64;
        let mut steps = 0;
        while !c.done() {
            steps += 1;
            assert!(steps < 200_000, "the run does not finish");
            now += rng.gen_range(2);
            if rng.gen_range(4) == 0 {
                out.clear();
                c.on_tick(now, &mut out);
                model.on_issued(now, &out);
            } else {
                let req_id = match rng.gen_range(8) {
                    // An unanswered request, anywhere in the window.
                    0..=4 if !model.outstanding.is_empty() => {
                        let nth = rng.gen_index(model.outstanding.len());
                        *model.outstanding.keys().nth(nth).expect("nth < len")
                    }
                    // One already answered.
                    5 if !retired.is_empty() => retired[rng.gen_index(retired.len())],
                    // Just past the newest issued, the session-level 0,
                    // or anything at all.
                    6 => c.outstanding.next.wrapping_add(rng.gen_range(3) as u32),
                    7 => 0,
                    _ => rng.next_u64() as u32,
                };
                let frame = match rng.gen_range(3) {
                    0 => Frame::Reject {
                        req_id,
                        cause: REJECT_CAUSES[rng.gen_index(REJECT_CAUSES.len())],
                    },
                    _ => reply(req_id),
                };
                let retires = model.on_frame(now, &frame);
                assert_eq!(c.on_frame(now, &frame), retires, "step {steps}: {frame:?}");
                if retires {
                    retired.push(req_id);
                }
            }
            assert_eq!(c.outstanding(), model.outstanding.len(), "step {steps}");
            assert_eq!(c.high_water(), model.hwm, "step {steps}");
            assert_eq!(c.sent(), model.sent, "step {steps}");
            assert_eq!(c.replies, model.replies, "step {steps}");
            assert_eq!(c.rejects_by_cause, model.rejects_by_cause, "step {steps}");
            assert_eq!(
                c.done(),
                model.sent >= total && model.outstanding.is_empty(),
                "step {steps}"
            );
            // The window spans oldest unanswered ..= newest issued.
            assert_eq!(c.outstanding.slots.len(), model.span(), "step {steps}");
        }
        assert_eq!(c.latency, model.latency);
        assert_eq!(c.sent(), total);
        assert_eq!(c.responses(), total);
    }

    /// A digest of every frame `on_tick` issues and the tick it issues
    /// it at, open and closed loop, over Zipf and phased keys, each
    /// tick's requests answered at the next tick. Captured when each
    /// request drew its key as it was issued.
    #[test]
    fn on_tick_frames_are_pinned() {
        const PINNED: [[u64; 2]; 2] = [
            [0xfb6e3a8949402c55, 0x0637b52d098581de],
            [0x3b2710ed978a70bf, 0xbb75e254f0002c1d],
        ];
        let modes = [Mode::Open { rate: 3.5 }, Mode::Closed { concurrency: 40 }];
        let shapes = [
            Popularity::Zipf {
                alpha: 1.1,
                universe: 100_000,
            },
            Popularity::Phased {
                sets: 4,
                set_size: 64,
                ticks_per_phase: 5,
                universe: 100_000,
            },
        ];
        let mut got = [[0u64; 2]; 2];
        for (mode, row) in modes.iter().zip(&mut got) {
            for (shape, digest) in shapes.iter().zip(row.iter_mut()) {
                let mut c = Client::new(ClientConfig {
                    tenant: 3,
                    mode: mode.clone(),
                    popularity: shape.clone(),
                    put_ratio: 0.3,
                    total_requests: 2_000,
                    seed: 7,
                });
                let mut out = Vec::new();
                let mut now = 0;
                while !c.done() {
                    for req_id in ids(&out) {
                        assert!(c.on_frame(now, &reply(req_id)));
                    }
                    out.clear();
                    c.on_tick(now, &mut out);
                    for frame in &out {
                        let at = rlb_hash::mix::mix2(*digest, now);
                        *digest = frame
                            .to_bytes()
                            .iter()
                            .fold(at, |h, &b| rlb_hash::mix::mix2(h, u64::from(b)));
                    }
                    now += 1;
                }
            }
        }
        assert_eq!(got, PINNED, "frames moved: {got:#x?}");
    }

    #[test]
    fn the_window_is_the_map_it_replaced_closed_loop() {
        for seed in 0..6 {
            sweep(
                Mode::Closed {
                    concurrency: 1 + 5 * seed as u32,
                },
                1,
                seed,
            );
        }
    }

    #[test]
    fn the_window_is_the_map_it_replaced_open_loop() {
        for seed in 10..16 {
            sweep(
                Mode::Open {
                    rate: 0.5 + seed as f64 / 4.0,
                },
                1,
                seed,
            );
        }
    }

    #[test]
    fn the_window_is_the_map_it_replaced_across_the_id_wrap() {
        sweep(Mode::Closed { concurrency: 24 }, u32::MAX - 1_000, 20);
        sweep(Mode::Open { rate: 3.0 }, u32::MAX - 1_500, 21);
    }
}
