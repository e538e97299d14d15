//! Model-based sweeps of the SoA queue engine's bulk paths, swept over
//! deterministic PCG-generated interleavings (no external framework;
//! failures reproduce from the printed case/op numbers).
//!
//! `queue_occupancy.rs` pins the occupancy index and the plain ring
//! FIFOs. This file pins the surfaces the data-oriented rewrite added
//! on top: the packed control row, whose class-0 routing word is behind
//! `backlog`/`route_backlog`/`is_live`, the down-server sentinel, and
//! `drain_class`'s dense and sparse sweeps — each checked against a
//! naive per-queue reference model under liveness churn, near-capacity
//! pressure, and post-flush reuse. Its generator draws k <= 3 classes;
//! `queue_down_server.rs` covers a down server with all four of delayed
//! cuckoo routing's classes queued. A queue keeps its oldest entry in
//! its control entry and the rest in its ring block, so the last sweep
//! reads every queue back whole, in order, on rings of 1 to 3 slots.

use std::collections::VecDeque;

use rlb_core::{ClassSpec, QueueArray};
use rlb_hash::{Pcg64, Rng};

const CASES: u64 = 96;

fn case_rng(property: u64, case: u64) -> Pcg64 {
    Pcg64::new(0x50615f6d ^ (property << 32) ^ case, property)
}

/// Naive reference: one FIFO per (server, class) plus a liveness flag
/// per server. Everything is recomputed from scratch on demand.
struct Model {
    queues: Vec<VecDeque<u32>>,
    live: Vec<bool>,
    k: usize,
}

impl Model {
    fn new(m: usize, k: usize) -> Self {
        Self {
            queues: vec![VecDeque::new(); m * k],
            live: vec![true; m],
            k,
        }
    }

    fn q(&mut self, server: u32, class: usize) -> &mut VecDeque<u32> {
        &mut self.queues[server as usize * self.k + class]
    }

    fn backlog(&self, server: u32) -> u32 {
        let base = server as usize * self.k;
        self.queues[base..base + self.k]
            .iter()
            .map(|q| q.len() as u32)
            .sum()
    }

    /// What `drain_class` must complete: up to `take` from the front of
    /// every live server's `class` queue; down servers untouched.
    fn drain_class(&mut self, class: usize, take: u32) -> Vec<u32> {
        let mut out = Vec::new();
        for s in 0..self.live.len() {
            if !self.live[s] {
                continue;
            }
            let q = &mut self.queues[s * self.k + class];
            for _ in 0..take {
                match q.pop_front() {
                    Some(v) => out.push(v),
                    None => break,
                }
            }
        }
        out
    }

    /// What `migrate_class` must do: per server, move `from`'s entries
    /// oldest first into `to` while it has room, and return the rest,
    /// which drop.
    fn migrate(&mut self, from: usize, to: usize, to_cap: usize) -> Vec<u32> {
        let mut drops = Vec::new();
        for s in 0..self.live.len() as u32 {
            let room = to_cap - self.q(s, to).len();
            let pending = std::mem::take(self.q(s, from));
            for (i, v) in pending.into_iter().enumerate() {
                if i < room {
                    self.q(s, to).push_back(v);
                } else {
                    drops.push(v);
                }
            }
        }
        drops
    }
}

/// Checks every derived read API of the array against the model: per
/// class/server backlogs, aggregate backlogs (both the accessor and the
/// iterator), the liveness sentinel mirror, fullness, and the total.
fn check_against_model(q: &QueueArray, model: &Model, caps: &[ClassSpec], context: &str) {
    let m = q.num_servers();
    let k = q.num_classes();
    let mut total = 0u64;
    for server in 0..m as u32 {
        for (class, spec) in caps.iter().enumerate() {
            let expected = model.queues[server as usize * k + class].len() as u32;
            assert_eq!(
                q.class_backlog(server, class),
                expected,
                "{context}: class backlog drift at server {server} class {class}"
            );
            assert_eq!(
                q.is_full(server, class),
                expected >= spec.capacity,
                "{context}: fullness drift at server {server} class {class}"
            );
        }
        let backlog = model.backlog(server);
        assert_eq!(
            q.backlog(server),
            backlog,
            "{context}: backlog drift at server {server}"
        );
        assert_eq!(
            q.is_live(server),
            model.live[server as usize],
            "{context}: liveness drift at server {server}"
        );
        let expected_route = if model.live[server as usize] {
            backlog
        } else {
            u32::MAX
        };
        assert_eq!(
            q.route_backlog(server),
            expected_route,
            "{context}: route-backlog sentinel drift at server {server}"
        );
        total += backlog as u64;
    }
    assert_eq!(total, q.total_backlog(), "{context}: total drift");
    let from_iter: Vec<u32> = q.backlogs().collect();
    let expected: Vec<u32> = (0..m as u32).map(|s| model.backlog(s)).collect();
    assert_eq!(from_iter, expected, "{context}: backlogs() iterator drift");
}

/// Random interleavings of every mutating operation — enqueues (biased
/// so queues regularly sit at capacity), per-server dequeues, bulk
/// drains, liveness flips (single and mask), migrations, and flushes —
/// leave the array in exact agreement with the naive model. Flushes are
/// followed by continued traffic, so post-flush re-occupancy of the
/// same ring blocks is exercised in nearly every case.
#[test]
fn soa_engine_matches_naive_model_under_liveness_churn() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let m = 1 + rng.gen_index(16);
        let k = 1 + rng.gen_index(3);
        let classes: Vec<ClassSpec> = (0..k)
            .map(|_| ClassSpec {
                // Small capacities keep queues near full under the
                // enqueue-heavy op mix below.
                capacity: 1 + rng.gen_range(6) as u32,
                drain_per_step: 1,
            })
            .collect();
        let mut q = QueueArray::new(m, &classes);
        let mut model = Model::new(m, k);
        let ops = 1 + rng.gen_index(400);
        for op in 0..ops {
            let server = rng.gen_index(m) as u32;
            let class = rng.gen_index(k);
            let ctx = || format!("case {case} op {op}");
            match rng.gen_range(16) {
                0..=7 => {
                    let value = op as u32;
                    let accepted = q.enqueue(server, class, value).is_ok();
                    let fits = model.q(server, class).len() < classes[class].capacity as usize;
                    assert_eq!(accepted, fits, "{}: acceptance", ctx());
                    if fits {
                        model.q(server, class).push_back(value);
                    }
                }
                8..=9 => {
                    let count = 1 + rng.gen_range(4) as u32;
                    let mut seen = Vec::new();
                    q.dequeue_up_to(server, class, count, |v| seen.push(v));
                    let expected: Vec<u32> = (0..count)
                        .filter_map(|_| model.q(server, class).pop_front())
                        .collect();
                    assert_eq!(seen, expected, "{}: dequeue order", ctx());
                }
                10..=11 => {
                    // Bulk drain. The dense sweep visits servers in id
                    // order, the sparse sweep in occupancy-list order;
                    // both must complete the same multiset, and each
                    // server's own completions stay FIFO (checked via
                    // the model by the post-op state comparison).
                    let take = 1 + rng.gen_range(4) as u32;
                    let mut seen = Vec::new();
                    let n = q.drain_class(class, take, |v| seen.push(v));
                    let mut expected = model.drain_class(class, take);
                    assert_eq!(n, expected.len() as u64, "{}: drain count", ctx());
                    seen.sort_unstable();
                    expected.sort_unstable();
                    assert_eq!(seen, expected, "{}: drain multiset", ctx());
                }
                12 => {
                    let live = rng.gen_range(2) == 0;
                    q.set_live(server, live);
                    model.live[server as usize] = live;
                }
                13 => {
                    let mask: Vec<bool> = (0..m).map(|_| rng.gen_range(4) != 0).collect();
                    let mut flips = Vec::new();
                    q.set_liveness(&mask, |s, live| flips.push((s, live)));
                    let expected: Vec<(u32, bool)> = (0..m)
                        .filter(|&s| model.live[s] != mask[s])
                        .map(|s| (s as u32, mask[s]))
                        .collect();
                    assert_eq!(flips, expected, "{}: reported transitions", ctx());
                    model.live.copy_from_slice(&mask);
                }
                14 => {
                    if k > 1 {
                        let to = (class + 1) % k;
                        let mut dropped = Vec::new();
                        q.migrate_class(class, to, |v| dropped.push(v));
                        let mut expected_drops =
                            model.migrate(class, to, classes[to].capacity as usize);
                        dropped.sort_unstable();
                        expected_drops.sort_unstable();
                        assert_eq!(dropped, expected_drops, "{}: migrate drops", ctx());
                    }
                }
                _ => {
                    let mut dropped = 0u64;
                    q.flush_all(|_| dropped += 1);
                    let expected: u64 = model
                        .queues
                        .iter_mut()
                        .map(|q| std::mem::take(q).len() as u64)
                        .sum();
                    assert_eq!(dropped, expected, "{}: flush count", ctx());
                }
            }
            check_against_model(&q, &model, &classes, &ctx());
        }
    }
}

/// Down servers are frozen exactly: repeated bulk drains with every
/// server down complete nothing, and a server's queued work survives a
/// down/up cycle in FIFO order while live traffic around it drains.
#[test]
fn bulk_drain_freezes_down_servers_exactly() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let m = 2 + rng.gen_index(10);
        let classes = [ClassSpec {
            capacity: 8,
            drain_per_step: 2,
        }];
        let mut q = QueueArray::new(m, &classes);
        let frozen = rng.gen_index(m) as u32;
        let mut frozen_entries = Vec::new();
        for i in 0..(1 + rng.gen_index(8)) as u32 {
            q.enqueue(frozen, 0, 100 + i).unwrap();
            frozen_entries.push(100 + i);
        }
        q.set_live(frozen, false);
        for round in 0..4u32 {
            for s in 0..m as u32 {
                if s != frozen {
                    let _ = q.enqueue(s, 0, round);
                }
            }
            q.drain_class(0, 8, |v| {
                assert!(
                    !frozen_entries.contains(&v),
                    "case {case}: drained an entry queued on the down server"
                );
            });
            assert_eq!(
                q.backlog(frozen),
                frozen_entries.len() as u32,
                "case {case} round {round}: frozen backlog changed"
            );
            assert_eq!(q.route_backlog(frozen), u32::MAX);
        }
        // Every live queue fully drained each round; only frozen work
        // remains, still FIFO once the server returns.
        assert_eq!(q.total_backlog(), frozen_entries.len() as u64);
        q.set_live(frozen, true);
        assert_eq!(q.route_backlog(frozen), frozen_entries.len() as u32);
        let mut seen = Vec::new();
        q.drain_class(0, 8, |v| seen.push(v));
        assert_eq!(seen, frozen_entries, "case {case}: FIFO across outage");
        assert_eq!(q.total_backlog(), 0);
    }
}

/// Driving every queue to exact fullness, dequeuing a random prefix,
/// and refilling — repeatedly, so heads wrap arbitrarily — never breaks
/// FIFO order or capacity accounting at the full/empty boundaries.
#[test]
fn near_capacity_wrap_cycles_stay_fifo() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let cap = 1 + rng.gen_range(16) as u32;
        let classes = [ClassSpec {
            capacity: cap,
            drain_per_step: 1,
        }];
        let mut q = QueueArray::new(1, &classes);
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut next = 0u32;
        for cycle in 0..24 {
            // Fill to exact capacity; the first rejected enqueue must
            // happen precisely when the model says the queue is full.
            loop {
                let accepted = q.enqueue(0, 0, next).is_ok();
                if model.len() < cap as usize {
                    assert!(accepted, "case {case} cycle {cycle}: premature reject");
                    model.push_back(next);
                    next += 1;
                } else {
                    assert!(!accepted, "case {case} cycle {cycle}: overfull accept");
                    break;
                }
            }
            assert!(q.is_full(0, 0));
            let count = 1 + rng.gen_range(cap as u64) as u32;
            let mut seen = Vec::new();
            q.dequeue_up_to(0, 0, count, |v| seen.push(v));
            let expected: Vec<u32> = (0..count).filter_map(|_| model.pop_front()).collect();
            assert_eq!(seen, expected, "case {case} cycle {cycle}: FIFO drift");
        }
    }
}

/// Reads every queue of `q` back whole, by draining a clone through the
/// per-server reference path, and compares it entry by entry, in order,
/// with the model.
fn check_contents(q: &QueueArray, model: &Model, context: &str) {
    let mut copy = q.clone();
    for server in 0..q.num_servers() as u32 {
        for class in 0..q.num_classes() {
            let mut seen = Vec::new();
            copy.dequeue_up_to(server, class, u32::MAX, |v| seen.push(v));
            let expected: Vec<u32> = model.queues[server as usize * model.k + class]
                .iter()
                .copied()
                .collect();
            assert_eq!(
                seen, expected,
                "{context}: contents of server {server} class {class}"
            );
        }
    }
}

/// Rings of one to three slots, where a queue's oldest entry in its
/// control entry and the rest in its ring block meet at every boundary:
/// heads wrap every few operations, migrations land in empty and
/// non-empty destinations and drop on full ones, sweeps take part of a
/// queue and refill its front from the ring, and flushes empty
/// everything mid-wrap. Every queue's whole contents are compared with
/// the model after every operation.
#[test]
fn small_rings_keep_fifo_through_wrap_migrate_and_flush() {
    // Servers migrated into an empty, a partly filled and a full
    // destination, over the whole sweep.
    let mut migrations = [0u32; 3];
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let m = 1 + rng.gen_index(4);
        let k = 2 + rng.gen_index(2);
        let classes: Vec<ClassSpec> = (0..k)
            .map(|_| ClassSpec {
                capacity: 1 + rng.gen_range(3) as u32,
                drain_per_step: 1,
            })
            .collect();
        let mut q = QueueArray::new(m, &classes);
        let mut model = Model::new(m, k);
        for op in 0..300u32 {
            let server = rng.gen_index(m) as u32;
            let class = rng.gen_index(k);
            let ctx = format!("case {case} op {op}");
            match rng.gen_range(12) {
                0..=5 => {
                    let fits = model.q(server, class).len() < classes[class].capacity as usize;
                    assert_eq!(
                        q.enqueue(server, class, op).is_ok(),
                        fits,
                        "{ctx}: acceptance"
                    );
                    if fits {
                        model.q(server, class).push_back(op);
                    }
                }
                6 => {
                    let count = 1 + rng.gen_range(3) as u32;
                    let mut seen = Vec::new();
                    q.dequeue_up_to(server, class, count, |v| seen.push(v));
                    let expected: Vec<u32> = (0..count)
                        .filter_map(|_| model.q(server, class).pop_front())
                        .collect();
                    assert_eq!(seen, expected, "{ctx}: dequeue order");
                }
                7..=8 => {
                    // Each server's completions, in the order they came.
                    let take = 1 + rng.gen_range(2) as u32;
                    let mut runs = vec![Vec::new(); m];
                    q.sweep_class(class, take, |s, v| runs[s as usize].push(v));
                    for (s, run) in runs.iter().enumerate() {
                        let expected: Vec<u32> = (0..take)
                            .filter_map(|_| model.q(s as u32, class).pop_front())
                            .collect();
                        assert_eq!(run, &expected, "{ctx}: sweep order at server {s}");
                    }
                }
                9..=10 => {
                    let to = (class + 1 + rng.gen_index(k - 1)) % k;
                    for s in 0..m as u32 {
                        let (pending, held) = (model.q(s, class).len(), model.q(s, to).len());
                        if pending > 0 {
                            let full = held == classes[to].capacity as usize;
                            migrations[if held == 0 {
                                0
                            } else if full {
                                2
                            } else {
                                1
                            }] += 1;
                        }
                    }
                    let mut dropped = Vec::new();
                    q.migrate_class(class, to, |v| dropped.push(v));
                    let mut expected = model.migrate(class, to, classes[to].capacity as usize);
                    dropped.sort_unstable();
                    expected.sort_unstable();
                    assert_eq!(dropped, expected, "{ctx}: migrate drops");
                }
                _ => {
                    if rng.gen_range(4) == 0 {
                        let mut dropped = 0u64;
                        q.flush_all(|_| dropped += 1);
                        let expected: u64 = model
                            .queues
                            .iter_mut()
                            .map(|q| std::mem::take(q).len() as u64)
                            .sum();
                        assert_eq!(dropped, expected, "{ctx}: flush count");
                    }
                }
            }
            check_against_model(&q, &model, &classes, &ctx);
            check_contents(&q, &model, &ctx);
        }
    }
    assert!(migrations.iter().all(|&n| n > 0), "{migrations:?}");
}
