//! Property tests for the queue array's occupancy index, swept over
//! deterministic PCG-generated op interleavings (no external framework;
//! failures are reproducible from the printed case/op numbers).
//!
//! The index is the engine's hot-path accelerator: drains, migrations,
//! and flushes visit only listed servers, so any divergence between the
//! lists and the true non-empty sets silently strands or double-visits
//! queued work. These properties pin the invariant after *every*
//! operation of random enqueue/dequeue/migrate/flush interleavings, and
//! check the modulo-free ring rewrite against a reference FIFO model.

use std::collections::{BTreeSet, VecDeque};

use rlb_core::{ClassSpec, QueueArray};
use rlb_hash::{Pcg64, Rng};

const CASES: u64 = 128;

fn case_rng(property: u64, case: u64) -> Pcg64 {
    Pcg64::new(0x6f636375 ^ (property << 32) ^ case, property)
}

/// Asserts every structural invariant of the occupancy index:
/// duplicate-free lists, exact agreement with the non-zero
/// `class_backlog` sets, per-server backlog sums, and the incremental
/// cluster total.
fn check_invariants(q: &QueueArray, context: &str) {
    let m = q.num_servers();
    let k = q.num_classes();
    for class in 0..k {
        let occ = q.occupied_servers(class);
        let set: BTreeSet<u32> = occ.iter().copied().collect();
        assert_eq!(
            set.len(),
            occ.len(),
            "{context}: duplicate server in occupancy list of class {class}"
        );
        for server in 0..m as u32 {
            let backlog = q.class_backlog(server, class);
            assert_eq!(
                backlog > 0,
                set.contains(&server),
                "{context}: server {server} class {class} backlog {backlog} \
                 disagrees with occupancy membership"
            );
        }
    }
    let mut total = 0u64;
    for server in 0..m as u32 {
        let sum: u32 = (0..k).map(|c| q.class_backlog(server, c)).sum();
        assert_eq!(
            sum,
            q.backlog(server),
            "{context}: per-server backlog out of sync"
        );
        total += sum as u64;
    }
    assert_eq!(total, q.total_backlog(), "{context}: total backlog drifted");
}

fn random_classes(rng: &mut Pcg64) -> Vec<ClassSpec> {
    let k = 1 + rng.gen_index(3);
    (0..k)
        .map(|_| ClassSpec {
            capacity: 1 + rng.gen_range(5) as u32,
            drain_per_step: 1,
        })
        .collect()
}

/// After any interleaving of operations, the occupancy lists are
/// exactly the sets of servers with a non-zero class backlog.
#[test]
fn occupancy_matches_nonzero_backlogs_after_any_interleaving() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let m = 1 + rng.gen_index(12);
        let classes = random_classes(&mut rng);
        let k = classes.len();
        let mut q = QueueArray::new(m, &classes);
        let ops = 1 + rng.gen_index(300);
        for op in 0..ops {
            let server = rng.gen_index(m) as u32;
            let class = rng.gen_index(k);
            match rng.gen_range(12) {
                0..=5 => {
                    let _ = q.enqueue(server, class, op as u32);
                }
                6..=8 => {
                    q.dequeue_up_to(server, class, 1 + rng.gen_range(4) as u32, |_| {});
                }
                9..=10 => {
                    if k > 1 {
                        let to = (class + 1) % k;
                        q.migrate_class(class, to, |_| {});
                    }
                }
                _ => {
                    q.flush_all(|_| {});
                }
            }
            check_invariants(&q, &format!("case {case} op {op}"));
        }
    }
}

/// The ring buffers (modulo-free wrap) behave exactly like reference
/// FIFO deques under random interleavings: identical per-call dequeue
/// sequences, identical drop multisets from migrate/flush, and empty
/// state agreement.
#[test]
fn rings_match_reference_fifo_model() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let m = 1 + rng.gen_index(8);
        let classes = random_classes(&mut rng);
        let k = classes.len();
        let mut q = QueueArray::new(m, &classes);
        let mut model: Vec<VecDeque<u32>> = vec![VecDeque::new(); m * k];
        let ops = 1 + rng.gen_index(250);
        for op in 0..ops {
            let server = rng.gen_index(m) as u32;
            let class = rng.gen_index(k);
            let idx = server as usize * k + class;
            match rng.gen_range(12) {
                0..=5 => {
                    let value = op as u32;
                    let accepted = q.enqueue(server, class, value).is_ok();
                    let fits = model[idx].len() < classes[class].capacity as usize;
                    assert_eq!(accepted, fits, "case {case} op {op}: capacity check");
                    if fits {
                        model[idx].push_back(value);
                    }
                }
                6..=8 => {
                    let count = 1 + rng.gen_range(4) as u32;
                    let mut seen = Vec::new();
                    q.dequeue_up_to(server, class, count, |v| seen.push(v));
                    let expected: Vec<u32> =
                        (0..count).filter_map(|_| model[idx].pop_front()).collect();
                    assert_eq!(seen, expected, "case {case} op {op}: dequeue order");
                }
                9..=10 => {
                    if k > 1 {
                        let to = (class + 1) % k;
                        let mut dropped = Vec::new();
                        q.migrate_class(class, to, |v| dropped.push(v));
                        // The model migrates server-by-server in id
                        // order; the real array walks its unordered
                        // occupancy list, so compare drop multisets.
                        let mut expected_drops = Vec::new();
                        for s in 0..m {
                            let from_idx = s * k + class;
                            let to_idx = s * k + to;
                            let room = classes[to].capacity as usize - model[to_idx].len();
                            let pending = std::mem::take(&mut model[from_idx]);
                            for (i, v) in pending.into_iter().enumerate() {
                                if i < room {
                                    model[to_idx].push_back(v);
                                } else {
                                    expected_drops.push(v);
                                }
                            }
                        }
                        dropped.sort_unstable();
                        expected_drops.sort_unstable();
                        assert_eq!(
                            dropped, expected_drops,
                            "case {case} op {op}: migrate drops"
                        );
                    }
                }
                _ => {
                    let mut dropped = Vec::new();
                    q.flush_all(|v| dropped.push(v));
                    let mut expected: Vec<u32> =
                        model.iter_mut().flat_map(std::mem::take).collect();
                    dropped.sort_unstable();
                    expected.sort_unstable();
                    assert_eq!(dropped, expected, "case {case} op {op}: flush drops");
                }
            }
            for s in 0..m as u32 {
                for c in 0..k {
                    assert_eq!(
                        q.class_backlog(s, c) as usize,
                        model[s as usize * k + c].len(),
                        "case {case} op {op}: length drift at server {s} class {c}"
                    );
                }
            }
        }
    }
}
