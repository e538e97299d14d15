//! Executor property tests, driven by a deterministic sweep of
//! PCG-generated cases (no external framework; each failure is
//! reproducible from the printed case number).
//!
//! The load-bearing property is the determinism contract: for jobs that
//! derive everything from their index, `map_indexed` returns the same
//! `Vec` as the sequential loop, for every worker count — including
//! worker counts far above the job count and far above this machine's
//! core count.

#![expect(
    clippy::disallowed_methods,
    reason = "the executor's tests bound their waits with wall-clock deadlines and hold leaves in flight with naps"
)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rlb_hash::{Pcg64, Rng};
use rlb_pool::Pool;

const CASES: u64 = 24;

fn case_rng(property: u64, case: u64) -> Pcg64 {
    Pcg64::new(0x706f6f6c ^ (property << 32) ^ case, property)
}

/// Index-derived mixing function: any job under the determinism
/// contract is equivalent to a pure function of (params, index).
fn mix(seed: u64, i: usize) -> u64 {
    let mut x = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x
}

/// Results arrive in index order for every worker count, and match the
/// sequential loop bit for bit.
#[test]
fn ordering_determinism_across_worker_counts() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let n = rng.gen_index(400);
        let seed = rng.next_u64();
        let expect: Vec<u64> = (0..n).map(|i| mix(seed, i)).collect();
        for workers in [1usize, 2, 8, 64] {
            let pool = Pool::new(workers);
            let got = pool.map_indexed(n, move |i| mix(seed, i));
            assert_eq!(got, expect, "case {case}, workers {workers}, n {n}");
        }
    }
}

/// `map` over owned items preserves item order and matches the
/// sequential map, across worker counts.
#[test]
fn map_matches_sequential_across_worker_counts() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let items: Vec<u64> = (0..rng.gen_index(200)).map(|_| rng.next_u64()).collect();
        let expect: Vec<u64> = items.iter().map(|&x| mix(x, 7)).collect();
        for workers in [1usize, 2, 8, 64] {
            let pool = Pool::new(workers);
            let got = pool.map(items.clone(), |&x| mix(x, 7));
            assert_eq!(got, expect, "case {case}, workers {workers}");
        }
    }
}

/// Nested submission to the *same* pool completes and stays
/// deterministic — the submitter drains its own batch, so inner batches
/// cannot starve even when every worker is blocked in an outer job.
#[test]
fn nested_jobs_do_not_deadlock() {
    for workers in [1usize, 2, 3, 8] {
        let pool = Arc::new(Pool::new(workers));
        let inner_pool = Arc::clone(&pool);
        let got = pool.map_indexed(9, move |outer| {
            let seed = 0xabcd ^ outer as u64;
            let inner = inner_pool.map_indexed(11, move |j| mix(seed, j));
            inner.iter().fold(0u64, |acc, v| acc.wrapping_add(*v))
        });
        let expect: Vec<u64> = (0..9)
            .map(|outer| {
                let seed = 0xabcd ^ outer as u64;
                (0..11).map(|j| mix(seed, j)).fold(0u64, u64::wrapping_add)
            })
            .collect();
        assert_eq!(got, expect, "workers {workers}");
    }
}

/// Three levels of nesting, mixed with sibling batches in flight.
#[test]
fn deep_nesting_completes() {
    let pool = Arc::new(Pool::new(4));
    let p1 = Arc::clone(&pool);
    let got = pool.map_indexed(4, move |a| {
        let p2 = Arc::clone(&p1);
        let mids = p1.map_indexed(3, move |b| {
            let leaves = p2.map_indexed(5, move |c| (a * 100 + b * 10 + c) as u64);
            leaves.iter().sum::<u64>()
        });
        mids.iter().sum::<u64>()
    });
    let expect: Vec<u64> = (0..4)
        .map(|a| {
            (0..3)
                .map(|b| (0..5).map(|c| (a * 100 + b * 10 + c) as u64).sum::<u64>())
                .sum()
        })
        .collect();
    assert_eq!(got, expect);
}

/// Spins until `done()` holds, failing with `what` after 20 s.
fn spin_until(done: impl Fn() -> bool, what: impl Fn() -> String) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < deadline, "{}", what());
        std::thread::yield_now();
    }
}

/// Runs an `n`-wide batch on `pool` in which job `i` returns only after
/// every later index has, so completion order is the exact reverse of
/// index order — and checks the result is index-ordered all the same.
/// With fewer than `n` executors on the batch, job 0 never sees the
/// others finish and the deadline fails the test.
fn assert_batch_fills(pool: &Pool, n: usize) {
    let unfinished = AtomicUsize::new(n);
    let got = pool.map_indexed(n, |i| {
        spin_until(
            || unfinished.load(Ordering::SeqCst) == i + 1,
            || format!("job {i} still waits on later jobs: fewer than {n} executors ran the batch"),
        );
        unfinished.fetch_sub(1, Ordering::SeqCst);
        mix(0xf111, i)
    });
    assert_eq!(got, (0..n).map(|i| mix(0xf111, i)).collect::<Vec<_>>());
    assert_eq!(unfinished.load(Ordering::SeqCst), 0);
}

/// A batch is bounded by the pool's size and by nothing else: all `n`
/// jobs of a batch on an `n`-executor pool are in flight at once,
/// whatever the machine's core count.
#[test]
fn a_batch_fills_the_pool_and_finishes_in_any_order() {
    assert_batch_fills(&Pool::new(8), 8);
}

/// Nested batches share the pool's one budget. Through three levels on
/// a 3-executor pool the leaf jobs in flight never exceed 3 — a pool
/// whose every call recruited its own `jobs - 1` helpers would run up
/// to 27 — and they do reach 3: each leaf holds on until the pool has
/// been seen full, then a millisecond more, so leaves over the budget
/// would overlap.
#[test]
fn nested_batches_share_one_budget() {
    let pool = Pool::new(3);
    let (in_flight, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let got = pool.map_indexed(3, |a| {
        let mids = pool.map_indexed(3, |b| {
            let leaves = pool.map_indexed(4, |c| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                spin_until(
                    || peak.load(Ordering::SeqCst) >= 3,
                    || "the leaves never filled a 3-executor pool".into(),
                );
                std::thread::sleep(Duration::from_millis(1));
                in_flight.fetch_sub(1, Ordering::SeqCst);
                a * 100 + b * 10 + c
            });
            leaves.iter().sum::<usize>()
        });
        mids.iter().sum::<usize>()
    });
    let expect: Vec<usize> = (0..3)
        .map(|a| {
            (0..3)
                .map(|b| (0..4).map(|c| a * 100 + b * 10 + c).sum::<usize>())
                .sum()
        })
        .collect();
    assert_eq!(got, expect);
    assert_eq!(
        peak.load(Ordering::SeqCst),
        3,
        "leaf jobs in flight at the peak"
    );
}

/// A panicked batch gives back every executor it recruited: a 4-wide
/// batch on the same 4-executor pool still runs all four jobs at once.
#[test]
fn a_panicked_batch_returns_its_executors() {
    let pool = Pool::new(4);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.map_indexed(16, |i| {
            if i % 3 == 1 {
                panic!("job {i} exploded");
            }
            i
        })
    }));
    assert!(caught.is_err(), "the batch's panic must propagate");
    assert_batch_fills(&pool, 4);
}

/// Pools are cheap to build and drop, with work in between or without:
/// a pool owns no thread, so there is nothing to shut down.
#[test]
fn rapid_create_drop_does_not_hang() {
    for round in 0..200 {
        let pool = Pool::new(4);
        if round % 2 == 0 {
            let _ = pool.map_indexed(3, |i| i);
        }
    }
}

/// Zero- and single-task batches on pools of every size.
#[test]
fn zero_and_single_task_edges() {
    for workers in [1usize, 2, 64] {
        let pool = Pool::new(workers);
        let empty: Vec<u64> = pool.map_indexed(0, |i| i as u64);
        assert!(empty.is_empty(), "workers {workers}");
        assert_eq!(
            pool.map_indexed(1, |i| i + 99),
            vec![99],
            "workers {workers}"
        );
    }
}

/// A panicking job propagates its payload to the submitter, on both the
/// inline and the parallel path, and the pool survives for later use.
#[test]
fn panic_in_job_propagates() {
    for workers in [1usize, 4] {
        let pool = Pool::new(workers);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map_indexed(32, |i| {
                if i == 17 {
                    panic!("job 17 exploded");
                }
                i
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("exploded"), "workers {workers}: {msg}");
        // The pool must stay usable after a panicked batch.
        assert_eq!(
            pool.map_indexed(8, |i| i * 2),
            (0..8).map(|i| i * 2).collect::<Vec<_>>(),
            "workers {workers}"
        );
    }
}

/// Every index runs exactly once, whatever the completion order.
#[test]
fn each_index_runs_exactly_once() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let n = 1 + rng.gen_index(300);
        let counts: Arc<Vec<AtomicUsize>> = Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect());
        let recorder = Arc::clone(&counts);
        let pool = Pool::new(1 + rng.gen_index(8));
        pool.map_indexed(n, move |i| {
            recorder[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "case {case}, index {i}");
        }
    }
}
