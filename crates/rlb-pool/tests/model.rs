//! Model-checked verification of rlb-pool's three schedule-sensitive
//! protocols, plus proof of the checker's detection power on the
//! re-injected PR-4 shutdown race.
//!
//! Run with `cargo test -p rlb-pool --features model`. Under that
//! feature every pool primitive routes through rlb-check's cooperative
//! scheduler, and each test below exhaustively explores all
//! interleavings within the configured preemption bound — including an
//! injected spurious wakeup at every `Condvar::wait`, so a wait that is
//! not inside a re-checking loop cannot survive. Schedule counts are
//! printed per test and bounded, keeping the suite's cost pinned.

#![cfg(feature = "model")]

use rlb_check::{check, check_ok, replay, Config, FailureKind, Outcome};
use rlb_pool::Pool;
use rlb_sync::{Arc, AtomicUsize, Ordering};

/// Every protocol test shares these bounds: 2 preemptions (the CHESS
/// sweet spot — the PR-4 bug needs 1) and 1 injected spurious wakeup
/// per execution, which over the exploration covers every wait site.
fn cfg() -> Config {
    Config::new().preemptions(2).spurious(1)
}

#[test]
fn drop_shutdown_handshake_is_race_free() {
    // The PR-4 protocol under check: Pool::drop must get its shutdown
    // store ordered against each worker's check-then-wait. Creating and
    // dropping a 2-executor pool exercises exactly that handshake.
    let schedules = check_ok(&cfg(), || {
        let pool = Pool::new(2);
        drop(pool);
    });
    println!("drop_shutdown_handshake: {schedules} schedules, all pass");
    assert!(
        schedules <= 20_000,
        "handshake schedule space blew up: {schedules}"
    );
}

#[test]
fn batch_counting_claims_each_index_exactly_once() {
    // BatchState claim/done protocol: the atomic cursor must hand out
    // each index exactly once across submitter + worker, the done
    // count must reach n exactly, and the submitter's done_cv wait
    // must survive spurious wakeups.
    let schedules = check_ok(&cfg(), || {
        let pool = Pool::new(2);
        let runs = Arc::new(AtomicUsize::new(0));
        let runs2 = Arc::clone(&runs);
        let out = pool.map_indexed(2, move |i| {
            runs2.fetch_add(1, Ordering::Relaxed);
            i * 10
        });
        assert_eq!(out, vec![0, 10], "slots filled in index order");
        assert_eq!(
            runs.load(Ordering::Relaxed),
            2,
            "each index ran exactly once"
        );
    });
    println!("batch_counting: {schedules} schedules, all pass");
    assert!(
        schedules <= 100_000,
        "batch schedule space blew up: {schedules}"
    );
}

#[test]
fn nested_submit_help_drains_without_deadlock() {
    // Nested submission protocol: a job submitting to its own pool must
    // never deadlock — the submitter help-drains its own batch before
    // blocking, so every index is claimed by a non-blocked thread. The
    // checker proves it for every schedule, not just the lucky ones.
    let schedules = check_ok(&cfg(), || {
        let pool = Arc::new(Pool::new(2));
        let p2 = Arc::clone(&pool);
        let out = pool.map_indexed(2, move |i| {
            let inner = p2.map_indexed(2, move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        // i=0: 0+1 = 1; i=1: 10+11 = 21.
        assert_eq!(out, vec![1, 21]);
    });
    println!("nested_submit: {schedules} schedules, all pass");
    assert!(
        schedules <= 200_000,
        "nested schedule space blew up: {schedules}"
    );
}

#[test]
fn condvar_waits_survive_spurious_wakeups() {
    // Satellite focus: both pool wait sites (worker work_cv wait,
    // submitter done_cv wait) must sit in re-checking loops. A raised
    // spurious budget gives the explorer two injections per execution,
    // enough to hit both sites in one schedule as well as each alone.
    let schedules = check_ok(&cfg().spurious(2), || {
        let pool = Pool::new(2);
        let out = pool.map_indexed(2, |i| i);
        assert_eq!(out, vec![0, 1]);
    });
    println!("spurious_discipline: {schedules} schedules, all pass");
    assert!(
        schedules <= 200_000,
        "spurious schedule space blew up: {schedules}"
    );
}

#[test]
fn injected_pr4_shutdown_race_is_caught_and_replayable() {
    // Detection power: the pre-review Pool::drop (shutdown stored
    // outside the queue lock) must be flagged as a lost wakeup, with a
    // schedule string that reproduces it in a single replayed run.
    let body = || {
        let pool = Pool::new_with_buggy_shutdown(2);
        drop(pool);
    };
    let out = check(&cfg(), body);
    let Outcome::Fail(failure) = out else {
        panic!("checker missed the injected PR-4 shutdown race");
    };
    println!(
        "injected_bug: caught as {} after {} schedules\nschedule: {}",
        failure.kind, failure.schedules_explored, failure.schedule
    );
    assert_eq!(failure.kind, FailureKind::LostWakeup);
    assert!(
        failure.schedules_explored <= 1_000,
        "the bug must surface quickly, took {} schedules",
        failure.schedules_explored
    );
    assert!(
        failure.trace.contains("wait"),
        "trace shows the stranded wait:\n{}",
        failure.trace
    );

    // The printed schedule alone reproduces the failure.
    let replayed = replay(&cfg(), &failure.schedule, body);
    let Outcome::Fail(again) = replayed else {
        panic!("failing schedule did not replay");
    };
    assert_eq!(again.kind, FailureKind::LostWakeup);
    assert_eq!(again.schedules_explored, 1, "replay is a single run");
}
