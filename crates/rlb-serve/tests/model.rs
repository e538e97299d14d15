//! Model-checked verification of the serving layer's one
//! schedule-sensitive protocol — the session registry hand-off (accept
//! thread → reactor, including shutdown) — plus proof that the checker
//! catches its seeded bug, the PR-4 lost-wakeup shutdown. (The
//! admission gate is single-owner state inside `ServerCore` and has no
//! schedule to explore.)
//!
//! Run with `cargo test -p rlb-serve --features model`. Under that
//! feature every rlb-sync primitive in the crate routes through
//! rlb-check's cooperative scheduler, and every test explores all
//! interleavings within the preemption bound, with an injected
//! spurious wakeup at every condvar wait.

#![cfg(feature = "model")]

use rlb_check::{check, check_ok, replay, Config, FailureKind, Outcome};
use rlb_serve::SessionRegistry;
use rlb_sync::{thread, Arc};

/// Shared bounds (the PR-4 idiom): 2 preemptions, 1 spurious wakeup.
fn cfg() -> Config {
    Config::new().preemptions(2).spurious(1)
}

#[test]
fn registry_handoff_conserves_sessions_under_shutdown() {
    // An acceptor inserting two sessions races a reactor that shuts the
    // registry down and drains. In every interleaving, each session is
    // either drained by the reactor or handed back to the acceptor by
    // the closed insert — never dropped, never duplicated.
    let schedules = check_ok(&cfg(), || {
        let registry = Arc::new(SessionRegistry::new());
        let acceptor = {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                let mut returned = 0usize;
                for session in [1u32, 2] {
                    if registry.insert(session).is_err() {
                        returned += 1;
                    }
                }
                returned
            })
        };
        registry.shutdown();
        let mut drained = registry.drain().len();
        let returned = acceptor.join().expect("acceptor join");
        // Anything inserted after the early drain is still pending.
        drained += registry.drain().len();
        assert_eq!(
            drained + returned,
            2,
            "sessions lost or duplicated: drained {drained}, returned {returned}"
        );
    });
    println!("registry_handoff: {schedules} schedules, all pass");
    assert!(schedules <= 50_000, "schedule space blew up: {schedules}");
}

#[test]
fn blocked_reactor_always_wakes_on_shutdown() {
    // The exact PR-4 shape: a reactor parked in wait_any with an empty
    // registry must be woken by shutdown in every schedule (the closed
    // store happens under the queue lock). A lost wakeup here would
    // hang a live server's drain path forever.
    let schedules = check_ok(&cfg(), || {
        let registry: Arc<SessionRegistry<u32>> = Arc::new(SessionRegistry::new());
        let reactor = {
            let registry = Arc::clone(&registry);
            thread::spawn(move || registry.wait_any())
        };
        registry.shutdown();
        let got = reactor.join().expect("reactor join");
        assert!(got.is_empty(), "nothing was inserted");
        assert!(registry.is_closed());
    });
    println!("blocked_reactor_wakes: {schedules} schedules, all pass");
    assert!(schedules <= 20_000, "schedule space blew up: {schedules}");
}

#[test]
fn accept_loop_drains_every_session_before_exit() {
    // The reactor's drain loop: keep waiting until a close-and-empty
    // wait_any. Against an acceptor inserting then shutting down, the
    // reactor must observe every inserted session and terminate, in
    // every schedule.
    let schedules = check_ok(&cfg(), || {
        let registry = Arc::new(SessionRegistry::new());
        let reactor = {
            let registry: Arc<SessionRegistry<u32>> = Arc::clone(&registry);
            thread::spawn(move || {
                let mut seen = 0usize;
                loop {
                    let got = registry.wait_any();
                    if got.is_empty() {
                        // wait_any returns empty only on close.
                        return seen;
                    }
                    seen += got.len();
                }
            })
        };
        registry.insert(1).expect("registry is open");
        registry.insert(2).expect("registry is open");
        registry.shutdown();
        let seen = reactor.join().expect("reactor join");
        assert_eq!(seen, 2, "reactor missed a session");
    });
    println!("accept_loop_drain: {schedules} schedules, all pass");
    assert!(schedules <= 100_000, "schedule space blew up: {schedules}");
}

#[test]
fn injected_shutdown_lost_wakeup_is_caught_and_replayable() {
    // Detection power: the unlocked-store shutdown (the verbatim PR-4
    // bug) must be flagged as a lost wakeup — the store and notify slip
    // between the reactor's closed check and its wait entry, stranding
    // it — with a schedule string that reproduces the failure in one
    // replayed run.
    let body = || {
        let registry: Arc<SessionRegistry<u32>> = Arc::new(SessionRegistry::new());
        let reactor = {
            let registry = Arc::clone(&registry);
            thread::spawn(move || registry.wait_any())
        };
        registry.shutdown_buggy();
        let _ = reactor.join();
    };
    let out = check(&cfg(), body);
    let Outcome::Fail(failure) = out else {
        panic!("checker missed the seeded shutdown lost-wakeup");
    };
    println!(
        "injected_shutdown_bug: caught as {} after {} schedules\nschedule: {}",
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

    let replayed = replay(&cfg(), &failure.schedule, body);
    let Outcome::Fail(again) = replayed else {
        panic!("failing schedule did not replay");
    };
    assert_eq!(again.kind, FailureKind::LostWakeup);
    assert_eq!(again.schedules_explored, 1, "replay is a single run");
}
