//! End-to-end reproduction smoke tests: run a representative subset of
//! the per-theorem experiments in quick mode and require every shape
//! check (the qualitative predictions of the paper) to hold.
//!
//! The full suite runs via `cargo run --release -p rlb-experiments`.
//! These tests exercise the public registry entry points.

use rlb_experiments::registry;

fn run_and_assert(id: &str) {
    let reg = registry();
    let experiment = reg
        .iter()
        .find(|e| e.id == id)
        .unwrap_or_else(|| panic!("unknown experiment {id}"));
    let out = experiment.run(true);
    assert!(
        out.all_passed(),
        "{id} failed shape checks:\n{}",
        out.render()
    );
}

#[test]
fn positive_results_hold() {
    // Thm 3.1 (greedy) and Thm 4.3 (delayed cuckoo routing).
    run_and_assert("e1");
    run_and_assert("e3");
}

#[test]
fn impossibility_results_hold() {
    // d=1 collapse and the one-step Omega(log log m) floor.
    run_and_assert("e5");
    run_and_assert("e6");
}

#[test]
fn substrate_results_hold() {
    // Cuckoo hashing with a stash / Lemma 4.2.
    run_and_assert("e10");
}

#[test]
fn registry_is_complete() {
    let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
    for e in 1..=ids.len() {
        assert!(
            ids.contains(&format!("e{e}").as_str()),
            "experiment e{e} missing from registry"
        );
    }
}
