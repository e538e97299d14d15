//! Feature `sanitize`: the engine re-derives its structural invariants
//! after every step and panics on drift. These tests prove both
//! directions: healthy runs stay silent, and injected corruption (via
//! the `#[doc(hidden)]` hooks) is caught on the very next step.

#![cfg(feature = "sanitize")]

use rlb_core::policies::{DelayedCuckoo, Greedy};
use rlb_core::{DrainMode, Policy, SimConfig, Simulation, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn config() -> SimConfig {
    SimConfig {
        num_servers: 16,
        num_chunks: 64,
        replication: 2,
        process_rate: 2,
        queue_capacity: 8,
        flush_interval: Some(7),
        drain_mode: DrainMode::EndOfStep,
        seed: 11,
        safety_check_every: Some(1),
    }
}

fn workload() -> impl Workload {
    |_step: u64, out: &mut Vec<u32>| out.extend(0..48u32)
}

/// Runs one more step and returns the panic payload, if any.
fn step_panic_message<P: Policy>(sim: &mut Simulation<P>) -> Option<String> {
    step_panic_message_under(sim, &mut workload())
}

/// [`step_panic_message`] with the step's requests drawn from `load`.
fn step_panic_message_under<P: Policy>(
    sim: &mut Simulation<P>,
    load: &mut impl Workload,
) -> Option<String> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        sim.run(load, 1);
    }));
    result.err().map(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

#[test]
fn healthy_run_passes_every_step() {
    // Saturating load with flushes and interleaved drains: exercises
    // enqueue, overflow, drain, occupancy-list churn, and flush resets
    // under the per-step invariant re-derivation.
    for mode in [DrainMode::EndOfStep, DrainMode::Interleaved] {
        let mut cfg = config();
        cfg.drain_mode = mode;
        let mut sim = Simulation::new(cfg, Greedy::new());
        sim.run(&mut workload(), 50);
        let report = sim.finish();
        report.check_conservation().unwrap();
    }
}

#[test]
fn healthy_run_with_outages_passes() {
    use rlb_core::OutageSchedule;
    let mut schedule = OutageSchedule::none();
    schedule.push(3, 5, 20);
    schedule.push(9, 10, 30);
    let mut sim = Simulation::new(config(), Greedy::new()).with_outages(schedule);
    sim.run(&mut workload(), 40);
    sim.finish().check_conservation().unwrap();
}

#[test]
fn corrupted_occupancy_index_is_caught() {
    let mut sim = Simulation::new(config(), Greedy::new());
    sim.run(&mut workload(), 5);
    assert!(
        sim.view().backlogs().any(|b| b > 0),
        "scenario must leave work queued so corruption is observable"
    );
    sim.sanitize_queues_mut().sanitize_corrupt_occupancy();
    let msg = step_panic_message(&mut sim).expect("sanitizer must panic");
    assert!(
        msg.contains("sanitize"),
        "panic should name the sanitizer: {msg}"
    );
    assert!(
        msg.contains("occupancy"),
        "panic should name the broken invariant: {msg}"
    );
}

#[test]
fn server_filed_twice_in_occupancy_is_caught() {
    // A dense sweep rebuilds the list from the queues, and a sparse one
    // refiles a server only while it holds work, so the duplicate must
    // sit on a sparse list and hold work through both visits. Server 3
    // queues work and goes down at step 5; with no arrivals after that
    // the live servers drain empty, and the down server, filed alone,
    // keeps its work.
    use rlb_core::OutageSchedule;
    let mut cfg = config();
    cfg.flush_interval = None;
    let mut schedule = OutageSchedule::none();
    schedule.push(3, 5, 40);
    let mut sim = Simulation::new(cfg, Greedy::new()).with_outages(schedule);
    sim.run(&mut workload(), 5);
    let mut idle = |_step: u64, _out: &mut Vec<u32>| {};
    sim.run(&mut idle, 10);
    assert_eq!(sim.view().backlogs().filter(|&b| b > 0).count(), 1);
    assert!(sim.view().backlog(3) > 0);
    sim.sanitize_queues_mut().sanitize_duplicate_occupancy();
    let msg = step_panic_message_under(&mut sim, &mut idle).expect("sanitizer must panic");
    assert!(
        msg.contains("occupancy") && msg.contains("twice"),
        "panic should name the broken invariant: {msg}"
    );
}

#[test]
fn corrupted_total_backlog_is_caught() {
    let mut sim = Simulation::new(config(), Greedy::new());
    sim.run(&mut workload(), 5);
    sim.sanitize_queues_mut().sanitize_corrupt_total();
    let msg = step_panic_message(&mut sim).expect("sanitizer must panic");
    assert!(
        msg.contains("total backlog"),
        "panic should name the broken invariant: {msg}"
    );
}

#[test]
fn corrupted_route_backlog_is_caught() {
    let mut sim = Simulation::new(config(), Greedy::new());
    sim.run(&mut workload(), 5);
    sim.sanitize_queues_mut().sanitize_corrupt_route_backlog();
    let msg = step_panic_message(&mut sim).expect("sanitizer must panic");
    assert!(
        msg.contains("routing backlog"),
        "panic should name the broken invariant: {msg}"
    );
}

#[test]
fn corrupted_class_pad_word_is_caught() {
    // Only class 0's entry carries a routing word; delayed cuckoo
    // routing's four classes give the other entries a pad word that
    // must stay 0.
    let mut cfg = config();
    cfg.flush_interval = None;
    let policy = DelayedCuckoo::new(&cfg);
    let mut sim = Simulation::new(cfg, policy);
    sim.run(&mut workload(), 5);
    sim.sanitize_queues_mut().sanitize_corrupt_class_pad();
    let msg = step_panic_message(&mut sim).expect("sanitizer must panic");
    assert!(
        msg.contains("pad word"),
        "panic should name the broken invariant: {msg}"
    );
}

#[test]
fn ring_block_held_by_two_queues_is_caught() {
    // Capacity 8 and 48 requests a step over 16 servers: queues hold
    // two or more within a few steps, so some queue holds a ring block
    // to hand to a second one.
    let mut sim = Simulation::new(config(), Greedy::new());
    sim.run(&mut workload(), 5);
    sim.sanitize_queues_mut().sanitize_check().unwrap();
    sim.sanitize_queues_mut().sanitize_share_block();
    let msg = step_panic_message(&mut sim).expect("sanitizer must panic");
    assert!(
        msg.contains("ring block") && msg.contains("two queues"),
        "panic should name the broken invariant: {msg}"
    );
}

#[test]
fn heavy_saturating_run_passes_every_step() {
    // A scaled-down cut of the benchmark's `engine-dense` workload: one
    // request per server per step over a repeated chunk set, far above
    // the drain rate, so the queues sit at capacity with the dense
    // drain sweep active — re-deriving every invariant after each step.
    for mode in [DrainMode::EndOfStep, DrainMode::Interleaved] {
        let m = 512usize;
        let cfg = SimConfig {
            num_servers: m,
            num_chunks: 4 * m,
            replication: 2,
            process_rate: 16,
            queue_capacity: 16,
            flush_interval: None,
            drain_mode: mode,
            seed: 42,
            safety_check_every: None,
        };
        let mut sim = Simulation::new(cfg, Greedy::new());
        let mut heavy = move |_step: u64, out: &mut Vec<u32>| out.extend(0..m as u32);
        sim.run(&mut heavy, 48);
        let report = sim.finish();
        report.check_conservation().unwrap();
        assert!(report.completed > 0, "saturating run must complete work");
    }
}

#[test]
fn direct_check_reports_ok_on_fresh_state() {
    let sim = Simulation::new(config(), Greedy::new());
    // Zero steps run: every queue empty, occupancy lists empty.
    let mut sim = sim;
    sim.sanitize_queues_mut().sanitize_check().unwrap();
}
