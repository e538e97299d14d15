//! Behavioral invariants of every policy, end to end.

use rlb_core::policies::{
    DelayedCuckoo, Greedy, OneChoice, RoundRobin, TimeStepIsolated, UniformRandom,
};
use rlb_core::{Decision, DrainMode, Observer, Policy, SimConfig, Simulation};
use rlb_hash::ReplicaPlacement;

fn config(m: usize, d: usize, seed: u64) -> SimConfig {
    SimConfig {
        num_servers: m,
        num_chunks: 2 * m,
        replication: d,
        process_rate: 4,
        queue_capacity: 6,
        flush_interval: None,
        drain_mode: DrainMode::EndOfStep,
        seed,
        safety_check_every: Some(1),
    }
}

/// Observer asserting every routed request lands on a replica of its
/// chunk (checked against an independent copy of the placement).
struct ReplicaChecker {
    placement: ReplicaPlacement,
    routes: u64,
    rejects: u64,
}

impl Observer for ReplicaChecker {
    fn on_route(&mut self, _step: u64, chunk: u32, decision: Decision) {
        match decision {
            Decision::Route { server, .. } => {
                assert!(
                    self.placement.replicas(chunk).contains(&server),
                    "chunk {chunk} routed to non-replica {server}"
                );
                self.routes += 1;
            }
            Decision::Reject(_) => self.rejects += 1,
        }
    }
}

fn run_policy_checked<P: Policy>(cfg: SimConfig, policy: P) -> (u64, u64) {
    let placement_copy =
        ReplicaPlacement::random(cfg.num_chunks, cfg.num_servers, cfg.replication, cfg.seed);
    let m = cfg.num_servers as u32;
    let mut sim = Simulation::new(cfg, policy);
    let mut checker = ReplicaChecker {
        placement: placement_copy,
        routes: 0,
        rejects: 0,
    };
    let mut workload = move |_s: u64, out: &mut Vec<u32>| out.extend(0..m);
    sim.run_observed(&mut workload, 50, &mut checker);
    let report = sim.finish();
    report.check_conservation().unwrap();
    assert_eq!(checker.routes, report.accepted);
    assert_eq!(
        checker.rejects,
        report.rejected_total - report.rejected_flush
    );
    (checker.routes, checker.rejects)
}

#[test]
fn greedy_routes_only_to_replicas() {
    let (routes, _) = run_policy_checked(config(64, 3, 1), Greedy::new());
    assert!(routes > 0);
}

#[test]
fn dcr_routes_only_to_replicas() {
    let cfg = config(64, 2, 2);
    let policy = DelayedCuckoo::new(&cfg);
    let (routes, _) = run_policy_checked(cfg, policy);
    assert!(routes > 0);
}

#[test]
fn one_choice_routes_only_to_replicas() {
    let (routes, _) = run_policy_checked(config(64, 2, 3), OneChoice::new());
    assert!(routes > 0);
}

#[test]
fn uniform_random_routes_only_to_replicas() {
    let (routes, _) = run_policy_checked(config(64, 3, 4), UniformRandom::new(7));
    assert!(routes > 0);
}

#[test]
fn round_robin_routes_only_to_replicas() {
    let cfg = config(64, 3, 5);
    let policy = RoundRobin::new(cfg.num_chunks);
    let (routes, _) = run_policy_checked(cfg, policy);
    assert!(routes > 0);
}

#[test]
fn isolated_routes_only_to_replicas() {
    let cfg = config(64, 2, 6);
    let policy = TimeStepIsolated::new(cfg.num_servers);
    let (routes, _) = run_policy_checked(cfg, policy);
    assert!(routes > 0);
}

#[test]
fn policies_have_stable_names() {
    let cfg = config(8, 2, 7);
    assert_eq!(Greedy::new().name(), "greedy");
    assert_eq!(DelayedCuckoo::new(&cfg).name(), "delayed-cuckoo");
    assert_eq!(OneChoice::new().name(), "one-choice");
    assert_eq!(UniformRandom::new(0).name(), "uniform-random");
    assert_eq!(RoundRobin::new(8).name(), "round-robin");
    assert_eq!(TimeStepIsolated::new(8).name(), "step-isolated");
}

#[test]
fn greedy_dominates_uniform_random_under_pressure() {
    // Same placement, same workload, tight rate: load awareness must
    // not hurt (usually strictly helps).
    let m = 256;
    let run = |aware: bool| {
        let mut cfg = config(m, 2, 8);
        cfg.process_rate = 2;
        cfg.queue_capacity = 3;
        let k = m as u32;
        let mut workload = move |_s: u64, out: &mut Vec<u32>| out.extend(0..k);
        let report = if aware {
            let mut sim = Simulation::new(cfg, Greedy::new());
            sim.run(&mut workload, 80);
            sim.finish()
        } else {
            let mut sim = Simulation::new(cfg, UniformRandom::new(9));
            sim.run(&mut workload, 80);
            sim.finish()
        };
        report.rejection_rate
    };
    assert!(run(true) <= run(false));
}

#[test]
fn dcr_diagnostics_are_consistent() {
    let cfg = config(128, 2, 10);
    let policy = DelayedCuckoo::new(&cfg);
    let mut sim = Simulation::new(cfg, policy);
    let mut workload = |_s: u64, out: &mut Vec<u32>| out.extend(0..128u32);
    sim.run(&mut workload, 60);
    let diag = sim.policy().diagnostics();
    let report = sim.finish();
    assert_eq!(
        diag.q_routed + diag.p_routed,
        report.accepted + report.rejected_overflow,
        "every routed decision is a Q or P route"
    );
    // Phase length 6 at m = 128: the 10 phase-final steps of 60 build
    // no table.
    assert_eq!(diag.tables_built, 50);
    assert!(diag.phases >= 1);
}
