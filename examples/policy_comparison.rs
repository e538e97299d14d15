//! Side-by-side policy comparison under three workload regimes.
//!
//! Runs every routing policy on (a) the repeated-set adversary, (b) a
//! half-repeated workload, and (c) fresh random traffic, printing the
//! rejection/latency profile of each. This is the "which policy should I
//! deploy" view of the paper's results.
//!
//! ```text
//! cargo run --release --example policy_comparison
//! ```

use reappearance_lb::core::policies::{with_policy, PolicyVisitor};
use reappearance_lb::core::{DrainMode, Policy, RunReport, SimConfig, Simulation, Workload};
use reappearance_lb::workloads::{FreshRandom, PartialRepeat, RepeatedSet};

fn base_config(m: usize, seed: u64) -> SimConfig {
    SimConfig {
        num_servers: m,
        num_chunks: 4 * m,
        replication: 2,
        process_rate: 16,
        queue_capacity: 8,
        flush_interval: None,
        drain_mode: DrainMode::EndOfStep,
        seed,
        safety_check_every: Some(4),
    }
}

fn make_workload(kind: &str, m: usize, seed: u64) -> Box<dyn Workload> {
    match kind {
        "repeated" => Box::new(RepeatedSet::first_k(m as u32, seed)),
        "half-repeat" => Box::new(PartialRepeat::new(4 * m as u64, m, 0.5, seed)),
        "fresh" => Box::new(FreshRandom::new(4 * m as u64, m, seed)),
        _ => unreachable!(),
    }
}

struct Run {
    config: SimConfig,
    workload: Box<dyn Workload>,
    steps: u64,
}

impl PolicyVisitor for Run {
    type Out = RunReport;
    fn visit<P: Policy>(mut self, policy: P) -> RunReport {
        let mut sim = Simulation::new(self.config, policy);
        sim.run(self.workload.as_mut(), self.steps);
        sim.finish()
    }
}

fn run_policy(name: &str, m: usize, steps: u64, workload_kind: &str) -> RunReport {
    let config = base_config(m, 31);
    let run = Run {
        config: config.clone(),
        workload: make_workload(workload_kind, m, 17),
        steps,
    };
    // The salt makes uniform-random draw from stream 5 whatever the seed.
    with_policy(name, &config, config.seed ^ 5, run).expect("a registered policy at d = 2")
}

fn main() {
    let m = 1024usize;
    let steps = 200u64;
    let policies = [
        "greedy",
        "delayed-cuckoo",
        "round-robin",
        "uniform-random",
        "step-isolated",
        "one-choice",
    ];
    for workload in ["repeated", "half-repeat", "fresh"] {
        println!("== workload: {workload} (m = {m}, d = 2, g = 16, q = 8) ==");
        println!(
            "{:>16}  {:>12}  {:>8}  {:>8}  {:>12}",
            "policy", "reject-rate", "avg-lat", "max-lat", "max-backlog"
        );
        for name in policies {
            let r = run_policy(name, m, steps, workload);
            println!(
                "{:>16}  {:>12.2e}  {:>8.2}  {:>8}  {:>12}",
                name, r.rejection_rate, r.avg_latency, r.max_latency, r.max_backlog
            );
        }
        println!();
    }
    println!(
        "Reading guide: the repeated workload is where reappearance dependencies\n\
         bite — load-aware policies (greedy, delayed-cuckoo) stay clean, the\n\
         isolated and one-choice baselines degrade, exactly as §3-§5 predict."
    );
}
