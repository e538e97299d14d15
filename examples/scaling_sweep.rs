//! Scaling sweep: how the guarantees hold as the cluster grows.
//!
//! Sweeps `m` over a decade for greedy and delayed cuckoo routing on the
//! adversarial repeated workload, running seeds in parallel as jobs on
//! the workspace executor (`rlb_pool::global()`), and prints
//! rejection-rate Wilson confidence intervals alongside the latency
//! profile — the table you would put in a capacity-planning doc.
//!
//! ```text
//! cargo run --release --example scaling_sweep
//! ```

use reappearance_lb::core::policies::{DelayedCuckoo, Greedy};
use reappearance_lb::core::{RunReport, SimConfig, Simulation};
use reappearance_lb::metrics::wilson95;
use reappearance_lb::pool;
use reappearance_lb::workloads::RepeatedSet;

fn run_one(policy: &str, m: usize, seed: u64, steps: u64) -> RunReport {
    let mut workload = RepeatedSet::first_k(m as u32, seed ^ 0x11);
    match policy {
        "greedy" => {
            let config = SimConfig::greedy_theorem(m, 2, 2, 2.0).with_seed(seed);
            let mut sim = Simulation::new(config, Greedy::new());
            sim.run(&mut workload, steps);
            sim.finish()
        }
        "delayed-cuckoo" => {
            let config = SimConfig::dcr_theorem(m, 16, 4).with_seed(seed);
            let policy = DelayedCuckoo::new(&config);
            let mut sim = Simulation::new(config, policy);
            sim.run(&mut workload, steps);
            sim.finish()
        }
        _ => unreachable!(),
    }
}

fn main() {
    let steps = 200u64;
    let trials = 8usize;
    println!(
        "repeated-set adversary, {steps} steps x {trials} seeds per point, {} worker threads\n",
        pool::global().jobs()
    );
    for policy in ["greedy", "delayed-cuckoo"] {
        println!("== {policy} ==");
        println!(
            "{:>6}  {:>22}  {:>8}  {:>8}  {:>12}",
            "m", "reject-rate (95% CI)", "avg-lat", "max-lat", "peak-backlog"
        );
        for m in [256usize, 512, 1024, 2048, 4096] {
            let reports = pool::global().map_indexed(trials, move |i| {
                run_one(policy, m, i as u64 * 7919 + 13, steps)
            });
            let arrived: u64 = reports.iter().map(|r| r.arrived).sum();
            let rejected: u64 = reports.iter().map(|r| r.rejected_total).sum();
            let ci = wilson95(rejected, arrived);
            let avg_lat = reports.iter().map(|r| r.avg_latency).sum::<f64>() / trials as f64;
            let max_lat = reports.iter().map(|r| r.max_latency).max().unwrap();
            let peak = reports.iter().map(|r| r.peak_backlog).max().unwrap();
            println!(
                "{:>6}  {:>9.2e} [<{:.1e}]  {:>8.3}  {:>8}  {:>12}",
                m, ci.estimate, ci.high, avg_lat, max_lat, peak
            );
        }
        println!();
    }
    println!(
        "Reading guide: rejection stays pinned at ~0 while m grows 16x; the\n\
         confidence column shows how tightly 'zero' is bounded by the sample.\n\
         Peak backlog is the within-step quantity the queue capacity bounds —\n\
         note its log log m flatness for delayed-cuckoo."
    );
}
