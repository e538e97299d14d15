//! Multi-tenant accounting: who gets hurt when the cluster is tight?
//!
//! Two tenants share one cluster: tenant A hammers a fixed hot key set
//! (maximal reappearance pressure), tenant B issues churning uniform
//! traffic. Per-tenant accounting shows whether the load balancer
//! isolates them — under greedy `d = 2` routing, neither tenant's
//! traffic is rejected even though A's chunks are the adversarial case.
//! The counts are kept the way the daemon keeps them: each key's
//! outcome is the decision of the slot its `get_for` returned.
//!
//! ```text
//! cargo run --release --example multi_tenant
//! ```

use reappearance_lb::core::policies::Greedy;
use reappearance_lb::core::{Decision, DrainMode, SimConfig};
use reappearance_lb::hash::{Pcg64, Rng};
use reappearance_lb::kv::KvCluster;

/// Tenant ids of A (hot, repeated keys) and B (uniform churn).
const TENANTS: [u16; 2] = [1, 2];

/// One tenant's key-level counts.
#[derive(Default)]
struct Counts {
    keys: u64,
    coalesced: u64,
    accepted: u64,
    rejected: u64,
}

fn main() {
    let m = 512usize;
    let steps = 300u64;
    let config = SimConfig {
        num_servers: m,
        num_chunks: 4 * m,
        replication: 2,
        process_rate: 2,
        queue_capacity: 12,
        flush_interval: None,
        drain_mode: DrainMode::EndOfStep,
        seed: 77,
        safety_check_every: Some(4),
    };
    let mut kv = KvCluster::new(config, Greedy::new());
    let mut rng = Pcg64::new(5, 5);
    let mut counts = [Counts::default(), Counts::default()];
    let mut issued: Vec<(usize, u32)> = Vec::new();
    for _ in 0..steps {
        // Tenant A: the same 400 keys every step; tenant B: 400 fresh
        // uniform keys.
        let a = (0..400u64).map(|key| (0, key));
        let b = (0..400).map(|_| (1, 10_000 + rng.gen_range(1_000_000)));
        for (who, key) in a.chain(b) {
            let open = kv.pending_requests();
            let slot = kv.get_for(TENANTS[who], key);
            // A slot already open means the key rode another's chunk.
            counts[who].keys += 1;
            counts[who].coalesced += u64::from((slot as usize) < open);
            issued.push((who, slot));
        }
        kv.commit_step();
        for (who, slot) in issued.drain(..) {
            match kv.decision(slot) {
                Some(Decision::Route { .. }) => counts[who].accepted += 1,
                _ => counts[who].rejected += 1,
            }
        }
    }
    kv.idle(16);

    println!("== per-tenant accounting after {steps} steps ==\n");
    println!(
        "{:>8}  {:>12}  {:>10}  {:>10}  {:>10}  {:>12}",
        "tenant", "key reqs", "coalesced", "accepted", "rejected", "reject rate"
    );
    for (name, s) in ["A (hot)", "B (cold)"].into_iter().zip(&counts) {
        let issued = s.accepted + s.rejected;
        println!(
            "{:>8}  {:>12}  {:>10}  {:>10}  {:>10}  {:>12.2e}",
            name,
            s.keys,
            s.coalesced,
            s.accepted,
            s.rejected,
            if issued > 0 {
                s.rejected as f64 / issued as f64
            } else {
                0.0
            }
        );
    }
    let report = kv.finish();
    println!(
        "\ncluster-wide: rejection {:.2e}, avg latency {:.2}, max backlog {}",
        report.rejection_rate, report.avg_latency, report.max_backlog
    );
    println!(
        "\nTenant A's fixed keys are the paper's adversarial reappearance case,\n\
         yet d = 2 greedy absorbs both tenants without cross-tenant damage —\n\
         the isolation replication buys a shared store."
    );
}
