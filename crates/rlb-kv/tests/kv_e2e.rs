//! End-to-end tests of the KV façade, alone and as pooled trials.

use rlb_core::policies::{DelayedCuckoo, Greedy};
use rlb_core::SimConfig;
use rlb_kv::{ChunkDirectory, KvCluster};
use rlb_pool::Pool;

/// The first `count` keys from `from` on that `dir` hashes to the chunk
/// of `from` itself.
fn colocated_keys(dir: ChunkDirectory, from: u64, count: usize) -> Vec<u64> {
    let chunk = dir.chunk_of(from);
    (from..)
        .filter(|&key| dir.chunk_of(key) == chunk)
        .take(count)
        .collect()
}

#[test]
fn mixed_tenants_with_colocated_keys() {
    let config = SimConfig::baseline(64).with_seed(3);
    let mut kv = KvCluster::new(config, Greedy::new());
    // Tenant A's ten keys share one chunk; tenant B hashes freely.
    let tenant_a = colocated_keys(*kv.directory(), 1000, 10);
    for step in 0..40 {
        for &key in &tenant_a {
            kv.get(key);
        }
        for key in 0..50u64 {
            kv.get(key * 31 + step);
        }
        let summary = kv.commit_step();
        assert!(
            summary.coalesced_keys >= 9,
            "step {step}: {} coalesced",
            summary.coalesced_keys
        );
    }
    kv.idle(8);
    let report = kv.finish();
    report.check_conservation().unwrap();
    assert!(
        report.rejection_rate < 0.02,
        "rate {}",
        report.rejection_rate
    );
}

#[test]
fn colocated_keys_coalesce_to_one_chunk_request() {
    let config = SimConfig::baseline(32).with_seed(4);
    let mut kv = KvCluster::new(config, Greedy::new());
    for key in colocated_keys(*kv.directory(), 0, 20) {
        kv.get(key);
    }
    assert_eq!(kv.pending_requests(), 1);
    let s = kv.commit_step();
    assert_eq!(s.chunk_requests, 1);
    assert_eq!(s.coalesced_keys, 19);
}

#[test]
fn dcr_backed_cluster_handles_hot_keys() {
    let config = SimConfig::dcr_theorem(128, 16, 4).with_seed(5);
    let policy = DelayedCuckoo::new(&config);
    let mut kv = KvCluster::new(config, policy);
    // The same 200 keys every step: chunk-level reappearance pressure.
    for _ in 0..60 {
        for key in 0..200u64 {
            kv.get(key);
        }
        kv.commit_step();
    }
    kv.idle(8);
    let report = kv.finish();
    report.check_conservation().unwrap();
    assert_eq!(report.rejected_total, 0);
    assert!(report.avg_latency < 3.0);
}

#[test]
fn pooled_trials_are_thread_count_invariant() {
    let job = |i: usize| {
        let config = SimConfig::baseline(32).with_seed(i as u64);
        let mut kv = KvCluster::new(config, Greedy::new());
        for step in 0..20u64 {
            for key in 0..40u64 {
                kv.get(key.wrapping_mul(2654435761).wrapping_add(step));
            }
            kv.commit_step();
        }
        let r = kv.finish();
        (r.arrived, r.accepted, r.completed)
    };
    // Private pools, so 4 and 16 executors exist whatever the machine.
    let [t1, t4, t16] = [1, 4, 16].map(|threads| Pool::new(threads).map_indexed(8, job));
    assert_eq!(t1, t4);
    assert_eq!(t4, t16);
}
