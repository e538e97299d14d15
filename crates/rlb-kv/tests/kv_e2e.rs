//! End-to-end tests of the KV façade, alone and as pooled trials.

use rlb_core::policies::{DelayedCuckoo, Greedy};
use rlb_core::SimConfig;
use rlb_kv::KvCluster;
use rlb_pool::Pool;

#[test]
fn mixed_tenants_with_pinned_keys() {
    let config = SimConfig::baseline(64).with_seed(3);
    let mut kv = KvCluster::new(config, Greedy::new());
    // Tenant A is pinned to chunk 0 (colocation); tenant B hashes freely.
    for key in 1000..1010u64 {
        kv.directory_mut().pin(key, 0).unwrap();
    }
    for step in 0..40 {
        for key in 1000..1010u64 {
            kv.get(key);
        }
        for key in 0..50u64 {
            kv.get(key * 31 + step);
        }
        kv.commit_step();
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
fn pinned_keys_coalesce_to_one_chunk_request() {
    let config = SimConfig::baseline(32).with_seed(4);
    let mut kv = KvCluster::new(config, Greedy::new());
    for key in 0..20u64 {
        kv.directory_mut().pin(key, 5).unwrap();
    }
    for key in 0..20u64 {
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

#[test]
fn unpinned_keys_return_to_hash_placement() {
    let config = SimConfig::baseline(16).with_seed(6);
    let mut kv = KvCluster::new(config, Greedy::new());
    let key = 42u64;
    let natural = kv.directory().chunk_of(key);
    let target = (natural + 1) % 16;
    kv.directory_mut().pin(key, target).unwrap();
    assert_eq!(kv.directory().chunk_of(key), target);
    assert!(kv.directory_mut().unpin(key));
    assert_eq!(kv.directory().chunk_of(key), natural);
}
