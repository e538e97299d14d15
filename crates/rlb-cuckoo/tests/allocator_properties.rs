//! Heavy property tests for the cuckoo allocators, swept over
//! deterministic PCG-generated cases.

use rlb_cuckoo::offline::validate_assignment;
use rlb_cuckoo::{
    Choices, CuckooGraph, OfflineAssignment, RandomWalkAllocator, RoutingTable, TableBuilder,
    TripartiteAssigner,
};
use rlb_hash::{Pcg64, Rng};

const CASES: u64 = 128;

fn case_rng(property: u64, case: u64) -> Pcg64 {
    Pcg64::new(0x636b6f6f ^ (property << 32) ^ case, property)
}

/// Exact allocator: valid and stash-optimal for arbitrary multigraphs
/// including self-loops, parallel edges, and isolated vertices.
#[test]
fn exact_allocator_is_optimal() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let n = 1 + rng.gen_index(119);
        let num_edges = rng.gen_index(240);
        let items: Vec<Choices> = (0..num_edges)
            .map(|_| {
                let a = rng.next_u64() as u32;
                let b = rng.next_u64() as u32;
                Choices::new(a % n as u32, b % n as u32)
            })
            .collect();
        let a = OfflineAssignment::assign_exact(n, &items);
        assert!(validate_assignment(n, &items, &a).is_ok(), "case {case}");
        let opt = CuckooGraph::from_items(n, &items).optimal_stash_size();
        assert_eq!(a.stash().len(), opt, "case {case}");
        assert_eq!(a.placed() + a.stash().len(), items.len(), "case {case}");
    }
}

/// Random-walk allocator: always valid, never beats the optimum.
#[test]
fn random_walk_is_valid_and_dominated() {
    for case in 0..CASES {
        let mut case_r = case_rng(2, case);
        let n = 1 + case_r.gen_index(79);
        let num_edges = case_r.gen_index(120);
        let items: Vec<Choices> = (0..num_edges)
            .map(|_| {
                let a = case_r.next_u64() as u32;
                let b = case_r.next_u64() as u32;
                Choices::new(a % n as u32, b % n as u32)
            })
            .collect();
        let seed = case_r.next_u64();
        let kicks = 1 + case_r.gen_index(63);
        let mut rng = Pcg64::new(seed, 0);
        let rw = RandomWalkAllocator::new(kicks).assign(n, &items, &mut rng);
        assert!(validate_assignment(n, &items, &rw).is_ok(), "case {case}");
        let opt = CuckooGraph::from_items(n, &items).optimal_stash_size();
        assert!(rw.stash().len() >= opt, "case {case}");
    }
}

/// Tripartite tables: every request lands on one of its replicas and
/// per-server loads sum to the request count.
#[test]
fn tripartite_table_is_consistent() {
    for case in 0..CASES {
        let mut case_r = case_rng(3, case);
        let m = 3 + case_r.gen_index(97);
        let k = case_r.gen_index(100);
        let seed = case_r.next_u64();
        let mut rng = Pcg64::new(seed, 1);
        let items: Vec<Choices> = (0..k)
            .map(|_| Choices::new(rng.gen_index(m) as u32, rng.gen_index(m) as u32))
            .collect();
        let t = RoutingTable::build(m, &items, TripartiteAssigner::default());
        assert_eq!(t.len(), k, "case {case}");
        let mut load = vec![0u32; m];
        for (i, c) in items.iter().enumerate() {
            let s = t.server_of(i);
            assert!(c.contains(s), "case {case}");
            load[s as usize] += 1;
        }
        assert_eq!(load.iter().sum::<u32>() as usize, k, "case {case}");
        assert_eq!(
            load.iter().copied().max().unwrap_or(0),
            t.max_per_server(),
            "case {case}"
        );
        // Unfailed tables with default stash bound keep the Lemma 4.2
        // constant: 3 placed + spill bounded by the group stashes.
        if !t.failed() {
            assert!(
                t.max_per_server() as usize <= 3 + t.total_stash(),
                "case {case}"
            );
        }
    }
}

/// Deterministic regression: the same seed gives the same assignment.
#[test]
fn random_walk_deterministic_in_seed() {
    let m = 64;
    let mut rng_a = Pcg64::new(9, 9);
    let items: Vec<Choices> = (0..40)
        .map(|_| Choices::new(rng_a.gen_index(m) as u32, rng_a.gen_index(m) as u32))
        .collect();
    let run = || {
        let mut rng = Pcg64::new(1, 2);
        RandomWalkAllocator::new(32).assign(m, &items, &mut rng)
    };
    assert_eq!(run(), run());
}

/// Scale check: the exact allocator handles large instances quickly and
/// optimally near the 0.5 load threshold.
#[test]
fn exact_allocator_near_threshold() {
    let m = 50_000;
    let mut rng = Pcg64::new(3, 3);
    for load in [0.3f64, 0.45, 0.49] {
        let k = (m as f64 * load) as usize;
        let items: Vec<Choices> = (0..k)
            .map(|_| Choices::new(rng.gen_index(m) as u32, rng.gen_index(m) as u32))
            .collect();
        let a = OfflineAssignment::assign_exact(m, &items);
        validate_assignment(m, &items, &a).unwrap();
        let opt = CuckooGraph::from_items(m, &items).optimal_stash_size();
        assert_eq!(a.stash().len(), opt, "load {load}");
        // Below the 1/2 threshold the stash is tiny.
        assert!(
            a.stash().len() < 10,
            "load {load}: stash {}",
            a.stash().len()
        );
    }
}

/// Above the threshold the stash must blow up (sanity that the 0.5
/// orientability threshold is where theory puts it). Measured optimal
/// stash at m = 10000: ~0 at load 0.5, ~46 at 0.6, ~600 at 0.8.
#[test]
fn above_threshold_stash_is_linear() {
    let m = 10_000;
    let mut rng = Pcg64::new(4, 4);
    let k = (m as f64 * 0.8) as usize;
    let items: Vec<Choices> = (0..k)
        .map(|_| Choices::new(rng.gen_index(m) as u32, rng.gen_index(m) as u32))
        .collect();
    let a = OfflineAssignment::assign_exact(m, &items);
    assert!(
        a.stash().len() > m / 100,
        "stash {} unexpectedly small at load 0.8",
        a.stash().len()
    );
}

/// One builder driven through request sets that grow and shrink in both
/// `n` and `k` — with an empty set, an all-stashed set and the set right
/// after it — gives what a fresh builder gives: nothing survives a call.
#[test]
fn reused_builder_leaks_no_state_between_calls() {
    let mut rng = case_rng(7, 0);
    let mut random = |n: usize, k: usize| -> (usize, Vec<Choices>) {
        let items = (0..k)
            .map(|_| Choices::new(rng.gen_index(n) as u32, rng.gen_index(n) as u32))
            .collect();
        (n, items)
    };
    let concentrated = (16, vec![Choices::new(0, 1); 30]);
    let sequence = [
        random(64, 64),
        random(2_000, 2_000),
        random(7, 21),
        (8, Vec::new()),
        random(300, 100),
        concentrated.clone(),
        random(16, 16),
        random(16, 5),
        concentrated,
        random(1_000, 3_000),
        random(5, 1),
        random(1_000, 400),
    ];
    let cfg = TripartiteAssigner::default();
    let mut reused = TableBuilder::new();
    let mut reused_out = Vec::new();
    for (i, (n, items)) in sequence.iter().enumerate() {
        let status = reused.build_table(*n, items, cfg, &mut reused_out);
        let mut fresh_out = vec![7; 3]; // stale contents must not matter either
        let fresh = TableBuilder::new().build_table(*n, items, cfg, &mut fresh_out);
        assert_eq!(status, fresh, "call {i}");
        assert_eq!(reused_out, fresh_out, "call {i}");
        let cold = RoutingTable::build(*n, items, cfg);
        assert_eq!(status.failed, cold.failed(), "call {i}");
        assert_eq!(status.total_stash, cold.total_stash(), "call {i}");
        assert!((0..items.len()).all(|j| cold.server_of(j) == reused_out[j]));
        if items.len() == 30 {
            assert!(status.failed, "call {i}: 30 requests on two servers");
        }
    }
}
