//! Heavy property tests for the Lemma 4.2 table builder, swept over
//! deterministic PCG-generated cases. The solver's optimality oracle is
//! a unit test in `src/offline.rs`, beside the cuckoo graph it compares
//! against.

use rlb_cuckoo::{Choices, RoutingTable, TableBuilder};
use rlb_hash::{Pcg64, Rng};

const CASES: u64 = 128;

fn case_rng(property: u64, case: u64) -> Pcg64 {
    Pcg64::new(0x636b6f6f ^ (property << 32) ^ case, property)
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
        let t = RoutingTable::build(m, &items);
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
    let mut reused = TableBuilder::new();
    let mut reused_out = Vec::new();
    for (i, (n, items)) in sequence.iter().enumerate() {
        let status = reused.build_table(*n, items, &mut reused_out);
        let mut fresh_out = vec![7; 3]; // stale contents must not matter either
        let fresh = TableBuilder::new().build_table(*n, items, &mut fresh_out);
        assert_eq!(status, fresh, "call {i}");
        assert_eq!(reused_out, fresh_out, "call {i}");
        let cold = RoutingTable::build(*n, items);
        assert_eq!(status.failed, cold.failed(), "call {i}");
        assert_eq!(status.total_stash, cold.total_stash(), "call {i}");
        assert!((0..items.len()).all(|j| cold.server_of(j) == reused_out[j]));
        if items.len() == 30 {
            assert!(status.failed, "call {i}: 30 requests on two servers");
        }
    }
}
