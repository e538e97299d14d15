//! Cuckoo allocator costs: exact (peeling) vs random-walk, and the
//! Lemma 4.2 tripartite routing-table build that delayed cuckoo routing
//! performs once per simulated step — cold (`RoutingTable::build`, a
//! fresh workspace per call) beside reused (one `TableBuilder` across
//! iterations, as the policy runs it), so the allocation and zeroing
//! share of a build is a measured difference.

use rlb_bench::wallclock::Harness;
use rlb_cuckoo::{
    Choices, OfflineAssignment, RandomWalkAllocator, RoutingTable, TableBuilder, TripartiteAssigner,
};
use rlb_hash::{Pcg64, Rng};

fn random_items(m: usize, k: usize, seed: u64) -> Vec<Choices> {
    let mut rng = Pcg64::new(seed, 0xbe);
    (0..k)
        .map(|_| Choices::new(rng.gen_index(m) as u32, rng.gen_index(m) as u32))
        .collect()
}

fn bench_allocators(h: &mut Harness) {
    for m in [1024usize, 8192, 16_384] {
        let third = random_items(m, m / 3, 11);
        let elements = Some((m / 3) as u64);
        {
            let third = third.clone();
            h.bench(
                "cuckoo_allocators",
                &format!("exact_third_load/{m}"),
                elements,
                move || OfflineAssignment::assign_exact(m, &third),
            );
        }
        {
            let third = third.clone();
            let alloc = RandomWalkAllocator::new(64);
            let mut rng = Pcg64::new(5, 5);
            h.bench(
                "cuckoo_allocators",
                &format!("random_walk_third_load/{m}"),
                elements,
                move || alloc.assign(m, &third, &mut rng),
            );
        }
        let full = random_items(m, m, 13);
        {
            let full = full.clone();
            h.bench(
                "cuckoo_allocators",
                &format!("tripartite_full_step/{m}"),
                Some(m as u64),
                move || RoutingTable::build(m, &full, TripartiteAssigner::default()),
            );
        }
        let mut builder = TableBuilder::new();
        let mut server_of = Vec::new();
        h.bench(
            "cuckoo_allocators",
            &format!("tripartite_full_step_reused/{m}"),
            Some(m as u64),
            move || builder.build_table(m, &full, TripartiteAssigner::default(), &mut server_of),
        );
    }
}

fn main() {
    let mut h = Harness::new();
    bench_allocators(&mut h);
}
