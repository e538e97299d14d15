//! A tour of the cuckoo-hashing substrate behind delayed cuckoo routing.
//!
//! Walks through the three layers §4 of the paper builds on: the exact
//! offline allocator (Theorem 4.1), the load threshold it lives under,
//! and the tripartite request assignment (Lemma 4.2).
//!
//! ```text
//! cargo run --release --example cuckoo_playground
//! ```

use reappearance_lb::cuckoo::{Choices, RoutingTable, TableBuilder};
use reappearance_lb::hash::{Pcg64, Rng};

fn random_items(m: usize, k: usize, rng: &mut Pcg64) -> Vec<Choices> {
    (0..k)
        .map(|_| Choices::new(rng.gen_index(m) as u32, rng.gen_index(m) as u32))
        .collect()
}

fn main() {
    let m = 30_000usize;
    let mut rng = Pcg64::new(2024, 7);

    println!("== 1. Theorem 4.1: m/3 items, two random choices each ==");
    let mut solver = TableBuilder::new();
    let items = random_items(m, m / 3, &mut rng);
    let stash = solver.solve(m, &items, &mut vec![0; items.len()]);
    println!(
        "placed {} of {} items with a stash of {stash} (optimal by construction)\n",
        items.len() - stash,
        items.len(),
    );

    println!("== 2. The 1/2 orientability threshold ==");
    println!("{:>6}  {:>12}  {:>10}", "load", "stash", "stash/m");
    for load in [0.30f64, 0.45, 0.50, 0.55, 0.70, 1.00] {
        let k = (m as f64 * load) as usize;
        let items = random_items(m, k, &mut rng);
        let stash = solver.solve(m, &items, &mut vec![0; k]);
        println!(
            "{load:>6.2}  {stash:>12}  {:>10.5}",
            stash as f64 / m as f64
        );
    }
    println!("below 1/2 the cuckoo graph orients almost surely; above, the excess is Θ(m)\n");

    println!("== 3. Lemma 4.2: a full step of m requests to m servers ==");
    let items = random_items(m, m, &mut rng);
    let table = RoutingTable::build(m, &items);
    let mut load = vec![0u32; m];
    for i in 0..items.len() {
        load[table.server_of(i) as usize] += 1;
    }
    let mut histogram = [0usize; 8];
    for &l in &load {
        histogram[(l as usize).min(7)] += 1;
    }
    println!(
        "failed: {}, stash spill: {}, max requests on any server: {}",
        table.failed(),
        table.total_stash(),
        table.max_per_server()
    );
    println!("server load histogram (requests -> #servers):");
    for (l, &count) in histogram.iter().enumerate() {
        if count > 0 {
            println!("  {l:>2} -> {count}");
        }
    }
    println!(
        "\nEvery server gets O(1) requests — the property delayed cuckoo routing\n\
         uses to keep its P queues at Θ(log log m) capacity."
    );
}
