//! Lemma 4.2: assigning up to `m` requests to `m` servers with `O(1)`
//! requests per server.
//!
//! Theorem 4.1 (cuckoo hashing with a stash) handles `m/3` items with at
//! most **one** item per position. Lemma 4.2 applies it three times:
//! split the request set into three groups of at most `⌈k/3⌉`, solve each
//! group independently, and overlay the three one-per-position
//! assignments. (Independently, not one after another: the builder peels
//! the three groups abreast, each in the order it would take alone — see
//! [`crate::offline`].) Each server then holds at most 3 placed items,
//! plus the (O(1) whp) stashed items, which are assigned arbitrarily — we
//! send a stashed item to its first hash. The **failure event** of
//! Lemma 4.2 is any group needing a stash larger than
//! `MAX_STASH_PER_GROUP`; delayed cuckoo routing rejects repeat
//! requests whose table failed.

use crate::offline::{TableBuilder, STASHED};
use crate::Choices;
use std::cell::Cell;

/// Theorem 4.1's constant `s`: a group that needs a larger stash fails
/// the table. `s = 4` gives failure probability `O(1/m^{s+1})` per
/// Kirsch et al.
const MAX_STASH_PER_GROUP: usize = 4;

/// The routing table `T_t` produced for one time step's request set.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    /// `server_of[i]` = server assigned to the `i`-th request of the
    /// input slice.
    server_of: Vec<u32>,
    /// Whether the Lemma 4.2 failure event occurred (some group's stash
    /// exceeded the bound). When `true`, the assignments are still
    /// populated (best effort) but the routing policy must treat the
    /// table as failed and reject repeats that consult it.
    failed: bool,
    /// Maximum number of requests assigned to any single server.
    max_per_server: u32,
    /// Total stashed items across the three groups.
    total_stash: usize,
}

impl RoutingTable {
    /// Builds the table for a request set. `items[i]` holds the two
    /// candidate servers of request `i`; `num_servers` is `m`.
    ///
    /// ```
    /// use rlb_cuckoo::{Choices, RoutingTable};
    /// use rlb_hash::{Pcg64, Rng};
    ///
    /// let m = 500;
    /// let mut rng = Pcg64::new(7, 0);
    /// let items: Vec<Choices> = (0..m)
    ///     .map(|_| Choices::new(rng.gen_index(m) as u32, rng.gen_index(m) as u32))
    ///     .collect();
    /// let t = RoutingTable::build(m, &items);
    /// assert!(!t.failed());
    /// assert!(t.max_per_server() <= 4); // Lemma 4.2: O(1) per server
    /// ```
    ///
    /// # Panics
    /// Panics if `num_servers == 0` or any choice is out of range.
    pub fn build(num_servers: usize, items: &[Choices]) -> Self {
        let mut server_of = Vec::new();
        let status = TableBuilder::new().build_table(num_servers, items, &mut server_of);
        let mut load = vec![0u32; num_servers];
        for &server in &server_of {
            load[server as usize] += 1;
        }
        Self {
            server_of,
            failed: status.failed,
            max_per_server: load.into_iter().max().unwrap_or(0),
            total_stash: status.total_stash,
        }
    }

    /// Server assigned to request `i`.
    #[inline]
    pub fn server_of(&self, i: usize) -> u32 {
        self.server_of[i]
    }

    /// Whether the Lemma 4.2 failure event occurred.
    #[inline]
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Maximum requests assigned to any server (the Lemma 4.2 constant;
    /// ≤ 3 + stash spill when not failed).
    #[inline]
    pub fn max_per_server(&self) -> u32 {
        self.max_per_server
    }

    /// Total stash across the three groups.
    #[inline]
    pub fn total_stash(&self) -> usize {
        self.total_stash
    }

    /// Number of requests covered.
    pub fn len(&self) -> usize {
        self.server_of.len()
    }

    /// Whether the table covers no requests.
    pub fn is_empty(&self) -> bool {
        self.server_of.is_empty()
    }
}

/// What [`TableBuilder::build_table`] reports beside the table itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// return type of `TableBuilder::build_table`. lint:allow(dead-pub)
pub struct TableStatus {
    /// Whether the Lemma 4.2 failure event occurred (some group's stash
    /// exceeded the bound). The table is still fully populated.
    pub failed: bool,
    /// Total stashed items across the three groups.
    pub total_stash: usize,
}

impl TableBuilder {
    /// Builds the Lemma 4.2 table of a request set into `server_of`
    /// (cleared and resized to `items.len()`): `server_of[i]` is the
    /// server of request `i`, exactly as [`RoutingTable::build`] assigns
    /// it. Reuses the builder's and `server_of`'s storage.
    ///
    /// # Panics
    /// Panics if `num_servers == 0` or any choice is out of range.
    pub fn build_table(
        &mut self,
        num_servers: usize,
        items: &[Choices],
        server_of: &mut Vec<u32>,
    ) -> TableStatus {
        assert!(num_servers > 0, "need at least one server");
        server_of.clear();
        server_of.resize(items.len(), 0);
        // Three groups by round-robin index: sizes differ by at most 1.
        // (Round-robin rather than contiguous split keeps the groups
        // balanced regardless of any structure in the input order.)
        // Group `g` is the strided view `items[g], items[g + 3], …`; the
        // three write interleaved slots of one output, hence the cells.
        let out = Cell::from_mut(&mut server_of[..]).as_slice_of_cells();
        let stashed = self.solve_groups(num_servers, items, out);
        for g in (0..3).filter(|&g| stashed[g] > 0) {
            // Stashed items go to their first hash (arbitrary
            // placement per the paper's remark after Thm 4.1).
            for (slot, c) in out.iter().zip(items).skip(g).step_by(3) {
                if slot.get() == STASHED {
                    slot.set(c.h1);
                }
            }
        }
        TableStatus {
            failed: stashed.iter().any(|&s| s > MAX_STASH_PER_GROUP),
            total_stash: stashed.iter().sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlb_hash::{Pcg64, Rng};

    fn random_items(m: usize, k: usize, seed: u64) -> Vec<Choices> {
        let mut rng = Pcg64::new(seed, 0);
        (0..k)
            .map(|_| {
                let a = rng.gen_index(m) as u32;
                let mut b = rng.gen_index(m) as u32;
                while b == a && m > 1 {
                    b = rng.gen_index(m) as u32;
                }
                Choices::new(a, b)
            })
            .collect()
    }

    #[test]
    fn empty_request_set() {
        let t = RoutingTable::build(8, &[]);
        assert!(t.is_empty());
        assert!(!t.failed());
        assert_eq!(t.max_per_server(), 0);
    }

    #[test]
    fn full_step_gives_constant_load() {
        // m requests to m servers: Lemma 4.2 says O(1) per server.
        for seed in 0..5 {
            let m = 2000;
            let items = random_items(m, m, seed);
            let t = RoutingTable::build(m, &items);
            assert!(!t.failed(), "seed {seed} failed, stash {}", t.total_stash());
            assert!(
                t.max_per_server() <= 3 + t.total_stash() as u32,
                "max per server {} with stash {}",
                t.max_per_server(),
                t.total_stash()
            );
            assert!(t.max_per_server() <= 4, "max = {}", t.max_per_server());
        }
    }

    #[test]
    fn assignments_respect_choices_or_stash_rule() {
        let m = 300;
        let items = random_items(m, m, 9);
        let t = RoutingTable::build(m, &items);
        for (i, c) in items.iter().enumerate() {
            let s = t.server_of(i);
            assert!(c.contains(s), "request {i} routed off its choices");
        }
    }

    #[test]
    fn loads_sum_to_request_count() {
        let m = 500;
        let items = random_items(m, m, 13);
        let t = RoutingTable::build(m, &items);
        let mut load = vec![0u32; m];
        for i in 0..items.len() {
            load[t.server_of(i) as usize] += 1;
        }
        assert_eq!(load.iter().sum::<u32>() as usize, m);
        assert_eq!(load.iter().copied().max().unwrap(), t.max_per_server());
    }

    /// What `build_table` must equal: each strided group solved on its
    /// own, stride 1, by a fresh builder. Returns the raw slots
    /// ([`STASHED`] kept) and each group's stashed count.
    fn groups_solved_alone(n: usize, items: &[Choices]) -> (Vec<u32>, [usize; 3]) {
        let mut slots = vec![0u32; items.len()];
        let mut stashed = [0usize; 3];
        for g in 0..3 {
            let group: Vec<Choices> = items.iter().skip(g).step_by(3).copied().collect();
            let mut alone = vec![0; group.len()];
            stashed[g] = TableBuilder::new().solve(n, &group, &mut alone);
            crate::offline::validate_assignment(n, &group, &alone).unwrap();
            for (j, slot) in alone.into_iter().enumerate() {
                slots[g + 3 * j] = slot;
            }
        }
        (slots, stashed)
    }

    /// One builder, reused for the whole sweep as a run reuses it.
    fn assert_lanes_match(builder: &mut TableBuilder, case: &str, n: usize, items: &[Choices]) {
        let (slots, stashed) = groups_solved_alone(n, items);

        let mut raw = vec![0u32; items.len()];
        let cells = Cell::from_mut(&mut raw[..]).as_slice_of_cells();
        assert_eq!(
            builder.solve_groups(n, items, cells),
            stashed,
            "{case}: stash sizes"
        );
        assert_eq!(raw, slots, "{case}: slots");

        let mut server_of = vec![7; 3]; // stale content must not survive
        let status = builder.build_table(n, items, &mut server_of);
        let expected: Vec<u32> = slots
            .iter()
            .zip(items)
            .map(|(&slot, c)| if slot == STASHED { c.h1 } else { slot })
            .collect();
        assert_eq!(server_of, expected, "{case}: table");
        assert_eq!(
            (status.failed, status.total_stash),
            (
                stashed.iter().any(|&s| s > MAX_STASH_PER_GROUP),
                stashed.iter().sum(),
            ),
            "{case}: status"
        );
    }

    #[test]
    fn lanes_abreast_equal_three_groups_solved_alone() {
        let m = 48usize;
        let mut builder = TableBuilder::new();
        let mut rng = Pcg64::new(0x6c616e65, 0);
        let mut failures = 0;
        for n in [1, 2, m] {
            for k in [0, 1, 2, 3, 4, 5, m / 3, m, 2 * m] {
                // Uniform pairs: at n = 1 every item is a self-loop, at
                // n = 2 the graph is self-loops and parallel edges, and
                // k = 2m at n = m leaves every lane with cycles to orient.
                for trial in 0..16 {
                    let items: Vec<Choices> = (0..k)
                        .map(|_| Choices::new(rng.gen_index(n) as u32, rng.gen_index(n) as u32))
                        .collect();
                    let case = format!("uniform n={n} k={k} trial={trial}");
                    assert_lanes_match(&mut builder, &case, n, &items);
                }
                // Every item at one position: each lane places one and
                // stashes the rest.
                let pos = rng.gen_index(n) as u32;
                let items = vec![Choices::new(pos, pos); k];
                assert_lanes_match(
                    &mut builder,
                    &format!("one position n={n} k={k}"),
                    n,
                    &items,
                );
                let status = builder.build_table(n, &items, &mut Vec::new());
                assert_eq!(status.total_stash, k.saturating_sub(3));
                assert_eq!(status.failed, k.div_ceil(3) > 5, "n={n} k={k}");
                failures += status.failed as usize;
            }
        }
        assert!(
            failures > 0,
            "the sweep must reach the Lemma 4.2 failure event"
        );
    }

    #[test]
    fn a_lane_that_runs_dry_early_does_not_disturb_the_others() {
        // Lane 0 is one long path (a peel of `len` rounds, one vertex on
        // the stack at a time), lane 1 is all self-loops (nothing to
        // peel: its stack is empty from the first round and every item is
        // a cycle), lane 2 is parallel edges (two placed, the rest
        // stashed: the table fails).
        let len = 40u32;
        let items: Vec<Choices> = (0..len)
            .flat_map(|j| {
                [
                    Choices::new(j, j + 1),
                    Choices::new(j, j),
                    Choices::new(0, 1),
                ]
            })
            .take(3 * len as usize - 1) // and lane 2 one item shorter
            .collect();
        let mut builder = TableBuilder::new();
        let n = len as usize + 1;
        assert_lanes_match(&mut builder, "dry lane", n, &items);
        let mut server_of = Vec::new();
        let status = builder.build_table(n, &items, &mut server_of);
        assert!(status.failed);
        assert_eq!(status.total_stash, len as usize - 1 - 2);
        // Lane 0's path is fully placed, lane 1's loops sit where they must.
        assert!(items.iter().zip(&server_of).all(|(c, &s)| c.contains(s)));
        assert!((0..len as usize).all(|j| server_of[3 * j + 1] == j as u32));
    }

    #[test]
    fn capacity_counts_all_three_lanes() {
        let m = 300;
        let items = random_items(m, m, 5);
        let mut one = TableBuilder::new();
        one.solve(m, &items[..m / 3], &mut vec![0; m / 3]);
        let mut three = TableBuilder::new();
        three.build_table(m, &items, &mut Vec::new());
        // Per lane: a 12-byte vertex, a flag byte and a stack word per
        // position, a flag byte per item.
        let lane = 17 * m + m / 3;
        assert!(one.capacity_bytes() >= lane);
        // The cycle scratch is shared, so the two further lanes are the
        // whole difference.
        assert!(three.capacity_bytes() >= one.capacity_bytes() + 2 * lane);
        // Constant from the second call on.
        let before = three.capacity_bytes();
        three.build_table(m, &random_items(m, m, 6), &mut Vec::new());
        assert_eq!(three.capacity_bytes(), before);
    }

    #[test]
    fn adversarial_concentration_triggers_failure() {
        // All requests share the same two servers: stash must blow up.
        let items: Vec<Choices> = (0..30).map(|_| Choices::new(0, 1)).collect();
        let t = RoutingTable::build(16, &items);
        assert!(t.failed());
        // Stash spill-over is still routed to h1 = 0.
        assert!(t.max_per_server() > 3);
    }
}
