//! Lemma 4.2: assigning up to `m` requests to `m` servers with `O(1)`
//! requests per server.
//!
//! Theorem 4.1 (cuckoo hashing with a stash) handles `m/3` items with at
//! most **one** item per position. Lemma 4.2 applies it three times:
//! split the request set into three groups of at most `⌈k/3⌉`, solve each
//! group independently, and overlay the three one-per-position
//! assignments. Each server then holds at most 3 placed items, plus the
//! (O(1) whp) stashed items, which are assigned arbitrarily — we send a
//! stashed item to its first hash. The **failure event** of Lemma 4.2 is
//! any group needing a stash larger than the configured bound; delayed
//! cuckoo routing rejects repeat requests whose table failed.

use crate::offline::{TableBuilder, STASHED};
use crate::Choices;

/// Configuration for the tripartite assigner.
#[derive(Debug, Clone, Copy)]
pub struct TripartiteAssigner {
    /// Maximum allowed stash size per group before the assignment is
    /// declared failed (Theorem 4.1's constant `s`).
    pub max_stash_per_group: usize,
}

impl Default for TripartiteAssigner {
    fn default() -> Self {
        // s = 4 gives failure probability O(1/m^{s+1}) per Kirsch et al.
        Self {
            max_stash_per_group: 4,
        }
    }
}

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
    /// use rlb_cuckoo::{Choices, RoutingTable, TripartiteAssigner};
    /// use rlb_hash::{Pcg64, Rng};
    ///
    /// let m = 500;
    /// let mut rng = Pcg64::new(7, 0);
    /// let items: Vec<Choices> = (0..m)
    ///     .map(|_| Choices::new(rng.gen_index(m) as u32, rng.gen_index(m) as u32))
    ///     .collect();
    /// let t = RoutingTable::build(m, &items, TripartiteAssigner::default());
    /// assert!(!t.failed());
    /// assert!(t.max_per_server() <= 4); // Lemma 4.2: O(1) per server
    /// ```
    ///
    /// # Panics
    /// Panics if `num_servers == 0` or any choice is out of range.
    pub fn build(num_servers: usize, items: &[Choices], cfg: TripartiteAssigner) -> Self {
        let mut server_of = Vec::new();
        let status = TableBuilder::new().build_table(num_servers, items, cfg, &mut server_of);
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
        cfg: TripartiteAssigner,
        server_of: &mut Vec<u32>,
    ) -> TableStatus {
        assert!(num_servers > 0, "need at least one server");
        server_of.clear();
        server_of.resize(items.len(), 0);
        let mut status = TableStatus {
            failed: false,
            total_stash: 0,
        };
        // Three groups by round-robin index: sizes differ by at most 1.
        // (Round-robin rather than contiguous split keeps the groups
        // balanced regardless of any structure in the input order.)
        // Group `g` is the strided view `items[g], items[g + 3], …`.
        for g in 0..3.min(items.len()) {
            let (group, out) = (&items[g..], &mut server_of[g..]);
            let stashed = self.solve(num_servers, group, 3, out);
            if stashed > 0 {
                // Stashed items go to their first hash (arbitrary
                // placement per the paper's remark after Thm 4.1).
                for (slot, c) in out.iter_mut().zip(group).step_by(3) {
                    if *slot == STASHED {
                        *slot = c.h1;
                    }
                }
            }
            status.failed |= stashed > cfg.max_stash_per_group;
            status.total_stash += stashed;
        }
        status
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
        let t = RoutingTable::build(8, &[], TripartiteAssigner::default());
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
            let t = RoutingTable::build(m, &items, TripartiteAssigner::default());
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
        let t = RoutingTable::build(m, &items, TripartiteAssigner::default());
        for (i, c) in items.iter().enumerate() {
            let s = t.server_of(i);
            assert!(c.contains(s), "request {i} routed off its choices");
        }
    }

    #[test]
    fn loads_sum_to_request_count() {
        let m = 500;
        let items = random_items(m, m, 13);
        let t = RoutingTable::build(m, &items, TripartiteAssigner::default());
        let mut load = vec![0u32; m];
        for i in 0..items.len() {
            load[t.server_of(i) as usize] += 1;
        }
        assert_eq!(load.iter().sum::<u32>() as usize, m);
        assert_eq!(load.iter().copied().max().unwrap(), t.max_per_server());
    }

    #[test]
    fn adversarial_concentration_triggers_failure() {
        // All requests share the same two servers: stash must blow up.
        let items: Vec<Choices> = (0..30).map(|_| Choices::new(0, 1)).collect();
        let t = RoutingTable::build(16, &items, TripartiteAssigner::default());
        assert!(t.failed());
        // Stash spill-over is still routed to h1 = 0.
        assert!(t.max_per_server() > 3);
    }

    #[test]
    fn zero_stash_bound_is_strict() {
        let items: Vec<Choices> = (0..3).map(|_| Choices::new(0, 1)).collect();
        // 3 parallel edges in one group? Round-robin puts one per group,
        // each group fits -> no failure even with stash bound 0.
        let t = RoutingTable::build(
            4,
            &items,
            TripartiteAssigner {
                max_stash_per_group: 0,
            },
        );
        assert!(!t.failed());
    }
}
