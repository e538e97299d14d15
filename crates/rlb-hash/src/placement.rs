//! Replica placement: the paper's first algorithmic knob (§2).
//!
//! Each chunk is replicated on `d` servers. The paper's algorithms assume
//! each replica is assigned to a random server; we additionally guarantee
//! the `d` servers of a chunk are *distinct* (replicating a chunk twice on
//! one server is useless), matching the standard "d random distinct bins"
//! convention used in its balls-and-bins citations.
//!
//! [`ReplicaPlacement`] is a materialized table (`Vec<u32>`, flattened
//! `chunk * d + i`), used by the simulator hot loop: one cache line
//! fetch per request, no hashing at routing time.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects
)]

use crate::{Pcg64, Rng};

/// Maximum supported replication degree. The paper has `d = O(1)`;
/// 8 is far beyond any configuration exercised by the experiments.
pub const MAX_REPLICATION: usize = 8;

/// A materialized chunk→servers replica table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaPlacement {
    servers: Vec<u32>,
    num_chunks: usize,
    num_servers: usize,
    replication: usize,
}

impl ReplicaPlacement {
    /// Builds a placement of `num_chunks` chunks across `num_servers`
    /// servers with replication degree `replication`, using randomness
    /// derived from `seed`.
    ///
    /// # Panics
    /// Panics if `replication == 0`, `replication > MAX_REPLICATION`,
    /// `num_servers == 0`, or `replication > num_servers`.
    pub fn random(num_chunks: usize, num_servers: usize, replication: usize, seed: u64) -> Self {
        assert!(replication > 0, "replication must be positive");
        assert!(
            replication <= MAX_REPLICATION,
            "replication {replication} exceeds MAX_REPLICATION {MAX_REPLICATION}"
        );
        assert!(num_servers > 0, "need at least one server");
        assert!(
            replication <= num_servers,
            "cannot place {replication} distinct replicas on {num_servers} servers"
        );
        let mut rng = Pcg64::new(seed, 0x9a5e_c0de);
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "d <= MAX_REPLICATION: overflows only past any allocatable table"
        )]
        let mut servers = Vec::with_capacity(num_chunks * replication);
        let mut scratch = [0u32; MAX_REPLICATION];
        #[expect(
            clippy::indexing_slicing,
            reason = "replication <= MAX_REPLICATION, asserted above"
        )]
        for _ in 0..num_chunks {
            sample_distinct(&mut rng, num_servers, &mut scratch[..replication]);
            servers.extend_from_slice(&scratch[..replication]);
        }
        Self {
            servers,
            num_chunks,
            num_servers,
            replication,
        }
    }

    /// Builds a placement from explicit replica lists (used by tests and by
    /// the planted-collision lower-bound experiment E7).
    ///
    /// # Panics
    /// Panics if any row's length differs from `replication`, a server id
    /// is out of range, or a row contains duplicates.
    #[expect(
        clippy::indexing_slicing,
        reason = "rows is non-empty, and row[..i] below has i < row.len()"
    )]
    pub fn from_rows(rows: &[Vec<u32>], num_servers: usize) -> Self {
        assert!(!rows.is_empty(), "placement needs at least one chunk");
        let replication = rows[0].len();
        assert!(replication > 0 && replication <= MAX_REPLICATION);
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "d <= MAX_REPLICATION: overflows only past any allocatable table"
        )]
        let mut servers = Vec::with_capacity(rows.len() * replication);
        for (c, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), replication, "chunk {c} has wrong degree");
            for (i, &s) in row.iter().enumerate() {
                assert!((s as usize) < num_servers, "chunk {c} server out of range");
                assert!(
                    !row[..i].contains(&s),
                    "chunk {c} has duplicate replica server {s}"
                );
            }
            servers.extend_from_slice(row);
        }
        Self {
            servers,
            num_chunks: rows.len(),
            num_servers,
            replication,
        }
    }

    /// The replica servers of `chunk`, a slice of length `replication()`.
    #[inline]
    pub fn replicas(&self, chunk: u32) -> &[u32] {
        let base = (chunk as usize).saturating_mul(self.replication);
        self.servers
            .get(base..base.saturating_add(self.replication))
            .unwrap_or(&[])
    }

    /// Number of chunks in the table.
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.num_chunks
    }

    /// Number of servers in the cluster.
    #[inline]
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// Replication degree `d`.
    #[inline]
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Per-server count of stored replicas (storage balance diagnostic).
    pub fn server_storage_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.num_servers];
        #[expect(
            clippy::indexing_slicing,
            clippy::arithmetic_side_effects,
            reason = "both constructors keep every server id below num_servers, and a server holds \
                      at most num_chunks replicas"
        )]
        for &s in &self.servers {
            counts[s as usize] += 1;
        }
        counts
    }
}

/// Fills `out` with distinct uniform samples from `[0, n)`.
///
/// Uses rejection sampling, which is O(d) in expectation for d ≪ n and
/// avoids allocating; fine since `d ≤ MAX_REPLICATION`.
#[inline]
pub fn sample_distinct<R: Rng>(rng: &mut R, n: usize, out: &mut [u32]) {
    debug_assert!(out.len() <= n);
    for filled in 0..out.len() {
        // The slots drawn so far, then the next one (filled < out.len()).
        let (drawn, rest) = out.split_at_mut(filled);
        let candidate = loop {
            let candidate = rng.gen_index(n) as u32;
            if !drawn.contains(&candidate) {
                break candidate;
            }
        };
        if let Some(slot) = rest.first_mut() {
            *slot = candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicas_are_distinct_and_in_range() {
        let p = ReplicaPlacement::random(1000, 64, 4, 7);
        for c in 0..1000u32 {
            let r = p.replicas(c);
            assert_eq!(r.len(), 4);
            for (i, &s) in r.iter().enumerate() {
                assert!((s as usize) < 64);
                assert!(!r[..i].contains(&s));
            }
        }
    }

    #[test]
    fn placement_is_deterministic_in_seed() {
        let a = ReplicaPlacement::random(100, 32, 2, 99);
        let b = ReplicaPlacement::random(100, 32, 2, 99);
        assert_eq!(a, b);
        let c = ReplicaPlacement::random(100, 32, 2, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn storage_is_roughly_balanced() {
        let m = 128;
        let n = 128 * 100;
        let p = ReplicaPlacement::random(n, m, 2, 5);
        let counts = p.server_storage_counts();
        let expected = (n * 2 / m) as f64;
        for &c in &counts {
            assert!(
                (c as f64) > expected * 0.6 && (c as f64) < expected * 1.4,
                "count {c} vs expected {expected}"
            );
        }
        assert_eq!(counts.iter().map(|&c| c as usize).sum::<usize>(), n * 2);
    }

    #[test]
    fn from_rows_round_trips() {
        let rows = vec![vec![0u32, 1], vec![2, 3], vec![1, 0]];
        let p = ReplicaPlacement::from_rows(&rows, 4);
        assert_eq!(p.replicas(0), &[0, 1]);
        assert_eq!(p.replicas(2), &[1, 0]);
        assert_eq!(p.replication(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate replica")]
    fn from_rows_rejects_duplicates() {
        let _ = ReplicaPlacement::from_rows(&[vec![1u32, 1]], 4);
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn random_rejects_overreplication() {
        let _ = ReplicaPlacement::random(10, 2, 3, 0);
    }

    #[test]
    fn sample_distinct_full_domain() {
        let mut rng = Pcg64::new(3, 3);
        let mut out = [0u32; 5];
        sample_distinct(&mut rng, 5, &mut out);
        let mut sorted = out;
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 1, 2, 3, 4]);
    }
}
