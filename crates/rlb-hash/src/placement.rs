//! Replica placement: the paper's first algorithmic knob (§2).
//!
//! Each chunk is replicated on `d` servers. The paper's algorithms assume
//! each replica is assigned to a random server; we additionally guarantee
//! the `d` servers of a chunk are *distinct* (replicating a chunk twice on
//! one server is useless), matching the standard "d random distinct bins"
//! convention used in its balls-and-bins citations.
//!
//! [`ReplicaPlacement`] is a seeded hash of the chunk id: the model needs
//! only that a chunk's servers are uniformly random and fixed, and
//! evaluating the hash again on every access gives exactly that with no
//! per-chunk state. A row comes back by value ([`Replicas`]).

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

use crate::mix::{fmix64, hash_to_range, moremur};

/// Maximum supported replication degree. The paper has `d = O(1)`;
/// 8 is far beyond any configuration exercised by the experiments.
pub const MAX_REPLICATION: usize = 8;

/// The golden-ratio multiplier that spreads consecutive chunk ids
/// before the finalizer.
const PHI: u64 = 0x9e37_79b9_7f4a_7c15;

/// Salt mixed into the seed, so the placement's key differs from other
/// streams drawn from the same seed.
const KEY_SALT: u64 = 0x9a5e_c0de;

/// The replica servers of one chunk, by value: a slice of length `d`
/// through [`std::ops::Deref`]. Two rows are equal when their slices are.
#[derive(Debug, Clone, Copy)]
pub struct Replicas {
    servers: [u32; MAX_REPLICATION],
    len: usize,
}

impl std::ops::Deref for Replicas {
    type Target = [u32];

    #[inline]
    fn deref(&self) -> &[u32] {
        self.servers.get(..self.len).unwrap_or(&[])
    }
}

impl PartialEq for Replicas {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Replicas {}

/// The chunk → servers map: `d` distinct uniform servers a chunk, a
/// function of `(seed, chunk)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaPlacement {
    key: u64,
    num_servers: u64,
    replication: usize,
}

impl ReplicaPlacement {
    /// The placement of a universe of chunks across `num_servers`
    /// servers with replication degree `replication`, keyed by `seed`.
    /// Every chunk id has a row, and none depends on the universe's size
    /// (the first argument), so nothing is allocated.
    ///
    /// # Panics
    /// Panics if `replication == 0`, `replication > MAX_REPLICATION`,
    /// `num_servers == 0`, `num_servers > 2^32`, or
    /// `replication > num_servers`.
    pub fn random(_num_chunks: usize, num_servers: usize, replication: usize, seed: u64) -> Self {
        assert!(replication > 0, "replication must be positive");
        assert!(
            replication <= MAX_REPLICATION,
            "replication {replication} exceeds MAX_REPLICATION {MAX_REPLICATION}"
        );
        assert!(num_servers > 0, "need at least one server");
        assert!(
            num_servers as u64 <= 1 << 32,
            "server ids are u32: {num_servers} servers"
        );
        assert!(
            replication <= num_servers,
            "cannot place {replication} distinct replicas on {num_servers} servers"
        );
        Self {
            key: moremur(seed ^ KEY_SALT),
            num_servers: num_servers as u64,
            replication,
        }
    }

    /// The replica servers of `chunk`, `replication()` of them.
    ///
    /// For `d ≤ 2` one `fmix64` of `chunk·φ ^ key` gives both: its low
    /// half is multiply-shifted into `[0, m)` and its high half into
    /// `[0, m − 1)`, bumped past the first, so the ordered pair is
    /// uniform over distinct pairs. A larger `d` draws probe after probe
    /// and skips repeats (rejection sampling). The loop would serve
    /// `d ≤ 2` too, but there it routed `engine-sparse` 57 % slower
    /// (ARCHITECTURE.md, "Why d ≤ 2 keeps its own draw").
    #[inline]
    pub fn replicas(&self, chunk: u32) -> Replicas {
        let m = self.num_servers;
        let mut servers = [0u32; MAX_REPLICATION];
        if self.replication <= 2 {
            let h = fmix64(u64::from(chunk).wrapping_mul(PHI) ^ self.key);
            let first = mul_shift(h as u32, m);
            let second = mul_shift((h >> 32) as u32, m.saturating_sub(1));
            servers[0] = first;
            servers[1] = second.wrapping_add(u32::from(second >= first));
        } else {
            self.draw_distinct(chunk, &mut servers);
        }
        Replicas {
            servers,
            len: self.replication,
        }
    }

    /// Fills `servers[..d]` with distinct servers, probe `i` being
    /// `hash_to_range(key, i, chunk, m)`. Kept out of line: every
    /// benchmarked configuration has `d ≤ 2`.
    #[cold]
    fn draw_distinct(&self, chunk: u32, servers: &mut [u32; MAX_REPLICATION]) {
        let mut probe = 0u64;
        for filled in 0..self.replication.min(MAX_REPLICATION) {
            let (drawn, rest) = servers.split_at_mut(filled);
            let server = loop {
                let s = hash_to_range(self.key, probe, u64::from(chunk), self.num_servers) as u32;
                probe = probe.wrapping_add(1);
                if !drawn.contains(&s) {
                    break s;
                }
            };
            if let Some(slot) = rest.first_mut() {
                *slot = server;
            }
        }
    }

    /// Number of servers in the cluster.
    #[inline]
    pub fn num_servers(&self) -> usize {
        self.num_servers as usize
    }

    /// Replication degree `d`.
    #[inline]
    pub fn replication(&self) -> usize {
        self.replication
    }
}

/// `x · m / 2^32`: a 32-bit draw scaled into `[0, m)` for `m ≤ 2^32`.
#[inline]
fn mul_shift(x: u32, m: u64) -> u32 {
    (u64::from(x).wrapping_mul(m) >> 32) as u32
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects)]
mod tests {
    use super::*;

    fn assert_row(r: &[u32], m: usize, d: usize) {
        assert_eq!(r.len(), d);
        for (i, &s) in r.iter().enumerate() {
            assert!((s as usize) < m, "server {s} out of range {m}");
            assert!(!r[..i].contains(&s), "duplicate server {s} in {r:?}");
        }
    }

    #[test]
    fn replicas_are_distinct_and_in_range() {
        for (m, d) in [(64, 4), (2, 2), (3, 3), (8, 8), (1, 1), (1000, 2)] {
            let p = ReplicaPlacement::random(1000, m, d, 7);
            for c in (0..1000u32).chain([u32::MAX]) {
                assert_row(&p.replicas(c), m, d);
            }
        }
        // At d = 1 a row is its one server, whatever else the draw made:
        // every chunk equals the first chunk found on its server.
        let p = ReplicaPlacement::random(64, 4, 1, 7);
        let first: Vec<Replicas> = (0..4)
            .map(|s| (0..64).map(|c| p.replicas(c)).find(|r| r[0] == s).unwrap())
            .collect();
        for c in 0..64 {
            let r = p.replicas(c);
            assert_eq!(r, first[r[0] as usize]);
        }
    }

    #[test]
    fn placement_is_deterministic_in_seed() {
        let a = ReplicaPlacement::random(100, 32, 2, 99);
        let b = ReplicaPlacement::random(100, 32, 2, 99);
        assert_eq!(a, b);
        let c = ReplicaPlacement::random(100, 32, 2, 100);
        assert!((0..100).any(|x| a.replicas(x) != c.replicas(x)));
    }

    /// Pearson's statistic of per-server replica counts. Each row is a
    /// uniform `d`-subset, so a count has variance `n·d(m−d)/m²` and
    /// two counts covary by `−1/(m−1)` of it: the multinomial's shape
    /// scaled, and the statistic below is asymptotically χ² with
    /// `m − 1` degrees of freedom.
    fn storage_chi2(p: &ReplicaPlacement, n: u32) -> f64 {
        let (m, d) = (p.num_servers(), p.replication());
        let mut counts = vec![0u64; m];
        for c in 0..n {
            let r = p.replicas(c);
            assert_row(&r, m, d);
            for &s in r.iter() {
                counts[s as usize] += 1;
            }
        }
        assert_eq!(counts.iter().sum::<u64>(), u64::from(n) * d as u64);
        let (n, m, d) = (f64::from(n), m as f64, d as f64);
        let mean = n * d / m;
        let scale = n * d * (m - d) / (m * (m - 1.0));
        counts
            .iter()
            .map(|&c| (c as f64 - mean).powi(2))
            .sum::<f64>()
            / scale
    }

    /// Whether a χ² statistic with `k` degrees of freedom lies within
    /// six standard deviations (plus slack for small `k`) of its mean.
    fn plausible_chi2(stat: f64, k: f64) -> bool {
        let sd = (2.0 * k).sqrt();
        stat < k + 6.0 * sd + 10.0 && (k < 100.0 || stat > k - 6.0 * sd)
    }

    #[test]
    fn per_server_counts_fit_the_multinomial() {
        for m in [2usize, 3, 1024, 1 << 20] {
            for d in [1usize, 2, 4] {
                if d > m {
                    continue;
                }
                let n = ((16 * m).clamp(1 << 14, 4 << 20) / d) as u32;
                let p = ReplicaPlacement::random(n as usize, m, d, 0x5eed ^ m as u64);
                if d == m {
                    // Every row holds every server once.
                    (0..1000).for_each(|c| assert_row(&p.replicas(c), m, d));
                    continue;
                }
                let stat = storage_chi2(&p, n);
                assert!(
                    plausible_chi2(stat, (m - 1) as f64),
                    "m = {m}, d = {d}: chi2 = {stat} on {} dof",
                    m - 1
                );
            }
        }
    }

    #[test]
    fn ordered_pairs_are_uniform_at_small_m() {
        // Greedy breaks ties toward the first replica, so which server
        // comes first must not be biased either.
        for m in [2usize, 3, 5, 16] {
            let p = ReplicaPlacement::random(1 << 16, m, 2, 0xa11 ^ m as u64);
            let mut counts = vec![0u64; m * m];
            let n = 1u32 << 16;
            for c in 0..n {
                let r = p.replicas(c);
                counts[r[0] as usize * m + r[1] as usize] += 1;
            }
            let cells = (m * (m - 1)) as f64;
            let expected = f64::from(n) / cells;
            let stat: f64 = (0..m * m)
                .filter(|&i| i / m != i % m)
                .map(|i| (counts[i] as f64 - expected).powi(2) / expected)
                .sum();
            assert!(
                plausible_chi2(stat, cells - 1.0),
                "m = {m}: chi2 = {stat} on {} dof",
                cells - 1.0
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn random_rejects_overreplication() {
        let _ = ReplicaPlacement::random(10, 2, 3, 0);
    }
}
