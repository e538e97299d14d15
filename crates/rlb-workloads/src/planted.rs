//! White-box constructions for the Theorem 5.2 lower bound (E7).
//!
//! Theorem 5.2: with `d, g = O(1)`, the expected rejection rate is at
//! least `1/m^{O(1)}`, because with probability `≥ 1/m^{gd}` some
//! `gd + 1` chunks receive **identical replica sets** — and then those
//! `d` servers receive `gd + 1` requests per step while jointly
//! processing only `gd`.
//!
//! At practical `m` the collision event is far too rare to observe in a
//! simulation (`1/m^{gd}` with `gd ≥ 8`), so experiment E7 does two
//! things, both provided here:
//!
//! 1. [`colliding_chunks`] — *find* the collision to exhibit the
//!    forced-rejection mechanism: scan chunk ids under the run's own
//!    placement for `gd + 1` whose replica set is one given set of
//!    servers, and request them; the run must reject at least
//!    `1/(gd+1)` of the colliding requests in steady state.
//! 2. [`collision_probability_estimate`] — Monte-Carlo estimate of the
//!    probability that `gd + 1` of `m` random chunks share all replicas,
//!    confirming the `1/m^{Θ(gd)}` scaling that makes `1/poly m` the
//!    right answer (and tying the found mechanism back to the oblivious
//!    model).
//!
//! These constructions look at the placement, so they are **not**
//! oblivious adversaries; they are measurement instruments for a lower
//! bound that is existential over placements.

use rlb_hash::{placement::ReplicaPlacement, Pcg64, Rng};

/// The first `count` chunk ids, ascending, whose replica set under
/// `placement` is exactly `servers` (in any order).
///
/// One given set of `d` servers holds a chunk with probability
/// `d!·(m − d)!/m!`, so at `d = 2` the scan takes about
/// `count · m² / 2` evaluations.
///
/// # Panics
/// Panics if `servers` is not `d` distinct servers of the placement, or
/// if fewer than `count` of the 2^32 chunk ids collide there.
pub fn colliding_chunks(placement: &ReplicaPlacement, servers: &[u32], count: usize) -> Vec<u32> {
    assert_eq!(servers.len(), placement.replication(), "need d servers");
    for (i, &s) in servers.iter().enumerate() {
        assert!(
            (s as usize) < placement.num_servers(),
            "server {s} out of range"
        );
        assert!(!servers[..i].contains(&s), "duplicate server {s}");
    }
    let found: Vec<u32> = (0..=u32::MAX)
        .filter(|&c| placement.replicas(c).iter().all(|s| servers.contains(s)))
        .take(count)
        .collect();
    assert_eq!(found.len(), count, "too few chunks collide on {servers:?}");
    found
}

/// Monte-Carlo estimate of `Pr[some d-subset of servers hosts ≥ t chunks
/// with identical replica sets]` when `k` chunks are placed randomly with
/// replication `d` on `m` servers. Returns the fraction of `trials` in
/// which such a `t`-wise full collision exists.
pub fn collision_probability_estimate(
    m: usize,
    k: usize,
    d: usize,
    t: usize,
    trials: usize,
    seed: u64,
) -> f64 {
    let mut rng = Pcg64::new(seed, 0xc011);
    let mut hits = 0usize;
    #[expect(
        clippy::disallowed_types,
        reason = "keyed by sorted replica sets (entry/lookup only, never iterated), \
                  so hasher seeding cannot leak into results"
    )]
    let mut counts: std::collections::HashMap<Vec<u32>, usize> =
        std::collections::HashMap::with_capacity(k);
    for _ in 0..trials {
        counts.clear();
        let placement = ReplicaPlacement::random(k, m, d, rng.next_u64());
        let mut found = false;
        for chunk in 0..k as u32 {
            let mut key = placement.replicas(chunk).to_vec();
            key.sort_unstable();
            let c = counts.entry(key).or_insert(0);
            *c += 1;
            if *c >= t {
                found = true;
                break;
            }
        }
        if found {
            hits += 1;
        }
    }
    hits as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn found_chunks_collide_exactly_where_asked() {
        // The universe argument is ignored; the scan may reach any u32 id.
        let p = ReplicaPlacement::random(1 << 32, 16, 2, 1);
        let found = colliding_chunks(&p, &[1, 0], 5);
        assert_eq!(found.len(), 5);
        assert!(found.windows(2).all(|w| w[0] < w[1]));
        for &c in &found {
            let mut r = p.replicas(c).to_vec();
            r.sort_unstable();
            assert_eq!(r, [0, 1]);
        }
        // Every chunk the scan passed over lives elsewhere.
        let last = *found.last().unwrap();
        let passed = (0..last).filter(|c| !found.contains(c));
        assert!(passed.clone().count() > 0);
        for c in passed {
            let mut r = p.replicas(c).to_vec();
            r.sort_unstable();
            assert_ne!(r, [0, 1]);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate server")]
    fn a_repeated_server_panics() {
        let p = ReplicaPlacement::random(64, 8, 2, 0);
        let _ = colliding_chunks(&p, &[3, 3], 1);
    }

    #[test]
    fn collision_probability_decreases_with_m() {
        // t=2 (a pairwise full collision among k chunks): probability
        // ~ k^2 / (2 * C(m,d)·d!/...) — strictly decreasing in m.
        let small = collision_probability_estimate(8, 8, 2, 2, 400, 1);
        let large = collision_probability_estimate(64, 8, 2, 2, 400, 1);
        assert!(
            small > large,
            "expected decreasing: small {small}, large {large}"
        );
        assert!(small > 0.0, "at m=8 a pair collision should show up");
    }

    #[test]
    fn impossible_collision_has_zero_estimate() {
        // t larger than k can never happen.
        let p = collision_probability_estimate(8, 4, 2, 5, 100, 2);
        assert_eq!(p, 0.0);
    }
}
