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
//! 1. [`planted_collision_placement`] — *plant* the collision to exhibit
//!    the forced-rejection mechanism: the resulting run must reject at
//!    least `1/(gd+1)` of the colliding requests in steady state.
//! 2. [`collision_probability_estimate`] — Monte-Carlo estimate of the
//!    probability that `gd + 1` of `m` random chunks share all replicas,
//!    confirming the `1/m^{Θ(gd)}` scaling that makes `1/poly m` the
//!    right answer (and tying the planted mechanism back to the oblivious
//!    model).
//!
//! These constructions look at the placement, so they are **not**
//! oblivious adversaries; they are measurement instruments for a lower
//! bound that is existential over placements.

use rlb_hash::{placement::ReplicaPlacement, Pcg64, Rng};

/// Builds a placement where chunks `0..=colliders` all live on the same
/// `d` servers `(0..d)`, and the remaining chunks are placed randomly.
///
/// # Panics
/// Panics if `colliders > num_chunks` or `d > num_servers`.
pub fn planted_collision_placement(
    num_chunks: usize,
    num_servers: usize,
    d: usize,
    colliders: usize,
    seed: u64,
) -> ReplicaPlacement {
    assert!(colliders <= num_chunks, "more colliders than chunks");
    assert!(d <= num_servers, "replication exceeds servers");
    let random = ReplicaPlacement::random(num_chunks, num_servers, d, seed);
    let collide_row: Vec<u32> = (0..d as u32).collect();
    let rows: Vec<Vec<u32>> = (0..num_chunks)
        .map(|c| {
            if c < colliders {
                collide_row.clone()
            } else {
                random.replicas(c as u32).to_vec()
            }
        })
        .collect();
    ReplicaPlacement::from_rows(&rows, num_servers)
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
    let mut scratch = vec![0u32; d];
    #[expect(
        clippy::disallowed_types,
        reason = "keyed by sorted replica sets (entry/lookup only, never iterated), \
                  so hasher seeding cannot leak into results"
    )]
    let mut counts: std::collections::HashMap<Vec<u32>, usize> =
        std::collections::HashMap::with_capacity(k);
    for _ in 0..trials {
        counts.clear();
        let placement_seed = rng.next_u64();
        let mut prng = Pcg64::new(placement_seed, 1);
        let mut found = false;
        for _ in 0..k {
            rlb_hash::placement::sample_distinct(&mut prng, m, &mut scratch);
            let mut key = scratch.clone();
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
    fn planted_placement_collides_exactly_where_asked() {
        let p = planted_collision_placement(100, 16, 2, 5, 1);
        for c in 0..5u32 {
            assert_eq!(p.replicas(c), &[0, 1]);
        }
        // Non-colliders keep the random placement (spot check: they are
        // not *all* on servers {0,1}).
        let off_plant = (5..100u32).any(|c| p.replicas(c) != [0, 1]);
        assert!(off_plant);
    }

    #[test]
    #[should_panic(expected = "more colliders than chunks")]
    fn too_many_colliders_panics() {
        let _ = planted_collision_placement(4, 8, 2, 5, 0);
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
