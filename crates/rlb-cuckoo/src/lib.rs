//! Cuckoo hashing with a stash — the substrate behind *delayed cuckoo
//! routing* (§4 of the paper).
//!
//! The paper relies on one combinatorial fact (its Theorem 4.1, due to
//! Kirsch, Mitzenmacher and Wieder): a set of `m/3` items, each hashing to
//! two random positions out of `m`, can be assigned so that every position
//! receives at most one item and at most `O(1)` items are left over in a
//! *stash* — with failure probability `1/poly m` for a constant-size stash.
//! Applying this three times (Lemma 4.2) assigns `m` requests to `m`
//! servers with `O(1)` requests per server.
//!
//! This crate implements that machinery from scratch:
//!
//! * [`offline`] — the exact offline solver (peel + unicyclic
//!   orientation), written once as the reusable [`TableBuilder`]
//!   workspace. It writes each item's position, or
//!   [`offline::STASHED`], into the caller's slot vector, and its stash
//!   is the optimum `Σ max(0, e − v)` over the components of the
//!   *cuckoo graph* (positions are vertices, items are edges; a
//!   component with `e` edges and `v` vertices hosts `min(e, v)`
//!   items).
//! * [`tripartite`] — Lemma 4.2: the three-way split that turns the
//!   one-item-per-position guarantee into an `O(1)`-requests-per-server
//!   routing table.
//!
//! The cuckoo graph itself, which counts that optimum by union-find, is
//! the solver's test oracle and is compiled for tests only. Theorem
//! 4.1's measurements, with the random-walk allocator they compare the
//! solver against, are experiment E10 in `rlb-experiments`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod graph;
pub mod offline;
pub(crate) mod tripartite;

pub use offline::TableBuilder;
pub use tripartite::{RoutingTable, TableStatus};

/// An item to be placed: two candidate positions (the item's hashes).
///
/// `h1 == h2` is permitted (a self-loop in the cuckoo graph); such an item
/// can only be placed at that one position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Choices {
    /// First candidate position.
    pub h1: u32,
    /// Second candidate position.
    pub h2: u32,
}

impl Choices {
    /// Creates a choice pair.
    #[inline]
    pub fn new(h1: u32, h2: u32) -> Self {
        Self { h1, h2 }
    }

    /// Whether `pos` is one of the two candidates.
    #[inline]
    pub fn contains(&self, pos: u32) -> bool {
        self.h1 == pos || self.h2 == pos
    }

    /// The candidate that is not `pos`.
    ///
    /// # Panics
    /// Panics (debug) if `pos` is not a candidate.
    #[inline]
    pub fn other(&self, pos: u32) -> u32 {
        debug_assert!(self.contains(pos));
        if pos == self.h1 {
            self.h2
        } else {
            self.h1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choices_contains_and_other() {
        let c = Choices::new(3, 7);
        assert!(c.contains(3));
        assert!(c.contains(7));
        assert!(!c.contains(4));
        assert_eq!(c.other(3), 7);
        assert_eq!(c.other(7), 3);
    }

    #[test]
    fn self_loop_other_is_itself() {
        let c = Choices::new(5, 5);
        assert!(c.contains(5));
        assert_eq!(c.other(5), 5);
    }
}
