//! The cuckoo graph and its exact combinatorial analysis: the
//! solver's optimality oracle, compiled for tests only.
//!
//! Positions are vertices; each item is an edge between its two candidate
//! positions (a self-loop if both hashes coincide). A connected component
//! with `v` vertices and `e` edges can host at most `min(e, v)` items with
//! one item per position — and that bound is achievable: if `e ≤ v` the
//! component is a forest plus at most one cycle per tree (orientable with
//! in-degree ≤ 1), and if `e > v` one can keep a spanning unicyclic
//! subgraph (exactly `v` edges, in-degree exactly 1) and stash the excess.
//! Hence the **optimal stash size is `Σ_components max(0, e − v)`**, which
//! is what [`CuckooGraph::optimal_stash_size`] computes, by union-find and
//! independently of the solver in [`crate::offline`], whose stash the
//! tests there compare against it.

use crate::Choices;

/// Union-find over positions, tracking per-component vertex and edge counts.
#[derive(Debug, Clone)]
struct Dsu {
    parent: Vec<u32>,
    /// Component size in vertices (valid at roots).
    verts: Vec<u32>,
    /// Component edge count (valid at roots).
    edges: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            verts: vec![1; n],
            edges: vec![0; n],
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        // DSU parent entries are < n by construction.
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Adds an edge between `a` and `b`, merging components.
    fn add_edge(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            self.edges[ra as usize] += 1;
            return;
        }
        let (big, small) = if self.verts[ra as usize] >= self.verts[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.verts[big as usize] += self.verts[small as usize];
        self.edges[big as usize] += self.edges[small as usize] + 1;
    }
}

/// Per-component statistics of a cuckoo graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ComponentStats {
    /// Vertices (positions) in the component.
    vertices: u32,
    /// Edges (items) in the component.
    edges: u32,
}

impl ComponentStats {
    /// Items that must be stashed from this component.
    fn excess(&self) -> u32 {
        self.edges.saturating_sub(self.vertices)
    }
}

/// A cuckoo graph over `num_positions` positions.
#[derive(Debug, Clone)]
pub(crate) struct CuckooGraph {
    num_positions: usize,
    items: Vec<Choices>,
}

impl CuckooGraph {
    /// Creates a graph with the given number of positions and no items.
    ///
    /// # Panics
    /// Panics if `num_positions == 0`.
    pub(crate) fn new(num_positions: usize) -> Self {
        assert!(num_positions > 0, "need at least one position");
        Self {
            num_positions,
            items: Vec::new(),
        }
    }

    /// Creates a graph from a list of item choices.
    ///
    /// # Panics
    /// Panics if any choice is out of range.
    pub(crate) fn from_items(num_positions: usize, items: &[Choices]) -> Self {
        let mut g = Self::new(num_positions);
        for &c in items {
            g.add_item(c);
        }
        g
    }

    /// Adds an item (an edge).
    ///
    /// # Panics
    /// Panics if a candidate position is out of range.
    pub(crate) fn add_item(&mut self, c: Choices) {
        assert!(
            (c.h1 as usize) < self.num_positions && (c.h2 as usize) < self.num_positions,
            "choice out of range"
        );
        self.items.push(c);
    }

    /// Statistics for every component that contains at least one edge.
    pub(crate) fn component_stats(&self) -> Vec<ComponentStats> {
        let mut dsu = Dsu::new(self.num_positions);
        for c in &self.items {
            dsu.add_edge(c.h1, c.h2);
        }
        let mut out = Vec::new();
        for v in 0..self.num_positions as u32 {
            if dsu.parent[v as usize] == v && dsu.edges[v as usize] > 0 {
                out.push(ComponentStats {
                    vertices: dsu.verts[v as usize],
                    edges: dsu.edges[v as usize],
                });
            }
        }
        out
    }

    /// The minimum possible stash size for a one-item-per-position
    /// assignment: `Σ max(0, e − v)` over components.
    pub(crate) fn optimal_stash_size(&self) -> usize {
        self.component_stats()
            .iter()
            .map(|s| s.excess() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(n: usize, edges: &[(u32, u32)]) -> CuckooGraph {
        CuckooGraph::from_items(
            n,
            &edges
                .iter()
                .map(|&(a, b)| Choices::new(a, b))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn empty_graph_is_placeable() {
        let graph = CuckooGraph::new(5);
        assert_eq!(graph.optimal_stash_size(), 0);
        assert!(graph.component_stats().is_empty());
    }

    #[test]
    fn tree_component_is_placeable() {
        // Path 0-1-2-3: 4 vertices, 3 edges.
        let graph = g(4, &[(0, 1), (1, 2), (2, 3)]);
        let stats = graph.component_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(
            stats[0],
            ComponentStats {
                vertices: 4,
                edges: 3
            }
        );
        assert_eq!(graph.optimal_stash_size(), 0);
    }

    #[test]
    fn single_cycle_is_placeable() {
        // Triangle: 3 vertices, 3 edges -> exactly placeable.
        let graph = g(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(graph.optimal_stash_size(), 0);
    }

    #[test]
    fn theta_graph_needs_one_stash() {
        // Two vertices joined by 3 parallel edges: v=2, e=3 -> stash 1.
        let graph = g(2, &[(0, 1), (0, 1), (0, 1)]);
        assert_eq!(graph.optimal_stash_size(), 1);
    }

    #[test]
    fn self_loop_counts_as_cycle() {
        // Self-loop on 0 plus edge (0,1): v=2, e=2 -> placeable.
        let graph = g(2, &[(0, 0), (0, 1)]);
        assert_eq!(graph.optimal_stash_size(), 0);
        // Two self-loops on same vertex: v=1, e=2 -> stash 1.
        let graph = g(2, &[(0, 0), (0, 0)]);
        assert_eq!(graph.optimal_stash_size(), 1);
    }

    #[test]
    fn independent_components_add_up() {
        // Component A: triple edge (stash 1). Component B: path (stash 0).
        // Component C: two vertices with 4 edges (stash 2).
        let graph = g(
            7,
            &[
                (0, 1),
                (0, 1),
                (0, 1),
                (2, 3),
                (3, 4),
                (5, 6),
                (5, 6),
                (5, 6),
                (5, 6),
            ],
        );
        assert_eq!(graph.optimal_stash_size(), 3);
        let mut stats = graph.component_stats();
        stats.sort_by_key(|s| s.edges);
        assert_eq!(stats.len(), 3);
    }

    #[test]
    fn sparse_random_graph_is_usually_placeable() {
        // m/3 items into m positions is well below the 1/2 threshold;
        // the optimal stash should be 0 almost always.
        use rlb_hash::{Pcg64, Rng};
        let m = 3000;
        let mut rng = Pcg64::new(42, 0);
        let items: Vec<Choices> = (0..m / 3)
            .map(|_| Choices::new(rng.gen_index(m) as u32, rng.gen_index(m) as u32))
            .collect();
        let graph = CuckooGraph::from_items(m, &items);
        assert_eq!(graph.optimal_stash_size(), 0);
    }

    #[test]
    fn overfull_graph_needs_large_stash() {
        // 2m items into m positions: at least m must be stashed.
        use rlb_hash::{Pcg64, Rng};
        let m = 100;
        let mut rng = Pcg64::new(1, 0);
        let items: Vec<Choices> = (0..2 * m)
            .map(|_| Choices::new(rng.gen_index(m) as u32, rng.gen_index(m) as u32))
            .collect();
        let graph = CuckooGraph::from_items(m, &items);
        assert!(graph.optimal_stash_size() >= m);
    }

    #[test]
    #[should_panic(expected = "choice out of range")]
    fn out_of_range_choice_panics() {
        let mut graph = CuckooGraph::new(2);
        graph.add_item(Choices::new(0, 2));
    }
}
