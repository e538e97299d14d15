//! The exact offline cuckoo solver.
//!
//! [`TableBuilder::solve`] places a batch of two-choice items into
//! positions with **provably minimal stash** (`Σ max(0, e − v)` over the
//! components of the cuckoo graph, whose vertices are the positions and
//! whose edges are the items), using linear-time peeling plus unicyclic
//! orientation, and writes each item's position, or [`STASHED`], into
//! the caller's slot vector. This is the solver the delayed cuckoo
//! routing policy runs to build each step's routing table `T_t`
//! (Lemma 4.2, through [`TableBuilder::build_table`]): the paper only
//! needs *existence* of a good assignment (Theorem 4.1) and permits the
//! algorithm to compute it offline, after the step's request set is
//! known. [`TableBuilder`] is a workspace reused across calls.
//!
//! A peel is a pointer chase — pop a vertex, read its one edge, go to
//! the edge's other end — so its cost is load latency, not arithmetic.
//! Two things keep that cost down. Each vertex carries the XOR of its
//! alive edges' ids *and* of their far endpoints, so a step is two
//! dependent loads (`verts[v]`, `verts[far]`) and never reads the item
//! array. And the workspace holds three independent lanes, one per
//! Lemma 4.2 group, which `build_table` peels abreast: one pop per lane
//! per round, with a branch-free push so that no lane's mispredict
//! flushes the loads the other two have in flight. The lanes never
//! reorder anything *within* a lane, so each group's assignment is what
//! solving it alone gives.
//!
//! [`validate_assignment`] checks a slot vector against its items.

use crate::Choices;
use std::cell::Cell;

/// Slot value of a stashed item in a [`TableBuilder`] output.
pub const STASHED: u32 = u32::MAX;

/// Vertex flags.
const OCCUPIED: u8 = 1;
const MARKED: u8 = 2;
/// Edge flags.
const ALIVE: u8 = 1;
const SEEN: u8 = 2;

/// One position of the cuckoo graph during a solve.
///
/// The two XOR words make peeling free of adjacency lists *and* of the
/// item array: at degree 1 they are the one remaining edge and its
/// other end, so a peel step is two dependent loads (`verts[v]`, then
/// `verts[far]`), not three through `items[e]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Vertex {
    /// Remaining degree (self-loops count 2).
    deg: u32,
    /// XOR of the ids of the alive incident edges (a self-loop cancels
    /// itself).
    edges: u32,
    /// XOR of the far endpoints of the alive incident edges (a
    /// self-loop's two ends are the vertex itself and cancel too).
    far: u32,
}

/// The graph of one solve: Theorem 4.1's instance, or one of Lemma 4.2's
/// three groups.
#[derive(Debug, Clone, Default)]
struct Lane {
    verts: Vec<Vertex>,
    /// `OCCUPIED | MARKED` per vertex.
    vflag: Vec<u8>,
    /// `ALIVE | SEEN` per edge.
    eflag: Vec<u8>,
    /// Storage of the peel stack of unoccupied degree-1 vertices. A
    /// vertex's degree reaches 1 at most once, so the stack never holds
    /// more than `n` entries; the slot above the top is always written
    /// (see [`Run::unlink`]), hence `n + 1` slots.
    stack: Vec<u32>,
}

/// Used only when edges survive a lane's first peel (its graph has a
/// cycle): CSR adjacency of the survivors — the edge ids at `v` are
/// `adj[off[v]..off[v + 1]]`, ascending, a self-loop listed twice — the
/// DFS stack and the current component's non-tree edges. Cycles are
/// oriented one lane at a time, so the lanes share one.
#[derive(Debug, Clone, Default)]
struct CycleScratch {
    off: Vec<u32>,
    adj: Vec<u32>,
    dfs: Vec<u32>,
    nontree: Vec<u32>,
}

impl CycleScratch {
    /// Sizes the buffers for lanes of at most `k` items over `n`
    /// positions, up front, so that the first cycle of a long run does
    /// not allocate.
    fn reserve(&mut self, n: usize, k: usize) {
        for (buf, len) in [
            (&mut self.off, n + 1),
            (&mut self.adj, 2 * k),
            (&mut self.dfs, n),
            (&mut self.nontree, k),
        ] {
            buf.clear();
            buf.reserve(len);
        }
    }
}

/// The peeling + unicyclic-orientation solver, as a reusable workspace.
///
/// Every exact assignment in the workspace runs here:
/// [`crate::RoutingTable::build`] creates a builder for one call;
/// delayed cuckoo routing keeps one for a whole run and calls
/// [`TableBuilder::build_table`] after every step.
///
/// The workspace holds one [`Lane`] per Lemma 4.2 group, which
/// `build_table` peels **abreast** (see the module docs): one pop per
/// lane per round, each lane on its own LIFO stack in its own order.
/// Which table comes out depends on the pop order *within* a lane and on
/// nothing else, so every group's assignment is exactly what solving it
/// alone gives (pinned by `tests/table_golden.rs` and the lane sweep in
/// `tripartite.rs`). A single solve is the same loop over one lane.
///
/// All buffers are sized by `(positions, items)` alone and are cleared
/// and resized in place, so a run at a fixed request-set size allocates
/// during its first call only.
#[derive(Debug, Clone, Default)]
pub struct TableBuilder {
    lanes: [Lane; 3],
    cycles: CycleScratch,
}

impl TableBuilder {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of heap the workspace holds, all three lanes counted.
    /// Constant from the second call on while `(positions, items)` stay
    /// the same.
    pub fn capacity_bytes(&self) -> usize {
        let c = &self.cycles;
        let words: usize = [&c.off, &c.adj, &c.dfs, &c.nontree]
            .into_iter()
            .chain(self.lanes.iter().map(|lane| &lane.stack))
            .map(Vec::capacity)
            .sum();
        let graphs: usize = self
            .lanes
            .iter()
            .map(|lane| {
                std::mem::size_of::<Vertex>() * lane.verts.capacity()
                    + lane.vflag.capacity()
                    + lane.eflag.capacity()
            })
            .sum();
        graphs + std::mem::size_of::<u32>() * words
    }

    /// Minimal-stash assignment of `items` into `n` positions, in
    /// `O(items + n)` time. Item `j`'s position (or [`STASHED`]) is
    /// written to `out[j]`; the return value is the number of stashed
    /// items.
    ///
    /// ```
    /// use rlb_cuckoo::offline::STASHED;
    /// use rlb_cuckoo::{Choices, TableBuilder};
    ///
    /// // A 4-cycle: fully placeable, one item per position.
    /// let items = [(0, 1), (1, 2), (2, 3), (3, 0)]
    ///     .map(|(a, b)| Choices::new(a, b));
    /// let mut slots = [0; 4];
    /// assert_eq!(TableBuilder::new().solve(4, &items, &mut slots), 0);
    /// assert!(!slots.contains(&STASHED));
    /// ```
    ///
    /// # Panics
    /// Panics if any choice is out of range or `out` is not as long as
    /// `items`.
    pub fn solve(&mut self, n: usize, items: &[Choices], out: &mut [u32]) -> usize {
        assert_eq!(out.len(), items.len(), "one slot per item");
        let out = Cell::from_mut(out).as_slice_of_cells();
        let [lane, ..] = &mut self.lanes;
        let [stashed] = finish([lane.prepare(n, items, 1, out)], &mut self.cycles);
        stashed
    }

    /// Three minimal-stash assignments into `n` positions each, one per
    /// strided group `items[g]`, `items[g + 3]`, … (`g` = 0, 1, 2),
    /// solved abreast. Item `i`'s position (or [`STASHED`]) is written
    /// to `out[i]`; the return value is each group's stashed count.
    ///
    /// # Panics
    /// Panics if any choice is out of range.
    pub(crate) fn solve_groups(
        &mut self,
        n: usize,
        items: &[Choices],
        out: &[Cell<u32>],
    ) -> [usize; 3] {
        let mut g = 0;
        let runs = self.lanes.each_mut().map(|lane| {
            // A request set of fewer than three items leaves lanes empty.
            let from = g.min(items.len());
            g += 1;
            lane.prepare(n, &items[from..], 3, &out[from..])
        });
        finish(runs, &mut self.cycles)
    }
}

/// Peels `runs` abreast, then orients what cycles each has left, one
/// run after another; returns each run's stashed count.
fn finish<const N: usize>(mut runs: [Run<'_>; N], cycles: &mut CycleScratch) -> [usize; N] {
    // The first lane is never the shorter one.
    if let Some(first) = runs.first() {
        cycles.reserve(first.verts.len(), first.eflag.len());
    }
    // One pop per lane per round. Nothing a lane does depends on
    // another's state, so the loads of up to `N` pointer chases are in
    // flight together; a lane that has emptied its stack just stops
    // contributing.
    loop {
        let mut popped = false;
        for run in &mut runs {
            popped |= run.peel_step();
        }
        if !popped {
            break;
        }
    }
    runs.map(|mut run| {
        if run.alive > 0 {
            run.orient_cycles(cycles);
        }
        debug_assert!(
            run.verts.iter().all(|v| *v == Vertex::default()),
            "every edge is placed or stashed, so no vertex may keep a degree or an XOR residue"
        );
        run.stashed
    })
}

impl Lane {
    /// Builds the cuckoo graph of the items `items[0]`, `items[stride]`,
    /// `items[2 * stride]`, … over `n` positions and the initial peel
    /// stack. Item `j`'s result goes to `out[j * stride]`.
    ///
    /// # Panics
    /// Panics if any choice is out of range.
    fn prepare<'a>(
        &'a mut self,
        n: usize,
        items: &'a [Choices],
        stride: usize,
        out: &'a [Cell<u32>],
    ) -> Run<'a> {
        let k = items.len().div_ceil(stride);
        assert!(k <= (u32::MAX / 2) as usize, "too many items");

        self.verts.clear();
        self.verts.resize(n, Vertex::default());
        let verts = &mut self.verts[..];
        for (e, c) in items.iter().step_by(stride).enumerate() {
            assert!(
                (c.h1 as usize) < n && (c.h2 as usize) < n,
                "choice out of range"
            );
            for (v, far) in [(c.h1, c.h2), (c.h2, c.h1)] {
                let vert = &mut verts[v as usize];
                vert.deg += 1;
                vert.edges ^= e as u32;
                vert.far ^= far;
            }
        }
        // The initial peel stack, in ascending vertex order (branch-free:
        // the slot is always written, the length moves only at degree 1).
        self.stack.clear();
        self.stack.resize(n + 1, 0);
        let mut top = 0usize;
        for (v, vert) in verts.iter().enumerate() {
            self.stack[top] = v as u32;
            top += (vert.deg == 1) as usize;
        }

        self.vflag.clear();
        self.vflag.resize(n, 0);
        self.eflag.clear();
        self.eflag.resize(k, ALIVE);
        Run {
            items,
            stride,
            out,
            verts,
            vflag: &mut self.vflag,
            eflag: &mut self.eflag,
            stack: &mut self.stack,
            top,
            alive: k,
            stashed: 0,
        }
    }
}

/// One solve over a prepared [`Lane`].
struct Run<'a> {
    items: &'a [Choices],
    stride: usize,
    /// Shared with the other lanes of a `build_table`, which write
    /// disjoint (interleaved) slots of it.
    out: &'a [Cell<u32>],
    verts: &'a mut [Vertex],
    vflag: &'a mut [u8],
    eflag: &'a mut [u8],
    /// The peel stack is `stack[..top]`.
    stack: &'a mut [u32],
    top: usize,
    /// Edges neither placed nor stashed yet.
    alive: usize,
    stashed: usize,
}

impl Run<'_> {
    #[inline]
    fn choices(&self, e: u32) -> Choices {
        self.items[e as usize * self.stride]
    }

    #[inline]
    fn is_alive(&self, e: u32) -> bool {
        self.eflag[e as usize] & ALIVE != 0
    }

    #[inline]
    fn is_occupied(&self, v: u32) -> bool {
        self.vflag[v as usize] & OCCUPIED != 0
    }

    /// Writes alive edge `e`'s result and takes it out of the alive set;
    /// the caller unlinks it from its endpoints.
    #[inline]
    fn retire(&mut self, e: u32, slot: u32) {
        debug_assert!(self.is_alive(e));
        self.out[e as usize * self.stride].set(slot);
        self.eflag[e as usize] &= !ALIVE;
        self.alive -= 1;
    }

    /// Records alive edge `e` as assigned to the unoccupied position `v`.
    #[inline]
    fn settle(&mut self, e: u32, v: u32) {
        debug_assert!(!self.is_occupied(v));
        self.retire(e, v);
        self.vflag[v as usize] |= OCCUPIED;
    }

    /// Removes edge `e`, whose other end is `far`, from vertex `v`, and
    /// puts `v` on the peel stack if that leaves it unoccupied with one
    /// edge. The push is branch-free — the slot above the top is always
    /// written, the top moves by the condition — because the condition
    /// is a coin flip the predictor loses, and a flush throws away the
    /// loads the other lanes have in flight.
    #[inline]
    fn unlink(&mut self, v: u32, e: u32, far: u32) {
        let vert = &mut self.verts[v as usize];
        vert.deg -= 1;
        vert.edges ^= e;
        vert.far ^= far;
        let push = (vert.deg == 1) & (self.vflag[v as usize] & OCCUPIED == 0);
        self.stack[self.top] = v;
        self.top += push as usize;
    }

    /// Removes alive edge `e` from both its endpoints, `h1` first.
    fn unlink_both(&mut self, e: u32) {
        let c = self.choices(e);
        self.unlink(c.h1, e, c.h2);
        self.unlink(c.h2, e, c.h1);
    }

    /// Assigns alive edge `e` to position `v`, of any degree, and
    /// removes it.
    fn place(&mut self, e: u32, v: u32) {
        self.settle(e, v);
        self.unlink_both(e);
    }

    /// Stashes alive edge `e` and removes it.
    fn stash(&mut self, e: u32) {
        self.retire(e, STASHED);
        self.stashed += 1;
        self.unlink_both(e);
    }

    /// Pops one vertex off the peel stack; if it is still unoccupied
    /// with one edge, it takes that edge (read, with its other end, off
    /// the vertex itself). Returns whether there was a vertex to pop.
    #[inline(always)]
    fn peel_step(&mut self) -> bool {
        if self.top == 0 {
            return false;
        }
        self.top -= 1;
        let v = self.stack[self.top];
        let vert = self.verts[v as usize];
        if vert.deg == 1 && !self.is_occupied(v) {
            let (e, far) = (vert.edges, vert.far);
            debug_assert_eq!(self.choices(e).other(v), far);
            self.settle(e, v);
            self.verts[v as usize] = Vertex::default();
            self.unlink(far, e, v);
        }
        true
    }

    /// Drains the peel stack.
    fn peel(&mut self) {
        while self.peel_step() {}
    }

    /// Handles what the first peel left: components of minimum degree 2.
    /// Each keeps one cycle (one non-tree edge of a DFS) and stashes its
    /// other non-tree edges; the cycle is then oriented by placing one of
    /// its edges and peeling around.
    fn orient_cycles(&mut self, scratch: &mut CycleScratch) {
        let (n, k) = (self.verts.len(), self.eflag.len());
        let CycleScratch {
            off,
            adj,
            dfs,
            nontree,
        } = scratch;
        // Adjacency of the surviving edges. Filling backwards turns every
        // list end into its list start and leaves each list ascending.
        let mut end = 0u32;
        off.clear();
        off.extend(self.verts.iter().map(|vert| {
            end += vert.deg;
            end
        }));
        off.push(end);
        adj.clear();
        adj.resize(end as usize, 0);
        for e in (0..k as u32).rev().filter(|&e| self.is_alive(e)) {
            let c = self.choices(e);
            for v in [c.h2, c.h1] {
                off[v as usize] -= 1;
                adj[off[v as usize] as usize] = e;
            }
        }

        for root in 0..n as u32 {
            if self.alive == 0 {
                return;
            }
            if self.verts[root as usize].deg < 2 || self.vflag[root as usize] & MARKED != 0 {
                continue;
            }
            // Discover the component: vertices + alive edges, classifying
            // tree vs non-tree edges via DFS.
            nontree.clear();
            dfs.clear();
            dfs.push(root);
            self.vflag[root as usize] |= MARKED;
            while let Some(v) = dfs.pop() {
                let (start, end) = (off[v as usize], off[v as usize + 1]);
                for &e in &adj[start as usize..end as usize] {
                    if self.eflag[e as usize] != ALIVE {
                        continue; // dead, or already classified
                    }
                    self.eflag[e as usize] |= SEEN;
                    let c = self.choices(e);
                    let other = if c.h1 == v { c.h2 } else { c.h1 };
                    if self.vflag[other as usize] & MARKED != 0 {
                        nontree.push(e);
                    } else {
                        self.vflag[other as usize] |= MARKED;
                        dfs.push(other);
                    }
                }
            }
            // Keep one non-tree edge (closing the unicyclic subgraph);
            // stash the rest. A component reached here always has at
            // least one non-tree edge (min degree >= 2 implies e >= v).
            for &e in nontree.iter().skip(1) {
                self.stash(e);
            }
            // Prune tree branches hanging off the cycle.
            self.peel();
            // Break the unique remaining cycle: assign any alive edge to
            // one unoccupied endpoint and let peeling propagate around.
            if let Some(&e0) = nontree.first() {
                if self.is_alive(e0) {
                    let c = self.choices(e0);
                    let target = if !self.is_occupied(c.h2) { c.h2 } else { c.h1 };
                    if !self.is_occupied(target) {
                        self.place(e0, target);
                        self.peel();
                    }
                }
            }
        }

        // Defensive fallback: anything still alive goes to an unoccupied
        // endpoint if possible, else the stash. With the processing above
        // this loop places or stashes nothing extra beyond the optimum
        // (asserted by property tests).
        for e in 0..k as u32 {
            if !self.is_alive(e) {
                continue;
            }
            let c = self.choices(e);
            if !self.is_occupied(c.h1) {
                self.place(e, c.h1);
            } else if !self.is_occupied(c.h2) {
                self.place(e, c.h2);
            } else {
                self.stash(e);
            }
        }
    }
}

/// Checks a [`TableBuilder::solve`] output against its inputs: one
/// slot per item, every placed item at one of its candidates, and no
/// position holding two items. Used by tests and by the experiment
/// harness as a runtime self-check.
pub fn validate_assignment(
    num_positions: usize,
    items: &[Choices],
    slots: &[u32],
) -> Result<(), String> {
    if slots.len() != items.len() {
        return Err(format!(
            "length mismatch: {} vs {}",
            slots.len(),
            items.len()
        ));
    }
    let mut used = vec![false; num_positions];
    for (i, (c, &p)) in items.iter().zip(slots).enumerate() {
        if p == STASHED {
            continue;
        }
        if !c.contains(p) {
            return Err(format!("item {i} placed at non-candidate {p}"));
        }
        if std::mem::replace(&mut used[p as usize], true) {
            return Err(format!("position {p} holds two items"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CuckooGraph;
    use rlb_hash::{Pcg64, Rng};

    fn choices(edges: &[(u32, u32)]) -> Vec<Choices> {
        edges.iter().map(|&(a, b)| Choices::new(a, b)).collect()
    }

    fn random_items(n: usize, k: usize, rng: &mut Pcg64) -> Vec<Choices> {
        (0..k)
            .map(|_| Choices::new(rng.gen_index(n) as u32, rng.gen_index(n) as u32))
            .collect()
    }

    /// Solves `items` on a fresh builder, checks the slots against the
    /// items and the returned count against the slots, and returns the
    /// stashed count.
    fn stash_of(n: usize, items: &[Choices]) -> Result<usize, String> {
        let mut slots = vec![0; items.len()];
        let stashed = TableBuilder::new().solve(n, items, &mut slots);
        validate_assignment(n, items, &slots)?;
        let in_slots = slots.iter().filter(|&&s| s == STASHED).count();
        if in_slots != stashed {
            return Err(format!("returned stash {stashed}, slots hold {in_slots}"));
        }
        Ok(stashed)
    }

    #[test]
    fn empty_input() {
        assert_eq!(stash_of(4, &[]), Ok(0));
    }

    #[test]
    fn single_item_is_placed() {
        assert_eq!(stash_of(2, &choices(&[(0, 1)])), Ok(0));
    }

    #[test]
    fn path_places_all() {
        assert_eq!(stash_of(4, &choices(&[(0, 1), (1, 2), (2, 3)])), Ok(0));
    }

    #[test]
    fn full_cycle_places_all() {
        let items = choices(&[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(stash_of(4, &items), Ok(0));
    }

    #[test]
    fn triple_edge_stashes_exactly_one() {
        assert_eq!(stash_of(2, &choices(&[(0, 1), (0, 1), (0, 1)])), Ok(1));
    }

    #[test]
    fn self_loop_cases() {
        // Lone self-loop: placeable.
        assert_eq!(stash_of(1, &choices(&[(0, 0)])), Ok(0));
        // Two self-loops on one vertex: one stashed.
        assert_eq!(stash_of(1, &choices(&[(0, 0), (0, 0)])), Ok(1));
        // Self-loop + incident edge: both placeable.
        assert_eq!(stash_of(2, &choices(&[(0, 0), (0, 1)])), Ok(0));
    }

    #[test]
    fn clique_with_excess() {
        // K4 has 4 vertices, 6 edges: exactly 2 must be stashed.
        let items = choices(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(stash_of(4, &items), Ok(2));
    }

    /// The solver is valid and stash-optimal — its stash equals the
    /// cuckoo graph's `Σ max(0, e − v)` — on arbitrary multigraphs:
    /// self-loops, parallel edges, isolated positions. Three case
    /// families, each the generator of an earlier test, unchanged.
    #[test]
    fn exact_solver_is_valid_and_optimal() {
        let mut cases = Vec::new();
        // A: 200 trials, 2..42 positions, up to 59 items.
        let mut rng = Pcg64::new(7, 0);
        for trial in 0..200 {
            let n = 2 + rng.gen_index(40);
            let k = rng.gen_index(60);
            cases.push((format!("A{trial}"), n, random_items(n, k, &mut rng)));
        }
        // B: 128 cases, 1..120 positions, up to 239 items, ends reduced
        // from full 32-bit draws.
        for case in 0..128 {
            let mut rng = Pcg64::new(0x636b6f6f ^ (1 << 32) ^ case, 1);
            let n = 1 + rng.gen_index(119);
            let k = rng.gen_index(240);
            let items = (0..k)
                .map(|_| {
                    let a = rng.next_u64() as u32;
                    let b = rng.next_u64() as u32;
                    Choices::new(a % n as u32, b % n as u32)
                })
                .collect();
            cases.push((format!("B{case}"), n, items));
        }
        // C: 64 cases, 1..40 positions, up to 79 items, ends reduced
        // from draws below 40.
        for case in 0..64 {
            let mut rng = Pcg64::new(0x70726f70 ^ (1 << 32) ^ case, 1);
            let n = 1 + rng.gen_index(39);
            let k = rng.gen_index(80);
            let items = (0..k)
                .map(|_| {
                    let a = rng.gen_range(40) as u32 % n as u32;
                    let b = rng.gen_range(40) as u32 % n as u32;
                    Choices::new(a, b)
                })
                .collect();
            cases.push((format!("C{case}"), n, items));
        }
        for (case, n, items) in cases {
            let stashed = stash_of(n, &items).unwrap_or_else(|e| panic!("{case}: {e}"));
            let optimal = CuckooGraph::from_items(n, &items).optimal_stash_size();
            assert_eq!(
                stashed, optimal,
                "{case}: solver stash {stashed} != optimal {optimal} (n={n}, items={items:?})"
            );
        }
    }

    #[test]
    fn exact_solver_at_paper_load_has_empty_stash() {
        // m/3 items into m positions (Theorem 4.1's regime): stash should
        // be empty at practical sizes for almost every seed.
        let m = 9000;
        let items = random_items(m, m / 3, &mut Pcg64::new(11, 0));
        let stashed = stash_of(m, &items).unwrap();
        assert!(stashed <= 1, "stash = {stashed}");
    }

    /// Scale check: the solver handles large instances quickly and
    /// optimally near the 0.5 load threshold.
    #[test]
    fn exact_allocator_near_threshold() {
        let m = 50_000;
        let mut rng = Pcg64::new(3, 3);
        for load in [0.3f64, 0.45, 0.49] {
            let items = random_items(m, (m as f64 * load) as usize, &mut rng);
            let stashed = stash_of(m, &items).unwrap();
            let opt = CuckooGraph::from_items(m, &items).optimal_stash_size();
            assert_eq!(stashed, opt, "load {load}");
            // Below the 1/2 threshold the stash is tiny.
            assert!(stashed < 10, "load {load}: stash {stashed}");
        }
    }

    /// Above the threshold the stash must blow up (sanity that the 0.5
    /// orientability threshold is where theory puts it). Measured optimal
    /// stash at m = 10000: ~0 at load 0.5, ~46 at 0.6, ~600 at 0.8.
    #[test]
    fn above_threshold_stash_is_linear() {
        let m = 10_000;
        let items = random_items(m, (m as f64 * 0.8) as usize, &mut Pcg64::new(4, 4));
        let stashed = stash_of(m, &items).unwrap();
        assert!(
            stashed > m / 100,
            "stash {stashed} unexpectedly small at load 0.8"
        );
    }

    #[test]
    #[should_panic(expected = "choice out of range")]
    fn out_of_range_panics() {
        let _ = TableBuilder::new().solve(2, &choices(&[(0, 5)]), &mut [0]);
    }
}
