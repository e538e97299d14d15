//! Offline cuckoo allocators.
//!
//! [`OfflineAssignment::assign_exact`] places a batch of two-choice items
//! into positions with **provably minimal stash** (equal to
//! [`crate::CuckooGraph::optimal_stash_size`]), using linear-time peeling
//! plus unicyclic orientation. This is the allocator used by the delayed
//! cuckoo routing policy to build each step's routing table `T_t`
//! (Lemma 4.2): the paper only needs *existence* of a good assignment
//! (Theorem 4.1) and permits the algorithm to compute it offline, after
//! the step's request set is known. The solver itself is
//! [`TableBuilder`], a workspace reused across calls; `assign_exact` is
//! a one-call wrapper around it.
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
//! [`RandomWalkAllocator`] is the classical random-walk insertion
//! heuristic with a kick budget; it is kept as an alternative allocator
//! for cross-validation and benchmarking (it may stash more than the
//! optimum, never less).

use crate::Choices;
use rlb_hash::Rng;
use std::cell::Cell;

/// The result of an offline assignment: each item is either placed at one
/// of its two candidate positions (at most one item per position) or
/// stashed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OfflineAssignment {
    /// `slot_of[item]` = position the item was placed at, or `None` if
    /// the item is in the stash.
    slot_of: Vec<Option<u32>>,
    /// Item indices that were stashed.
    stash: Vec<u32>,
}

impl OfflineAssignment {
    /// Computes a minimal-stash assignment of `items` into
    /// `num_positions` positions.
    ///
    /// Runs in `O(items + num_positions)` time.
    ///
    /// ```
    /// use rlb_cuckoo::{Choices, OfflineAssignment};
    ///
    /// // A 4-cycle: fully placeable, one item per position.
    /// let items = [(0, 1), (1, 2), (2, 3), (3, 0)]
    ///     .map(|(a, b)| Choices::new(a, b));
    /// let a = OfflineAssignment::assign_exact(4, &items);
    /// assert_eq!(a.placed(), 4);
    /// assert!(a.stash().is_empty());
    /// ```
    ///
    /// # Panics
    /// Panics if any choice is out of range.
    pub fn assign_exact(num_positions: usize, items: &[Choices]) -> Self {
        assert!(num_positions > 0, "need at least one position");
        let mut slots = vec![0u32; items.len()];
        TableBuilder::new().solve(num_positions, items, &mut slots);
        let stash = (0..items.len() as u32)
            .filter(|&i| slots[i as usize] == STASHED)
            .collect();
        let slot_of = slots
            .into_iter()
            .map(|p| (p != STASHED).then_some(p))
            .collect();
        Self { slot_of, stash }
    }

    /// Position assigned to `item`, or `None` if stashed.
    #[inline]
    pub fn position_of(&self, item: usize) -> Option<u32> {
        self.slot_of[item]
    }

    /// The stashed item indices.
    #[inline]
    pub fn stash(&self) -> &[u32] {
        &self.stash
    }

    /// Number of items placed (not stashed).
    pub fn placed(&self) -> usize {
        self.slot_of.len() - self.stash.len()
    }

    /// Total number of items in the assignment.
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// Whether the assignment covers no items.
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }
}

/// Slot value of a stashed item in a [`TableBuilder`] output.
pub(crate) const STASHED: u32 = u32::MAX;

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
/// Every exact assignment in this crate runs here:
/// [`OfflineAssignment::assign_exact`] and [`crate::RoutingTable::build`]
/// create a builder for one call; delayed cuckoo routing keeps one for a
/// whole run and calls [`TableBuilder::build_table`] after every step.
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

    /// Minimal-stash assignment of `items` into `n` positions. Item
    /// `j`'s position (or [`STASHED`]) is written to `out[j]`; the
    /// return value is the number of stashed items.
    ///
    /// # Panics
    /// Panics if any choice is out of range.
    pub(crate) fn solve(&mut self, n: usize, items: &[Choices], out: &mut [u32]) -> usize {
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

/// Classical random-walk cuckoo insertion with a kick budget.
///
/// Kept as an alternative allocator: simpler, cache-friendly, but only
/// approximately optimal — it may stash items the exact solver would
/// place. `max_kicks` of `Θ(log n)` is the standard choice.
#[derive(Debug, Clone)]
pub struct RandomWalkAllocator {
    max_kicks: usize,
}

impl RandomWalkAllocator {
    /// Creates an allocator with the given kick budget per insertion.
    pub fn new(max_kicks: usize) -> Self {
        Self { max_kicks }
    }

    /// Assigns `items` into `num_positions` positions; over-budget
    /// insertions are stashed.
    pub fn assign<R: Rng>(
        &self,
        num_positions: usize,
        items: &[Choices],
        rng: &mut R,
    ) -> OfflineAssignment {
        assert!(num_positions > 0, "need at least one position");
        let mut slot: Vec<Option<u32>> = vec![None; num_positions];
        let mut slot_of: Vec<Option<u32>> = vec![None; items.len()];
        let mut stash: Vec<u32> = Vec::new();
        for (idx, &choice) in items.iter().enumerate() {
            let mut item = idx as u32;
            let mut c = choice;
            // Start at a random candidate.
            let mut pos = if rng.gen_bool(0.5) { c.h1 } else { c.h2 };
            let mut placed = false;
            for _ in 0..=self.max_kicks {
                match slot[pos as usize] {
                    None => {
                        slot[pos as usize] = Some(item);
                        slot_of[item as usize] = Some(pos);
                        placed = true;
                        break;
                    }
                    Some(victim) => {
                        // Evict the occupant and send it to its other slot.
                        slot[pos as usize] = Some(item);
                        slot_of[item as usize] = Some(pos);
                        slot_of[victim as usize] = None;
                        item = victim;
                        c = items[victim as usize];
                        pos = c.other(pos);
                    }
                }
            }
            if !placed {
                stash.push(item);
            }
        }
        stash.sort_unstable();
        OfflineAssignment { slot_of, stash }
    }
}

/// Validates that an assignment is consistent with its inputs: every
/// placed item sits at one of its candidates, no position holds two
/// items, and stash + placed partition the items. Used by tests and by
/// the experiment harness as a runtime self-check.
pub fn validate_assignment(
    num_positions: usize,
    items: &[Choices],
    a: &OfflineAssignment,
) -> Result<(), String> {
    if a.len() != items.len() {
        return Err(format!("length mismatch: {} vs {}", a.len(), items.len()));
    }
    let mut used = vec![false; num_positions];
    let mut stashed = vec![false; items.len()];
    for &s in a.stash() {
        if s as usize >= items.len() {
            return Err(format!("stash item {s} out of range"));
        }
        stashed[s as usize] = true;
    }
    for (i, c) in items.iter().enumerate() {
        match a.position_of(i) {
            Some(p) => {
                if stashed[i] {
                    return Err(format!("item {i} both placed and stashed"));
                }
                if !c.contains(p) {
                    return Err(format!("item {i} placed at non-candidate {p}"));
                }
                if used[p as usize] {
                    return Err(format!("position {p} holds two items"));
                }
                used[p as usize] = true;
            }
            None => {
                if !stashed[i] {
                    return Err(format!("item {i} neither placed nor stashed"));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CuckooGraph;
    use rlb_hash::Pcg64;

    fn choices(edges: &[(u32, u32)]) -> Vec<Choices> {
        edges.iter().map(|&(a, b)| Choices::new(a, b)).collect()
    }

    #[test]
    fn empty_input() {
        let a = OfflineAssignment::assign_exact(4, &[]);
        assert!(a.is_empty());
        assert!(a.stash().is_empty());
        assert_eq!(a.placed(), 0);
    }

    #[test]
    fn single_item_is_placed() {
        let items = choices(&[(0, 1)]);
        let a = OfflineAssignment::assign_exact(2, &items);
        validate_assignment(2, &items, &a).unwrap();
        assert_eq!(a.placed(), 1);
        assert!(a.stash().is_empty());
    }

    #[test]
    fn path_places_all() {
        let items = choices(&[(0, 1), (1, 2), (2, 3)]);
        let a = OfflineAssignment::assign_exact(4, &items);
        validate_assignment(4, &items, &a).unwrap();
        assert_eq!(a.placed(), 3);
    }

    #[test]
    fn full_cycle_places_all() {
        let items = choices(&[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let a = OfflineAssignment::assign_exact(4, &items);
        validate_assignment(4, &items, &a).unwrap();
        assert_eq!(a.placed(), 4);
        assert!(a.stash().is_empty());
    }

    #[test]
    fn triple_edge_stashes_exactly_one() {
        let items = choices(&[(0, 1), (0, 1), (0, 1)]);
        let a = OfflineAssignment::assign_exact(2, &items);
        validate_assignment(2, &items, &a).unwrap();
        assert_eq!(a.placed(), 2);
        assert_eq!(a.stash().len(), 1);
    }

    #[test]
    fn self_loop_cases() {
        // Lone self-loop: placeable.
        let items = choices(&[(0, 0)]);
        let a = OfflineAssignment::assign_exact(1, &items);
        validate_assignment(1, &items, &a).unwrap();
        assert_eq!(a.placed(), 1);

        // Two self-loops on one vertex: one stashed.
        let items = choices(&[(0, 0), (0, 0)]);
        let a = OfflineAssignment::assign_exact(1, &items);
        validate_assignment(1, &items, &a).unwrap();
        assert_eq!(a.stash().len(), 1);

        // Self-loop + incident edge: both placeable.
        let items = choices(&[(0, 0), (0, 1)]);
        let a = OfflineAssignment::assign_exact(2, &items);
        validate_assignment(2, &items, &a).unwrap();
        assert_eq!(a.placed(), 2);
    }

    #[test]
    fn clique_with_excess() {
        // K4 has 4 vertices, 6 edges: exactly 2 must be stashed.
        let items = choices(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let a = OfflineAssignment::assign_exact(4, &items);
        validate_assignment(4, &items, &a).unwrap();
        assert_eq!(a.placed(), 4);
        assert_eq!(a.stash().len(), 2);
    }

    #[test]
    fn exact_solver_matches_graph_optimum_on_random_inputs() {
        let mut rng = Pcg64::new(7, 0);
        for trial in 0..200 {
            use rlb_hash::Rng as _;
            let n = 2 + rng.gen_index(40);
            let k = rng.gen_index(60);
            let items: Vec<Choices> = (0..k)
                .map(|_| Choices::new(rng.gen_index(n) as u32, rng.gen_index(n) as u32))
                .collect();
            let a = OfflineAssignment::assign_exact(n, &items);
            validate_assignment(n, &items, &a).unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            let optimal = CuckooGraph::from_items(n, &items).optimal_stash_size();
            assert_eq!(
                a.stash().len(),
                optimal,
                "trial {trial}: solver stash {} != optimal {optimal} (n={n}, items={items:?})",
                a.stash().len()
            );
        }
    }

    #[test]
    fn exact_solver_at_paper_load_has_empty_stash() {
        // m/3 items into m positions (Theorem 4.1's regime): stash should
        // be empty at practical sizes for almost every seed.
        let mut rng = Pcg64::new(11, 0);
        use rlb_hash::Rng as _;
        let m = 9000;
        let items: Vec<Choices> = (0..m / 3)
            .map(|_| Choices::new(rng.gen_index(m) as u32, rng.gen_index(m) as u32))
            .collect();
        let a = OfflineAssignment::assign_exact(m, &items);
        validate_assignment(m, &items, &a).unwrap();
        assert!(a.stash().len() <= 1, "stash = {}", a.stash().len());
    }

    #[test]
    fn random_walk_is_valid_and_no_better_than_exact() {
        let mut rng = Pcg64::new(3, 0);
        use rlb_hash::Rng as _;
        for trial in 0..50 {
            let n = 4 + rng.gen_index(40);
            let k = rng.gen_index(n); // below capacity
            let items: Vec<Choices> = (0..k)
                .map(|_| Choices::new(rng.gen_index(n) as u32, rng.gen_index(n) as u32))
                .collect();
            let rw = RandomWalkAllocator::new(64).assign(n, &items, &mut rng);
            validate_assignment(n, &items, &rw).unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            let exact = OfflineAssignment::assign_exact(n, &items);
            assert!(rw.stash().len() >= exact.stash().len());
        }
    }

    #[test]
    #[should_panic(expected = "choice out of range")]
    fn out_of_range_panics() {
        let _ = OfflineAssignment::assign_exact(2, &choices(&[(0, 5)]));
    }
}
