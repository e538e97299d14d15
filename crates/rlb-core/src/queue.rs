//! Bounded multi-class FIFO queues, stored flat for the whole cluster.
//!
//! Each server owns `K` queue *classes* (greedy uses one; delayed cuckoo
//! routing uses four: `Q`, `P`, `Q'`, `P'`), each a bounded FIFO of
//! request arrival steps. The structure is data-oriented: the scalar
//! state lives in one packed ring-control row `ctrl` (head, length and
//! the queue's oldest arrival step per `(class, server)`), whose class-0
//! entries carry each server's routing word as well: its total backlog
//! while live, `DOWN` while not. The rest of a queue — every entry but
//! the oldest — sits in a ring block of one pool that grows on demand:
//! a queue is given its block the first time it holds two requests and
//! keeps it. A routing decision and the enqueue behind it read one
//! 16-byte entry per server, and a queue that never holds two requests
//! never owns a block, so memory follows the queues that have held two,
//! not the capacity of every queue. See ARCHITECTURE.md "SoA arena
//! layout".

/// Specification of one queue class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassSpec {
    /// Maximum entries per server in this class.
    pub capacity: u32,
    /// Requests consumed per server per time step from this class.
    pub drain_per_step: u32,
}

/// Error returned by [`QueueArray::enqueue`] when the class is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

/// The routing word of a down server. Live backlogs can never reach
/// it: the constructor rejects a per-server capacity of `u32::MAX`.
const DOWN: u32 = u32::MAX;

/// Words per `(class, server)` entry in the packed ring-control row
/// `ctrl`: head, length, oldest entry and the routing word, so entries
/// are 16 bytes and never span more than one cache line. One load pulls
/// in every control word an enqueue or dequeue touches — with separate
/// parallel arrays the same operation missed three distinct lines.
const CTRL_WORDS: usize = 4;
/// Offset of the ring head within a `ctrl` entry: the pool index of the
/// ring's oldest entry once the queue holds a block, 0 until then.
const CTRL_HEAD: usize = 0;
/// Offset of the ring length within a `ctrl` entry.
const CTRL_LEN: usize = 1;
/// Offset of the queue's oldest arrival step within a `ctrl` entry;
/// meaningful while the length is non-zero.
const CTRL_FIRST: usize = 2;
/// Offset of the routing word within a class-0 `ctrl` entry: the
/// server's total backlog over all classes while it is live, `DOWN`
/// while it is not. The word is 0 in every other class's entry.
const CTRL_ROUTE: usize = 3;

/// Slots the ring pool may span: its indices, held in the head word,
/// are `u32`.
const POOL_SLOTS_MAX: u64 = 1 << 32;

/// The pool index `i` slots past `at`, wrapped within `at`'s ring block
/// of `mask + 1` slots. Blocks are aligned to their size, so the block
/// is `at & !mask` and the offset within it wraps by the mask.
#[inline]
fn wrap(at: u32, i: u32, mask: u32) -> u32 {
    (at & !mask) | (at.wrapping_add(i) & mask)
}

/// Hands a queue a new ring block of `mask + 1` slots at the end of the
/// pool and returns the block's first index. Block 0 is never handed
/// out, so that a head of 0 can mean "no block yet": the first grant
/// lays it down as well. Blocks are never released, so the pool holds
/// at most 1 + (queues that have ever held two) blocks, which the
/// constructor bounds by [`POOL_SLOTS_MAX`] slots: every index fits the
/// `u32` it is returned in.
#[cold]
#[inline(never)]
fn grant(pool: &mut Vec<u32>, mask: u32) -> u32 {
    let block = (mask as usize).saturating_add(1);
    let at = pool.len().max(block);
    pool.resize(at.saturating_add(block), 0);
    at as u32
}

/// One queue's control words, copied out of its `ctrl` entry so that a
/// walk keeps them in registers. The oldest entry is `first`; the other
/// `len - 1` sit in the queue's ring block from pool index `head` on,
/// wrapping within the block. [`Ring::push_back`] and
/// [`Ring::pop_front_n`] are the only ring arithmetic: enqueues, drains,
/// flushes and migrations all move entries through them.
struct Ring {
    idx: usize,
    cap: u32,
    mask: u32,
    head: u32,
    len: u32,
    first: u32,
}

impl Ring {
    /// Appends `v`: into `first` when the queue is empty, so a queue that
    /// never holds two never takes a block; behind the ring's `len - 1`
    /// entries otherwise, in the block the queue is granted the first
    /// time it holds two. Requires `len < cap`.
    #[inline]
    fn push_back(&mut self, pool: &mut Vec<u32>, v: u32) {
        if self.len == 0 {
            self.first = v;
        } else {
            if self.head == 0 {
                self.head = grant(pool, self.mask);
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "a held block lies inside the pool, and the slot wraps within it"
            )]
            let slot = &mut pool[wrap(self.head, self.len.wrapping_sub(1), self.mask) as usize];
            *slot = v;
        }
        #[expect(clippy::arithmetic_side_effects, reason = "len < cap")]
        {
            self.len += 1;
        }
    }

    /// Pops the `n` oldest entries into `f`, oldest first: `first`, then
    /// `n - 1` ring entries; the next ring entry, if any remain, refills
    /// `first`. Each argument of `f` is its own load, so the calls do not
    /// wait on one another. A queue keeps its block when it empties.
    /// Requires `n <= len`.
    #[inline]
    fn pop_front_n(&mut self, pool: &[u32], n: u32, mut f: impl FnMut(u32)) {
        // `migrate_class` pops its drops, often none, from a queue it
        // may just have emptied, where `first` is stale.
        if n == 0 {
            return;
        }
        f(self.first);
        let mut h = self.head;
        for _ in 1..n {
            #[expect(
                clippy::indexing_slicing,
                reason = "h is a slot of this queue's block, which lies inside the pool"
            )]
            let v = pool[h as usize];
            f(v);
            h = wrap(h, 1, self.mask);
        }
        #[expect(clippy::arithmetic_side_effects, reason = "n <= len")]
        {
            self.len -= n;
        }
        if self.len > 0 {
            #[expect(
                clippy::indexing_slicing,
                reason = "an entry remains in the ring, so h is a slot of its block"
            )]
            let v = pool[h as usize];
            self.first = v;
            h = wrap(h, 1, self.mask);
        }
        self.head = h;
    }

    /// Pops the oldest entry. Requires `len > 0`.
    #[inline]
    fn pop_front(&mut self, pool: &[u32]) -> u32 {
        let mut oldest = 0;
        self.pop_front_n(pool, 1, |v| oldest = v);
        oldest
    }
}

/// Flat storage of all (server × class) bounded FIFO queues.
///
/// # Layout
///
/// * `ctrl` packs `(head, len, first, route)` per `(class, server)`
///   into 16-byte entries, indexed `(class * m + server) * CTRL_WORDS` —
///   class-major, so a per-class sweep is one contiguous scan, and a
///   random-server enqueue costs one cache line of control state
///   instead of three. `first` is the queue's oldest arrival step while
///   `len > 0`; `route` is used in class 0's entries only.
/// * `pool` holds ring blocks of `B = (max capacity − 1)
///   .next_power_of_two()` slots (at least 1), each aligned to its size:
///   room for the `len − 1 ≤ capacity − 1` entries behind `first`,
///   oldest first from `head`, wrapping by mask within the block. A
///   queue's `head` is the absolute pool index of its ring's oldest
///   entry; block 0 is reserved, so `head == 0` means the queue holds
///   no block. A queue is granted one at the end of the pool the first
///   time it holds two requests and keeps it until the array is
///   dropped, so the pool holds at most 1 + (queues that have ever held
///   two) blocks. The constructor refuses a configuration whose pool
///   could pass 2³² slots, so every index fits the `u32` head word.
///
/// # Liveness
///
/// The array owns server liveness, and keeps it in one word: class 0's
/// `route` is server `s`'s total backlog while `s` is live and
/// `u32::MAX` while it is down, so routing policies can min-select over
/// candidates with a single load and no liveness branch (a down server
/// simply never wins; `ClusterView`'s `least_loaded` is that select, and
/// with one class the word also says whether the queue is full). A down
/// server's backlog is the sum of its class lengths, read only while it
/// is down.
///
/// # Occupancy index
///
/// For every class, an unordered list of the servers whose queue in
/// that class is non-empty. An enqueue into an empty queue appends; the
/// bulk walks compact the list in place behind them, and
/// [`QueueArray::dequeue_up_to`], the one per-server drain, finds the
/// server it empties by a scan. Bulk operations
/// ([`QueueArray::drain_class`], [`QueueArray::migrate_class`],
/// [`QueueArray::flush_all`]) visit only occupied servers when occupancy
/// is sparse, so their cost scales with the number of servers holding
/// work rather than with cluster size.
#[derive(Debug, Clone)]
pub struct QueueArray {
    /// Ring blocks (arrival steps), `mask + 1` slots each; block 0 is
    /// reserved and laid down with the first grant.
    pool: Vec<u32>,
    /// Packed ring control (head, len, oldest entry, routing word),
    /// indexed by `(class * num_servers + server) * CTRL_WORDS`.
    ctrl: Vec<u32>,
    /// Per-class capacity.
    caps: Vec<u32>,
    /// Ring block size minus one.
    mask: u32,
    /// Per class: servers with a non-empty queue in that class
    /// (unordered).
    occupied: Vec<Vec<u32>>,
    /// Cluster-wide queued total, maintained incrementally.
    total: u64,
    /// Total capacity per server (sum of class capacities). Read only
    /// by the `sanitize` feature's invariant checker.
    #[cfg_attr(not(feature = "sanitize"), allow(dead_code))]
    per_server: u32,
    num_servers: usize,
}

impl QueueArray {
    /// Bytes per server of the rows a routing decision reads: class 0's
    /// control entry.
    pub(crate) const ROUTE_ROW_BYTES: usize = CTRL_WORDS * std::mem::size_of::<u32>();

    /// Creates queues for `num_servers` servers with the given classes.
    /// Every server starts live. Nothing is allocated for the rings until
    /// a queue first holds two requests.
    ///
    /// # Panics
    /// Panics with [`try_new`](Self::try_new)'s message where that
    /// returns an error.
    pub fn new(num_servers: usize, classes: &[ClassSpec]) -> Self {
        #[expect(
            clippy::panic,
            reason = "constructor-time validation, documented above; never on the per-step hot path"
        )]
        Self::try_new(num_servers, classes).unwrap_or_else(|e| panic!("QueueArray: {e}"))
    }

    /// [`new`](Self::new), or an error naming the sizes when `classes`
    /// is empty, a capacity is zero, the summed per-server capacity
    /// reaches `u32::MAX` (the down-server routing sentinel), or the
    /// ring pool could pass 2³² slots (one block per queue plus the
    /// reserved one). Every check runs before anything is allocated.
    ///
    /// # Errors
    /// Returns the first violated bound as a message.
    pub(crate) fn try_new(num_servers: usize, classes: &[ClassSpec]) -> Result<Self, String> {
        if classes.is_empty() {
            return Err("need at least one queue class".into());
        }
        if classes.iter().any(|c| c.capacity == 0) {
            return Err("class capacities must be positive".into());
        }
        let caps: Vec<u32> = classes.iter().map(|c| c.capacity).collect();
        let k = caps.len();
        let mut per_server = 0u32;
        for &c in &caps {
            per_server = per_server.checked_add(c).ok_or_else(|| {
                format!("class capacities overflow u32 ({per_server} + {c} per server)")
            })?;
        }
        if per_server == u32::MAX {
            return Err(format!(
                "per-server capacity {per_server} must stay below u32::MAX (the down-server routing sentinel)"
            ));
        }
        // B = (max capacity − 1).next_power_of_two(), at least 1; a
        // capacity above 2³¹ + 1 needs B = 2³², whose mask is u32::MAX.
        let max_cap = caps.iter().copied().max().unwrap_or(1);
        let mask = max_cap
            .saturating_sub(1)
            .checked_next_power_of_two()
            .map_or(u32::MAX, |b| b.wrapping_sub(1));
        let block = u64::from(mask).saturating_add(1);
        // The pool's bound, (m·k + 1)·B slots, and the control row's
        // 4·m·k words, both with checked arithmetic.
        let queues = num_servers.checked_mul(k);
        let slots = queues
            .and_then(|q| u64::try_from(q).ok()?.checked_add(1)?.checked_mul(block))
            .filter(|&s| s <= POOL_SLOTS_MAX);
        let (Some(ctrl_len), Some(_)) = (queues.and_then(|q| q.checked_mul(CTRL_WORDS)), slots)
        else {
            return Err(format!(
                "the ring pool could pass 2^32 slots ({num_servers} servers x {k} classes + 1 \
                 reserved block, {block} slots a block for capacity {max_cap})"
            ));
        };
        Ok(Self {
            pool: Vec::new(),
            ctrl: vec![0; ctrl_len],
            caps,
            mask,
            occupied: vec![Vec::new(); k],
            total: 0,
            per_server,
            num_servers,
        })
    }

    /// Index of `(server, class)`'s entry into the packed `ctrl` row.
    #[inline]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "ctrl_ix bound: class < k, server < m, checked at build"
    )]
    fn ctrl_ix(&self, server: u32, class: usize) -> usize {
        (class * self.num_servers + server as usize) * CTRL_WORDS
    }

    /// Index of `server`'s routing word: the last word of its class-0
    /// `ctrl` entry.
    #[inline]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "server < m: the class-0 block spans m entries"
    )]
    fn route_ix(server: u32) -> usize {
        server as usize * CTRL_WORDS + CTRL_ROUTE
    }

    /// The queue whose `ctrl` entry starts at `idx`, of capacity `cap`,
    /// which the bulk walks hoist out of their per-server loops.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        reason = "idx names a built ring's entry"
    )]
    fn ring_at(&self, idx: usize, cap: u32) -> Ring {
        Ring {
            idx,
            cap,
            mask: self.mask,
            head: self.ctrl[idx + CTRL_HEAD],
            len: self.ctrl[idx + CTRL_LEN],
            first: self.ctrl[idx + CTRL_FIRST],
        }
    }

    /// `(server, class)`'s queue.
    #[inline]
    fn ring(&self, server: u32, class: usize) -> Ring {
        self.ring_at(self.ctrl_ix(server, class), self.capacity(class))
    }

    /// Writes a queue's control words back to its `ctrl` entry.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        reason = "idx names a built ring's entry"
    )]
    fn store(&mut self, ring: &Ring) {
        self.ctrl[ring.idx + CTRL_HEAD..ring.idx + CTRL_ROUTE]
            .copy_from_slice(&[ring.head, ring.len, ring.first]);
    }

    /// `class`'s occupancy list.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "class validated by the caller, as for capacity"
    )]
    fn occupied_mut(&mut self, class: usize) -> &mut Vec<u32> {
        &mut self.occupied[class]
    }

    /// Number of queue classes per server.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.caps.len()
    }

    /// Number of servers.
    #[inline]
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// Capacity of class `class`.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "class validated by the public entry points"
    )]
    pub fn capacity(&self, class: usize) -> u32 {
        self.caps[class]
    }

    /// Total backlog (all classes) of `server`: its routing word while
    /// live, the sum of its class lengths while down.
    #[inline]
    pub fn backlog(&self, server: u32) -> u32 {
        match self.route_backlog(server) {
            DOWN => (0..self.num_classes())
                .map(|class| self.class_backlog(server, class))
                .sum(),
            route => route,
        }
    }

    /// The routing view of `server`'s backlog: its total backlog while
    /// live, `u32::MAX` while down. Lets min-selection loops fold the
    /// liveness check into the comparison (a down server never wins), as
    /// `ClusterView`'s `least_loaded` fold does for the greedy policies.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "server < m: enforced by the public API asserts"
    )]
    pub fn route_backlog(&self, server: u32) -> u32 {
        self.ctrl[Self::route_ix(server)]
    }

    /// Whether `server` is live.
    #[inline]
    pub fn is_live(&self, server: u32) -> bool {
        self.route_backlog(server) != DOWN
    }

    /// Sets one server's liveness. A downed server keeps its queued
    /// work (frozen until it returns) but advertises a `u32::MAX`
    /// routing backlog and is skipped by [`QueueArray::drain_class`].
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "server < m: enforced by the public API asserts"
    )]
    pub fn set_live(&mut self, server: u32, live: bool) {
        let route = if live { self.backlog(server) } else { DOWN };
        self.ctrl[Self::route_ix(server)] = route;
    }

    /// Sets every server's liveness from a mask (`up.len()` must equal
    /// the server count), calling `on_change(server, live)` for each
    /// server whose liveness flipped, in server order.
    ///
    /// # Panics
    /// Panics if the mask length differs from the server count.
    pub fn set_liveness(&mut self, up: &[bool], mut on_change: impl FnMut(u32, bool)) {
        assert_eq!(up.len(), self.num_servers, "liveness mask length");
        for (s, &live) in up.iter().enumerate() {
            let server = s as u32;
            if self.is_live(server) != live {
                self.set_live(server, live);
                on_change(server, live);
            }
        }
    }

    /// Backlog of one class of one server.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        reason = "ctrl_ix bound: class < k, server < m, checked at build"
    )]
    pub fn class_backlog(&self, server: u32, class: usize) -> u32 {
        self.ctrl[self.ctrl_ix(server, class) + CTRL_LEN]
    }

    /// Whether `class` at `server` is full.
    #[inline]
    pub fn is_full(&self, server: u32, class: usize) -> bool {
        self.class_backlog(server, class) >= self.capacity(class)
    }

    /// Enqueues a request (by arrival step) into `(server, class)`.
    ///
    /// # Errors
    /// Returns [`QueueFull`] if the class is at capacity; the queue is
    /// unchanged.
    #[inline]
    pub fn enqueue(
        &mut self,
        server: u32,
        class: usize,
        arrival_step: u32,
    ) -> Result<(), QueueFull> {
        let mut ring = self.ring(server, class);
        if ring.len >= ring.cap {
            return Err(QueueFull);
        }
        ring.push_back(&mut self.pool, arrival_step);
        self.store(&ring);
        // Branchless: a down server's word saturates at DOWN, and a live
        // one cannot reach it (per_server < u32::MAX).
        #[expect(
            clippy::indexing_slicing,
            reason = "server < m: enforced by the public API asserts"
        )]
        let route = &mut self.ctrl[Self::route_ix(server)];
        *route = route.saturating_add(1);
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "at most m * per_server entries are ever queued"
        )]
        {
            self.total += 1;
        }
        if ring.len == 1 {
            self.occupied_mut(class).push(server);
        }
        Ok(())
    }

    /// Pops the `n` oldest entries of `server`'s queue `ring`, oldest
    /// first, into `f`, stores the ring back and returns how many stay
    /// queued: the one drain, and the one update of the routing word,
    /// under every dequeue, sweep, migration drop and flush. `total` and
    /// the occupancy index are left to the caller, which batches both.
    /// Requires `n <= len`.
    #[inline]
    fn pop(&mut self, server: u32, mut ring: Ring, n: u32, f: impl FnMut(u32)) -> u32 {
        ring.pop_front_n(&self.pool, n, f);
        self.store(&ring);
        // A down server's routing word stays pinned at DOWN (which no
        // live value reaches), so the word itself says whether it
        // follows the backlog.
        let r = Self::route_ix(server);
        #[expect(
            clippy::indexing_slicing,
            clippy::arithmetic_side_effects,
            reason = "r names a built class-0 entry; a live word counts the n popped"
        )]
        if self.ctrl[r] != DOWN {
            self.ctrl[r] -= n;
        }
        ring.len
    }

    /// Dequeues up to `count` requests from `(server, class)` in FIFO
    /// order, invoking `on_complete(arrival_step)` for each. Returns the
    /// number dequeued. Liveness-agnostic. Nothing in the engine calls
    /// this: it is the per-server reference the queue tests compare
    /// [`QueueArray::sweep_class`] against.
    #[inline]
    pub fn dequeue_up_to(
        &mut self,
        server: u32,
        class: usize,
        count: u32,
        on_complete: impl FnMut(u32),
    ) -> u32 {
        let n = count.min(self.class_backlog(server, class));
        if n == 0 {
            return 0;
        }
        let ring = self.ring(server, class);
        if self.pop(server, ring, n, on_complete) == 0 {
            let list = self.occupied_mut(class);
            if let Some(at) = list.iter().position(|&s| s == server) {
                list.swap_remove(at);
            }
        }
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "n <= this queue's length, counted in total"
        )]
        {
            self.total -= u64::from(n);
        }
        n
    }

    /// Drains up to `take` requests from every *live* occupied server's
    /// `class` queue in one bulk sweep, invoking
    /// `on_complete(server, arrival_step)` per request. Returns the
    /// number drained. Each server is finished (FIFO) before the next
    /// one starts, so a server's completions reach the callback as one
    /// consecutive run. Down servers keep their queued work and their
    /// occupancy membership.
    ///
    /// This is the engine's only drain. When occupancy is dense (at
    /// least half the servers hold work) it visits every server in id
    /// order — sequential over the class-major `ctrl` row, an empty
    /// queue costing one length check; when sparse it visits the
    /// occupancy list. Visit order differs between the two, but
    /// per-completion statistics are order-independent accumulations,
    /// so reports are identical.
    pub fn sweep_class(
        &mut self,
        class: usize,
        take: u32,
        on_complete: impl FnMut(u32, u32),
    ) -> u64 {
        if take == 0 || self.occupied_servers(class).is_empty() {
            return 0;
        }
        let m = self.num_servers;
        let mut list = std::mem::take(self.occupied_mut(class));
        // list.len() <= m, so the doubling cannot saturate.
        let drained = if list.len().saturating_mul(2) >= m {
            self.sweep_walk(class, take, &mut list, m, |_, i| i as u32, on_complete)
        } else {
            let n = list.len();
            #[expect(
                clippy::indexing_slicing,
                reason = "the sparse walk reads list[..n], and the list keeps its length \
                          until the walk ends"
            )]
            let at = |list: &[u32], i: usize| list[i];
            self.sweep_walk(class, take, &mut list, n, at, on_complete)
        };
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "drained <= total: every entry popped was counted in"
        )]
        {
            self.total -= drained;
        }
        *self.occupied_mut(class) = list;
        drained
    }

    /// The sweep's one loop, compiled once per walk: visits the servers
    /// `at(list, 0..visits)`, pops each live one's share and compacts
    /// `list` — the class's detached occupancy list — in place behind
    /// the walk (no per-server swap-remove). Servers still holding work
    /// are refiled at `list[..kept]`: the occupied set only shrinks
    /// during a sweep, so `kept` never passes the sparse walk's read
    /// position, nor the list's length under the dense walk (which does
    /// not read the list at all).
    fn sweep_walk(
        &mut self,
        class: usize,
        take: u32,
        list: &mut Vec<u32>,
        visits: usize,
        at: impl Fn(&[u32], usize) -> u32,
        mut on_complete: impl FnMut(u32, u32),
    ) -> u64 {
        let cap = self.capacity(class);
        let lo = self.ctrl_ix(0, class);
        let mut drained = 0u64;
        let mut kept = 0usize;
        for i in 0..visits {
            let server = at(list, i);
            #[expect(
                clippy::arithmetic_side_effects,
                reason = "servers come from 0..m or the occupancy list: the entry lies in \
                          class's block of ctrl"
            )]
            let idx = lo + server as usize * CTRL_WORDS;
            #[expect(
                clippy::indexing_slicing,
                clippy::arithmetic_side_effects,
                reason = "idx names a built ring's entry"
            )]
            let mut rem = self.ctrl[idx + CTRL_LEN];
            if rem == 0 {
                continue;
            }
            #[expect(
                clippy::arithmetic_side_effects,
                reason = "drained <= total: every entry popped was counted in"
            )]
            if self.is_live(server) {
                let n = take.min(rem);
                let ring = self.ring_at(idx, cap);
                rem = self.pop(server, ring, n, |arrival| on_complete(server, arrival));
                drained += u64::from(n);
            }
            #[expect(
                clippy::indexing_slicing,
                clippy::arithmetic_side_effects,
                reason = "kept <= i < the list's length, which the walk does not change"
            )]
            if rem > 0 {
                list[kept] = server;
                kept += 1;
            }
        }
        list.truncate(kept);
        drained
    }

    /// [`QueueArray::sweep_class`] for callers that do not need to know
    /// which server completed a request.
    pub fn drain_class(
        &mut self,
        class: usize,
        take: u32,
        mut on_complete: impl FnMut(u32),
    ) -> u64 {
        self.sweep_class(class, take, |_, arrival| on_complete(arrival))
    }

    /// Servers whose `class` queue is currently non-empty, in
    /// unspecified order. O(1); backed by the occupancy index. No
    /// product code reads the index from outside; it is `pub` for the
    /// occupancy property sweep in `tests/queue_occupancy.rs`.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "class validated by the caller, as for capacity"
    )]
    pub fn occupied_servers(&self, class: usize) -> &[u32] {
        &self.occupied[class]
    }

    /// Moves the entire contents of class `from` into class `to` for
    /// every server, preserving FIFO order (the delayed-cuckoo phase
    /// boundary: `Q → Q'`, `P → P'`).
    ///
    /// Entries that do not fit in the destination are **dropped** (the
    /// server voluntarily rejects them — the model's third knob),
    /// invoking `on_drop(arrival_step)` for each; the number dropped is
    /// returned. With parameters in the Theorem 4.3 regime (`g` large
    /// enough that carry-over classes empty within a phase) no drop ever
    /// occurs — the DCR experiments assert this.
    ///
    /// # Panics
    /// Panics if `from == to`.
    pub fn migrate_class(&mut self, from: usize, to: usize, mut on_drop: impl FnMut(u32)) -> u64 {
        assert_ne!(from, to, "cannot migrate a class onto itself");
        let mut dropped = 0u64;
        // Visit only servers with pending `from` entries; every one of
        // them leaves the `from` occupancy list, so the list is detached
        // wholesale and its allocation reused.
        let mut movers = std::mem::take(self.occupied_mut(from));
        for &server in &movers {
            let mut src = self.ring(server, from);
            debug_assert!(src.len > 0, "occupancy lists only hold non-empty queues");
            let mut dst = self.ring(server, to);
            if dst.len == 0 {
                // src holds work and dst has room for all of cap: something moves.
                self.occupied_mut(to).push(server);
            }
            // What fits moves oldest first, through the same front and
            // push as every drain and enqueue; the destination takes a
            // block the first time it holds two.
            #[expect(clippy::arithmetic_side_effects, reason = "dst.len <= dst.cap")]
            let room = dst.cap - dst.len;
            for _ in 0..src.len.min(room) {
                let arrival = src.pop_front(&self.pool);
                dst.push_back(&mut self.pool, arrival);
            }
            self.store(&dst);
            // What found no room leaves the server: the only entries
            // whose departure changes its backlog.
            let lost = src.len;
            self.pop(server, src, lost, &mut on_drop);
            #[expect(clippy::arithmetic_side_effects, reason = "dropped never passes total")]
            {
                dropped += u64::from(lost);
            }
        }
        #[expect(clippy::arithmetic_side_effects, reason = "dropped never passes total")]
        {
            self.total -= dropped;
        }
        movers.clear();
        *self.occupied_mut(from) = movers;
        dropped
    }

    /// Empties every queue (live or not), invoking
    /// `on_drop(arrival_step)` for each dropped request. Returns the
    /// number dropped: the whole queued total. Used for the greedy
    /// algorithm's periodic flush (requests count as rejections).
    /// Queues keep their ring blocks.
    pub fn flush_all(&mut self, mut on_drop: impl FnMut(u32)) -> u64 {
        for class in 0..self.num_classes() {
            let mut servers = std::mem::take(self.occupied_mut(class));
            for &server in &servers {
                let ring = self.ring(server, class);
                let n = ring.len;
                self.pop(server, ring, n, &mut on_drop);
            }
            servers.clear();
            *self.occupied_mut(class) = servers;
        }
        std::mem::take(&mut self.total)
    }

    /// Per-server total backlogs, in server-id order (length
    /// `num_servers`).
    pub fn backlogs(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.num_servers as u32).map(|server| self.backlog(server))
    }

    /// Total requests queued across the cluster. O(1); maintained
    /// incrementally by every mutation.
    pub fn total_backlog(&self) -> u64 {
        self.total
    }
}

/// Feature `sanitize`: full re-derivation of the structure's invariants.
///
/// The engine calls [`QueueArray::sanitize_check`] after every step when
/// the `sanitize` cargo feature is on; nothing here is compiled
/// otherwise, so the default build keeps its hot path untouched.
#[cfg(feature = "sanitize")]
impl QueueArray {
    /// Re-derives every structural invariant from scratch and reports
    /// the first violation: the ring pool (its length a multiple of the
    /// block size; every queue holding two or more entries holds a
    /// block; every held block — named by its head, so aligned to the
    /// block size — is non-zero and inside the pool; no two queues hold
    /// the same block; and, blocks never being released, the pool holds
    /// exactly the reserved block plus the held ones), ring lengths
    /// within capacity, the routing word (class 0's equals the sum of
    /// the server's class lengths or is `DOWN`; every other class's is
    /// 0), the incremental `total` vs. a full recount, and the occupancy
    /// index against actual queue membership: each class's list files
    /// every non-empty queue exactly once and nothing else.
    ///
    /// # Errors
    /// A human-readable description of the first invariant violated.
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        reason = "the sanitizer recomputes sizes it is checking and indexes the layout it just \
                  measured"
    )]
    pub fn sanitize_check(&self) -> Result<(), String> {
        let k = self.caps.len();
        let m = self.num_servers;
        if self.ctrl.len() != CTRL_WORDS * m * k || self.occupied.len() != k {
            return Err("sanitize: packed row length drifted from m * K".into());
        }
        let expected_per_server: u64 = self.caps.iter().map(|&c| c as u64).sum();
        if expected_per_server != self.per_server as u64 || self.per_server == u32::MAX {
            return Err(format!(
                "sanitize: per-server capacity {} != class capacity sum {expected_per_server} \
                 (or collides with the down sentinel)",
                self.per_server
            ));
        }
        let block = self.mask as usize + 1;
        if !self.pool.len().is_multiple_of(block) {
            return Err(format!(
                "sanitize: ring pool length {} is not a multiple of the block size {block}",
                self.pool.len()
            ));
        }
        // Which queue holds each block, by `ctrl` entry index.
        let mut holder: Vec<Option<usize>> = vec![None; self.pool.len() / block];
        let mut held = 0usize;
        let mut total: u64 = 0;
        for server in 0..m {
            let mut server_sum: u64 = 0;
            for class in 0..k {
                let idx = (class * m + server) * CTRL_WORDS;
                let cap = self.caps[class];
                let (head, len) = (self.ctrl[idx + CTRL_HEAD], self.ctrl[idx + CTRL_LEN]);
                if len > cap {
                    return Err(format!(
                        "sanitize: ring len {len} exceeds cap {cap} at server {server} class {class}"
                    ));
                }
                if len >= 2 && head == 0 {
                    return Err(format!(
                        "sanitize: queue at server {server} class {class} holds {len} entries \
                         but no ring block"
                    ));
                }
                if head != 0 {
                    let b = head as usize / block;
                    if b == 0 || b >= holder.len() {
                        return Err(format!(
                            "sanitize: ring head {head} at server {server} class {class} names \
                             block {b}, which is reserved or outside the pool of {} blocks",
                            holder.len()
                        ));
                    }
                    if let Some(other) = holder[b].replace(idx) {
                        return Err(format!(
                            "sanitize: ring block {b} is held by two queues (ctrl entries {} \
                             and {}: server {server} class {class})",
                            other / CTRL_WORDS,
                            idx / CTRL_WORDS
                        ));
                    }
                    held += 1;
                }
                server_sum += len as u64;
                if class > 0 && self.ctrl[idx + CTRL_ROUTE] != 0 {
                    return Err(format!(
                        "sanitize: pad word {} of class {class}'s entry is not 0 at server {server}",
                        self.ctrl[idx + CTRL_ROUTE]
                    ));
                }
            }
            let route = self.ctrl[server * CTRL_WORDS + CTRL_ROUTE];
            if route != DOWN && route as u64 != server_sum {
                return Err(format!(
                    "sanitize: routing backlog {route} != class-length sum {server_sum} \
                     at live server {server}"
                ));
            }
            total += server_sum;
        }
        // Blocks are never released: every block but the reserved one is
        // held, and the reserved one is laid down with the first grant.
        if holder.len() != if held == 0 { 0 } else { held + 1 } {
            return Err(format!(
                "sanitize: ring pool holds {} blocks, {held} queues hold one",
                holder.len()
            ));
        }
        if total != self.total {
            return Err(format!(
                "sanitize: incremental total backlog {} != full recount {total}",
                self.total
            ));
        }
        let mut filed = vec![false; m];
        for (class, list) in self.occupied.iter().enumerate() {
            let len = |s: usize| self.ctrl[(class * m + s) * CTRL_WORDS + CTRL_LEN];
            filed.fill(false);
            for &server in list {
                let s = server as usize;
                if s >= m || len(s) == 0 {
                    return Err(format!(
                        "sanitize: occupancy list for class {class} files server {server}, \
                         whose queue is empty or does not exist"
                    ));
                }
                if filed[s] {
                    return Err(format!(
                        "sanitize: occupancy list for class {class} files server {server} twice"
                    ));
                }
                filed[s] = true;
            }
            // Every entry is a distinct non-empty queue, so equal counts
            // mean no non-empty queue is missing.
            let nonempty = (0..m).filter(|&s| len(s) > 0).count();
            if list.len() != nonempty {
                return Err(format!(
                    "sanitize: occupancy list for class {class} holds {} entries, {nonempty} queues are non-empty",
                    list.len()
                ));
            }
        }
        Ok(())
    }

    /// Test hook: desynchronizes the occupancy index from the queues
    /// (drops every membership entry) so tests can prove the sanitizer
    /// catches index drift.
    #[doc(hidden)]
    pub fn sanitize_corrupt_occupancy(&mut self) {
        for list in &mut self.occupied {
            list.clear();
        }
    }

    /// Test hook: files the first server of the first non-empty
    /// occupancy list a second time.
    #[doc(hidden)]
    pub fn sanitize_duplicate_occupancy(&mut self) {
        if let Some(list) = self.occupied.iter_mut().find(|list| !list.is_empty()) {
            list.extend_from_within(..1);
        }
    }

    /// Test hook: desynchronizes the incremental cluster-wide total
    /// from the per-queue lengths.
    #[doc(hidden)]
    pub fn sanitize_corrupt_total(&mut self) {
        self.total = self.total.wrapping_add(1);
    }

    /// Test hook: desynchronizes server 0's routing word from its class
    /// lengths.
    #[doc(hidden)]
    pub fn sanitize_corrupt_route_backlog(&mut self) {
        if let Some(route) = self.ctrl.get_mut(CTRL_ROUTE) {
            *route = route.wrapping_add(1);
        }
    }

    /// Test hook: writes a non-zero pad word into server 0's class-1
    /// entry, where only class 0 carries a routing word.
    #[doc(hidden)]
    pub fn sanitize_corrupt_class_pad(&mut self) {
        let idx = self.ctrl_ix(0, 1);
        if let Some(pad) = self.ctrl.get_mut(idx.saturating_add(CTRL_ROUTE)) {
            *pad = 1;
        }
    }

    /// Test hook: gives a second queue the ring block of the first
    /// queue that holds one: the queue of `ctrl` entry 0, or of entry 1
    /// when entry 0's is the holder.
    #[doc(hidden)]
    pub fn sanitize_share_block(&mut self) {
        let held = self
            .ctrl
            .iter()
            .step_by(CTRL_WORDS)
            .enumerate()
            .find(|&(_, &head)| head != 0);
        if let Some((holder, &head)) = held {
            let other = usize::from(holder == 0);
            if let Some(slot) = self.ctrl.get_mut(other.saturating_mul(CTRL_WORDS)) {
                *slot = head;
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn two_class() -> QueueArray {
        QueueArray::new(
            3,
            &[
                ClassSpec {
                    capacity: 2,
                    drain_per_step: 1,
                },
                ClassSpec {
                    capacity: 4,
                    drain_per_step: 1,
                },
            ],
        )
    }

    #[test]
    fn enqueue_dequeue_fifo_order() {
        let mut q = two_class();
        q.enqueue(1, 0, 10).unwrap();
        q.enqueue(1, 0, 11).unwrap();
        assert_eq!(q.backlog(1), 2);
        assert_eq!(q.class_backlog(1, 0), 2);
        let mut seen = Vec::new();
        let n = q.dequeue_up_to(1, 0, 5, |a| seen.push(a));
        assert_eq!(n, 2);
        assert_eq!(seen, vec![10, 11]);
        assert_eq!(q.backlog(1), 0);
    }

    #[test]
    fn capacity_is_enforced_per_class() {
        let mut q = two_class();
        q.enqueue(0, 0, 1).unwrap();
        q.enqueue(0, 0, 2).unwrap();
        assert_eq!(q.enqueue(0, 0, 3), Err(QueueFull));
        assert!(q.is_full(0, 0));
        // Other class unaffected.
        assert!(!q.is_full(0, 1));
        q.enqueue(0, 1, 4).unwrap();
        assert_eq!(q.backlog(0), 3);
    }

    #[test]
    fn ring_buffer_wraps_correctly() {
        let mut q = two_class();
        for round in 0..10u32 {
            q.enqueue(2, 0, round * 2).unwrap();
            q.enqueue(2, 0, round * 2 + 1).unwrap();
            let mut seen = Vec::new();
            q.dequeue_up_to(2, 0, 2, |a| seen.push(a));
            assert_eq!(seen, vec![round * 2, round * 2 + 1]);
        }
    }

    #[test]
    fn servers_are_independent() {
        let mut q = two_class();
        q.enqueue(0, 0, 1).unwrap();
        q.enqueue(2, 0, 2).unwrap();
        assert_eq!(q.backlog(0), 1);
        assert_eq!(q.backlog(1), 0);
        assert_eq!(q.backlog(2), 1);
        let mut seen = Vec::new();
        q.dequeue_up_to(1, 0, 3, |a| seen.push(a));
        assert!(seen.is_empty());
    }

    #[test]
    fn migrate_preserves_order_and_backlog() {
        let mut q = two_class();
        q.enqueue(0, 0, 5).unwrap();
        q.enqueue(0, 0, 6).unwrap();
        q.enqueue(0, 1, 1).unwrap();
        let dropped = q.migrate_class(0, 1, |_| {});
        assert_eq!(dropped, 0);
        assert_eq!(q.class_backlog(0, 0), 0);
        assert_eq!(q.class_backlog(0, 1), 3);
        assert_eq!(q.backlog(0), 3);
        let mut seen = Vec::new();
        q.dequeue_up_to(0, 1, 10, |a| seen.push(a));
        assert_eq!(seen, vec![1, 5, 6]);
    }

    #[test]
    fn migrate_overflow_drops_excess_fifo() {
        let mut q = QueueArray::new(
            1,
            &[
                ClassSpec {
                    capacity: 3,
                    drain_per_step: 1,
                },
                ClassSpec {
                    capacity: 2,
                    drain_per_step: 1,
                },
            ],
        );
        for v in 0..3 {
            q.enqueue(0, 0, v).unwrap();
        }
        let mut dropped_vals = Vec::new();
        let dropped = q.migrate_class(0, 1, |v| dropped_vals.push(v));
        assert_eq!(dropped, 1);
        // Oldest entries are preserved; the newest is dropped.
        assert_eq!(dropped_vals, vec![2]);
        assert_eq!(q.class_backlog(0, 1), 2);
        assert_eq!(q.backlog(0), 2);
        let mut seen = Vec::new();
        q.dequeue_up_to(0, 1, 10, |a| seen.push(a));
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn flush_drops_everything() {
        let mut q = two_class();
        q.enqueue(0, 0, 1).unwrap();
        q.enqueue(1, 1, 2).unwrap();
        q.enqueue(2, 0, 3).unwrap();
        let mut dropped = Vec::new();
        let n = q.flush_all(|a| dropped.push(a));
        assert_eq!(n, 3);
        dropped.sort_unstable();
        assert_eq!(dropped, vec![1, 2, 3]);
        assert_eq!(q.total_backlog(), 0);
        // Still usable after flush.
        q.enqueue(0, 0, 9).unwrap();
        assert_eq!(q.backlog(0), 1);
    }

    #[test]
    fn total_backlog_sums_servers() {
        let mut q = two_class();
        q.enqueue(0, 0, 1).unwrap();
        q.enqueue(1, 0, 1).unwrap();
        q.enqueue(1, 1, 1).unwrap();
        assert_eq!(q.total_backlog(), 3);
        assert_eq!(q.backlogs().collect::<Vec<_>>(), vec![1, 2, 0]);
    }

    #[test]
    fn dequeue_from_empty_is_zero() {
        let mut q = two_class();
        assert_eq!(q.dequeue_up_to(0, 0, 4, |_| panic!("no entries")), 0);
    }

    #[test]
    #[should_panic(expected = "cannot migrate")]
    fn migrate_same_class_panics() {
        let mut q = two_class();
        q.migrate_class(1, 1, |_| {});
    }

    fn occupied_sorted(q: &QueueArray, class: usize) -> Vec<u32> {
        let mut v = q.occupied_servers(class).to_vec();
        v.sort_unstable();
        v
    }

    #[test]
    fn occupancy_tracks_enqueue_and_dequeue() {
        let mut q = two_class();
        assert!(q.occupied_servers(0).is_empty());
        q.enqueue(2, 0, 1).unwrap();
        q.enqueue(0, 0, 2).unwrap();
        q.enqueue(0, 0, 3).unwrap();
        q.enqueue(1, 1, 4).unwrap();
        assert_eq!(occupied_sorted(&q, 0), vec![0, 2]);
        assert_eq!(occupied_sorted(&q, 1), vec![1]);
        // Partial dequeue keeps membership; emptying removes it.
        q.dequeue_up_to(0, 0, 1, |_| {});
        assert_eq!(occupied_sorted(&q, 0), vec![0, 2]);
        q.dequeue_up_to(0, 0, 1, |_| {});
        assert_eq!(occupied_sorted(&q, 0), vec![2]);
        q.dequeue_up_to(2, 0, 9, |_| {});
        assert!(q.occupied_servers(0).is_empty());
        assert_eq!(occupied_sorted(&q, 1), vec![1]);
    }

    #[test]
    fn occupancy_tracks_migrate_and_flush() {
        let mut q = two_class();
        q.enqueue(0, 0, 1).unwrap();
        q.enqueue(2, 0, 2).unwrap();
        q.enqueue(2, 1, 3).unwrap();
        q.migrate_class(0, 1, |_| {});
        assert!(q.occupied_servers(0).is_empty());
        assert_eq!(occupied_sorted(&q, 1), vec![0, 2]);
        q.flush_all(|_| {});
        assert!(q.occupied_servers(0).is_empty());
        assert!(q.occupied_servers(1).is_empty());
        assert_eq!(q.total_backlog(), 0);
        // Usable again after the index was cleared.
        q.enqueue(1, 1, 9).unwrap();
        assert_eq!(occupied_sorted(&q, 1), vec![1]);
        assert_eq!(q.total_backlog(), 1);
    }

    #[test]
    fn migrate_into_full_destination_keeps_source_unoccupied() {
        // Destination completely full: everything in `from` drops, so
        // `from` leaves the occupancy list and `to` membership persists.
        let mut q = QueueArray::new(
            1,
            &[
                ClassSpec {
                    capacity: 2,
                    drain_per_step: 1,
                },
                ClassSpec {
                    capacity: 1,
                    drain_per_step: 1,
                },
            ],
        );
        q.enqueue(0, 1, 7).unwrap();
        q.enqueue(0, 0, 8).unwrap();
        q.enqueue(0, 0, 9).unwrap();
        let mut dropped = Vec::new();
        assert_eq!(q.migrate_class(0, 1, |v| dropped.push(v)), 2);
        assert_eq!(dropped, vec![8, 9]);
        assert!(q.occupied_servers(0).is_empty());
        assert_eq!(q.occupied_servers(1), &[0]);
        assert_eq!(q.total_backlog(), 1);
    }

    #[test]
    fn drain_class_matches_per_server_dequeues() {
        // The sweep — dense walk, sparse walk, and one class of a
        // four-class array — must hand over each live server's
        // completions as one FIFO run, exactly what the per-server
        // reference dequeues, and never touch a down server.
        let spec = ClassSpec {
            capacity: 4,
            drain_per_step: 2,
        };
        for (k, class, occupied) in [(1, 0, 7u32), (1, 0, 2), (4, 2, 7), (4, 2, 2)] {
            let case = format!("k = {k}, occupied = {occupied}");
            let mut bulk = QueueArray::new(8, &vec![spec; k]);
            for s in 0..occupied {
                for v in 0..3u32 {
                    bulk.enqueue(s, class, s * 10 + v).unwrap();
                }
            }
            if k > 1 {
                // Work queued in another class stays where it is.
                bulk.enqueue(0, 1, 99).unwrap();
            }
            bulk.set_live(1, false);
            let mut reference = bulk.clone();
            let mut runs: Vec<(u32, Vec<u32>)> = Vec::new();
            let drained = bulk.sweep_class(class, 2, |s, a| match runs.last_mut() {
                Some((last, run)) if *last == s => run.push(a),
                _ => runs.push((s, vec![a])),
            });
            let mut visited: Vec<u32> = runs.iter().map(|(s, _)| *s).collect();
            visited.sort_unstable();
            assert!(
                visited.windows(2).all(|w| w[0] != w[1]),
                "{case}: a server's completions were split: {runs:?}"
            );
            assert!(!visited.contains(&1), "{case}: down server drained");
            for s in 0..8u32 {
                let mut expected = Vec::new();
                if reference.is_live(s) {
                    reference.dequeue_up_to(s, class, 2, |a| expected.push(a));
                }
                let got = runs.iter().find(|(r, _)| *r == s);
                assert_eq!(
                    got.map_or(&[][..], |(_, run)| run),
                    expected,
                    "{case}: server {s}"
                );
                assert_eq!(bulk.backlog(s), reference.backlog(s), "{case}: server {s}");
                assert_eq!(
                    bulk.route_backlog(s),
                    reference.route_backlog(s),
                    "{case}: server {s}"
                );
            }
            assert_eq!(
                drained,
                runs.iter().map(|(_, run)| run.len() as u64).sum::<u64>()
            );
            assert_eq!(bulk.total_backlog(), reference.total_backlog(), "{case}");
            for c in 0..k {
                assert_eq!(
                    occupied_sorted(&bulk, c),
                    occupied_sorted(&reference, c),
                    "{case}: class {c}"
                );
            }
            // Down server kept its work and its membership.
            assert_eq!(bulk.class_backlog(1, class), 3);
        }
    }

    #[test]
    fn queues_that_never_hold_two_never_touch_the_arena() {
        // Every queue here holds at most one request at a time, so each
        // entry lives in its control entry's `first` word: whatever
        // enqueue, sweep, migration, flush or dequeue traffic runs, no
        // queue is granted a ring block, so the pool never grows (not
        // even by the reserved block 0, laid down with the first grant)
        // and every ring head stays 0.
        let spec = |capacity| ClassSpec {
            capacity,
            drain_per_step: 1,
        };
        let mut q = QueueArray::new(8, &[spec(1), spec(2), spec(4)]);
        let mut arrival = 1u32;
        let mut completed = 0u32;
        for round in 0..48u32 {
            for s in (0..8u32).filter(|s| (s + round) % 3 != 0) {
                q.enqueue(s, 0, arrival).unwrap();
                arrival += 1;
            }
            match round % 4 {
                0 => completed += q.sweep_class(0, 1, |_, _| {}) as u32,
                1 => {
                    // Into empty destinations only: nothing drops.
                    assert_eq!(q.migrate_class(0, 1, |_| panic!("dropped")), 0);
                    assert_eq!(q.migrate_class(1, 2, |_| panic!("dropped")), 0);
                    completed += q.drain_class(2, 1, |_| {}) as u32;
                }
                2 => completed += q.flush_all(|_| {}) as u32,
                _ => {
                    for s in 0..8u32 {
                        completed += q.dequeue_up_to(s, 0, 1, |_| {});
                    }
                }
            }
            assert_eq!(q.total_backlog(), 0, "round {round}");
            assert!(q.pool.is_empty(), "round {round}: a block was granted");
            assert!(
                q.ctrl.chunks_exact(CTRL_WORDS).all(|e| e[CTRL_HEAD] == 0),
                "round {round}: a ring head moved"
            );
        }
        assert_eq!(completed, arrival - 1);
    }

    /// Blocks in the pool, counting the reserved block 0.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "a block is at least one slot"
    )]
    fn pool_blocks(q: &QueueArray) -> usize {
        q.pool.len() / (q.mask as usize + 1)
    }

    #[test]
    fn a_queue_swinging_between_one_and_two_owns_one_block() {
        // Capacity 5 gives blocks of 4 slots. The queue is granted its
        // block the first time it holds two and keeps it through every
        // 2 -> 1 and 1 -> 0: the pool is block 0 plus that one block.
        let mut q = QueueArray::new(
            2,
            &[ClassSpec {
                capacity: 5,
                drain_per_step: 1,
            }],
        );
        assert_eq!(q.mask, 3);
        let mut seen = Vec::new();
        for round in 0..1000u32 {
            q.enqueue(1, 0, 2 * round).unwrap();
            q.enqueue(1, 0, 2 * round + 1).unwrap();
            q.dequeue_up_to(1, 0, 1, |a| seen.push(a));
            assert_eq!(pool_blocks(&q), 2, "round {round}");
            q.dequeue_up_to(1, 0, 1, |a| seen.push(a));
            if round % 2 == 0 {
                // ...and through a flush from one entry.
                q.enqueue(1, 0, 0).unwrap();
                assert_eq!(q.flush_all(|_| {}), 1);
            }
        }
        assert_eq!(seen, (0..2000).collect::<Vec<_>>());
        assert_eq!(pool_blocks(&q), 2);
        assert_eq!(q.ctrl[CTRL_HEAD], 0, "server 0 never held two");
    }

    #[test]
    fn the_pool_holds_one_block_per_queue_that_held_two_plus_the_reserved_one() {
        // Eight servers x two classes; queues become two-deep one at a
        // time, in both classes and through migrations, and are emptied
        // again in between.
        let spec = |capacity| ClassSpec {
            capacity,
            drain_per_step: 1,
        };
        let mut q = QueueArray::new(8, &[spec(3), spec(9)]);
        assert_eq!(q.mask, 7);
        assert_eq!(pool_blocks(&q), 0);
        let mut held = 0;
        for s in 0..8u32 {
            for class in 0..2 {
                q.enqueue(s, class, 1).unwrap();
                q.enqueue(s, class, 2).unwrap();
                held += 1;
                assert_eq!(pool_blocks(&q), held + 1, "server {s} class {class}");
                q.flush_all(|_| {});
                // Holding two again takes no new block.
                q.enqueue(s, class, 3).unwrap();
                q.enqueue(s, class, 4).unwrap();
                q.drain_class(class, 2, |_| {});
                assert_eq!(pool_blocks(&q), held + 1, "server {s} class {class}");
            }
        }
        // A migration into a queue that already holds a block takes none.
        q.enqueue(0, 0, 5).unwrap();
        q.enqueue(0, 0, 6).unwrap();
        assert_eq!(q.migrate_class(0, 1, |_| panic!("dropped")), 0);
        assert_eq!(pool_blocks(&q), 17);
        let mut seen = Vec::new();
        q.dequeue_up_to(0, 1, 9, |a| seen.push(a));
        assert_eq!(seen, vec![5, 6]);
        // Every queue holds its own block: heads are distinct blocks.
        let mut blocks: Vec<u32> = q
            .ctrl
            .chunks_exact(CTRL_WORDS)
            .map(|e| e[CTRL_HEAD] / 8)
            .collect();
        blocks.sort_unstable();
        assert_eq!(blocks, (1..=16).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "the ring pool could pass 2^32 slots")]
    fn a_pool_that_could_pass_two_to_the_32_slots_is_rejected() {
        // Blocks of 2^12 slots (capacity 4097), 2^20 queues and the
        // reserved block: 2^32 + 2^12 slots. Rejected before anything
        // is allocated.
        let _ = QueueArray::new(
            1 << 20,
            &[ClassSpec {
                capacity: 4097,
                drain_per_step: 1,
            }],
        );
    }

    #[test]
    fn a_pool_of_exactly_two_to_the_32_slots_is_accepted() {
        // One queue fewer than above: (2^20 - 1 + 1) blocks of 2^12.
        let q = QueueArray::new(
            (1 << 20) - 1,
            &[ClassSpec {
                capacity: 4097,
                drain_per_step: 1,
            }],
        );
        assert_eq!(q.mask, 4095);
    }

    #[test]
    fn liveness_sentinel_gates_route_backlog() {
        let mut q = two_class();
        q.enqueue(1, 0, 1).unwrap();
        assert!(q.is_live(1));
        assert_eq!(q.route_backlog(1), 1);
        q.set_live(1, false);
        assert!(!q.is_live(1));
        assert_eq!(q.route_backlog(1), u32::MAX);
        // Backlog changes while down leave the sentinel pinned.
        q.dequeue_up_to(1, 0, 1, |_| {});
        assert_eq!(q.route_backlog(1), u32::MAX);
        q.set_live(1, true);
        assert_eq!(q.route_backlog(1), 0);
        // Mask form agrees with per-server form.
        q.enqueue(0, 0, 2).unwrap();
        let mut flips = Vec::new();
        q.set_liveness(&[false, true, true], |s, live| flips.push((s, live)));
        assert_eq!(q.route_backlog(0), u32::MAX);
        assert_eq!(q.route_backlog(1), 0);
        q.set_liveness(&[true, true, true], |s, live| flips.push((s, live)));
        assert_eq!(q.route_backlog(0), 1);
        // Only the servers whose liveness changed are reported.
        assert_eq!(flips, vec![(0, false), (0, true)]);
    }

    // Satellite regression tests: the pre-SoA constructor accumulated
    // class capacities with an unchecked `acc += c` and sized the arena
    // with an unchecked multiply, so near-u32::MAX capacities wrapped
    // and silently aliased rings across servers.

    #[test]
    #[should_panic(expected = "class capacities overflow u32")]
    fn near_max_capacity_sum_is_rejected() {
        let _ = QueueArray::new(
            1,
            &[
                ClassSpec {
                    capacity: u32::MAX - 1,
                    drain_per_step: 1,
                },
                ClassSpec {
                    capacity: 2,
                    drain_per_step: 1,
                },
            ],
        );
    }

    #[test]
    #[should_panic(expected = "below u32::MAX")]
    fn sentinel_capacity_is_rejected() {
        // u32::MAX exactly: no u32 overflow, but it would collide with
        // the down-server routing sentinel. (Zero servers so the failed
        // construction cannot allocate.)
        let _ = QueueArray::new(
            0,
            &[ClassSpec {
                capacity: u32::MAX,
                drain_per_step: 1,
            }],
        );
    }

    #[test]
    fn near_max_capacity_with_no_servers_constructs() {
        // The largest legal per-server capacity is fine; with zero
        // servers no arena is allocated and all bookkeeping is empty.
        let q = QueueArray::new(
            0,
            &[ClassSpec {
                capacity: u32::MAX - 1,
                drain_per_step: 1,
            }],
        );
        assert_eq!(q.num_servers(), 0);
        assert_eq!(q.capacity(0), u32::MAX - 1);
        assert_eq!(q.total_backlog(), 0);
    }
}
