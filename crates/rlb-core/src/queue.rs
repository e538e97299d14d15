//! Bounded multi-class FIFO queues, stored flat for the whole cluster.
//!
//! Each server owns `K` queue *classes* (greedy uses one; delayed cuckoo
//! routing uses four: `Q`, `P`, `Q'`, `P'`), each a bounded ring buffer of
//! request arrival steps. The structure is data-oriented: the scalar
//! state lives in one packed ring-control row `ctrl` (head, length and
//! the queue's oldest arrival step per `(class, server)`), whose class-0
//! entries carry each server's routing word as well: its total backlog
//! while live, `DOWN` while not. The rest of a queue — every entry but
//! the oldest — sits in a ring carved out of one arena (`buf`) laid out
//! **class-major**: class `c`'s rings for servers `0..m` are adjacent. A
//! routing decision and the enqueue behind it read one 16-byte entry per
//! server, and a queue that holds at most one request never touches the
//! arena. See ARCHITECTURE.md "SoA arena layout".

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
/// Offset of the ring head within a `ctrl` entry.
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

/// The slot `len` entries past `head` in a ring of `cap` slots: where
/// the next entry goes. Requires `head < cap` and `len <= cap`; since
/// `head >= cap - len` iff `head + len >= cap`, every intermediate value
/// stays in range even for caps near `u32::MAX`, where `head + len`
/// would wrap.
#[inline]
#[expect(
    clippy::arithmetic_side_effects,
    reason = "head < cap and len <= cap: no value leaves 0..cap"
)]
fn tail(head: u32, len: u32, cap: u32) -> u32 {
    if head >= cap - len {
        head - (cap - len)
    } else {
        head + len
    }
}

/// One queue's control words, copied out of its `ctrl` entry so that a
/// walk keeps them in registers, with the arena ring they name. The
/// oldest entry is `first`; the other `len - 1` sit in the ring from
/// `head` on. [`Ring::push_back`] and [`Ring::pop_front_n`] are the only
/// ring arithmetic: enqueues, drains, flushes and migrations all move
/// entries through them.
struct Ring {
    idx: usize,
    base: usize,
    cap: u32,
    head: u32,
    len: u32,
    first: u32,
}

impl Ring {
    /// Appends `v`: into `first` when the queue is empty, so a queue that
    /// never holds two never writes the arena; behind the ring's
    /// `len - 1` entries otherwise. Requires `len < cap`.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        reason = "0 < len < cap: the ring's len - 1 entries leave its tail slot free"
    )]
    fn push_back(&mut self, buf: &mut [u32], v: u32) {
        if self.len == 0 {
            self.first = v;
        } else {
            buf[self.base + tail(self.head, self.len - 1, self.cap) as usize] = v;
        }
        self.len += 1;
    }

    /// Pops the `n` oldest entries into `f`, oldest first: `first`, then
    /// `n - 1` ring entries; the next ring entry, if any remain, refills
    /// `first`. Each argument of `f` is its own load, so the calls do not
    /// wait on one another. Requires `n <= len`.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        reason = "h < cap: a slot of this ring; n <= len"
    )]
    fn pop_front_n(&mut self, buf: &[u32], n: u32, mut f: impl FnMut(u32)) {
        // `migrate_class` pops its drops, often none, from a queue it
        // may just have emptied, where `first` is stale.
        if n == 0 {
            return;
        }
        f(self.first);
        let mut h = self.head;
        for _ in 1..n {
            f(buf[self.base + h as usize]);
            h += 1;
            if h == self.cap {
                h = 0;
            }
        }
        self.len -= n;
        if self.len > 0 {
            self.first = buf[self.base + h as usize];
            h += 1;
            if h == self.cap {
                h = 0;
            }
        }
        self.head = h;
    }

    /// Pops the oldest entry. Requires `len > 0`.
    #[inline]
    fn pop_front(&mut self, buf: &[u32]) -> u32 {
        let mut oldest = 0;
        self.pop_front_n(buf, 1, |v| oldest = v);
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
/// * `buf` is one arena holding every ring payload: the queue's other
///   `len - 1` entries, oldest first from `head`. A drain refills
///   `first` from the ring while entries remain. Class `c`'s block
///   starts at `class_base[c] = m * (caps[0] + … + caps[c-1])`; inside
///   it, server `s`'s ring occupies `[class_base[c] + s*caps[c] ..)[..caps[c]]`
///   (one slot more than a full queue's ring needs, so a 16-slot ring
///   stays one aligned 64-byte line). All offsets are computed with
///   checked arithmetic at construction, so blocks can neither alias
///   nor overrun.
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
    /// Arena of ring payloads (arrival steps), class-major.
    buf: Vec<u32>,
    /// Packed ring control (head, len, oldest entry, routing word),
    /// indexed by `(class * num_servers + server) * CTRL_WORDS`.
    ctrl: Vec<u32>,
    /// Per-class capacity.
    caps: Vec<u32>,
    /// Arena offset of class `c`'s block (`m * prefix_sum(caps[..c])`).
    class_base: Vec<usize>,
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
    /// Every server starts live.
    ///
    /// # Panics
    /// Panics if `classes` is empty, any capacity is zero, the summed
    /// per-server capacity reaches `u32::MAX` (the down-server routing
    /// sentinel), or the arena size overflows `usize`.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "every product is at most the checked arena size (prefix, k <= per_server); \
                  ctrl's 4x fits once `buf`, as many 4-byte words, is allocated"
    )]
    pub fn new(num_servers: usize, classes: &[ClassSpec]) -> Self {
        assert!(!classes.is_empty(), "need at least one queue class");
        assert!(
            classes.iter().all(|c| c.capacity > 0),
            "class capacities must be positive"
        );
        let caps: Vec<u32> = classes.iter().map(|c| c.capacity).collect();
        let k = caps.len();
        let mut per_server = 0u32;
        for &c in &caps {
            per_server = match per_server.checked_add(c) {
                Some(v) => v,
                #[expect(
                    clippy::panic,
                    reason = "constructor-time validation, never on the per-step hot path"
                )]
                None => panic!(
                    "QueueArray: class capacities overflow u32 ({per_server} + {c} per server)"
                ),
            };
        }
        assert!(
            per_server < u32::MAX,
            "QueueArray: per-server capacity {per_server} must stay below u32::MAX (the down-server routing sentinel)"
        );
        // Class-major arena: class c's block of rings starts at
        // m * prefix_sum(caps[..c]). A capacity sum that fits u32 can
        // still overflow the arena when multiplied by m, so the full
        // product is checked once; every class offset below is
        // m * prefix with prefix <= per_server, hence in range.
        let arena = match num_servers.checked_mul(per_server as usize) {
            Some(v) => v,
            #[expect(
                clippy::panic,
                reason = "constructor-time validation, never on the per-step hot path"
            )]
            None => panic!(
                "QueueArray: arena size overflows usize ({num_servers} servers x {per_server} capacity per server)"
            ),
        };
        let mut class_base = Vec::with_capacity(k);
        let mut prefix = 0usize;
        for &c in &caps {
            class_base.push(num_servers * prefix);
            prefix += c as usize;
        }
        debug_assert_eq!(num_servers * prefix, arena);
        Self {
            buf: vec![0; arena],
            ctrl: vec![0; CTRL_WORDS * k * num_servers],
            caps,
            class_base,
            occupied: vec![Vec::new(); k],
            total: 0,
            per_server,
            num_servers,
        }
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

    /// Base index of `(server, class)`'s ring in the arena.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        reason = "slot base: class/server/caps validated at build"
    )]
    fn base(&self, server: u32, class: usize) -> usize {
        self.class_base[class] + server as usize * self.caps[class] as usize
    }

    /// `(server, class)`'s queue, named by its `ctrl` index, arena base
    /// and capacity, which the bulk walks hoist out of their per-server
    /// loops.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        reason = "idx names a built ring's entry"
    )]
    fn ring_at(&self, idx: usize, base: usize, cap: u32) -> Ring {
        Ring {
            idx,
            base,
            cap,
            head: self.ctrl[idx + CTRL_HEAD],
            len: self.ctrl[idx + CTRL_LEN],
            first: self.ctrl[idx + CTRL_FIRST],
        }
    }

    /// `(server, class)`'s queue.
    #[inline]
    fn ring(&self, server: u32, class: usize) -> Ring {
        #[expect(
            clippy::indexing_slicing,
            reason = "class validated by the public entry points"
        )]
        let cap = self.caps[class];
        self.ring_at(self.ctrl_ix(server, class), self.base(server, class), cap)
    }

    /// Writes a queue's control words back to its `ctrl` entry.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        reason = "idx names a built ring's entry"
    )]
    fn store(&mut self, ring: &Ring) {
        self.ctrl[ring.idx + CTRL_HEAD] = ring.head;
        self.ctrl[ring.idx + CTRL_LEN] = ring.len;
        self.ctrl[ring.idx + CTRL_FIRST] = ring.first;
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
    #[expect(clippy::indexing_slicing, reason = "class < k, as for class_backlog")]
    pub fn is_full(&self, server: u32, class: usize) -> bool {
        self.class_backlog(server, class) >= self.caps[class]
    }

    /// Enqueues a request (by arrival step) into `(server, class)`.
    ///
    /// # Errors
    /// Returns [`QueueFull`] if the class is at capacity; the queue is
    /// unchanged.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        reason = "server < m: enforced by the public API asserts, and class < k as `ring` read \
                  caps[class]; at most m * per_server entries are ever queued"
    )]
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
        ring.push_back(&mut self.buf, arrival_step);
        self.store(&ring);
        // Branchless: a down server's word saturates at DOWN, and a live
        // one cannot reach it (per_server < u32::MAX).
        let r = Self::route_ix(server);
        self.ctrl[r] = self.ctrl[r].saturating_add(1);
        self.total += 1;
        if ring.len == 1 {
            self.occupied[class].push(server);
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
        ring.pop_front_n(&self.buf, n, f);
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
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "n <= this queue's length, counted in total"
    )]
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
            #[expect(clippy::indexing_slicing, reason = "class < k, as for the ring")]
            let list = &mut self.occupied[class];
            if let Some(at) = list.iter().position(|&s| s == server) {
                list.swap_remove(at);
            }
        }
        self.total -= n as u64;
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
    /// order — sequential over the class-major `ctrl` row and arena
    /// block, an empty queue costing one length check; when sparse it
    /// visits the occupancy list. Visit order differs between the two,
    /// but per-completion statistics are order-independent
    /// accumulations, so reports are identical.
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        reason = "occupied[] entries are live slots by invariant; list.len() <= m, and the sparse \
                  walk reads list[..n]; drained <= total: every entry popped was counted in"
    )]
    pub fn sweep_class(
        &mut self,
        class: usize,
        take: u32,
        on_complete: impl FnMut(u32, u32),
    ) -> u64 {
        if take == 0 || self.occupied[class].is_empty() {
            return 0;
        }
        let m = self.num_servers;
        let mut list = std::mem::take(&mut self.occupied[class]);
        let drained = if list.len() * 2 >= m {
            self.sweep_walk(class, take, &mut list, m, |_, i| i as u32, on_complete)
        } else {
            let n = list.len();
            self.sweep_walk(class, take, &mut list, n, |list, i| list[i], on_complete)
        };
        self.total -= drained;
        self.occupied[class] = list;
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
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        reason = "class validated by the sweep's entry; servers come from 0..m or the occupancy \
                  list, so slot arithmetic is bounded by per-class capacity; kept <= i"
    )]
    fn sweep_walk(
        &mut self,
        class: usize,
        take: u32,
        list: &mut Vec<u32>,
        visits: usize,
        at: impl Fn(&[u32], usize) -> u32,
        mut on_complete: impl FnMut(u32, u32),
    ) -> u64 {
        let cap = self.caps[class];
        let cbase = self.class_base[class];
        let lo = class * self.num_servers * CTRL_WORDS;
        let mut drained = 0u64;
        let mut kept = 0usize;
        for i in 0..visits {
            let server = at(list, i);
            let idx = lo + server as usize * CTRL_WORDS;
            let mut rem = self.ctrl[idx + CTRL_LEN];
            if rem == 0 {
                continue;
            }
            if self.is_live(server) {
                let n = take.min(rem);
                let ring = self.ring_at(idx, cbase + server as usize * cap as usize, cap);
                rem = self.pop(server, ring, n, |arrival| on_complete(server, arrival));
                drained += n as u64;
            }
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
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        reason = "from/to classes validated by the migrate entry asserts; dst.len <= dst.cap; \
                  dropped never passes total"
    )]
    pub fn migrate_class(&mut self, from: usize, to: usize, mut on_drop: impl FnMut(u32)) -> u64 {
        assert_ne!(from, to, "cannot migrate a class onto itself");
        let mut dropped = 0u64;
        // Visit only servers with pending `from` entries; every one of
        // them leaves the `from` occupancy list, so the list is detached
        // wholesale and its allocation reused.
        let mut movers = std::mem::take(&mut self.occupied[from]);
        for &server in &movers {
            let mut src = self.ring(server, from);
            debug_assert!(src.len > 0, "occupancy lists only hold non-empty queues");
            let mut dst = self.ring(server, to);
            if dst.len == 0 {
                // src holds work and dst has room for all of cap: something moves.
                self.occupied[to].push(server);
            }
            // What fits moves oldest first, through the same front and
            // push as every drain and enqueue.
            for _ in 0..src.len.min(dst.cap - dst.len) {
                let arrival = src.pop_front(&self.buf);
                dst.push_back(&mut self.buf, arrival);
            }
            self.store(&dst);
            // What found no room leaves the server: the only entries
            // whose departure changes its backlog.
            let lost = src.len;
            self.pop(server, src, lost, &mut on_drop);
            dropped += lost as u64;
        }
        self.total -= dropped;
        movers.clear();
        self.occupied[from] = movers;
        dropped
    }

    /// Empties every queue (live or not), invoking
    /// `on_drop(arrival_step)` for each dropped request. Returns the
    /// number dropped. Used for the greedy algorithm's periodic flush
    /// (requests count as rejections).
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        reason = "flush walks only built classes; dropped never passes total"
    )]
    pub fn flush_all(&mut self, mut on_drop: impl FnMut(u32)) -> u64 {
        let k = self.num_classes();
        let mut dropped = 0u64;
        for class in 0..k {
            let mut servers = std::mem::take(&mut self.occupied[class]);
            for &server in &servers {
                let ring = self.ring(server, class);
                let n = ring.len;
                self.pop(server, ring, n, &mut on_drop);
                dropped += n as u64;
            }
            servers.clear();
            self.occupied[class] = servers;
        }
        self.total = 0;
        dropped
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
    /// the first violation: arena geometry (offset monotonicity, block
    /// sizes that tile `buf` exactly — hence no ring aliasing), ring
    /// `head`/`len` bounds, the routing word (class 0's equals the sum
    /// of the server's class lengths or is `DOWN`; every other class's
    /// is 0), the incremental `total` vs. a full recount, and the
    /// occupancy index against actual queue membership: each class's
    /// list files every non-empty queue exactly once and nothing else.
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
        if self.ctrl.len() != CTRL_WORDS * m * k
            || self.occupied.len() != k
            || self.class_base.len() != k
        {
            return Err("sanitize: packed row length drifted from m * K".into());
        }
        // Arena geometry: class offsets must be exactly the class-major
        // prefix sums (monotone, non-aliasing) and tile `buf` exactly.
        let mut expected_base = 0usize;
        let mut expected_per_server = 0u64;
        for class in 0..k {
            if self.class_base[class] != expected_base {
                return Err(format!(
                    "sanitize: class {class} arena offset {} != expected prefix {expected_base} \
                     (blocks alias or leave gaps)",
                    self.class_base[class]
                ));
            }
            expected_base += self.caps[class] as usize * m;
            expected_per_server += self.caps[class] as u64;
        }
        if expected_base != self.buf.len() {
            return Err(format!(
                "sanitize: arena length {} != sum of class blocks {expected_base}",
                self.buf.len()
            ));
        }
        if expected_per_server != self.per_server as u64 || self.per_server == u32::MAX {
            return Err(format!(
                "sanitize: per-server capacity {} != class capacity sum {expected_per_server} \
                 (or collides with the down sentinel)",
                self.per_server
            ));
        }
        let mut total: u64 = 0;
        for server in 0..m {
            let mut server_sum: u64 = 0;
            for class in 0..k {
                let idx = (class * m + server) * CTRL_WORDS;
                let cap = self.caps[class];
                if self.ctrl[idx + CTRL_HEAD] >= cap {
                    return Err(format!(
                        "sanitize: ring head {} out of bounds (cap {cap}) at server {server} class {class}",
                        self.ctrl[idx + CTRL_HEAD]
                    ));
                }
                if self.ctrl[idx + CTRL_LEN] > cap {
                    return Err(format!(
                        "sanitize: ring len {} exceeds cap {cap} at server {server} class {class}",
                        self.ctrl[idx + CTRL_LEN]
                    ));
                }
                server_sum += self.ctrl[idx + CTRL_LEN] as u64;
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
        // enqueue, sweep, migration, flush or dequeue traffic runs, the
        // arena stays all zeros and no ring head moves. Arrival steps
        // start at 1, so any entry written to the arena shows.
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
            assert!(
                q.buf.iter().all(|&w| w == 0),
                "round {round}: arena written"
            );
            assert!(
                q.ctrl.chunks_exact(CTRL_WORDS).all(|e| e[CTRL_HEAD] == 0),
                "round {round}: a ring head moved"
            );
        }
        assert_eq!(completed, arrival - 1);
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
