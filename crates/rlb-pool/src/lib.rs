//! # rlb-pool — the workspace's deterministic job executor
//!
//! Every parallel computation in the workspace — whole experiments,
//! their sweep grids and their trials in `rlb-experiments`, the live
//! load generator's one job a client — funnels through this crate. It
//! exists to make parallelism **boring**: results are returned in
//! submission order regardless of completion order, so a correctly
//! seeded computation produces bit-identical output no matter how many
//! threads ran it (including one).
//!
//! ## Design
//!
//! * **Long-lived workers.** A [`Pool`] spawns `jobs - 1` worker
//!   threads once; the thread submitting a batch is the remaining
//!   executor. Nothing is spawned per call.
//! * **Ordered maps.** [`Pool::map_indexed`] runs `f(0..n)` and returns
//!   `Vec<T>` indexed by input position; [`Pool::map`] is the same over
//!   owned items. Workers claim indices from a shared atomic counter
//!   and write into per-index slots, so arrival order never matters.
//! * **Nested jobs, no deadlock, no oversubscription.** A job may call
//!   `map`/`map_indexed` on the same pool. The submitter first *helps
//!   drain its own batch* (claiming indices like any worker) and only
//!   then blocks on stragglers — so every queued index is claimed by a
//!   non-blocked thread, and a blocked thread only ever waits on
//!   strictly deeper work that is already running elsewhere. By
//!   induction on nesting depth, some deepest job always runs to
//!   completion: no deadlock. No thread is ever created for a nested
//!   call, so at most `jobs` threads execute jobs at any moment.
//!   A job may even own the last `Arc<Pool>` handle: the pool's `Drop`
//!   is worker-safe (retired batches are dropped outside the queue
//!   lock, and a worker tearing the pool down detaches itself instead
//!   of self-joining) — proven over all schedules by the model suite
//!   in `tests/model.rs`.
//! * **Panic propagation.** A panicking job is caught on the executing
//!   thread, the batch still runs to completion, and the payload is
//!   re-raised on the submitting thread.
//! * **Determinism contract.** Jobs must derive everything from their
//!   index (the house seeding style, `seed = base + index`). Under that
//!   contract the parallel path and the `jobs = 1` inline path produce
//!   the same `Vec<T>` — the single-thread fallback is the executable
//!   specification of the parallel one.
//!
//! ## Sizing
//!
//! The global pool ([`global`]) sizes itself from the `RLB_JOBS`
//! environment variable, falling back to the machine's available
//! parallelism; [`set_global_jobs`] lets a CLI `--jobs` flag override
//! it before first use. `jobs = 1` means "run inline on the caller".
//!
//! ## Why `'static` jobs
//!
//! The workspace forbids `unsafe`, and safe Rust cannot hand a borrowed
//! closure to a thread that outlives the borrow — that is exactly the
//! lifetime erasure scoped-pool crates bury behind `unsafe`. The pool
//! therefore requires `'static` closures; callers move `Copy`
//! parameters (or clone an `Arc`) into their jobs, which the seeded
//! index-derived style needs anyway.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

// All sync primitives come from rlb-sync (the `raw-sync` lint rule
// enforces this workspace-wide): std re-exports normally, rlb-check's
// instrumented model primitives under the `model` feature — which is
// what lets tests/model.rs exhaustively explore this file's
// interleavings.
use rlb_sync::{thread, Arc, AtomicBool, AtomicUsize, Condvar, Mutex, OnceLock, Ordering};

/// A claimable unit of batch execution, type-erased for the queue.
trait Batch: Send + Sync {
    /// Claims and runs one index; `false` when nothing is left to claim.
    fn run_one(&self) -> bool;
    /// Whether every index has been claimed (possibly still running).
    fn exhausted(&self) -> bool;
}

/// Shared state of one `map_indexed` call.
struct BatchState<T, F> {
    f: F,
    n: usize,
    /// Next unclaimed index.
    next: AtomicUsize,
    /// Result slots, written by whichever thread ran the index.
    slots: Vec<Mutex<Option<T>>>,
    /// First captured panic payload, re-raised on the submitter.
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
    /// Completed-count guarded for the completion condvar.
    done: Mutex<usize>,
    done_cv: Condvar,
}

impl<T, F: Fn(usize) -> T> BatchState<T, F> {
    fn new(n: usize, f: F) -> Self {
        Self {
            f,
            n,
            next: AtomicUsize::new(0),
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            panic: Mutex::new(None),
            done: Mutex::new(0),
            done_cv: Condvar::new(),
        }
    }
}

impl<T: Send, F: Fn(usize) -> T + Send + Sync> Batch for BatchState<T, F> {
    fn run_one(&self) -> bool {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        if i >= self.n {
            // Park the counter just past `n` so pathological numbers of
            // failed claims cannot wrap it.
            self.next.store(self.n, Ordering::Relaxed);
            return false;
        }
        match catch_unwind(AssertUnwindSafe(|| (self.f)(i))) {
            Ok(value) => {
                *self.slots[i].lock().expect("slot lock") = Some(value); // i < n checked above; lock poisoning means a job already panicked. lint:allow(panic-path)
            }
            Err(payload) => {
                let mut first = self.panic.lock().expect("panic lock");
                first.get_or_insert(payload);
            }
        }
        let mut done = self.done.lock().expect("done lock");
        *done = done.saturating_add(1);
        if *done == self.n {
            self.done_cv.notify_all();
        }
        true
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.n
    }
}

/// State shared between the pool handle and its workers.
struct Shared {
    /// Batches with unclaimed indices, oldest first.
    queue: Mutex<VecDeque<Arc<dyn Batch>>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Moves exhausted front batches into `retired` (the caller drops
    /// them **after** releasing the queue lock — see `worker_loop`),
    /// then clones the first batch that still has an unclaimed index.
    /// Runs under the queue lock.
    fn next_batch(
        queue: &mut VecDeque<Arc<dyn Batch>>,
        retired: &mut Vec<Arc<dyn Batch>>,
    ) -> Option<Arc<dyn Batch>> {
        while queue.front().is_some_and(|front| front.exhausted()) {
            retired.extend(queue.pop_front());
        }
        queue.iter().find(|batch| !batch.exhausted()).cloned()
    }
}

/// What a worker decided under the queue lock; acted on after release.
enum Step {
    Run(Arc<dyn Batch>),
    Shutdown,
    /// Lock released early (to drop retired batches); re-scan.
    Retry,
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        // Dropping a batch can run arbitrary destructors of its job
        // closure — including, when a job captured the last live
        // `Arc<Pool>`, the pool's own `Drop` (which takes the queue
        // lock). So retired batches collected during the scan are only
        // dropped here, after the guard is gone, and the worker never
        // waits while still holding retired batches.
        let mut retired: Vec<Arc<dyn Batch>> = Vec::new();
        let step = {
            let mut queue = shared.queue.lock().expect("queue lock"); // lock poisoning means a job already panicked; die with it. lint:allow(panic-path)
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    break Step::Shutdown;
                }
                if let Some(batch) = Shared::next_batch(&mut queue, &mut retired) {
                    break Step::Run(batch);
                }
                if !retired.is_empty() {
                    break Step::Retry;
                }
                queue = shared.work_cv.wait(queue).expect("queue wait");
            }
        };
        drop(retired);
        match step {
            Step::Run(batch) => while batch.run_one() {},
            Step::Shutdown => return,
            Step::Retry => {}
        }
    }
}

/// A deterministic work-stealing executor with long-lived workers.
///
/// See the crate docs for the execution model. Most code uses the
/// process-wide [`global`] pool; tests build private pools to sweep
/// worker counts.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
    jobs: usize,
    /// Re-enables the PR-4 shutdown race for checker detection tests.
    #[cfg(feature = "model")]
    buggy_shutdown: bool,
}

impl Pool {
    /// Builds a pool with `jobs` total executors: `jobs - 1` spawned
    /// worker threads plus the thread that submits each batch.
    /// `jobs <= 1` spawns nothing and runs every map inline.
    pub fn new(jobs: usize) -> Self {
        let jobs = jobs.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..jobs)
            .map(|_| {
                let shared = Arc::clone(&shared);
                // The one sanctioned spawn site outside the shim layer:
                // the executor everything else submits jobs to, spawning
                // through rlb_sync so `--features model` swaps the
                // threads for virtual ones. lint:allow(raw-sync)
                thread::Builder::new()
                    .name("rlb-pool-worker".into())
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers,
            jobs,
            #[cfg(feature = "model")]
            buggy_shutdown: false,
        }
    }

    /// Builds a pool whose `Drop` re-introduces the PR-4 lost-wakeup
    /// race (shutdown stored *outside* the queue lock), so the model
    /// checker's detection power can be proven in the test suite. Only
    /// exists under the `model` feature; never use outside tests.
    #[cfg(feature = "model")]
    #[doc(hidden)]
    pub fn new_with_buggy_shutdown(jobs: usize) -> Self {
        let mut pool = Self::new(jobs);
        pool.buggy_shutdown = true;
        pool
    }

    /// Total executors (spawned workers + the submitting thread).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `f(0)`, …, `f(n - 1)` across the pool and returns the
    /// results **in index order**, regardless of completion order.
    ///
    /// The submitting thread claims indices alongside the workers, so
    /// this is safe to call from inside a pool job (nested batches).
    /// With `jobs() == 1` the batch runs inline, sequentially — the
    /// bit-identical fallback path.
    ///
    /// # Panics
    /// Re-raises the first panic captured from `f`; the whole batch
    /// still runs to completion first.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        if self.jobs == 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let batch = Arc::new(BatchState::new(n, f));
        {
            let mut queue = self.shared.queue.lock().expect("queue lock"); // lock poisoning means a job already panicked; die with it. lint:allow(panic-path)
            queue.push_back(Arc::clone(&batch) as Arc<dyn Batch>);
        }
        self.shared.work_cv.notify_all();
        // Help drain our own batch before blocking: this guarantees
        // every index is claimed even if every worker is busy, which is
        // what makes nested submission deadlock-free.
        while batch.run_one() {}
        let mut done = batch.done.lock().expect("done lock");
        while *done < batch.n {
            done = batch.done_cv.wait(done).expect("done wait");
        }
        drop(done);
        if let Some(payload) = batch.panic.lock().expect("panic lock").take() {
            resume_unwind(payload);
        }
        batch
            .slots
            .iter()
            .map(|slot| {
                slot.lock()
                    .expect("slot lock")
                    .take()
                    .expect("every index completed exactly once")
            })
            .collect()
    }

    /// Maps `f` over `items`, returning results in item order. Items
    /// are shared by reference into the jobs; see [`Pool::map_indexed`]
    /// for the execution and determinism contract.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send + Sync + 'static,
        T: Send + 'static,
        F: Fn(&I) -> T + Send + Sync + 'static,
    {
        let n = items.len();
        let items = Arc::new(items);
        self.map_indexed(n, move |i| f(&items[i])) // i < items.len() by the map_indexed contract. lint:allow(panic-path)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        #[cfg(feature = "model")]
        let buggy = self.buggy_shutdown;
        #[cfg(not(feature = "model"))]
        let buggy = false;
        if buggy {
            // The PR-4 bug, preserved verbatim for the checker's
            // detection test: without the lock, this store (and the
            // notify below) can slip between a worker's shutdown check
            // and its wait entry — that worker then sleeps forever.
            self.shared.shutdown.store(true, Ordering::Relaxed);
        } else {
            // Set the flag while holding the queue mutex: a worker that
            // has observed `shutdown == false` with an empty queue still
            // holds the lock until it enters `wait()`, so acquiring it
            // here orders the store after that check — the subsequent
            // notify cannot be lost between a worker's check and its
            // wait.
            let _queue = self.shared.queue.lock().expect("queue lock");
            self.shared.shutdown.store(true, Ordering::Relaxed);
        }
        self.shared.work_cv.notify_all();
        // When a job closure captured the last live `Arc<Pool>`, this
        // destructor runs on the worker thread that dropped the retired
        // batch — which must not join itself. That worker is detached
        // instead; it observes the shutdown flag and exits on its own.
        let me = thread::current().id();
        for handle in self.workers.drain(..) {
            if handle.thread().id() == me {
                continue;
            }
            // A worker that panicked already surfaced the panic to the
            // submitter; nothing further to report here.
            let _ = handle.join();
        }
    }
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The process-wide pool, created on first use with [`default_jobs`]
/// executors (honouring `RLB_JOBS`).
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::new(default_jobs()))
}

/// Sizes the global pool before its first use (e.g. from a `--jobs`
/// CLI flag). Returns `false` if the pool already exists, in which case
/// the existing size stays — results are identical either way, only
/// wall-clock differs.
pub fn set_global_jobs(jobs: usize) -> bool {
    // Build lazily inside the init closure so a late call never spawns
    // (and immediately tears down) a throwaway pool of worker threads.
    let mut created = false;
    GLOBAL.get_or_init(|| {
        created = true;
        Pool::new(jobs)
    });
    created
}

/// Default executor count: the `RLB_JOBS` environment variable if set
/// to a positive integer, else the machine's available parallelism.
pub fn default_jobs() -> usize {
    if let Ok(raw) = std::env::var("RLB_JOBS") {
        if let Ok(jobs) = raw.trim().parse::<usize>() {
            if jobs >= 1 {
                return jobs;
            }
        }
    }
    thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(all(test, not(feature = "model")))]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_is_index_ordered() {
        let pool = Pool::new(4);
        let out = pool.map_indexed(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_over_items_keeps_item_order() {
        let pool = Pool::new(3);
        let items: Vec<String> = (0..40).map(|i| format!("it{i}")).collect();
        let out = pool.map(items.clone(), |s| s.len());
        assert_eq!(out, items.iter().map(|s| s.len()).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_single_task_edges() {
        let pool = Pool::new(8);
        let empty: Vec<u32> = pool.map_indexed(0, |_| 1);
        assert!(empty.is_empty());
        assert_eq!(pool.map_indexed(1, |i| i + 41), vec![41]);
        let empty_items: Vec<u32> = pool.map(Vec::<u8>::new(), |_| 1);
        assert!(empty_items.is_empty());
    }

    #[test]
    fn single_job_pool_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.jobs(), 1);
        assert!(pool.workers.is_empty());
        assert_eq!(pool.map_indexed(10, |i| i), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn global_pool_is_reused() {
        let a = global() as *const Pool;
        let b = global() as *const Pool;
        assert_eq!(a, b);
        assert!(global().jobs() >= 1);
    }

    #[test]
    fn set_global_jobs_is_first_wins() {
        // Whichever of this call and `global()` (possibly from a
        // concurrent test) ran first fixed the size; a later call must
        // report failure without building a throwaway pool.
        let _ = set_global_jobs(2);
        assert!(!set_global_jobs(5));
        assert!(global().jobs() >= 1);
    }

    #[test]
    fn pool_owned_by_its_own_jobs_tears_down() {
        // A job closure may capture the last live Arc<Pool> (the nested
        // submission pattern): the queue -> batch -> closure -> pool
        // cycle then has a worker drop the pool, so Pool::drop must
        // tolerate running on a worker thread. Found by the model
        // checker (tests/model.rs explores every schedule of this);
        // this is the std-path smoke test.
        let pool = Arc::new(Pool::new(2));
        let p2 = Arc::clone(&pool);
        let out = pool.map_indexed(2, move |i| p2.jobs() + i);
        assert_eq!(out, vec![2, 3]);
        drop(pool);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = Pool::new(6);
        let _ = pool.map_indexed(16, |i| i);
        drop(pool); // must not hang or leak the workers
    }
}
