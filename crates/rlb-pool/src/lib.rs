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
//! * **Scoped batches, no long-lived threads.** A [`Pool`] is a size
//!   and a count of free executors. [`Pool::map_indexed`] runs inside
//!   one `std::thread::scope`: the calling thread (the batch's
//!   *submitter*) and the helpers it recruits claim indices from an
//!   atomic cursor, each keeps its own `(index, result)` list, and the
//!   lists are merged in index order once the scope has joined every
//!   helper. [`Pool::map`] is the same over owned items. Nothing parks
//!   on a queue and nothing waits on a condvar; the one wait is the
//!   scope's join, on helpers that are running jobs.
//! * **One budget across nesting.** The submitter of a top-level batch
//!   is one executor; the pool lends out the other `jobs - 1`. A helper
//!   holds one from its recruitment until its batch has no index left
//!   to claim. A job may call `map`/`map_indexed` on the same pool
//!   (experiments → grid → trials): the nested batch recruits only
//!   executors that are free, so at most `jobs` threads run jobs at
//!   once however deep the nesting. A batch recruits when it starts
//!   and again each time its submitter claims an index, so an executor
//!   freed by a finished sibling joins a batch that is still running.
//! * **Panic propagation.** Each index runs under `catch_unwind`; the
//!   batch still runs to completion, and then the payload of the
//!   lowest panicking index is re-raised on the submitter. A helper
//!   returns its executor through a drop guard on every exit path.
//! * **Determinism contract.** Jobs must derive everything from their
//!   index (the house seeding style, `seed = base + index`). Under that
//!   contract the parallel path and the `jobs = 1` inline path produce
//!   the same `Vec<T>` — the single-thread fallback is the executable
//!   specification of the parallel one.
//!
//! ## Sizing
//!
//! The global pool ([`global`]) sizes itself from the machine's
//! available parallelism; [`set_global_jobs`] lets a CLI `--jobs` flag
//! override it before first use. `jobs = 1` means "run inline on the
//! caller".

#![forbid(unsafe_code)]
#![warn(missing_docs)]
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

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use rlb_sync::{thread, AtomicUsize, OnceLock, Ordering};

type Payload = Box<dyn std::any::Any + Send + 'static>;

/// What one executor ran of a batch, in the order it claimed indices.
struct Share<T> {
    done: Vec<(usize, T)>,
    /// The first (so lowest-index) panic caught on this executor.
    panic: Option<(usize, Payload)>,
}

impl<T> Share<T> {
    fn new() -> Self {
        Self {
            done: Vec::new(),
            panic: None,
        }
    }

    /// Claims the next index of an `n`-index batch and runs it; `false`
    /// once nothing is left to claim.
    fn claim(&mut self, next: &AtomicUsize, n: usize, f: &impl Fn(usize) -> T) -> bool {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return false;
        }
        match catch_unwind(AssertUnwindSafe(|| f(i))) {
            Ok(value) => self.done.push((i, value)),
            Err(payload) => {
                self.panic.get_or_insert((i, payload));
            }
        }
        true
    }
}

/// An executor lent to a helper; dropping it returns it to the budget.
struct Permit<'a>(&'a AtomicUsize);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// A deterministic executor of scoped batches under one thread budget.
///
/// See the crate docs for the execution model. Most code uses the
/// process-wide [`global`] pool; tests build private pools to sweep
/// executor counts.
pub struct Pool {
    jobs: usize,
    /// Executors free to join a batch: `jobs - 1` less the helpers
    /// running now. Updated `Relaxed`: the count publishes no other
    /// data, since results travel through the scope's `join`.
    spare: AtomicUsize,
}

impl Pool {
    /// Builds a pool of `jobs` executors: the thread that submits a
    /// top-level batch plus up to `jobs - 1` helpers at any moment.
    /// `jobs <= 1` runs every map inline.
    #[expect(clippy::arithmetic_side_effects, reason = "jobs >= 1 by the max below")]
    pub fn new(jobs: usize) -> Self {
        let jobs = jobs.max(1);
        Self {
            jobs,
            spare: AtomicUsize::new(jobs - 1),
        }
    }

    /// Total executors (helpers + the submitting thread).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Takes a free executor from the budget, if there is one.
    fn recruit(&self) -> Option<Permit<'_>> {
        self.spare
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |free| {
                free.checked_sub(1)
            })
            .ok()
            .map(|_| Permit(&self.spare))
    }

    /// Runs `f(0)`, …, `f(n - 1)` across the pool and returns the
    /// results **in index order**, regardless of completion order.
    ///
    /// The submitting thread claims indices alongside its helpers, so
    /// this is safe to call from inside a pool job (nested batches).
    /// With `jobs() == 1` the batch runs inline, sequentially — the
    /// bit-identical fallback path.
    ///
    /// # Panics
    /// Re-raises the panic of the lowest index whose `f` panicked; the
    /// whole batch still runs to completion first.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.jobs == 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let (next, f) = (&next, &f);
        #[expect(
            clippy::disallowed_methods,
            reason = "the executor is where the workspace's threads come from"
        )]
        let mut shares = thread::scope(|scope| {
            let mut helpers = Vec::new();
            let mut mine = Share::new();
            loop {
                // One helper for each unclaimed index beyond the one
                // this thread is about to claim, while executors are free.
                let unclaimed = n.saturating_sub(next.load(Ordering::Relaxed));
                for _ in 1..unclaimed {
                    let Some(permit) = self.recruit() else { break };
                    helpers.push(scope.spawn(move || {
                        let _permit = permit;
                        let mut share = Share::new();
                        while share.claim(next, n, f) {}
                        share
                    }));
                }
                if !mine.claim(next, n, f) {
                    break;
                }
            }
            let mut shares = vec![mine];
            shares.extend(helpers.into_iter().map(|helper| {
                helper
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload))
            }));
            shares
        });
        let first_panic = shares
            .iter_mut()
            .filter_map(|share| share.panic.take())
            .min_by_key(|&(i, _)| i);
        if let Some((_, payload)) = first_panic {
            resume_unwind(payload);
        }
        let mut done: Vec<(usize, T)> = shares.into_iter().flat_map(|share| share.done).collect();
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, value)| value).collect()
    }

    /// Maps `f` over `items`, returning results in item order. See
    /// [`Pool::map_indexed`] for the execution and determinism contract.
    #[expect(
        clippy::indexing_slicing,
        reason = "i < items.len() by the map_indexed contract"
    )]
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        self.map_indexed(items.len(), |i| f(&items[i]))
    }
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The process-wide pool, created on first use with [`default_jobs`]
/// executors.
#[expect(
    clippy::disallowed_methods,
    reason = "the pool's size is the one place the machine's size is read"
)]
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::new(default_jobs()))
}

/// Sizes the global pool before its first use (e.g. from a `--jobs`
/// CLI flag). Returns `false` if the pool already exists, in which case
/// the existing size stays — results are identical either way, only
/// wall-clock differs.
pub fn set_global_jobs(jobs: usize) -> bool {
    GLOBAL.set(Pool::new(jobs)).is_ok()
}

/// Default executor count: the machine's available parallelism.
#[expect(
    clippy::disallowed_methods,
    reason = "the pool's size is the one place the machine's size is read"
)]
pub fn default_jobs() -> usize {
    thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
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
        assert_eq!(pool.map_indexed(10, |i| i), (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "checks the default itself")]
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
        // report failure.
        let _ = set_global_jobs(2);
        assert!(!set_global_jobs(5));
        assert!(global().jobs() >= 1);
    }

    #[test]
    fn every_executor_is_returned_after_a_batch() {
        let pool = Pool::new(6);
        let _ = pool.map_indexed(16, |i| i);
        assert_eq!(pool.spare.load(Ordering::Relaxed), 5);
    }
}
