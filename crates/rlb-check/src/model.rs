//! Instrumented sync primitives for model executions.
//!
//! These are the types `rlb-sync` re-exports when its `model` feature
//! is on. Each mirrors the `std::sync` API surface the workspace
//! actually uses, but every visible operation first passes through a
//! runtime decision point (see [`crate::rt`]), making the interleaving
//! of operations a schedulable, explorable choice.
//!
//! Storage is still real `std` storage: a model [`Mutex`] keeps its
//! data in an inner `std::sync::Mutex` (uncontended by construction —
//! the runtime serializes access), atomics keep their value in inner
//! `std` atomics. All atomic operations execute with `SeqCst` semantics
//! regardless of the `Ordering` argument; the requested ordering is
//! recorded in the trace. `Arc` is re-exported untouched: its
//! refcounting is sync-transparent (no user-visible blocking or
//! ordering beyond what the other primitives already model).
//!
//! Object identity: each primitive lazily registers with the current
//! execution's runtime on first use, which keeps `new()` a `const fn`
//! (so the shims are drop-in for statics-free code). A model object
//! that survives into a *different* execution — e.g. stashed in a
//! process-wide static — is detected via an epoch stamp and panics
//! with a clear message instead of corrupting the next run.

use std::panic::Location;
use std::sync::atomic::Ordering;
use std::sync::{LockResult, PoisonError, TryLockError, TryLockResult};

use crate::rt;

/// Re-exported untouched: `Arc` refcounting is sync-transparent.
pub use std::sync::Arc;

/// Lazily-registered runtime id of a model object, stamped with the
/// execution epoch that created it.
struct ObjId {
    cell: std::sync::OnceLock<(u64, usize)>,
}

impl ObjId {
    const fn new() -> Self {
        Self {
            cell: std::sync::OnceLock::new(),
        }
    }

    /// The object's id in the current execution, registering via
    /// `alloc` on first use.
    fn get(&self, rt: &rt::Rt, alloc: impl FnOnce() -> usize) -> usize {
        let (epoch, id) = *self.cell.get_or_init(|| (rt.epoch, alloc()));
        assert!(
            epoch == rt.epoch,
            "rlb-check: model object created in a previous execution reused in this one — \
             model tests must not stash primitives in statics; build everything inside the \
             check() body"
        );
        id
    }
}

// --------------------------------------------------------------- Mutex

/// Model [`std::sync::Mutex`]: acquisition is a scheduling decision
/// point; re-acquisition by the holder is reported as a double lock;
/// poisoning (a holder panicking) is tracked and surfaced through
/// [`LockResult`] exactly like `std`.
pub struct Mutex<T: ?Sized> {
    id: ObjId,
    inner: std::sync::Mutex<T>,
}

/// Guard returned by [`Mutex::lock`]; releases at drop without a
/// decision point (release is a left-mover).
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
    mutex: &'a Mutex<T>,
    /// Cleared when a condvar wait takes over the release.
    release: bool,
}

impl<T> Mutex<T> {
    /// Creates a new model mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Self {
            id: ObjId::new(),
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    fn id(&self, rt: &rt::Rt) -> usize {
        self.id.get(rt, || rt.new_lock())
    }

    /// Acquires the lock, blocking the virtual thread until available.
    #[track_caller]
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let loc = Location::caller();
        let (rt, me) = rt::ctx();
        let poisoned = rt.lock_acquire(me, self.id(&rt), loc);
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let guard = MutexGuard {
            inner: Some(inner),
            mutex: self,
            release: true,
        };
        if poisoned {
            Err(PoisonError::new(guard))
        } else {
            Ok(guard)
        }
    }

    /// Non-blocking acquisition attempt. A decision point like `lock`,
    /// but returns `WouldBlock` instead of blocking when contended.
    #[track_caller]
    // Mirrors `std::sync::Mutex::try_lock` for code under test. lint:allow(dead-pub)
    pub fn try_lock(&self) -> TryLockResult<MutexGuard<'_, T>> {
        let loc = Location::caller();
        let (rt, me) = rt::ctx();
        match rt.try_lock_acquire(me, self.id(&rt), loc) {
            None => Err(TryLockError::WouldBlock),
            Some(poisoned) => {
                let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
                let guard = MutexGuard {
                    inner: Some(inner),
                    mutex: self,
                    release: true,
                };
                if poisoned {
                    Err(TryLockError::Poisoned(PoisonError::new(guard)))
                } else {
                    Ok(guard)
                }
            }
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard defused")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("guard defused")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        if self.release && rt::in_execution() {
            let (rt, me) = rt::ctx();
            rt.lock_release(me, self.mutex.id(&rt), std::thread::panicking());
        }
    }
}

// ------------------------------------------------------------- Condvar

/// Model [`std::sync::Condvar`]: wait entry is a decision point (that
/// is where lost wakeups live) and the explorer may inject a spurious
/// wakeup at any wait, so only re-checking `while` loops survive
/// checking. `notify_one` explores every possible waiter selection.
pub struct Condvar {
    id: ObjId,
}

impl Condvar {
    /// Creates a new model condvar.
    pub const fn new() -> Self {
        Self { id: ObjId::new() }
    }

    fn id(&self, rt: &rt::Rt) -> usize {
        self.id.get(rt, || rt.new_cv())
    }

    /// Atomically releases the guard's lock and blocks until notified
    /// (or spuriously woken by the explorer), then reacquires.
    #[track_caller]
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let loc = Location::caller();
        let (rt, me) = rt::ctx();
        let mutex = guard.mutex;
        // The runtime performs the release as part of wait entry; the
        // guard must not release again on drop.
        guard.release = false;
        guard.inner = None;
        let lock_id = mutex.id(&rt);
        drop(guard);
        rt.cv_wait(me, self.id(&rt), lock_id, loc);
        mutex.lock()
    }

    /// Wakes every waiter (a single decision point for the notifier).
    #[track_caller]
    pub fn notify_all(&self) {
        let loc = Location::caller();
        let (rt, me) = rt::ctx();
        rt.notify_all(me, self.id(&rt), loc);
    }

    /// Wakes one waiter; with several waiting, *which* one is a
    /// scheduling decision the explorer enumerates.
    #[track_caller]
    pub fn notify_one(&self) {
        let loc = Location::caller();
        let (rt, me) = rt::ctx();
        rt.notify_one(me, self.id(&rt), loc);
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

// ------------------------------------------------------------- atomics

macro_rules! model_atomic {
    ($(#[$doc:meta])* $name:ident, $std:ident, $ty:ty) => {
        $(#[$doc])*
        pub struct $name {
            id: ObjId,
            inner: std::sync::atomic::$std,
        }

        impl $name {
            /// Creates a new model atomic holding `v`.
            pub const fn new(v: $ty) -> Self {
                Self { id: ObjId::new(), inner: std::sync::atomic::$std::new(v) }
            }

            fn point(&self, op: &str, order: Ordering, loc: &Location<'_>) {
                let (rt, me) = rt::ctx();
                let id = self.id.get(&rt, || rt.new_atomic());
                rt.atomic_point(me, format!("a{id}.{op} ({order:?}) [{loc}]"));
            }

            /// Atomic load (executed `SeqCst`; `order` recorded).
            #[track_caller]
            pub fn load(&self, order: Ordering) -> $ty {
                self.point("load", order, Location::caller());
                self.inner.load(Ordering::SeqCst)
            }

            /// Atomic store (executed `SeqCst`; `order` recorded).
            #[track_caller]
            pub fn store(&self, v: $ty, order: Ordering) {
                self.point("store", order, Location::caller());
                self.inner.store(v, Ordering::SeqCst)
            }

            /// Atomic swap (executed `SeqCst`; `order` recorded).
            #[track_caller]
            pub fn swap(&self, v: $ty, order: Ordering) -> $ty {
                self.point("swap", order, Location::caller());
                self.inner.swap(v, Ordering::SeqCst)
            }
        }
    };
}

model_atomic!(
    /// Model [`std::sync::atomic::AtomicBool`]: every access is a
    /// decision point; operations execute sequentially consistent.
    AtomicBool,
    AtomicBool,
    bool
);

model_atomic!(
    /// Model [`std::sync::atomic::AtomicUsize`]: every access is a
    /// decision point; operations execute sequentially consistent.
    AtomicUsize,
    AtomicUsize,
    usize
);

impl AtomicUsize {
    /// Atomic add returning the previous value (one indivisible op —
    /// and therefore one decision point, unlike a load/store pair).
    #[track_caller]
    pub fn fetch_add(&self, v: usize, order: Ordering) -> usize {
        self.point("fetch_add", order, Location::caller());
        self.inner.fetch_add(v, Ordering::SeqCst)
    }
}

// ------------------------------------------------------------ OnceLock

/// Model [`std::sync::OnceLock`]: initialization is serialized through
/// a model mutex so racing initializers become explored schedules (one
/// wins, the rest observe the value), mirroring `std`'s guarantee that
/// `get_or_init` runs the closure at most once.
pub struct OnceLock<T> {
    gate: Mutex<()>,
    cell: std::sync::OnceLock<T>,
}

impl<T> OnceLock<T> {
    /// Creates an empty model cell.
    pub const fn new() -> Self {
        Self {
            gate: Mutex::new(()),
            cell: std::sync::OnceLock::new(),
        }
    }

    /// Returns the value, initializing with `f` if empty. `f` runs at
    /// most once across all threads.
    #[track_caller]
    pub fn get_or_init<F: FnOnce() -> T>(&self, f: F) -> &T {
        let _g = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        self.cell.get_or_init(f)
    }

    /// Returns the value if initialized.
    pub fn get(&self) -> Option<&T> {
        self.cell.get()
    }

    /// Sets the value if empty; `Err(value)` when already set.
    #[track_caller]
    pub fn set(&self, value: T) -> Result<(), T> {
        let _g = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        self.cell.set(value)
    }
}

impl<T> Default for OnceLock<T> {
    fn default() -> Self {
        Self::new()
    }
}

// -------------------------------------------------------------- thread

/// Model replacement for the [`std::thread`] surface `rlb-pool` uses:
/// spawned threads become virtual threads of the current execution.
pub mod thread {
    use std::io;
    use std::num::NonZeroUsize;
    use std::panic::Location;
    use std::sync::Arc;

    use crate::rt;

    /// Model [`std::thread::Builder`] (only `name` is honored).
    #[derive(Default)]
    pub struct Builder {
        name: Option<String>,
    }

    impl Builder {
        /// Creates a builder with no name set.
        pub fn new() -> Self {
            Self::default()
        }

        /// Names the thread (shows up in schedule traces).
        pub fn name(mut self, name: String) -> Self {
            self.name = Some(name);
            self
        }

        /// Spawns a virtual thread in the current execution.
        #[track_caller]
        pub fn spawn<F, T>(self, f: F) -> io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            let loc = Location::caller();
            let (rt, me) = rt::ctx();
            let name = self.name.unwrap_or_else(|| "anon".to_string());
            let slot: Arc<std::sync::Mutex<Option<T>>> = Arc::new(std::sync::Mutex::new(None));
            let slot2 = Arc::clone(&slot);
            let tid = rt.spawn_virtual(
                name,
                Box::new(move || {
                    let v = f();
                    *slot2
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(v);
                }),
                Some((me, loc)),
            );
            Ok(JoinHandle { tid, slot })
        }
    }

    /// Spawns an unnamed virtual thread.
    #[track_caller]
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        Builder::new().spawn(f).expect("model spawn cannot fail")
    }

    /// Model [`std::thread::ThreadId`]: the virtual-thread id.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    pub struct ThreadId(usize);

    /// Model [`std::thread::Thread`] (identity only).
    #[derive(Clone, Debug)]
    pub struct Thread {
        id: ThreadId,
    }

    impl Thread {
        /// The thread's unique id within the execution.
        pub fn id(&self) -> ThreadId {
            self.id
        }
    }

    /// A handle for the calling virtual thread.
    pub fn current() -> Thread {
        let (_, me) = rt::ctx();
        Thread { id: ThreadId(me) }
    }

    /// Model [`std::thread::JoinHandle`].
    pub struct JoinHandle<T> {
        tid: usize,
        slot: Arc<std::sync::Mutex<Option<T>>>,
    }

    impl<T> JoinHandle<T> {
        /// Identity of the thread this handle refers to. (Returned by
        /// value, not `&Thread` as in `std` — call sites using
        /// `handle.thread().id()` compile against both.)
        pub fn thread(&self) -> Thread {
            Thread {
                id: ThreadId(self.tid),
            }
        }

        /// Blocks until the thread finishes and returns its value.
        ///
        /// An uncaught panic in a virtual thread fails the whole
        /// execution before any joiner resumes, so unlike `std` the
        /// `Err` arm is never observed by surviving model code.
        #[track_caller]
        pub fn join(self) -> std::thread::Result<T> {
            let loc = Location::caller();
            let (rt, me) = rt::ctx();
            rt.join(me, self.tid, loc);
            let v = self
                .slot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take()
                .expect("joined thread finished without a result");
            Ok(v)
        }
    }

    /// Fixed at 2 under the model: enough to exercise the parallel
    /// paths while keeping schedule counts small.
    pub fn available_parallelism() -> io::Result<NonZeroUsize> {
        Ok(NonZeroUsize::new(2).expect("2 != 0"))
    }
}
