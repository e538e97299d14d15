//! Session hand-off between the accept thread and the reactor.
//!
//! The accept thread pushes newly accepted connections into a
//! [`SessionRegistry`]; the reactor drains them at the top of each
//! pass. Shutdown is the schedule-sensitive part: a consumer may be
//! blocked in [`SessionRegistry::wait_any`] with no clients when
//! shutdown is requested, and the accept thread may be mid-insert.
//! (Today's reactor never blocks there — it polls
//! [`SessionRegistry::drain`] and sleeps 200 µs after an idle pass —
//! so `wait_any` runs only under test, `tests/model.rs` above all; it
//! is kept as the wake ROADMAP item 1(a) names for the reactor.) The
//! protocol here is the one PR 4's review established for the pool:
//! the closed flag is stored *while holding the queue mutex*, so the
//! store is ordered against any waiter's check-then-wait and the
//! notify cannot be lost. `tests/model.rs` explores every interleaving
//! of insert/drain/shutdown under rlb-check, and proves the checker
//! would catch the unlocked-store variant ([`shutdown_buggy`]) as a
//! lost wakeup.
//!
//! [`shutdown_buggy`]: SessionRegistry::shutdown_buggy

use rlb_sync::{AtomicBool, Condvar, Mutex, Ordering};

/// A closed-aware hand-off queue (new sessions, producer → consumer).
pub struct SessionRegistry<T> {
    incoming: Mutex<Vec<T>>,
    cv: Condvar,
    /// Read only while holding `incoming`'s lock (stores differ between
    /// the correct and seeded-buggy shutdown — that difference is the
    /// whole point of the model test).
    closed: AtomicBool,
}

impl<T> Default for SessionRegistry<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SessionRegistry<T> {
    /// An open, empty registry.
    pub fn new() -> Self {
        Self {
            incoming: Mutex::new(Vec::new()),
            cv: Condvar::new(),
            closed: AtomicBool::new(false),
        }
    }

    /// Hands a new session to the consumer. `Err` returns the session
    /// to the caller when the registry has shut down (the accept thread
    /// then drops the connection).
    pub fn insert(&self, session: T) -> Result<(), T> {
        let mut q = self.incoming.lock().expect("registry lock");
        if self.closed.load(Ordering::Relaxed) {
            return Err(session);
        }
        q.push(session);
        drop(q);
        self.cv.notify_all();
        Ok(())
    }

    /// Takes every pending session without blocking.
    pub fn drain(&self) -> Vec<T> {
        let mut q = self.incoming.lock().expect("registry lock");
        std::mem::take(&mut *q)
    }

    /// Blocks until at least one session is pending or the registry is
    /// closed; returns the drained sessions (empty only on close).
    pub fn wait_any(&self) -> Vec<T> {
        let mut q = self.incoming.lock().expect("registry lock");
        loop {
            if !q.is_empty() || self.closed.load(Ordering::Relaxed) {
                return std::mem::take(&mut *q);
            }
            q = self.cv.wait(q).expect("registry lock");
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Relaxed)
    }

    /// Closes the registry and wakes every waiter.
    pub fn shutdown(&self) {
        // Store under the lock: a consumer that observed `closed ==
        // false` with an empty queue still holds the lock until it
        // enters `wait()`, so acquiring it here orders this store after
        // that check — the notify below cannot fall between a waiter's
        // check and its wait entry.
        let _q = self.incoming.lock().expect("registry lock");
        self.closed.store(true, Ordering::Relaxed);
        drop(_q);
        self.cv.notify_all();
    }

    /// The PR-4 lost-wakeup bug, preserved verbatim for the checker
    /// detection test: the closed store happens *outside* the lock, so
    /// it (and the notify) can slip between a waiter's closed check and
    /// its wait entry — that waiter then sleeps forever. Only exists
    /// under the `model` feature; never use outside tests.
    #[cfg(feature = "model")]
    #[doc(hidden)]
    pub fn shutdown_buggy(&self) {
        self.closed.store(true, Ordering::Relaxed);
        self.cv.notify_all();
    }
}

#[cfg(all(test, not(feature = "model")))]
mod tests {
    use super::*;

    #[test]
    fn insert_then_drain_preserves_order() {
        let r = SessionRegistry::new();
        r.insert(1).unwrap();
        r.insert(2).unwrap();
        assert_eq!(r.drain(), vec![1, 2]);
        assert_eq!(r.drain(), Vec::<i32>::new());
    }

    #[test]
    fn insert_after_shutdown_returns_the_session() {
        let r = SessionRegistry::new();
        r.shutdown();
        assert!(r.is_closed());
        assert_eq!(r.insert(7), Err(7));
    }

    #[test]
    fn wait_any_returns_on_shutdown() {
        let r = rlb_sync::Arc::new(SessionRegistry::<u32>::new());
        let r2 = rlb_sync::Arc::clone(&r);
        let waiter = rlb_sync::thread::spawn(move || r2.wait_any());
        r.shutdown();
        assert_eq!(waiter.join().expect("waiter join"), Vec::<u32>::new());
    }
}
