//! Admission control: a bounded in-flight gate.
//!
//! Every admitted request holds one unit from receipt until its reply
//! or reject frame is queued, so the server's total outstanding work —
//! staged requests plus engine backlog awaiting replies — is bounded by
//! the gate limit. A full gate turns arrivals into immediate typed
//! [`RejectCause::Admission`](crate::proto::RejectCause::Admission)
//! frames instead of unbounded queues.
//!
//! The gate is plain state of the one [`ServerCore`](crate::ServerCore)
//! that owns it: every caller reaches it through the core's `&mut self`,
//! so the check and the add cannot be interleaved and there is nothing
//! to lock.

/// A counting admission gate with a hard limit.
pub(crate) struct BacklogGate {
    limit: u64,
    inflight: u64,
}

impl BacklogGate {
    /// A gate admitting at most `limit` units in flight.
    pub(crate) fn new(limit: u64) -> Self {
        Self { limit, inflight: 0 }
    }

    /// Currently held units.
    pub(crate) fn inflight(&self) -> u64 {
        self.inflight
    }

    /// Admits `n` units if they fit. Returns whether the units were
    /// taken.
    pub(crate) fn try_acquire(&mut self, n: u64) -> bool {
        match self.inflight.checked_add(n) {
            Some(next) if next <= self.limit => {
                self.inflight = next;
                true
            }
            _ => false,
        }
    }

    /// Returns `n` units to the gate. Over-release is clamped rather
    /// than panicking: the serve loop treats accounting drift as a bug
    /// its tests catch, not a reason to crash a live daemon.
    pub(crate) fn release(&mut self, n: u64) {
        self.inflight = self.inflight.saturating_sub(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_tracks_inflight() {
        let mut g = BacklogGate::new(3);
        assert!(g.try_acquire(2));
        assert_eq!(g.inflight(), 2);
        assert!(g.try_acquire(1));
        assert!(!g.try_acquire(1), "gate full");
        g.release(2);
        assert_eq!(g.inflight(), 1);
        assert!(g.try_acquire(2));
    }

    #[test]
    fn overflowing_request_never_wraps() {
        let mut g = BacklogGate::new(u64::MAX);
        assert!(g.try_acquire(u64::MAX));
        assert!(!g.try_acquire(1), "checked_add refuses the wrap");
        g.release(1);
        assert!(g.try_acquire(1));
    }

    #[test]
    fn over_release_clamps_to_zero() {
        let mut g = BacklogGate::new(2);
        assert!(g.try_acquire(1));
        g.release(5);
        assert_eq!(g.inflight(), 0);
    }
}
