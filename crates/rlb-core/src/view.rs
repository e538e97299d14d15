//! Read-only view of cluster state exposed to policies and observers.

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

use crate::queue::QueueArray;

/// A read-only window onto the cluster's queues.
///
/// Policies receive a `ClusterView` when routing; it intentionally
/// exposes only queue-occupancy information — a policy cannot see the
/// identity of queued requests, matching the model (routing decisions
/// depend on backlogs, not on which chunks are waiting). Server
/// liveness is owned by the queue array (the engine syncs it from the
/// outage schedule each step), so the view is a single-pointer wrapper.
#[derive(Debug, Clone, Copy)]
pub struct ClusterView<'a> {
    queues: &'a QueueArray,
}

impl<'a> ClusterView<'a> {
    /// Wraps a queue array.
    pub(crate) fn new(queues: &'a QueueArray) -> Self {
        Self { queues }
    }

    /// Whether `server` is currently serving (failure-detector view).
    #[inline]
    pub fn is_up(&self, server: u32) -> bool {
        self.queues.is_live(server)
    }

    /// Whether `server` can accept a request into `class`: up and not
    /// full. The standard availability predicate for policies.
    #[inline]
    pub fn is_available(&self, server: u32, class: usize) -> bool {
        self.is_up(server) && !self.queues.is_full(server, class)
    }

    /// Total backlog (all classes) of `server`.
    #[inline]
    pub fn backlog(&self, server: u32) -> u32 {
        self.queues.backlog(server)
    }

    /// The routing view of `server`'s backlog: its total backlog while
    /// up, `u32::MAX` while down. Min-selection loops can compare this
    /// directly — a down server never wins — instead of branching on
    /// [`ClusterView::is_up`] per candidate; `least_loaded` is that
    /// select, shared by the greedy policies.
    #[inline]
    pub fn route_backlog(&self, server: u32) -> u32 {
        self.queues.route_backlog(server)
    }

    /// The first of `candidates` holding the least routing word, and
    /// that word. One fold with no early exit: each step keeps the
    /// candidate only if its word is strictly smaller, so ties keep the
    /// earlier one and the compare compiles to selects, not a branch.
    /// If every candidate is down the word stays `u32::MAX`. For a
    /// one-class policy a live word is the class-0 length, so the pick
    /// is available iff the word is below `capacity(0)`.
    #[inline]
    pub(crate) fn least_loaded(&self, candidates: &[u32]) -> (u32, u32) {
        let (mut server, mut best) = (u32::MAX, u32::MAX);
        for &s in candidates {
            let b = self.route_backlog(s);
            let better = b < best;
            server = if better { s } else { server };
            best = if better { b } else { best };
        }
        (server, best)
    }

    /// Backlog of one queue class of `server`.
    #[inline]
    pub fn class_backlog(&self, server: u32, class: usize) -> u32 {
        self.queues.class_backlog(server, class)
    }

    /// Whether `class` at `server` is at capacity.
    #[inline]
    pub fn is_full(&self, server: u32, class: usize) -> bool {
        self.queues.is_full(server, class)
    }

    /// Capacity of queue class `class`.
    #[inline]
    pub fn capacity(&self, class: usize) -> u32 {
        self.queues.capacity(class)
    }

    /// Number of servers.
    #[inline]
    pub fn num_servers(&self) -> usize {
        self.queues.num_servers()
    }

    /// Number of queue classes.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.queues.num_classes()
    }

    /// Per-server total backlogs, in server-id order.
    #[inline]
    pub fn backlogs(&self) -> impl Iterator<Item = u32> + 'a {
        self.queues.backlogs()
    }

    /// Total requests queued across the cluster. O(1); the queue
    /// array's incrementally maintained counter.
    #[inline]
    pub fn total_backlog(&self) -> u64 {
        self.queues.total_backlog()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::ClassSpec;

    #[test]
    fn view_reflects_queue_state() {
        let mut q = QueueArray::new(
            2,
            &[ClassSpec {
                capacity: 2,
                drain_per_step: 1,
            }],
        );
        q.enqueue(1, 0, 7).unwrap();
        let v = ClusterView::new(&q);
        assert_eq!(v.backlog(0), 0);
        assert_eq!(v.backlog(1), 1);
        assert_eq!(v.class_backlog(1, 0), 1);
        assert!(!v.is_full(1, 0));
        assert_eq!(v.capacity(0), 2);
        assert_eq!(v.num_servers(), 2);
        assert_eq!(v.num_classes(), 1);
        assert_eq!(v.backlogs().collect::<Vec<_>>(), vec![0, 1]);
        assert!(v.is_up(0));
        assert!(v.is_available(0, 0));
        assert_eq!(v.route_backlog(1), 1);
    }

    #[test]
    fn liveness_gates_availability_and_route_backlog() {
        let mut q = QueueArray::new(
            2,
            &[ClassSpec {
                capacity: 2,
                drain_per_step: 1,
            }],
        );
        q.set_live(1, false);
        let v = ClusterView::new(&q);
        assert!(v.is_up(0));
        assert!(!v.is_up(1));
        assert!(v.is_available(0, 0));
        assert!(
            !v.is_available(1, 0),
            "down server is unavailable even when empty"
        );
        assert_eq!(v.route_backlog(0), 0);
        assert_eq!(
            v.route_backlog(1),
            u32::MAX,
            "down server advertises the sentinel backlog"
        );
    }
}
