//! The `d = 1` baseline: no replication benefit.
//!
//! Routes every request to the chunk's first replica — equivalent to the
//! no-replication setting of Wang et al. (PPoPP '23, reference \[34\] of
//! the paper), where **no** policy can achieve rejection rate `o(1)`
//! against a repeated workload: servers oversubscribed at step 1 stay
//! oversubscribed forever. Experiment E5 exhibits that collapse.

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

use crate::config::SimConfig;
use crate::policy::{Decision, Policy, RejectReason, RouteCtx};
use crate::queue::ClassSpec;
use crate::view::ClusterView;

/// Always routes to the first replica (the `d = 1` regime).
#[derive(Debug, Clone, Copy, Default)]
pub struct OneChoice;

impl OneChoice {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl Policy for OneChoice {
    fn name(&self) -> &'static str {
        "one-choice"
    }

    fn queue_classes(&self, config: &SimConfig) -> Vec<ClassSpec> {
        vec![ClassSpec {
            capacity: config.queue_capacity,
            drain_per_step: config.process_rate,
        }]
    }

    fn route(&mut self, ctx: RouteCtx<'_>, view: &ClusterView<'_>) -> Decision {
        #[expect(
            clippy::indexing_slicing,
            reason = "placement gives every chunk d >= 1 replicas"
        )]
        let server = ctx.replicas[0];
        if !view.is_up(server) {
            Decision::Reject(RejectReason::ServerDown)
        } else if view.is_full(server, 0) {
            Decision::Reject(RejectReason::Policy)
        } else {
            Decision::Route { server, class: 0 }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueueArray;

    #[test]
    fn always_first_replica() {
        let q = QueueArray::new(
            4,
            &[ClassSpec {
                capacity: 2,
                drain_per_step: 1,
            }],
        );
        let view = ClusterView::new(&q);
        let mut p = OneChoice::new();
        let d = p.route(
            RouteCtx {
                step: 0,
                chunk: 3,
                replicas: &[2, 0, 1],
            },
            &view,
        );
        assert_eq!(
            d,
            Decision::Route {
                server: 2,
                class: 0
            }
        );
    }

    #[test]
    fn rejects_when_first_replica_full() {
        let mut q = QueueArray::new(
            4,
            &[ClassSpec {
                capacity: 1,
                drain_per_step: 1,
            }],
        );
        q.enqueue(2, 0, 0).unwrap();
        let view = ClusterView::new(&q);
        let mut p = OneChoice::new();
        let d = p.route(
            RouteCtx {
                step: 0,
                chunk: 3,
                replicas: &[2, 0],
            },
            &view,
        );
        // Even though replica 0 is free, d=1 semantics ignore it.
        assert_eq!(d, Decision::Reject(RejectReason::Policy));
    }
}
