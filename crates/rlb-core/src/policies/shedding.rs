//! Greedy with early load shedding — the model's *third knob*.
//!
//! §2 of the paper: "a server may choose to reject a request even if the
//! server's queue is not full. As we shall see, this can be helpful for
//! handling rare failure events." The flush is one use of that freedom;
//! this policy exposes the other classic one: **latency flooring**. It
//! routes greedily but voluntarily rejects any request whose best
//! replica already has backlog above a shedding threshold `t ≤ q`,
//! capping the latency of every *accepted* request at `≈ t/g` steps at
//! the cost of a higher rejection rate — the knob SLO-driven systems
//! actually turn. Experiment E22 traces the trade. The select is plain
//! greedy's (`ClusterView`'s `least_loaded` fold); only the bar moves,
//! from the capacity to `min(capacity, t)`.

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

/// Greedy routing with a voluntary backlog threshold.
#[derive(Debug, Clone, Copy)]
pub struct GreedyShedding {
    /// Requests are shed when the least-backlogged replica already holds
    /// at least this many requests.
    pub threshold: u32,
}

impl GreedyShedding {
    /// Creates the policy.
    ///
    /// # Panics
    /// Panics if `threshold == 0` (that would shed everything).
    pub fn new(threshold: u32) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        Self { threshold }
    }
}

impl Policy for GreedyShedding {
    fn name(&self) -> &'static str {
        "greedy-shedding"
    }

    fn queue_classes(&self, config: &SimConfig) -> Vec<ClassSpec> {
        vec![ClassSpec {
            capacity: config.queue_capacity,
            drain_per_step: config.process_rate,
        }]
    }

    fn route(&mut self, ctx: RouteCtx<'_>, view: &ClusterView<'_>) -> Decision {
        // Voluntary shed (third knob), or every replica full or down.
        let (server, backlog) = view.least_loaded(ctx.replicas);
        if backlog < view.capacity(0).min(self.threshold) {
            Decision::Route { server, class: 0 }
        } else {
            Decision::Reject(RejectReason::Policy)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueueArray;

    fn queues(backlogs: &[u32], cap: u32) -> QueueArray {
        let mut q = QueueArray::new(
            backlogs.len(),
            &[ClassSpec {
                capacity: cap,
                drain_per_step: 1,
            }],
        );
        for (server, &n) in backlogs.iter().enumerate() {
            for _ in 0..n {
                q.enqueue(server as u32, 0, 0).unwrap();
            }
        }
        q
    }

    #[test]
    fn routes_below_threshold() {
        let q = queues(&[3, 1], 16);
        let view = ClusterView::new(&q);
        let mut p = GreedyShedding::new(4);
        let d = p.route(
            RouteCtx {
                step: 0,
                chunk: 0,
                replicas: &[0, 1],
            },
            &view,
        );
        assert_eq!(
            d,
            Decision::Route {
                server: 1,
                class: 0
            }
        );
    }

    #[test]
    fn sheds_at_threshold_even_with_room() {
        // Both replicas have backlog >= threshold but queues are far
        // from full: the shed is voluntary.
        let q = queues(&[4, 5], 16);
        let view = ClusterView::new(&q);
        let mut p = GreedyShedding::new(4);
        let d = p.route(
            RouteCtx {
                step: 0,
                chunk: 0,
                replicas: &[0, 1],
            },
            &view,
        );
        assert_eq!(d, Decision::Reject(RejectReason::Policy));
    }

    #[test]
    fn threshold_equal_to_capacity_matches_plain_greedy() {
        use crate::policies::Greedy;
        let q = queues(&[2, 7], 8);
        let view = ClusterView::new(&q);
        let mut shed = GreedyShedding::new(8);
        let mut plain = Greedy::new();
        let ctx = RouteCtx {
            step: 0,
            chunk: 0,
            replicas: &[0, 1],
        };
        assert_eq!(shed.route(ctx, &view), plain.route(ctx, &view));
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_panics() {
        let _ = GreedyShedding::new(0);
    }
}
