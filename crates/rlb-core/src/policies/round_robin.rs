//! Per-chunk round-robin over replicas.
//!
//! A stateful but load-oblivious baseline: the `i`-th access to a chunk
//! goes to its `(i mod d)`-th replica. Spreads a chunk's own traffic
//! perfectly but cannot react to collisions between chunks, so under
//! adversarial repetition it behaves like a fractional-split strategy —
//! better than one-choice, worse than greedy (experiment E12).

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

/// Round-robin across a chunk's replicas, per chunk.
#[derive(Debug, Clone)]
pub struct RoundRobin {
    /// Next replica index per chunk (lazily sized).
    counters: Vec<u8>,
}

impl RoundRobin {
    /// Creates the policy for a universe of `num_chunks` chunks.
    pub fn new(num_chunks: usize) -> Self {
        Self {
            counters: vec![0; num_chunks],
        }
    }
}

impl Policy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
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
            reason = "chunk < num_chunks = counters.len()"
        )]
        let counter = &mut self.counters[ctx.chunk as usize];
        let d = ctx.replicas.len();
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "placement gives d >= 1 replicas"
        )]
        let start = *counter as usize % d;
        *counter = counter.wrapping_add(1);
        // Prefer the scheduled replica; fall forward to the next open one.
        for offset in 0..d {
            #[expect(
                clippy::indexing_slicing,
                clippy::arithmetic_side_effects,
                reason = "start, offset < d: the sum fits, and `% d` lands in replicas"
            )]
            let server = ctx.replicas[(start + offset) % d];
            if view.is_available(server, 0) {
                return Decision::Route { server, class: 0 };
            }
        }
        Decision::Reject(RejectReason::Policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueueArray;

    #[test]
    fn rotates_over_replicas() {
        let q = QueueArray::new(
            4,
            &[ClassSpec {
                capacity: 16,
                drain_per_step: 1,
            }],
        );
        let view = ClusterView::new(&q);
        let mut p = RoundRobin::new(8);
        let replicas = [1u32, 3];
        let servers: Vec<u32> = (0..4)
            .map(|_| {
                match p.route(
                    RouteCtx {
                        step: 0,
                        chunk: 5,
                        replicas: &replicas,
                    },
                    &view,
                ) {
                    Decision::Route { server, .. } => server,
                    _ => panic!("expected route"),
                }
            })
            .collect();
        assert_eq!(servers, vec![1, 3, 1, 3]);
    }

    #[test]
    fn chunks_rotate_independently() {
        let q = QueueArray::new(
            4,
            &[ClassSpec {
                capacity: 16,
                drain_per_step: 1,
            }],
        );
        let view = ClusterView::new(&q);
        let mut p = RoundRobin::new(8);
        let r0 = [0u32, 1];
        let r1 = [2u32, 3];
        let d0 = p.route(
            RouteCtx {
                step: 0,
                chunk: 0,
                replicas: &r0,
            },
            &view,
        );
        let d1 = p.route(
            RouteCtx {
                step: 0,
                chunk: 1,
                replicas: &r1,
            },
            &view,
        );
        assert_eq!(
            d0,
            Decision::Route {
                server: 0,
                class: 0
            }
        );
        assert_eq!(
            d1,
            Decision::Route {
                server: 2,
                class: 0
            }
        );
    }

    #[test]
    fn falls_forward_past_full_replica() {
        let mut q = QueueArray::new(
            4,
            &[ClassSpec {
                capacity: 1,
                drain_per_step: 1,
            }],
        );
        q.enqueue(1, 0, 0).unwrap();
        let view = ClusterView::new(&q);
        let mut p = RoundRobin::new(8);
        let d = p.route(
            RouteCtx {
                step: 0,
                chunk: 0,
                replicas: &[1, 2],
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
}
