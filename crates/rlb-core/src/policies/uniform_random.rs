//! Uniform-random replica choice: replication without load awareness.
//!
//! Routes each request to a uniformly random replica, ignoring queue
//! state. Classical one-choice-per-arrival behaviour: max per-step load
//! `Θ(log m / log log m)` rather than `O(log log m)`, so it needs larger
//! queues than greedy for the same rejection rate (experiments E4/E12).

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
use rlb_hash::{Pcg64, Rng};

/// Routes to a uniformly random replica.
#[derive(Debug, Clone)]
pub struct UniformRandom {
    rng: Pcg64,
}

impl UniformRandom {
    /// Creates the policy with its own decision-randomness stream.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Pcg64::new(seed, 0x7a11),
        }
    }
}

impl Policy for UniformRandom {
    fn name(&self) -> &'static str {
        "uniform-random"
    }

    fn queue_classes(&self, config: &SimConfig) -> Vec<ClassSpec> {
        vec![ClassSpec {
            capacity: config.queue_capacity,
            drain_per_step: config.process_rate,
        }]
    }

    fn route(&mut self, ctx: RouteCtx<'_>, view: &ClusterView<'_>) -> Decision {
        // Pick uniformly among *live* replicas (liveness is visible to
        // any real system via its failure detector); queue state is
        // deliberately not consulted.
        let mut live = [0u32; rlb_hash::placement::MAX_REPLICATION];
        let mut n = 0;
        for &s in ctx.replicas {
            #[expect(
                clippy::indexing_slicing,
                clippy::arithmetic_side_effects,
                reason = "n < replicas.len() <= MAX_REPLICATION = live.len()"
            )]
            if view.is_up(s) {
                live[n] = s;
                n += 1;
            }
        }
        if n == 0 {
            return Decision::Reject(RejectReason::ServerDown);
        }
        #[expect(clippy::indexing_slicing, reason = "gen_index(n) < n <= live.len()")]
        let server = live[self.rng.gen_index(n)];
        if view.is_full(server, 0) {
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
    fn choices_cover_all_replicas() {
        let q = QueueArray::new(
            8,
            &[ClassSpec {
                capacity: 64,
                drain_per_step: 1,
            }],
        );
        let view = ClusterView::new(&q);
        let mut p = UniformRandom::new(1);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            if let Decision::Route { server, .. } = p.route(
                RouteCtx {
                    step: 0,
                    chunk: 0,
                    replicas: &[3, 5, 6],
                },
                &view,
            ) {
                seen.insert(server);
            }
        }
        assert_eq!(seen, [3u32, 5, 6].into_iter().collect());
    }

    #[test]
    fn rejects_only_when_chosen_queue_full() {
        let mut q = QueueArray::new(
            4,
            &[ClassSpec {
                capacity: 1,
                drain_per_step: 1,
            }],
        );
        q.enqueue(0, 0, 0).unwrap();
        q.enqueue(1, 0, 0).unwrap();
        let view = ClusterView::new(&q);
        let mut p = UniformRandom::new(2);
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
}
