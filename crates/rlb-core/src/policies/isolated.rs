//! Time-step-isolated routing (the strategy class of Lemma 5.3).
//!
//! A *time-step-isolated* strategy makes its routing decisions using only
//! the requests made during the current step — no knowledge of carried
//! backlogs or of anything from previous steps. This policy implements
//! the natural member of that class: greedy over the arrival counts
//! accumulated **within the current step**. Corollary 5.4 proves every
//! such strategy fails (some server receives `Ω(log log m)` average load
//! per step under a fixed repeated request set); experiment E8 shows the
//! failure empirically against stateful greedy.
//!
//! Capacity checks are still performed (a full queue rejects — that much
//! is local server state, not routing state); the *choice among
//! replicas* uses only in-step information.

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

/// Greedy over within-step arrivals only.
#[derive(Debug, Clone)]
pub struct TimeStepIsolated {
    /// Arrivals per server during the current step.
    step_arrivals: Vec<u32>,
    current_step: u64,
}

impl TimeStepIsolated {
    /// Creates the policy for `num_servers` servers.
    pub fn new(num_servers: usize) -> Self {
        Self {
            step_arrivals: vec![0; num_servers],
            current_step: u64::MAX,
        }
    }
}

impl Policy for TimeStepIsolated {
    fn name(&self) -> &'static str {
        "step-isolated"
    }

    fn queue_classes(&self, config: &SimConfig) -> Vec<ClassSpec> {
        vec![ClassSpec {
            capacity: config.queue_capacity,
            drain_per_step: config.process_rate,
        }]
    }

    fn on_step_begin(&mut self, step: u64, _ops: &mut dyn crate::policy::StepOps) {
        self.step_arrivals.fill(0);
        self.current_step = step;
    }

    fn route(&mut self, ctx: RouteCtx<'_>, view: &ClusterView<'_>) -> Decision {
        debug_assert_eq!(ctx.step, self.current_step, "missed step boundary");
        let mut best: Option<u32> = None;
        let mut best_count = u32::MAX;
        for &server in ctx.replicas {
            if !view.is_available(server, 0) {
                continue;
            }
            #[expect(clippy::indexing_slicing, reason = "server < m = step_arrivals.len()")]
            let count = self.step_arrivals[server as usize];
            if count < best_count {
                best = Some(server);
                best_count = count;
            }
        }
        match best {
            #[expect(
                clippy::indexing_slicing,
                clippy::arithmetic_side_effects,
                reason = "server < m = step_arrivals.len(); a step's arrivals fit a u32"
            )]
            Some(server) => {
                self.step_arrivals[server as usize] += 1;
                Decision::Route { server, class: 0 }
            }
            None => Decision::Reject(RejectReason::Policy),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StepOps;
    use crate::queue::QueueArray;

    struct NoOps;
    impl StepOps for NoOps {
        fn migrate_class(&mut self, _from: usize, _to: usize) {}
    }

    #[test]
    fn ignores_carried_backlog() {
        let mut q = QueueArray::new(
            4,
            &[ClassSpec {
                capacity: 16,
                drain_per_step: 1,
            }],
        );
        // Server 0 carries a deep backlog from "previous steps".
        for _ in 0..10 {
            q.enqueue(0, 0, 0).unwrap();
        }
        let view = ClusterView::new(&q);
        let mut p = TimeStepIsolated::new(4);
        p.on_step_begin(1, &mut NoOps);
        // Isolated greedy sees both replicas at 0 in-step arrivals and
        // picks the first — blind to the carried load on server 0.
        let d = p.route(
            RouteCtx {
                step: 1,
                chunk: 0,
                replicas: &[0, 1],
            },
            &view,
        );
        assert_eq!(
            d,
            Decision::Route {
                server: 0,
                class: 0
            }
        );
    }

    #[test]
    fn balances_within_a_step() {
        let q = QueueArray::new(
            4,
            &[ClassSpec {
                capacity: 16,
                drain_per_step: 1,
            }],
        );
        let view = ClusterView::new(&q);
        let mut p = TimeStepIsolated::new(4);
        p.on_step_begin(0, &mut NoOps);
        let replicas = [2u32, 3];
        let mut counts = [0u32; 4];
        for _ in 0..6 {
            if let Decision::Route { server, .. } = p.route(
                RouteCtx {
                    step: 0,
                    chunk: 0,
                    replicas: &replicas,
                },
                &view,
            ) {
                counts[server as usize] += 1;
            }
        }
        assert_eq!(counts[2], 3);
        assert_eq!(counts[3], 3);
    }

    #[test]
    fn resets_at_step_boundary() {
        let q = QueueArray::new(
            2,
            &[ClassSpec {
                capacity: 16,
                drain_per_step: 1,
            }],
        );
        let view = ClusterView::new(&q);
        let mut p = TimeStepIsolated::new(2);
        p.on_step_begin(0, &mut NoOps);
        let _ = p.route(
            RouteCtx {
                step: 0,
                chunk: 0,
                replicas: &[0, 1],
            },
            &view,
        );
        p.on_step_begin(1, &mut NoOps);
        // Fresh counts: picks the first replica again.
        let d = p.route(
            RouteCtx {
                step: 1,
                chunk: 0,
                replicas: &[0, 1],
            },
            &view,
        );
        assert_eq!(
            d,
            Decision::Route {
                server: 0,
                class: 0
            }
        );
    }
}
