//! The greedy algorithm (§3 of the paper).
//!
//! Each request goes to the queue with the least backlog among the `d`
//! replicas of its chunk, ties broken toward the earlier replica. If
//! every replica's queue is full, the request is rejected. The pick is
//! [`ClusterView`]'s branch-free `least_loaded` fold over the routing
//! words, then one compare against the capacity: with one class, the
//! least word is below it iff some replica is up and not full, and the
//! first replica holding it is the one to take. Combined with
//! queue capacity `q = log2(m) + 1` and periodic flushes every `m^c`
//! steps (configured via [`crate::SimConfig`]), Theorem 3.1 gives
//! expected rejection rate `O(1/m^{c−1})`, maximum latency `O(log m)`,
//! and expected average latency `O(1)`.

use crate::config::SimConfig;
use crate::policy::{Decision, Policy, RejectReason, RouteCtx};
use crate::queue::ClassSpec;
use crate::view::ClusterView;

/// Greedy least-backlog routing over the `d` replicas.
#[derive(Debug, Clone, Copy, Default)]
pub struct Greedy;

impl Greedy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl Policy for Greedy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn queue_classes(&self, config: &SimConfig) -> Vec<ClassSpec> {
        vec![ClassSpec {
            capacity: config.queue_capacity,
            drain_per_step: config.process_rate,
        }]
    }

    fn route(&mut self, ctx: RouteCtx<'_>, view: &ClusterView<'_>) -> Decision {
        let (server, backlog) = view.least_loaded(ctx.replicas);
        if backlog < view.capacity(0) {
            Decision::Route { server, class: 0 }
        } else {
            Decision::Reject(RejectReason::Policy)
        }
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects)]
mod tests {
    use super::*;
    use crate::queue::QueueArray;

    fn view_with(backlogs: &[(u32, u32)], cap: u32) -> QueueArray {
        let m = backlogs.iter().map(|&(s, _)| s + 1).max().unwrap_or(1) as usize;
        let mut q = QueueArray::new(
            m.max(4),
            &[ClassSpec {
                capacity: cap,
                drain_per_step: 1,
            }],
        );
        for &(server, n) in backlogs {
            for _ in 0..n {
                q.enqueue(server, 0, 0).unwrap();
            }
        }
        q
    }

    #[test]
    fn routes_to_least_backlogged() {
        let q = view_with(&[(0, 3), (1, 1), (2, 2)], 8);
        let view = ClusterView::new(&q);
        let mut p = Greedy::new();
        let d = p.route(
            RouteCtx {
                step: 0,
                chunk: 0,
                replicas: &[0, 1, 2],
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
    fn ties_break_to_first_replica() {
        let q = view_with(&[(0, 2), (1, 2)], 8);
        let view = ClusterView::new(&q);
        let mut p = Greedy::new();
        let d = p.route(
            RouteCtx {
                step: 0,
                chunk: 0,
                replicas: &[1, 0],
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
    fn skips_full_queues() {
        // Server 0 full (cap 2); server 1 has the higher usable backlog
        // but is the only open option.
        let q = view_with(&[(0, 2), (1, 1)], 2);
        let view = ClusterView::new(&q);
        let mut p = Greedy::new();
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
    fn rejects_when_all_full() {
        let q = view_with(&[(0, 2), (1, 2)], 2);
        let view = ClusterView::new(&q);
        let mut p = Greedy::new();
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
    fn down_server_never_wins_via_sentinel() {
        // Server 0 is empty but down: its sentinel backlog loses to any
        // live candidate; with every replica down the request rejects.
        let mut q = view_with(&[(1, 3)], 8);
        q.set_live(0, false);
        let view = ClusterView::new(&q);
        let mut p = Greedy::new();
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
        let mut q = view_with(&[(0, 1), (1, 1)], 8);
        q.set_live(0, false);
        q.set_live(1, false);
        let view = ClusterView::new(&q);
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
    fn queue_classes_use_config() {
        let cfg = SimConfig::baseline(16);
        let classes = Greedy::new().queue_classes(&cfg);
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].capacity, cfg.queue_capacity);
        assert_eq!(classes[0].drain_per_step, cfg.process_rate);
    }

    /// `Greedy::route` before the `least_loaded` fold, its code verbatim:
    /// the reference the fold is checked against.
    fn greedy_reference(ctx: RouteCtx<'_>, view: &ClusterView<'_>) -> Decision {
        let mut best: Option<u32> = None;
        let mut best_backlog = u32::MAX;
        for &server in ctx.replicas {
            let b = view.route_backlog(server);
            if b >= best_backlog {
                continue;
            }
            if view.is_full(server, 0) {
                continue;
            }
            best = Some(server);
            best_backlog = b;
        }
        match best {
            Some(server) => Decision::Route { server, class: 0 },
            None => Decision::Reject(RejectReason::Policy),
        }
    }

    /// `GreedyShedding::route` before the fold, verbatim but for
    /// `self.threshold`, which is a parameter here.
    fn shedding_reference(threshold: u32, ctx: RouteCtx<'_>, view: &ClusterView<'_>) -> Decision {
        let mut best: Option<u32> = None;
        let mut best_backlog = u32::MAX;
        for &server in ctx.replicas {
            if !view.is_available(server, 0) {
                continue;
            }
            let b = view.backlog(server);
            if b < best_backlog {
                best = Some(server);
                best_backlog = b;
            }
        }
        match best {
            Some(server) if best_backlog < threshold => Decision::Route { server, class: 0 },
            _ => Decision::Reject(RejectReason::Policy),
        }
    }

    #[test]
    fn the_fold_decides_like_the_old_loops_on_every_small_cluster() {
        use crate::policies::GreedyShedding;
        const SERVERS: u32 = 4;
        const CAP: u32 = 3;
        // Every ordered vector of distinct candidates, d = 1..=4.
        let mut candidate_sets: Vec<Vec<u32>> = vec![Vec::new()];
        let mut all = Vec::new();
        for _ in 0..SERVERS {
            candidate_sets = candidate_sets
                .iter()
                .flat_map(|set| {
                    (0..SERVERS)
                        .filter(|s| !set.contains(s))
                        .map(move |s| [set.as_slice(), &[s]].concat())
                })
                .collect();
            all.extend(candidate_sets.iter().cloned());
        }
        assert_eq!(all.len(), 4 + 12 + 24 + 24);
        // Each server at backlog 0..=CAP, live or down (a down server
        // keeps its frozen backlog): 8 states a server.
        let (mut routed, mut total) = (0, 0);
        for code in 0..8u32.pow(SERVERS) {
            let mut q = view_with(&[], CAP);
            for server in 0..SERVERS {
                let state = code / 8u32.pow(server) % 8;
                for _ in 0..state % 4 {
                    q.enqueue(server, 0, 0).unwrap();
                }
                q.set_live(server, state < 4);
            }
            let view = ClusterView::new(&q);
            for replicas in &all {
                let ctx = RouteCtx {
                    step: 0,
                    chunk: 0,
                    replicas,
                };
                let want = greedy_reference(ctx, &view);
                assert_eq!(
                    Greedy::new().route(ctx, &view),
                    want,
                    "{code:o} {replicas:?}"
                );
                for threshold in 1..=CAP + 1 {
                    assert_eq!(
                        GreedyShedding::new(threshold).route(ctx, &view),
                        shedding_reference(threshold, ctx, &view),
                        "{code:o} {replicas:?} threshold {threshold}"
                    );
                }
                routed += usize::from(want != Decision::Reject(RejectReason::Policy));
                total += 1;
            }
        }
        // Both outcomes are exercised.
        assert!(0 < routed && routed < total, "{routed} of {total} routed");
    }
}
