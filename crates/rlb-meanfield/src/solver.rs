//! The fluid-limit step map, fixed-point solver, and transient evolver.
//!
//! One engine step becomes one application of a deterministic map `T`
//! on the tail vector `s[k] = P(backlog ≥ k)`:
//!
//! 1. **Arrival flow** — the step's `λ` per-server arrivals are a
//!    continuum routed online, so `s` evolves along the within-step
//!    clock `τ ∈ [0, λ]` by the power-of-d drift
//!    `ds[k]/dτ = s[k−1]^d − s[k]^d` (integrated with explicit Euler
//!    substeps `dτ = euler_dt`). The flux `s[q]^d` is mass whose best
//!    candidate is already at capacity: rejected when the queue is
//!    capped, censored past the truncation depth when it is not.
//! 2. **Synchronized drain** — every server completes `min(backlog, g)`
//!    requests, which on the tail vector is the shift
//!    `s[k] ← s[k + g]`.
//!
//! The steady state is the fixed point of `T`, found by damped
//! iteration; the transient response to phased workloads is `T` applied
//! step by step. Both report through [`Prediction`].

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::model::{MfConfig, MfPolicy, Phase, SolveOptions};
use rlb_metrics::{linf_distance, Histogram, TailValue};

/// Per-step mass balance (all quantities per server per step).
#[derive(Debug, Clone, Copy, Default)]
struct StepFlux {
    /// Arrivals enqueued somewhere within the tracked depth.
    accepted: f64,
    /// Arrivals whose best candidate sat at the final level: rejections
    /// for a capped queue, censored acceptances for an uncapped one.
    over: f64,
    /// Requests completed by the drain.
    completed: f64,
}

/// Per-position enqueue weights accumulated over one step's arrival
/// flow: `w[j]` is the mass enqueued behind exactly `j` requests.
#[derive(Debug, Clone)]
struct ArrivalFlow {
    w: Vec<f64>,
    over: f64,
}

impl ArrivalFlow {
    fn new(depth: usize) -> Self {
        Self {
            w: vec![0.0; depth],
            over: 0.0,
        }
    }
}

#[inline]
fn powd(x: f64, d: u32) -> f64 {
    match d {
        1 => x,
        2 => x * x,
        3 => x * x * x,
        _ => x.powi(d as i32),
    }
}

/// Applies one step of the mean-field map to `s` in place
/// (`s.len() == depth + 1`, `s[0] == 1`), optionally accumulating the
/// enqueue-position weights, and returns the step's mass balance.
fn step_map(cfg: &MfConfig, d: u32, s: &mut [f64], mut flow: Option<&mut ArrivalFlow>) -> StepFlux {
    let depth = s.len().saturating_sub(1);
    let mut flux = StepFlux::default();
    // Arrival flow: integrate τ from 0 to λ with Euler substeps.
    if cfg.lambda > 0.0 && depth > 0 {
        let n_sub = (cfg.lambda / cfg.euler_dt).ceil().max(1.0) as u64;
        let dt = cfg.lambda / n_sub as f64;
        let mut p = vec![0.0; depth + 1];
        for _ in 0..n_sub {
            for (pk, &sk) in p.iter_mut().zip(s.iter()) {
                *pk = powd(sk, d);
            }
            // ds[k] = dt · (p[k−1] − p[k]); both the drift and the
            // enqueue weights read the same flux terms.
            for k in 1..=depth {
                let influx = dt * (p[k - 1] - p[k]);
                s[k] += influx;
                if let Some(f) = flow.as_deref_mut() {
                    // An arrival crossing level k−1→k joined behind
                    // exactly k−1 requests.
                    f.w[k - 1] += influx;
                }
            }
            let over = dt * p[depth];
            flux.over += over;
            if let Some(f) = flow.as_deref_mut() {
                f.over += over;
            }
            // Project back onto monotone [0, 1] tails: Euler can
            // overshoot a vanishing gap between adjacent levels.
            let mut prev = 1.0f64;
            for v in s.iter_mut().skip(1) {
                *v = v.clamp(0.0, prev);
                prev = *v;
            }
        }
        flux.accepted = cfg.lambda - flux.over;
    }
    // Completions, read off the post-arrival state: a server drains
    // min(backlog, g), so the per-server completion mass is
    // Σ_{k=1..g} s[k].
    let g = cfg.process_rate as usize;
    flux.completed = s.iter().skip(1).take(g).sum();
    // Synchronized drain: shift the tail down by g levels.
    if depth > 0 {
        for k in 1..=depth {
            s[k] = if k + g <= depth { s[k + g] } else { 0.0 };
        }
    }
    flux
}

/// Summary of one transient phase (see [`solve_transient`]).
#[derive(Debug, Clone, PartialEq)]
// reached through `Prediction::phases`, never named by consumers. lint:allow(dead-pub)
pub struct PhaseSummary {
    /// Arrival intensity during the phase.
    pub lambda: f64,
    /// Steps evolved.
    pub steps: u64,
    /// Rejected (or censored, for uncapped queues) fraction of the
    /// phase's arrivals.
    pub rejection_rate: f64,
    /// Mean backlog at the end of the phase.
    pub mean_backlog_end: f64,
}

rlb_json::json_struct!(PhaseSummary {
    lambda,
    steps,
    rejection_rate,
    mean_backlog_end
});

/// The solver's prediction of the cluster's behaviour.
///
/// Latency and backlog maxima carry explicit censor flags: a `true`
/// flag means the value is a lower bound inherited from the tail
/// truncation, not an observed level (see `rlb_metrics::TailValue`).
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Routing policy solved.
    pub policy: MfPolicy,
    /// Cluster size the prediction is for.
    pub m: u64,
    /// Arrival intensity (requests per server per step).
    pub lambda: f64,
    /// Effective number of choices in the drift.
    pub d: u32,
    /// Drain rate `g`.
    pub process_rate: u32,
    /// Queue capacity; `None` for the uncapped model.
    pub queue_capacity: Option<u32>,
    /// Levels tracked by the tail vector.
    pub depth: u32,
    /// `"fixpoint"` or `"ode"`.
    pub mode: String,
    /// Fixed-point iterations (or total transient steps).
    pub iterations: u64,
    /// Final L∞ fixed-point residual `‖T(s) − s‖∞`.
    pub residual: f64,
    /// Whether the residual reached the tolerance.
    pub converged: bool,
    /// Whether the solver had to cut the damping factor to make
    /// progress (a non-contracting, oscillating regime).
    pub oscillation_detected: bool,
    /// The damping factor in effect at the end.
    pub damping_final: f64,
    /// Definition 2.1: rejected fraction of arrivals (zero for an
    /// uncapped queue — see [`Prediction::censored_arrivals`]).
    pub rejection_rate: f64,
    /// Accepted (= completed, at a fixed point) requests per server per
    /// step.
    pub throughput: f64,
    /// Requests the drain completes per server per step, measured on
    /// the reported state. At a converged fixed point this equals
    /// [`Prediction::throughput`] — the conservation identity the
    /// property suite pins.
    pub completed: f64,
    /// Fraction of arrivals enqueued beyond the truncation depth of an
    /// uncapped queue; their latency is censored.
    pub censored_arrivals: f64,
    /// Mean backlog per server (`Σ_{k≥1} s[k]`).
    pub mean_backlog: f64,
    /// Deepest level a cluster of `m` servers is predicted to populate
    /// (largest `k` with `s[k] ≥ 1/m`).
    pub max_backlog: u64,
    /// Whether `max_backlog` is truncation-censored (`>=` the value).
    pub max_backlog_censored: bool,
    /// Definition 2.2: mean latency of accepted requests, in steps.
    pub avg_latency: f64,
    /// 99th-percentile latency of accepted requests.
    pub p99_latency: u64,
    /// Whether `p99_latency` is censored.
    pub p99_latency_censored: bool,
    /// Maximum latency of accepted requests.
    pub max_latency: u64,
    /// Whether `max_latency` is censored.
    pub max_latency_censored: bool,
    /// The steady-state (or final) tail vector `s[k] = P(backlog ≥ k)`,
    /// sampled at the step boundary (post-drain), `k = 0..=depth`.
    pub backlog_tail: Vec<f64>,
    /// Per-phase summaries (`ode` mode only).
    pub phases: Vec<PhaseSummary>,
}

rlb_json::json_struct!(Prediction {
    policy,
    m,
    lambda,
    d,
    process_rate,
    queue_capacity,
    depth,
    mode,
    iterations,
    residual,
    converged,
    oscillation_detected,
    damping_final,
    rejection_rate,
    throughput,
    completed,
    censored_arrivals,
    mean_backlog,
    max_backlog,
    max_backlog_censored,
    avg_latency,
    p99_latency,
    p99_latency_censored,
    max_latency,
    max_latency_censored,
    backlog_tail,
    phases,
});

/// Iterations without a new best residual before the damping factor is
/// halved (oscillation detection).
const STALL_WINDOW: u64 = 64;
/// Smallest damping factor the solver will fall back to.
const MIN_DAMPING: f64 = 1.0 / 64.0;
/// Counts used to discretize the unit of latency mass into an exact
/// histogram (2^40 keeps eight significant decimal digits of any
/// weight while staying far from u64 saturation).
const LATENCY_SCALE: f64 = (1u64 << 40) as f64;

fn fresh_state(depth: usize) -> Vec<f64> {
    let mut s = vec![0.0; depth + 1];
    if let Some(first) = s.first_mut() {
        *first = 1.0;
    }
    s
}

/// Computes the steady state by damped fixed-point iteration of the
/// step map.
///
/// Convergence is judged on the *undamped* residual `‖T(s) − s‖∞`.
/// When no new best residual has been seen for [`STALL_WINDOW`]
/// iterations the damping factor is halved (down to [`MIN_DAMPING`])
/// and `oscillation_detected` is set — period-2 cycles of the
/// synchronized-drain map under heavy load are real, and averaging the
/// iterates is the standard cure.
///
/// # Panics
/// Panics if `cfg` or `opts` fail validation; the CLI validates both
/// before calling.
pub fn solve_fixpoint(cfg: &MfConfig, opts: &SolveOptions) -> Prediction {
    assert!(cfg.validate().is_ok(), "invalid MfConfig");
    assert!(opts.validate().is_ok(), "invalid SolveOptions");
    let d = cfg.policy.choices(cfg.replication);
    let depth = cfg.depth() as usize;
    let mut s = fresh_state(depth);
    let mut damping = opts.damping;
    let mut oscillation = false;
    let mut best_residual = f64::INFINITY;
    let mut since_best = 0u64;
    let mut residual = f64::INFINITY;
    let mut converged = false;
    let mut iterations = 0u64;
    while iterations < opts.max_iters {
        iterations += 1;
        let mut next = s.clone();
        step_map(cfg, d, &mut next, None);
        residual = linf_distance(&next, &s);
        if residual <= opts.tolerance {
            s = next;
            converged = true;
            break;
        }
        if residual < best_residual {
            best_residual = residual;
            since_best = 0;
        } else {
            since_best += 1;
            if since_best >= STALL_WINDOW && damping > MIN_DAMPING {
                damping = (damping * 0.5).max(MIN_DAMPING);
                oscillation = true;
                since_best = 0;
                best_residual = residual;
            }
        }
        if damping >= 1.0 {
            s = next;
        } else {
            for (cur, nxt) in s.iter_mut().zip(next.iter()) {
                *cur += damping * (nxt - *cur);
            }
        }
    }
    finish(
        cfg,
        d,
        "fixpoint",
        s,
        iterations,
        residual,
        converged,
        oscillation,
        damping,
        Vec::new(),
    )
}

/// Evolves the transient response to a piecewise-constant phased
/// workload (explicit-Euler within steps, one map application per
/// step), starting from an empty cluster.
///
/// The returned [`Prediction`] describes the state after the last
/// phase; `converged` reports whether the final state is also a fixed
/// point of the final phase's map (within `opts.tolerance`), which is
/// what a long stationary phase produces.
///
/// # Panics
/// Panics if `cfg` or `opts` fail validation, or if `phases` is empty.
pub fn solve_transient(cfg: &MfConfig, opts: &SolveOptions, phases: &[Phase]) -> Prediction {
    assert!(cfg.validate().is_ok(), "invalid MfConfig");
    assert!(opts.validate().is_ok(), "invalid SolveOptions");
    assert!(!phases.is_empty(), "need at least one phase");
    let d = cfg.policy.choices(cfg.replication);
    let depth = cfg.depth() as usize;
    let mut s = fresh_state(depth);
    let mut summaries = Vec::with_capacity(phases.len());
    let mut total_steps = 0u64;
    let mut phase_cfg = cfg.clone();
    for phase in phases {
        assert!(
            phase.lambda.is_finite() && phase.lambda >= 0.0,
            "phase lambda must be finite and >= 0"
        );
        phase_cfg.lambda = phase.lambda;
        let mut over = 0.0f64;
        for _ in 0..phase.steps {
            over += step_map(&phase_cfg, d, &mut s, None).over;
        }
        total_steps = total_steps.saturating_add(phase.steps);
        let arrived = phase.lambda * phase.steps as f64;
        summaries.push(PhaseSummary {
            lambda: phase.lambda,
            steps: phase.steps,
            rejection_rate: if arrived > 0.0 { over / arrived } else { 0.0 },
            mean_backlog_end: s.iter().skip(1).sum(),
        });
    }
    // Final-phase residual: is the endpoint stationary?
    phase_cfg.lambda = phases.last().map(|p| p.lambda).unwrap_or(cfg.lambda);
    let mut probe = s.clone();
    step_map(&phase_cfg, d, &mut probe, None);
    let residual = linf_distance(&probe, &s);
    let converged = residual <= opts.tolerance;
    finish(
        &phase_cfg,
        d,
        "ode",
        s,
        total_steps,
        residual,
        converged,
        false,
        opts.damping,
        summaries,
    )
}

/// Builds the report from a solved state: one more arrival flow from
/// `s` yields the enqueue-position weights that determine rejection,
/// throughput, and the latency distribution.
#[allow(clippy::too_many_arguments)]
fn finish(
    cfg: &MfConfig,
    d: u32,
    mode: &str,
    s: Vec<f64>,
    iterations: u64,
    residual: f64,
    converged: bool,
    oscillation: bool,
    damping: f64,
    phases: Vec<PhaseSummary>,
) -> Prediction {
    let depth = s.len().saturating_sub(1);
    let capped = cfg.queue_capacity.is_some();
    let mut flow = ArrivalFlow::new(depth);
    let mut probe = s.clone();
    let flux = step_map(cfg, d, &mut probe, Some(&mut flow));

    // Latency of an arrival enqueued behind j requests under the
    // end-of-step drain: ⌈(j+1)/g⌉ − 1 = ⌊j/g⌋ steps.
    let g = cfg.process_rate.max(1) as u64;
    let accepted_mass = if capped {
        flux.accepted
    } else {
        flux.accepted + flux.over
    };
    let mut latency = Histogram::new();
    let mut mean_num = 0.0f64;
    if accepted_mass > 0.0 {
        let scale = LATENCY_SCALE / accepted_mass;
        for (j, &wj) in flow.w.iter().enumerate() {
            if wj > 0.0 {
                let steps = j as u64 / g;
                latency.record_n(steps, (wj * scale).round() as u64);
                mean_num += wj * steps as f64;
            }
        }
        if !capped && flow.over > 0.0 {
            // Mass past the truncation depth waits at least as long as
            // the deepest tracked position.
            let bound = depth as u64 / g;
            latency.record_censored_n(bound, (flow.over * scale).round() as u64);
            mean_num += flow.over * (bound as f64);
        }
    }
    let avg_latency = if accepted_mass > 0.0 {
        mean_num / accepted_mass
    } else {
        0.0
    };
    let p99 = latency.quantile_tail(0.99).unwrap_or(TailValue::Exact(0));
    let max = latency.max_tail().unwrap_or(TailValue::Exact(0));

    // Finite-m max backlog: deepest level the fluid tail predicts at
    // least one of m servers to reach.
    let occupancy_floor = 1.0 / cfg.m as f64;
    let max_backlog = s
        .iter()
        .enumerate()
        .rev()
        .find(|&(_, &v)| v >= occupancy_floor)
        .map(|(k, _)| k as u64)
        .unwrap_or(0);
    // The reported tail is a post-drain state, so the deepest level an
    // uncapped truncated model can represent is depth − g: mass sitting
    // there may truly extend further.
    let backlog_bound = (depth as u64).saturating_sub(g);
    let max_backlog_censored = !capped
        && max_backlog >= backlog_bound
        && s.get(backlog_bound as usize)
            .is_some_and(|&v| v >= occupancy_floor);

    Prediction {
        policy: cfg.policy,
        m: cfg.m,
        lambda: cfg.lambda,
        d,
        process_rate: cfg.process_rate,
        queue_capacity: cfg.queue_capacity,
        depth: cfg.depth(),
        mode: mode.to_string(),
        iterations,
        residual,
        converged,
        oscillation_detected: oscillation,
        damping_final: damping,
        rejection_rate: if capped && cfg.lambda > 0.0 {
            flux.over / cfg.lambda
        } else {
            0.0
        },
        throughput: accepted_mass,
        completed: flux.completed,
        censored_arrivals: if capped || cfg.lambda <= 0.0 {
            0.0
        } else {
            flux.over / cfg.lambda
        },
        mean_backlog: s.iter().skip(1).sum(),
        max_backlog,
        max_backlog_censored,
        avg_latency,
        p99_latency: p99.value(),
        p99_latency_censored: p99.is_censored(),
        max_latency: max.value(),
        max_latency_censored: max.is_censored(),
        backlog_tail: s,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn light() -> MfConfig {
        MfConfig {
            m: 65536,
            lambda: 2.0,
            replication: 2,
            process_rate: 8,
            queue_capacity: Some(12),
            truncation_depth: 12,
            policy: MfPolicy::Greedy,
            euler_dt: 0.05,
        }
    }

    #[test]
    fn light_load_converges_with_negligible_rejection() {
        let p = solve_fixpoint(&light(), &SolveOptions::default());
        assert!(p.converged, "residual {}", p.residual);
        assert!(p.residual <= 1e-12);
        assert!(p.rejection_rate < 1e-9, "rejection {}", p.rejection_rate);
        assert!((p.throughput - 2.0).abs() < 1e-9);
        // λ < g: everything drains within the step it arrived.
        assert_eq!(p.max_latency, 0);
        assert!(!p.max_latency_censored);
        assert_eq!(p.backlog_tail.len(), 13);
        assert!((p.backlog_tail[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overload_rejects_the_excess_at_the_fixed_point() {
        let mut cfg = light();
        cfg.lambda = 12.0; // 1.5 × the drain rate
        cfg.queue_capacity = Some(6);
        cfg.truncation_depth = 6;
        let p = solve_fixpoint(&cfg, &SolveOptions::default());
        assert!(p.converged, "residual {}", p.residual);
        // Conservation: accepted mass equals drained mass in steady
        // state, so rejection absorbs the λ − g excess (plus whatever
        // the queue geometry adds).
        assert!(
            p.rejection_rate >= (12.0 - 8.0) / 12.0 - 1e-6,
            "rejection {}",
            p.rejection_rate
        );
        assert!((p.throughput - 12.0 * (1.0 - p.rejection_rate)).abs() < 1e-9);
    }

    #[test]
    fn power_of_two_beats_one_choice_on_the_tail() {
        let mut greedy = light();
        greedy.lambda = 7.2;
        let mut one = greedy.clone();
        one.policy = MfPolicy::OneChoice;
        let pg = solve_fixpoint(&greedy, &SolveOptions::default());
        let p1 = solve_fixpoint(&one, &SolveOptions::default());
        assert!(pg.converged && p1.converged);
        // The d = 2 tail is lighter at the deepest populated post-drain
        // level (support ends at q − g = 4), and the loss rate is lower.
        assert!(pg.rejection_rate < p1.rejection_rate);
        assert!(pg.backlog_tail[3] < p1.backlog_tail[3]);
        assert!(pg.max_backlog <= p1.max_backlog);
    }

    #[test]
    fn uniform_random_matches_one_choice_drift() {
        let mut a = light();
        a.lambda = 6.0;
        a.policy = MfPolicy::OneChoice;
        let mut b = a.clone();
        b.policy = MfPolicy::UniformRandom;
        let pa = solve_fixpoint(&a, &SolveOptions::default());
        let pb = solve_fixpoint(&b, &SolveOptions::default());
        assert_eq!(pa.d, 1);
        assert_eq!(pb.d, 1);
        assert!(linf_distance(&pa.backlog_tail, &pb.backlog_tail) < 1e-15);
    }

    #[test]
    fn uncapped_overload_censors_latency_reads() {
        let cfg = MfConfig {
            m: 1 << 20,
            lambda: 12.0,
            replication: 2,
            process_rate: 8,
            queue_capacity: None,
            truncation_depth: 32,
            policy: MfPolicy::Greedy,
            euler_dt: 0.05,
        };
        let p = solve_fixpoint(&cfg, &SolveOptions::default());
        // Overload with no cap: mass pins at the truncation depth, and
        // the deep reads must say so instead of reporting the bound as
        // an observed value.
        assert_eq!(p.rejection_rate, 0.0);
        assert!(p.censored_arrivals > 0.1, "{}", p.censored_arrivals);
        assert!(p.max_latency_censored);
        assert!(p.p99_latency_censored);
        assert!(p.max_backlog_censored);
        // Post-drain states cannot represent levels past depth − g.
        assert_eq!(p.max_backlog, 24);
    }

    #[test]
    fn transient_reaches_the_fixed_point_on_stationary_input() {
        let mut cfg = light();
        cfg.lambda = 7.2;
        let opts = SolveOptions::default();
        let fp = solve_fixpoint(&cfg, &opts);
        let ode = solve_transient(
            &cfg,
            &opts,
            &[Phase {
                lambda: 7.2,
                steps: 4096,
            }],
        );
        assert!(fp.converged);
        assert!(ode.converged, "transient residual {}", ode.residual);
        assert!(
            linf_distance(&fp.backlog_tail, &ode.backlog_tail) < 1e-9,
            "fixpoint and ODE disagree: {:?} vs {:?}",
            fp.backlog_tail,
            ode.backlog_tail
        );
        assert_eq!(ode.mode, "ode");
        assert_eq!(ode.phases.len(), 1);
    }

    #[test]
    fn phased_workload_tracks_the_load_change() {
        let mut cfg = light();
        cfg.lambda = 7.2;
        let p = solve_transient(
            &cfg,
            &SolveOptions::default(),
            &[
                Phase {
                    lambda: 7.9,
                    steps: 512,
                },
                Phase {
                    lambda: 1.0,
                    steps: 512,
                },
            ],
        );
        assert_eq!(p.phases.len(), 2);
        // The heavy phase builds backlog; the light phase drains it.
        assert!(p.phases[0].mean_backlog_end > p.phases[1].mean_backlog_end);
        assert!(p.phases[0].rejection_rate >= p.phases[1].rejection_rate);
        // Final state is the light-phase steady state.
        assert!(p.converged);
        assert!(p.mean_backlog < 1.5);
    }

    #[test]
    fn prediction_roundtrips_through_json() {
        let p = solve_fixpoint(&light(), &SolveOptions::default());
        let json = rlb_json::to_string(&p);
        let back: Prediction = rlb_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn empty_intensity_stays_empty() {
        let mut cfg = light();
        cfg.lambda = 0.0;
        let p = solve_fixpoint(&cfg, &SolveOptions::default());
        assert!(p.converged);
        assert_eq!(p.iterations, 1);
        assert_eq!(p.mean_backlog, 0.0);
        assert_eq!(p.avg_latency, 0.0);
        assert_eq!(p.throughput, 0.0);
    }
}
