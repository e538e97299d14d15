//! The `fastforward` subcommand: mean-field steady-state prediction.
//!
//! Where the main `rlb-sim` run simulates every server, `fastforward`
//! solves the fluid-limit model from `rlb-meanfield` — the answer for
//! `m = 10^8` arrives in milliseconds because the solver's cost is
//! `O(q)` per iteration, independent of `m`.
//!
//! ```text
//! rlb-sim fastforward [OPTIONS]
//!
//!   --m M                cluster size (default 1048576; only enters
//!                        finite-m report quantities)
//!   --rate G             requests drained per server per step (default 8)
//!   --queue Q            queue capacity (default log2 m + 1)
//!   --uncapped K         model an uncapped queue, truncating the tail
//!                        vector at depth K (overflow is censored)
//!   --lambda X           arrivals per server per step (default 0.9*G)
//!   --per-step N         total arrivals per step (X = N / M)
//!   --replication D      the d of power-of-d (default 2)
//!   --policy NAME        greedy | one-choice | uniform-random
//!   --mode fixpoint|ode  steady state (default) or explicit-Euler
//!                        transient integration
//!   --phases SPEC        ode only: L1:T1,L2:T2,... phases of T steps
//!                        at arrival intensity L (default one phase of
//!                        4096 steps at --lambda)
//!   --damping A          fixed-point damping in (0, 1] (default 1.0)
//!   --tolerance T        convergence tolerance, > 0 (default 1e-12)
//!   --max-iters N        iteration budget (default 20000)
//!   --euler-dt DT        within-step Euler substep (default 0.05)
//!   --json               emit the prediction as JSON
//! ```

use crate::flags::{parse_num, unknown, Flags};
use rlb_meanfield::{
    solve_fixpoint, solve_transient, MfConfig, MfPolicy, Phase, Prediction, SolveOptions,
};

/// A fully parsed `fastforward` invocation.
#[derive(Debug, Clone, PartialEq)]
// threaded through `parse_fastforward_args` -> solve by callers. lint:allow(dead-pub)
pub struct FastForwardOptions {
    /// Model configuration handed to the solver.
    pub config: MfConfig,
    /// Solver options (damping, tolerance, budget).
    pub solve: SolveOptions,
    /// `fixpoint` (steady state) or `ode` (transient integration).
    pub mode: String,
    /// Phases for `--mode ode`.
    pub phases: Vec<Phase>,
    /// Emit JSON instead of the text report.
    pub json: bool,
}

/// Parses `--phases L1:T1,L2:T2,...`.
fn parse_phases(raw: &str) -> Result<Vec<Phase>, String> {
    let mut phases = Vec::new();
    for part in raw.split(',') {
        let (lam, steps) = part
            .split_once(':')
            .ok_or_else(|| format!("--phases: expected LAMBDA:STEPS, got {part:?}"))?;
        let lambda: f64 = parse_num("--phases", lam)?;
        if !lambda.is_finite() || lambda < 0.0 {
            return Err(format!(
                "--phases: lambda must be finite and >= 0, got {lam:?}"
            ));
        }
        let steps: u64 = steps
            .parse()
            .map_err(|_| format!("--phases: not a step count: {steps:?}"))?;
        if steps == 0 {
            return Err(format!("--phases: steps must be positive, got {part:?}"));
        }
        phases.push(Phase { lambda, steps });
    }
    if phases.is_empty() {
        return Err("--phases: empty list".into());
    }
    Ok(phases)
}

/// Parses `fastforward` arguments (after the subcommand name).
///
/// Every constraint is checked here so a bad flag dies as a usage error
/// (exit 2) naming the flag typed, not as a solver panic naming a
/// config field the user never wrote.
///
/// # Errors
/// Returns a usage-style message on malformed input.
pub fn parse_fastforward_args(args: &[String]) -> Result<FastForwardOptions, String> {
    let mut m: u64 = 1 << 20;
    let mut rate: u32 = 8;
    let mut queue: Option<u32> = None;
    let mut uncapped: Option<u32> = None;
    let mut lambda: Option<f64> = None;
    let mut per_step: Option<u64> = None;
    let mut replication: u32 = 2;
    let mut policy = MfPolicy::Greedy;
    let mut mode = "fixpoint".to_string();
    let mut phases: Option<Vec<Phase>> = None;
    let mut solve = SolveOptions::default();
    let mut euler_dt = 0.05;
    let mut json = false;

    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next_flag() {
        match arg {
            "--m" => m = flags.positive(arg)?,
            "--rate" => rate = flags.positive(arg)?,
            "--queue" => queue = Some(flags.positive(arg)?),
            "--uncapped" => {
                let raw = flags.value(arg)?;
                let k: u32 = raw
                    .parse()
                    .map_err(|_| format!("--uncapped: not a depth: {raw:?}"))?;
                if k == 0 {
                    return Err(format!("--uncapped: depth must be positive, got {raw:?}"));
                }
                uncapped = Some(k);
            }
            "--lambda" => lambda = Some(flags.float(arg, "finite and >= 0", |x| x >= 0.0)?),
            "--per-step" => per_step = Some(flags.num(arg)?),
            "--replication" => replication = flags.positive(arg)?,
            "--policy" => policy = MfPolicy::parse(flags.value(arg)?)?,
            "--mode" => {
                mode = flags.value(arg)?.to_string();
                if mode != "fixpoint" && mode != "ode" {
                    return Err(format!("--mode: expected fixpoint or ode, got {mode:?}"));
                }
            }
            "--phases" => phases = Some(parse_phases(flags.value(arg)?)?),
            "--damping" => {
                solve.damping = flags.float(arg, "in (0, 1]", |a| a > 0.0 && a <= 1.0)?
            }
            "--tolerance" => solve.tolerance = flags.float(arg, "positive", |t| t > 0.0)?,
            "--max-iters" => solve.max_iters = flags.positive(arg)?,
            "--euler-dt" => euler_dt = flags.float(arg, "positive", |dt| dt > 0.0)?,
            "--json" => json = true,
            other => return Err(unknown("fastforward ", other)),
        }
    }

    if queue.is_some() && uncapped.is_some() {
        return Err("--queue and --uncapped are mutually exclusive".into());
    }
    if lambda.is_some() && per_step.is_some() {
        return Err("--lambda and --per-step are mutually exclusive".into());
    }
    if phases.is_some() && mode != "ode" {
        return Err("--phases requires --mode ode".into());
    }
    let lambda = match (lambda, per_step) {
        (Some(x), _) => x,
        (None, Some(n)) => n as f64 / m as f64,
        (None, None) => 0.9 * f64::from(rate),
    };
    // Default capacity mirrors `MfConfig::baseline`: log2 m + 1.
    let default_q = (64 - m.max(2).leading_zeros()).max(4);
    let (queue_capacity, truncation_depth) = match uncapped {
        Some(k) => (None, k),
        None => {
            let q = queue.unwrap_or(default_q);
            (Some(q), q)
        }
    };
    let config = MfConfig {
        m,
        lambda,
        replication,
        process_rate: rate,
        queue_capacity,
        truncation_depth,
        policy,
        euler_dt,
    };
    config.validate()?;
    solve.validate()?;
    let phases = phases.unwrap_or_else(|| {
        vec![Phase {
            lambda,
            steps: 4096,
        }]
    });
    Ok(FastForwardOptions {
        config,
        solve,
        mode,
        phases,
        json,
    })
}

/// Solves the parsed model, returning the prediction and the solver
/// wall time in milliseconds.
pub fn solve_fastforward(opts: &FastForwardOptions) -> (Prediction, f64) {
    #[expect(
        clippy::disallowed_methods,
        reason = "the solver's wall time is reported beside, never inside, the prediction"
    )]
    let start = std::time::Instant::now();
    let prediction = if opts.mode == "ode" {
        solve_transient(&opts.config, &opts.solve, &opts.phases)
    } else {
        solve_fixpoint(&opts.config, &opts.solve)
    };
    (prediction, start.elapsed().as_secs_f64() * 1e3)
}

/// Formats a latency/backlog figure, marking censored values (mass at
/// the truncation boundary of an uncapped model) as lower bounds.
fn bounded(value: u64, censored: bool) -> String {
    if censored {
        format!(">={value}")
    } else {
        value.to_string()
    }
}

/// Renders the prediction as the human-readable text block.
fn render_fastforward(p: &Prediction, solve_ms: f64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let capacity = match p.queue_capacity {
        Some(q) => format!("q={q}"),
        None => format!("uncapped(depth {})", p.depth),
    };
    let _ = writeln!(
        out,
        "mean-field {:?} | m={} λ={:.4}/server/step d={} g={} {} | mode {}",
        p.policy, p.m, p.lambda, p.d, p.process_rate, capacity, p.mode
    );
    let _ = writeln!(
        out,
        "solver             {} iterations  residual {:.3e}  {}{}  ({solve_ms:.2} ms)",
        p.iterations,
        p.residual,
        if p.converged {
            "converged"
        } else {
            "NOT CONVERGED"
        },
        if p.oscillation_detected {
            format!("  (oscillation damped to {:.4})", p.damping_final)
        } else {
            String::new()
        },
    );
    let _ = writeln!(out, "rejection rate     {:.6e}", p.rejection_rate);
    let _ = writeln!(
        out,
        "throughput         {:.6} accepted/server/step",
        p.throughput
    );
    let _ = writeln!(
        out,
        "latency steps      avg {:.3}  p99 {}  max {}",
        p.avg_latency,
        bounded(p.p99_latency, p.p99_latency_censored),
        bounded(p.max_latency, p.max_latency_censored)
    );
    let _ = writeln!(
        out,
        "backlog            mean {:.4}  max {}  (max = deepest level with occupancy >= 1/m)",
        p.mean_backlog,
        bounded(p.max_backlog, p.max_backlog_censored)
    );
    for ph in &p.phases {
        let _ = writeln!(
            out,
            "phase              λ={:.4} for {} steps -> rejection {:.3e}, mean backlog {:.4}",
            ph.lambda, ph.steps, ph.rejection_rate, ph.mean_backlog_end
        );
    }
    out
}

/// Runs the `fastforward` subcommand end to end, returning the rendered
/// output and whether the solve converged (the binary exits 1 on a
/// non-converged solve so scripts cannot mistake a junk prediction for
/// an answer).
///
/// # Errors
/// Returns a usage-style message on malformed arguments.
pub fn run_fastforward(args: &[String]) -> Result<(String, bool), String> {
    let opts = parse_fastforward_args(args)?;
    let (prediction, solve_ms) = solve_fastforward(&opts);
    let converged = prediction.converged;
    let out = if opts.json {
        let mut json = rlb_json::to_string_pretty(&prediction);
        json.push('\n');
        json
    } else {
        render_fastforward(&prediction, solve_ms)
    };
    Ok((out, converged))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|w| w.to_string()).collect()
    }

    #[test]
    fn defaults_parse() {
        let o = parse_fastforward_args(&[]).unwrap();
        assert_eq!(o.config.m, 1 << 20);
        assert_eq!(
            o.config.queue_capacity,
            Some(21),
            "q defaults to log2 m + 1"
        );
        assert!((o.config.lambda - 7.2).abs() < 1e-12, "λ defaults to 0.9g");
        assert_eq!(o.mode, "fixpoint");
        assert!(!o.json);
    }

    #[test]
    fn full_option_set_parses() {
        let o = parse_fastforward_args(&args(
            "--m 100000000 --rate 4 --queue 12 --lambda 3.6 --replication 3 \
             --policy one-choice --damping 0.5 --tolerance 1e-9 --max-iters 500 \
             --euler-dt 0.01 --json",
        ))
        .unwrap();
        assert_eq!(o.config.m, 100_000_000);
        assert_eq!(o.config.process_rate, 4);
        assert_eq!(o.config.queue_capacity, Some(12));
        assert_eq!(o.config.policy, MfPolicy::OneChoice);
        assert_eq!(o.config.replication, 3);
        assert!((o.solve.damping - 0.5).abs() < 1e-12);
        assert!((o.solve.tolerance - 1e-9).abs() < 1e-21);
        assert_eq!(o.solve.max_iters, 500);
        assert!(o.json);
    }

    #[test]
    fn per_step_divides_by_m() {
        let o = parse_fastforward_args(&args("--m 1000 --per-step 7200")).unwrap();
        assert!((o.config.lambda - 7.2).abs() < 1e-12);
    }

    #[test]
    fn m_zero_is_rejected_naming_the_flag() {
        let err = parse_fastforward_args(&args("--m 0")).unwrap_err();
        assert!(err.contains("--m"), "{err}");
        assert!(err.contains("positive") && err.contains('0'), "{err}");
    }

    #[test]
    fn damping_outside_unit_interval_is_rejected() {
        for bad in ["0", "0.0", "-0.5", "1.5", "nope"] {
            let err = parse_fastforward_args(&args(&format!("--damping {bad}"))).unwrap_err();
            assert!(err.contains("--damping"), "{bad}: {err}");
            assert!(err.contains(bad), "{bad}: error echoes the value: {err}");
        }
        assert!(parse_fastforward_args(&args("--damping 1.0")).is_ok());
        assert!(parse_fastforward_args(&args("--damping 0.25")).is_ok());
    }

    #[test]
    fn non_positive_tolerance_is_rejected() {
        for bad in ["0", "-1e-9", "inf", "abc"] {
            let err = parse_fastforward_args(&args(&format!("--tolerance {bad}"))).unwrap_err();
            assert!(err.contains("--tolerance"), "{bad}: {err}");
            assert!(err.contains(bad), "{bad}: error echoes the value: {err}");
        }
        assert!(parse_fastforward_args(&args("--tolerance 1e-10")).is_ok());
    }

    #[test]
    fn remaining_flag_constraints_name_the_flag() {
        for (flags, needle) in [
            ("--rate 0", "--rate"),
            ("--queue 0", "--queue"),
            ("--uncapped 0", "--uncapped"),
            ("--replication 0", "--replication"),
            ("--max-iters 0", "--max-iters"),
            ("--euler-dt 0", "--euler-dt"),
            ("--lambda -1", "--lambda"),
            ("--mode warp", "--mode"),
            ("--phases 3.6", "--phases"),
            ("--bogus", "--bogus"),
        ] {
            let err = parse_fastforward_args(&args(flags)).unwrap_err();
            assert!(err.contains(needle), "{flags}: {err}");
        }
    }

    #[test]
    fn conflicting_flags_are_rejected() {
        assert!(parse_fastforward_args(&args("--queue 8 --uncapped 32")).is_err());
        assert!(parse_fastforward_args(&args("--lambda 1 --per-step 10")).is_err());
        assert!(
            parse_fastforward_args(&args("--phases 3.6:100")).is_err(),
            "--phases without --mode ode"
        );
    }

    #[test]
    fn phases_parse_and_feed_the_ode() {
        let o = parse_fastforward_args(&args("--mode ode --phases 7.2:100,2.0:50")).unwrap();
        assert_eq!(o.phases.len(), 2);
        assert!((o.phases[0].lambda - 7.2).abs() < 1e-12);
        assert_eq!(o.phases[1].steps, 50);
        let (p, _) = solve_fastforward(&o);
        assert_eq!(p.mode, "ode");
        assert_eq!(p.phases.len(), 2);
    }

    #[test]
    fn end_to_end_text_and_json() {
        let (text, converged) =
            run_fastforward(&args("--m 1000000 --rate 4 --queue 10 --lambda 3.8")).unwrap();
        assert!(converged);
        assert!(text.contains("rejection rate"), "{text}");
        assert!(text.contains("converged"), "{text}");
        let (json, _) = run_fastforward(&args("--m 1000000 --json")).unwrap();
        let v = rlb_json::Json::parse(&json).unwrap();
        assert!(v.get("rejection_rate").is_some());
        assert!(v.get("backlog_tail").is_some());
    }

    #[test]
    fn uncapped_report_marks_censored_reads() {
        // Overloaded uncapped queue: mass reaches the truncation
        // boundary, so tail-side reads must render as lower bounds.
        let (text, _) =
            run_fastforward(&args("--m 4096 --rate 4 --lambda 5.0 --uncapped 32")).unwrap();
        assert!(text.contains(">="), "{text}");
        assert!(text.contains("uncapped"), "{text}");
    }
}
