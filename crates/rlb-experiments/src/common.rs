//! Shared machinery for the experiment suite.

use rlb_core::policies::{with_policy, PolicyVisitor};
use rlb_core::{Observer, Policy, RunReport, SimConfig, Simulation, Workload};
use rlb_kv::runner::{default_threads, run_trials};

/// The policies the experiments compare. Dispatch is by enum so sweeps
/// can iterate over policies uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// §3 greedy.
    Greedy,
    /// §4 delayed cuckoo routing.
    DelayedCuckoo,
    /// d = 1 baseline (first replica only).
    OneChoice,
    /// Random replica, load-oblivious.
    UniformRandom,
    /// Per-chunk round-robin.
    RoundRobin,
    /// Time-step-isolated greedy (Lemma 5.3 class).
    TimeStepIsolated,
}

impl PolicyKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Greedy => "greedy",
            PolicyKind::DelayedCuckoo => "delayed-cuckoo",
            PolicyKind::OneChoice => "one-choice",
            PolicyKind::UniformRandom => "uniform-random",
            PolicyKind::RoundRobin => "round-robin",
            PolicyKind::TimeStepIsolated => "step-isolated",
        }
    }

    /// All policies. Exercised by this module's tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub const ALL: [PolicyKind; 6] = [
        PolicyKind::Greedy,
        PolicyKind::DelayedCuckoo,
        PolicyKind::OneChoice,
        PolicyKind::UniformRandom,
        PolicyKind::RoundRobin,
        PolicyKind::TimeStepIsolated,
    ];

    /// Runs `steps` steps of `workload` under this policy and returns
    /// the report.
    pub fn run(self, config: SimConfig, workload: &mut dyn Workload, steps: u64) -> RunReport {
        self.run_observed(config, workload, steps, &mut rlb_core::NullObserver)
    }

    /// As [`PolicyKind::run`] with an observer attached.
    pub fn run_observed(
        self,
        config: SimConfig,
        workload: &mut dyn Workload,
        steps: u64,
        observer: &mut dyn Observer,
    ) -> RunReport {
        struct Run<'a> {
            config: SimConfig,
            workload: &'a mut dyn Workload,
            steps: u64,
            observer: &'a mut dyn Observer,
        }
        impl PolicyVisitor for Run<'_> {
            type Out = RunReport;
            fn visit<P: Policy>(self, policy: P) -> RunReport {
                let mut sim = Simulation::new(self.config, policy);
                sim.run_observed(self.workload, self.steps, self.observer);
                sim.finish()
            }
        }
        let run = Run {
            config: config.clone(),
            workload,
            steps,
            observer,
        };
        // 0x9e is the stream `results/*.json` were produced with.
        with_policy(self.name(), &config, 0x9e, run).expect("a PolicyKind names a valid policy")
    }
}

/// Aggregate of several independent trials of the same configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Aggregate {
    /// Trials run.
    pub trials: usize,
    /// Mean rejection rate.
    pub rejection_rate: f64,
    /// Mean rejection rate excluding flush rejections.
    pub routing_rejection_rate: f64,
    /// Mean average latency.
    pub avg_latency: f64,
    /// Worst 99th-percentile latency across trials.
    pub p99_latency: u64,
    /// Maximum latency across all trials.
    pub max_latency: u64,
    /// Mean of per-trial mean backlogs.
    pub mean_backlog: f64,
    /// Maximum backlog across all trials.
    pub max_backlog: u64,
    /// Maximum within-step (enqueue-time) backlog across all trials.
    pub peak_backlog: u32,
    /// Fraction of safety samples violated (pooled).
    pub safety_violation_rate: f64,
    /// Worst safety ratio across trials.
    pub worst_safety_ratio: f64,
}

/// Runs `trials` seeded trials in parallel and aggregates.
///
/// `make` receives the trial index and must build `(config, workload)`
/// deriving all randomness from it. Trials run as jobs on the global
/// [`rlb_pool`] executor (nested inside a parallel sweep row is fine).
pub fn aggregate_trials<F>(trials: usize, policy: PolicyKind, steps: u64, make: F) -> Aggregate
where
    F: Fn(usize) -> (SimConfig, Box<dyn Workload + Send>) + Send + Sync + 'static,
{
    let reports = run_trials(trials, default_threads(), move |i| {
        let (config, mut workload) = make(i);
        policy.run(config, workload.as_mut(), steps)
    });
    summarize(&reports)
}

/// Maps `f` over independent sweep rows on the global [`rlb_pool`]
/// executor, returning results in row order — the parallel replacement
/// for the serial `for row in rows` loop around a table. Rows must derive all
/// randomness from their parameters (house seeding style), so the
/// output is bit-identical to the serial loop.
pub(crate) fn par_rows<I, T, F>(rows: Vec<I>, f: F) -> Vec<T>
where
    I: Send + Sync + 'static,
    T: Send + 'static,
    F: Fn(&I) -> T + Send + Sync + 'static,
{
    rlb_pool::global().map(rows, f)
}

/// Pools a set of reports into an [`Aggregate`].
pub(crate) fn summarize(reports: &[RunReport]) -> Aggregate {
    assert!(!reports.is_empty(), "need at least one report");
    let n = reports.len() as f64;
    let mut agg = Aggregate {
        trials: reports.len(),
        rejection_rate: 0.0,
        routing_rejection_rate: 0.0,
        avg_latency: 0.0,
        p99_latency: 0,
        max_latency: 0,
        mean_backlog: 0.0,
        max_backlog: 0,
        peak_backlog: 0,
        safety_violation_rate: 0.0,
        worst_safety_ratio: 0.0,
    };
    let mut safety_samples = 0u64;
    let mut safety_violations = 0u64;
    for r in reports {
        r.check_conservation().expect("conservation");
        agg.rejection_rate += r.rejection_rate / n;
        let routing_rej = r.rejected_total - r.rejected_flush;
        agg.routing_rejection_rate += if r.arrived > 0 {
            routing_rej as f64 / r.arrived as f64 / n
        } else {
            0.0
        };
        agg.avg_latency += r.avg_latency / n;
        agg.p99_latency = agg.p99_latency.max(r.p99_latency);
        agg.max_latency = agg.max_latency.max(r.max_latency);
        agg.mean_backlog += r.mean_backlog / n;
        agg.max_backlog = agg.max_backlog.max(r.max_backlog);
        agg.peak_backlog = agg.peak_backlog.max(r.peak_backlog);
        safety_samples += r.safety_samples;
        safety_violations += r.safety_violations;
        agg.worst_safety_ratio = agg.worst_safety_ratio.max(r.worst_safety_ratio);
    }
    agg.safety_violation_rate = if safety_samples > 0 {
        safety_violations as f64 / safety_samples as f64
    } else {
        0.0
    };
    agg
}

/// `⌈log2 x⌉` as f64 helper for table columns.
pub fn log2(x: usize) -> f64 {
    (x.max(1) as f64).log2()
}

/// `log2 log2 x` helper.
pub fn loglog2(x: usize) -> f64 {
    log2(x).max(1.0).log2().max(1.0)
}

/// Checked `usize → u32` narrowing for machine counts, replica picks
/// and step budgets fed to the `u32` workload/config APIs. Sweep sizes
/// are bounded far below `u32::MAX`; if a future sweep ever crosses it
/// this fails loudly instead of truncating (the `lossy-cast` lint bans
/// bare `as u32` across the suite, funnelling every narrowing here).
pub(crate) fn m32(x: usize) -> u32 {
    u32::try_from(x).expect("count exceeds u32 range")
}

/// `⌈x⌉` as `u32` for the O(log m) queue-capacity and probe budgets.
pub(crate) fn ceil_u32(x: f64) -> u32 {
    let v = x.ceil();
    assert!(
        (0.0..=u32::MAX as f64).contains(&v),
        "budget out of u32 range: {x}"
    );
    // In range by the assert above. lint:allow(lossy-cast)
    v as u32
}

/// Standard server-count sweep for an experiment: full and quick modes.
pub fn m_sweep(quick: bool) -> Vec<usize> {
    if quick {
        vec![256, 1024]
    } else {
        vec![256, 512, 1024, 2048, 4096, 8192]
    }
}

/// Trials per configuration.
pub fn trial_count(quick: bool) -> usize {
    if quick {
        2
    } else {
        5
    }
}

/// Steps per run.
pub fn step_count(quick: bool) -> u64 {
    if quick {
        60
    } else {
        200
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlb_workloads::RepeatedSet;

    #[test]
    fn policy_names_are_unique() {
        let mut names: Vec<&str> = PolicyKind::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PolicyKind::ALL.len());
    }

    #[test]
    fn aggregate_trials_runs_in_parallel_and_is_deterministic() {
        let run = || {
            aggregate_trials(4, PolicyKind::Greedy, 30, |i| {
                let config = SimConfig::baseline(64).with_seed(i as u64);
                let workload = RepeatedSet::first_k(64, i as u64 + 100);
                (config, Box::new(workload) as Box<dyn Workload + Send>)
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.trials, 4);
        assert!(a.rejection_rate >= 0.0 && a.rejection_rate <= 1.0);
    }

    #[test]
    fn helpers_are_sane() {
        assert_eq!(log2(1024), 10.0);
        assert!((loglog2(65536) - 4.0).abs() < 1e-9);
        assert!(m_sweep(true).len() < m_sweep(false).len());
        assert!(trial_count(true) < trial_count(false));
    }
}
