//! Shared machinery for the experiment suite.

use rlb_core::policies::{with_policy, PolicyVisitor};
use rlb_core::{
    NullObserver, Observer, OutageSchedule, Policy, RunReport, SimConfig, Simulation, Workload,
};

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
}

/// One engine run as data: what to simulate, under which policy, on
/// which requests. [`Scenario::run`] is the suite's only way into the
/// engine for a registry policy, so every such run is built the same
/// way and conservation-checked.
pub(crate) struct Scenario<'a> {
    config: SimConfig,
    policy: PolicyKind,
    workload: Box<dyn Workload + 'a>,
    outages: OutageSchedule,
    observer: Option<&'a mut dyn Observer>,
}

impl<'a> Scenario<'a> {
    /// `workload` under `policy` on the cluster `config` describes, with
    /// no outages and no observer.
    pub fn new(config: SimConfig, policy: PolicyKind, workload: impl Workload + 'a) -> Self {
        Self {
            config,
            policy,
            workload: Box::new(workload),
            outages: OutageSchedule::none(),
            observer: None,
        }
    }

    /// Takes servers down on a schedule (E15).
    pub fn outages(mut self, outages: OutageSchedule) -> Self {
        self.outages = outages;
        self
    }

    /// Attaches an observer for measurements the report does not carry.
    pub fn observer(mut self, observer: &'a mut dyn Observer) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Runs `steps` steps and returns the conservation-checked report.
    pub fn run(self, steps: u64) -> RunReport {
        struct Run<'a>(Scenario<'a>, u64);
        impl PolicyVisitor for Run<'_> {
            type Out = RunReport;
            fn visit<P: Policy>(self, policy: P) -> RunReport {
                let Run(scenario, steps) = self;
                let mut sim =
                    Simulation::new(scenario.config, policy).with_outages(scenario.outages);
                let mut workload = scenario.workload;
                let mut silent = NullObserver;
                let observer = scenario.observer.unwrap_or(&mut silent);
                sim.run_observed(workload.as_mut(), steps, observer);
                sim.finish()
            }
        }
        let (name, config) = (self.policy.name(), self.config.clone());
        // 0x9e is the stream `results/*.json` were produced with.
        let report = with_policy(name, &config, 0x9e, Run(self, steps))
            .expect("a PolicyKind names a policy its config admits");
        conserved(report)
    }
}

/// Passes a report on only if every arrived request is accounted for.
pub(crate) fn conserved(report: RunReport) -> RunReport {
    if let Err(broken) = report.check_conservation() {
        panic!("conservation violated: {broken}");
    }
    report
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

/// Runs the `rows x cols` grid of scenarios, `trials` seeded trials a
/// cell, and returns one [`Aggregate`] per cell, row-major.
///
/// `make(row, col, trial)` must derive all randomness from its
/// arguments. Every trial of every cell is one job of a single batch on
/// the global [`rlb_pool`] executor, and a cell pools its trials in
/// index order, so the result equals the nested serial loops bit for
/// bit.
pub(crate) fn grid<R, C, F>(
    rows: &[R],
    cols: &[C],
    trials: usize,
    steps: u64,
    make: F,
) -> Vec<Aggregate>
where
    R: Clone + Send + Sync + 'static,
    C: Clone + Send + Sync + 'static,
    F: Fn(&R, &C, usize) -> Scenario<'static> + Send + Sync + 'static,
{
    assert!(trials > 0, "need at least one trial per cell");
    let (rows, cols) = (rows.to_vec(), cols.to_vec());
    let per_row = cols.len() * trials;
    let reports = rlb_pool::global().map_indexed(rows.len() * per_row, move |job| {
        let (row, col, trial) = (job / per_row, job % per_row / trials, job % trials);
        make(&rows[row], &cols[col], trial).run(steps)
    });
    reports.chunks(trials).map(summarize).collect()
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
    fn grid_equals_the_nested_serial_loops_row_major() {
        let make = |&m: &usize, &policy: &PolicyKind, i: usize| {
            let config = SimConfig::baseline(m).with_seed(i as u64);
            Scenario::new(config, policy, RepeatedSet::first_k(m32(m), i as u64 + 100))
        };
        let (rows, cols) = ([32usize, 64], [PolicyKind::Greedy, PolicyKind::OneChoice]);
        let mut serial = Vec::new();
        for m in &rows {
            for policy in &cols {
                let reports: Vec<RunReport> = (0..2).map(|i| make(m, policy, i).run(30)).collect();
                serial.push(summarize(&reports));
            }
        }
        assert_eq!(grid(&rows, &cols, 2, 30, make), serial);
        assert!(serial.iter().all(|cell| cell.trials == 2));
        // Cells differ (d = 2 greedy vs first-replica-only), so an
        // order mix-up could not pass the equality above.
        assert_ne!(serial[0], serial[1]);
    }

    #[test]
    #[should_panic(expected = "conservation violated")]
    fn a_report_that_loses_requests_is_refused() {
        // Five requests in flight that never arrived.
        conserved(rlb_core::RunStats::new().finish(1, 5));
    }

    #[test]
    fn helpers_are_sane() {
        assert_eq!(log2(1024), 10.0);
        assert!((loglog2(65536) - 4.0).abs() < 1e-9);
        assert!(m_sweep(true).len() < m_sweep(false).len());
        assert!(trial_count(true) < trial_count(false));
    }
}
