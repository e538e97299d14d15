//! What one measuring process is told and what it reports back.
//!
//! Every (workload, round) runs in a fresh child process so that rounds
//! share no allocator, cache or thread state, and so that `VmHWM` is
//! the workload's own. The child prints one [`ChildResult`] as a single
//! JSON line; a failed correctness gate makes it exit non-zero and
//! print no result at all.

use crate::estimate::{self, Window};

/// Parameters of one child process.
#[derive(Debug, Clone)]
pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    pub round: u32,
    /// Wall milliseconds of timed windows to collect.
    pub budget_ms: u64,
    /// Cold set-up repetitions before the windows.
    pub setup_reps: u32,
    pub traced: bool,
}

impl ChildArgs {
    /// Nanoseconds of timed windows per segment: a traced child splits
    /// its budget between an untraced segment, a traced one and replays.
    pub fn segment_ns(&self) -> u64 {
        self.budget_ms * 1_000_000 / if self.traced { 3 } else { 1 }
    }
}

/// Simulated-time quality of the fixed-length leading segment of the
/// timed windows (of all windows on `serve-tcp`, whose tick boundaries
/// depend on thread timing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quality {
    pub attempted: u64,
    pub failed: u64,
    pub p99_latency_steps: u64,
}

rlb_json::json_struct!(Quality {
    attempted,
    failed,
    p99_latency_steps
});

/// One child's measurements.
#[derive(Debug, Clone, Default)]
pub struct ChildResult {
    pub workload: String,
    pub round: u32,
    /// Nanoseconds of each cold set-up repetition.
    pub setup_ns: Vec<u64>,
    /// The timed windows, tracing off.
    pub windows: Vec<Window>,
    /// Peak resident set of the child, KiB.
    pub hwm_kb: u64,
    /// Requests issued over the timed windows.
    pub attempted: u64,
    /// Rejected + errored + unanswered among them.
    pub failed: u64,
    pub quality: Quality,
    /// Per-layer metrics of this round (traced children only).
    pub layers: Vec<(String, f64)>,
}

rlb_json::json_struct!(ChildResult {
    workload,
    round,
    setup_ns,
    windows,
    hwm_kb,
    attempted,
    failed,
    quality,
    layers,
});

impl ChildResult {
    pub fn new(args: &ChildArgs) -> Self {
        Self {
            workload: args.workload.clone(),
            round: args.round,
            ..Self::default()
        }
    }

    pub fn pooled_windows(results: &[ChildResult]) -> Vec<Window> {
        results
            .iter()
            .flat_map(|r| r.windows.iter().copied())
            .collect()
    }
}

/// Sets the workload up `reps` times, cold, timing each repetition into
/// `setup_ns`; the previous rig is retired (untimed) before the next is
/// built, so peak memory is one rig's. Returns the last rig.
///
/// # Errors
/// The first error of `build` or `retire`.
pub fn cold_setups<R>(
    reps: u32,
    setup_ns: &mut Vec<u64>,
    mut build: impl FnMut() -> Result<R, String>,
    mut retire: impl FnMut(R) -> Result<(), String>,
) -> Result<R, String> {
    let mut rig = None;
    for _ in 0..reps.max(1) {
        if let Some(old) = rig.take() {
            retire(old)?;
        }
        let t = std::time::Instant::now();
        rig = Some(build()?);
        setup_ns.push(t.elapsed().as_nanos() as u64);
    }
    Ok(rig.expect("at least one set-up repetition"))
}

/// `total / count` for a per-unit layer metric; 0 when the unit never
/// occurred.
pub fn per(total: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

/// Takes timed windows until `budget_ns` of them are in and at least
/// `at_least` were taken. `take(i)` times window number `i`.
///
/// # Errors
/// The first error `take` returns.
pub fn collect_windows(
    budget_ns: u64,
    at_least: usize,
    mut take: impl FnMut(usize) -> Result<Window, String>,
) -> Result<Vec<Window>, String> {
    let mut windows = Vec::new();
    let mut spent_ns = 0;
    while spent_ns < budget_ns || windows.len() < at_least {
        let w = take(windows.len())?;
        spent_ns += w.ns;
        windows.push(w);
    }
    Ok(windows)
}

/// The driver-level layer metrics every traced child reports, from its
/// untraced and its traced windows.
pub fn driver_layers(untraced: &[Window], traced: &[Window]) -> Vec<(String, f64)> {
    vec![
        ("driver.windows".to_string(), traced.len() as f64),
        (
            "driver.req_per_s_p50".into(),
            1e9 / estimate::ns_per_req(untraced, 0.5),
        ),
        (
            "driver.window_p50_over_p10".into(),
            estimate::ns_per_req(untraced, 0.5) / estimate::ns_per_req(untraced, 0.1),
        ),
        (
            "driver.trace_overhead_ratio".into(),
            estimate::floor_ns_per_req(traced) / estimate::floor_ns_per_req(untraced),
        ),
    ]
}

/// The count gate shared by every workload: what the far side says it
/// did must equal what the near side saw, exactly.
///
/// # Errors
/// Names the first pair that differs.
pub fn counts_agree(pairs: &[(&str, u64, u64)]) -> Result<(), String> {
    for &(what, server_side, client_side) in pairs {
        if server_side != client_side {
            return Err(format!(
                "count mismatch on {what}: server side {server_side}, client side {client_side}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_round_trips_through_json() {
        let r = ChildResult {
            workload: "engine-dense".into(),
            round: 2,
            setup_ns: vec![21_000_000, 22_500_000],
            windows: vec![
                Window {
                    ns: 11_000_000,
                    reqs: 262_144,
                },
                Window {
                    ns: 12_000_000,
                    reqs: 262_144,
                },
            ],
            hwm_kb: 10_240,
            attempted: 524_288,
            failed: 0,
            quality: Quality {
                attempted: 100,
                failed: 0,
                p99_latency_steps: 2,
            },
            layers: vec![("core.run_ns_per_req".into(), 43.25)],
        };
        let line = rlb_json::to_string(&r);
        assert!(!line.contains('\n'));
        let back: ChildResult = rlb_json::from_str(&line).unwrap();
        assert_eq!(back.windows, r.windows);
        assert_eq!(back.quality, r.quality);
        assert_eq!(back.layers, r.layers);
        assert_eq!(ChildResult::pooled_windows(&[r.clone(), back]).len(), 4);
    }

    #[test]
    fn cold_setups_time_every_repetition_and_retire_all_but_the_last() {
        let mut setup_ns = Vec::new();
        let (mut built, mut retired) = (0, Vec::new());
        let last = cold_setups(
            3,
            &mut setup_ns,
            || {
                built += 1;
                Ok(built)
            },
            |old| {
                retired.push(old);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!((last, setup_ns.len()), (3, 3));
        assert_eq!(retired, [1, 2]);
        assert_eq!(
            cold_setups(0, &mut setup_ns, || Ok(7), |_| Ok(())).unwrap(),
            7
        );
        assert!(cold_setups(2, &mut setup_ns, || Ok(1), |_| Err("stop".into())).is_err());
    }

    #[test]
    fn windows_are_collected_to_the_budget_and_the_minimum_count() {
        let fixed = |ns| move |i: usize| Ok(Window { ns, reqs: i as u64 });
        assert_eq!(collect_windows(1000, 0, fixed(300)).unwrap().len(), 4);
        assert_eq!(collect_windows(1000, 9, fixed(300)).unwrap().len(), 9);
        let w = collect_windows(0, 3, fixed(1)).unwrap();
        assert_eq!(w.iter().map(|w| w.reqs).collect::<Vec<_>>(), [0, 1, 2]);
        assert!(collect_windows(1000, 0, |_| Err("gate".to_string())).is_err());
    }

    #[test]
    fn a_corrupted_count_fails_the_gate() {
        let good = [("replies", 1000, 1000), ("rejects", 0, 0)];
        assert!(counts_agree(&good).is_ok());
        let corrupted = [("replies", 1000, 999), ("rejects", 0, 0)];
        let err = counts_agree(&corrupted).unwrap_err();
        assert!(err.contains("replies") && err.contains("999"), "{err}");
    }
}
