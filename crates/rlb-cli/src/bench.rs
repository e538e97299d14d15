//! `rlb-sim bench --meanfield`: mean-field solver wall-time across `m`,
//! plus the solver-vs-simulator speedup gate recorded in
//! `BENCH_meanfield.json`. It sits on no request's path; engine and
//! wire-path throughput are the stand-alone `benchmark/` package's job
//! (`BENCHMARK.json`).
//!
//! Two row families:
//!
//! * `solve/m<M>` — wall-time of a steady-state solve at the baseline
//!   scenario for `M` (capacity grows like `log₂ M`, so this shows the
//!   solver's cost growing with `q` only — `m = 10^8` still lands in
//!   milliseconds).
//! * `speedup/m65536` — the gated row: the same baseline scenario
//!   answered by the solver and by the discrete engine, on the largest
//!   size the engine can still reach. The engine is timed over a short
//!   post-warmup window (32 steps), which *understates* its true cost
//!   of producing a steady-state estimate by an order of magnitude
//!   (real measurement runs need hundreds of steps), so the recorded
//!   speedup is a conservative floor — and must still clear
//!   [`SPEEDUP_MIN_RATIO`].

use rlb_core::policies::Greedy;
use rlb_core::{DrainMode, SimConfig, Simulation, Workload};
use rlb_meanfield::{solve_fixpoint, MfConfig, SolveOptions};
use rlb_workloads::FreshRandom;
use std::time::Instant;

/// Cluster sizes for the solve-only wall-time rows.
const SOLVE_SIZES: [u64; 3] = [65536, 1 << 20, 100_000_000];

/// The size of the gated solver-vs-engine comparison: the top of the
/// engine's practical range (and of the cross-validation overlap).
pub(crate) const SPEEDUP_M: u64 = 65536;

/// Minimum acceptable solver-vs-engine speedup at [`SPEEDUP_M`].
pub(crate) const SPEEDUP_MIN_RATIO: f64 = 100.0;

/// Engine measurement window (steps) for the speedup row.
const ENGINE_STEPS: u64 = 32;

/// Timed samples per measurement; the fastest is reported (the
/// noise-floor estimator: interference only ever slows a run down).
const GATE_SAMPLES: usize = 3;

/// One measured row of `BENCH_meanfield.json`. Solve-only rows carry
/// zeros in the engine fields.
#[derive(Debug, Clone)]
pub(crate) struct MeanfieldBenchResult {
    /// `"solve/m<M>"` or `"speedup/m<M>"`.
    pub(crate) name: String,
    /// Cluster size the scenario models.
    pub(crate) m: u64,
    /// Tail-vector depth (queue capacity) of the solved model.
    pub(crate) depth: u32,
    /// Fixed-point iterations of the reported solve.
    pub(crate) iterations: u64,
    /// Solver wall-clock nanoseconds (fastest sample).
    pub(crate) solver_nanos: u64,
    /// Engine wall-clock nanoseconds over [`ENGINE_STEPS`] steps
    /// (fastest sample); zero for solve-only rows.
    pub(crate) engine_nanos: u64,
    /// Steps in the engine window; zero for solve-only rows.
    pub(crate) engine_steps: u64,
    /// `engine_nanos / solver_nanos`; zero for solve-only rows.
    pub(crate) speedup: f64,
}

rlb_json::json_struct!(MeanfieldBenchResult {
    name,
    m,
    depth,
    iterations,
    solver_nanos,
    engine_nanos,
    engine_steps,
    speedup,
});

/// The full machine-readable report.
#[derive(Debug, Clone)]
pub(crate) struct MeanfieldBenchReport {
    /// One entry per row.
    pub(crate) results: Vec<MeanfieldBenchResult>,
    /// The gated speedup (from the `speedup/` row).
    pub(crate) speedup: f64,
    /// The floor the gate enforces.
    pub(crate) gate_min_speedup: f64,
}

rlb_json::json_struct!(MeanfieldBenchReport {
    results,
    speedup,
    gate_min_speedup,
});

impl MeanfieldBenchReport {
    /// Whether the recorded speedup clears [`SPEEDUP_MIN_RATIO`].
    pub(crate) fn gate_passes(&self) -> bool {
        self.speedup >= self.gate_min_speedup
    }
}

/// The benchmark scenario for size `m`: `MfConfig::baseline` (greedy
/// d = 2, g = 8, λ = 7.2, q = log₂ m + 1).
fn scenario(m: u64) -> MfConfig {
    MfConfig::baseline(m)
}

/// Times one steady-state solve (fastest of [`GATE_SAMPLES`]).
fn time_solve(cfg: &MfConfig) -> (u64, u64) {
    let opts = SolveOptions::default();
    let mut best_nanos = u64::MAX;
    let mut iterations = 0;
    for _ in 0..GATE_SAMPLES {
        #[expect(
            clippy::disallowed_methods,
            reason = "the speedup gate times the solver"
        )]
        let start = Instant::now();
        let p = solve_fixpoint(cfg, &opts);
        let nanos = start.elapsed().as_nanos() as u64;
        assert!(p.converged, "bench scenario must converge (m = {})", cfg.m);
        if nanos < best_nanos {
            best_nanos = nanos;
            iterations = p.iterations;
        }
    }
    (best_nanos, iterations)
}

/// Times the engine on the same scenario: a pre-warmed simulation run
/// for [`ENGINE_STEPS`] further steps (fastest of [`GATE_SAMPLES`]).
fn time_engine(cfg: &MfConfig) -> u64 {
    let m = cfg.m as usize;
    let per_step = (cfg.lambda * m as f64).round() as usize;
    let config = SimConfig {
        num_servers: m,
        num_chunks: 16 * m,
        replication: cfg.replication as usize,
        process_rate: cfg.process_rate,
        queue_capacity: cfg.truncation_depth,
        flush_interval: None,
        drain_mode: DrainMode::EndOfStep,
        seed: 42,
        safety_check_every: None,
    };
    let mut best = u64::MAX;
    for _ in 0..GATE_SAMPLES {
        let mut workload: Box<dyn Workload + Send> =
            Box::new(FreshRandom::new(16 * m as u64, per_step, 7));
        let mut sim = Simulation::new(config.clone(), Greedy::new());
        sim.run(workload.as_mut(), 8); // warmup: reach working occupancy
        #[expect(
            clippy::disallowed_methods,
            reason = "the speedup gate times the engine"
        )]
        let start = Instant::now();
        sim.run(workload.as_mut(), ENGINE_STEPS);
        let nanos = start.elapsed().as_nanos() as u64;
        std::hint::black_box(sim.finish());
        if nanos < best {
            best = nanos;
        }
    }
    best
}

/// Runs the full benchmark: solve-only rows for `SOLVE_SIZES`, then
/// the gated solver-vs-engine row at [`SPEEDUP_M`].
pub(crate) fn run_gate() -> MeanfieldBenchReport {
    let mut results = Vec::new();
    for &m in &SOLVE_SIZES {
        let cfg = scenario(m);
        let (solver_nanos, iterations) = time_solve(&cfg);
        results.push(MeanfieldBenchResult {
            name: format!("solve/m{m}"),
            m,
            depth: cfg.depth(),
            iterations,
            solver_nanos,
            engine_nanos: 0,
            engine_steps: 0,
            speedup: 0.0,
        });
    }
    let cfg = scenario(SPEEDUP_M);
    let (solver_nanos, iterations) = time_solve(&cfg);
    let engine_nanos = time_engine(&cfg);
    let speedup = engine_nanos as f64 / solver_nanos.max(1) as f64;
    results.push(MeanfieldBenchResult {
        name: format!("speedup/m{SPEEDUP_M}"),
        m: SPEEDUP_M,
        depth: cfg.depth(),
        iterations,
        solver_nanos,
        engine_nanos,
        engine_steps: ENGINE_STEPS,
        speedup,
    });
    MeanfieldBenchReport {
        results,
        speedup,
        gate_min_speedup: SPEEDUP_MIN_RATIO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let report = MeanfieldBenchReport {
            results: vec![MeanfieldBenchResult {
                name: "solve/m65536".into(),
                m: 65536,
                depth: 17,
                iterations: 20,
                solver_nanos: 1000,
                engine_nanos: 0,
                engine_steps: 0,
                speedup: 0.0,
            }],
            speedup: 250.0,
            gate_min_speedup: SPEEDUP_MIN_RATIO,
        };
        assert!(report.gate_passes());
        let json = rlb_json::to_string(&report);
        let back: MeanfieldBenchReport = rlb_json::from_str(&json).unwrap();
        assert_eq!(back.results.len(), 1);
        assert!((back.speedup - 250.0).abs() < 1e-9);

        let failing = MeanfieldBenchReport {
            speedup: 50.0,
            ..report
        };
        assert!(!failing.gate_passes());
    }

    #[test]
    fn solve_rows_time_a_real_solve() {
        let cfg = scenario(65536);
        let (nanos, iters) = time_solve(&cfg);
        assert!(nanos > 0);
        assert!(iters > 0);
    }
}
