//! Experiment-suite wall-clock benchmark (`rlb-sim bench --suite`).
//!
//! This module gates the wall-clock of the headline deliverable
//! itself: `rlb-experiments all`. It times the `experiments` binary as
//! a subprocess — the suite sizes its global executor once per process
//! (`--jobs` / `RLB_JOBS`), so serial and parallel configurations can
//! only be compared across process boundaries — and records the fastest
//! of [`SUITE_SAMPLES`] runs per configuration (interference only ever
//! slows a run down, so the minimum is the noise-floor estimator).
//!
//! Results are committed as `BENCH_experiments.json` under a ratio
//! gate: re-running compares suite runs/second per configuration
//! against the committed numbers and fails below [`GATE_MIN_RATIO`].

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Minimum acceptable throughput ratio against a recorded baseline.
pub const GATE_MIN_RATIO: f64 = 0.95;

/// One configuration compared against its recorded baseline.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// Configuration name (`"all/jobs1"`).
    pub name: String,
    /// Suite runs per second in this run over the baseline file's.
    pub ratio: f64,
}

impl GateRow {
    /// Whether this configuration meets [`GATE_MIN_RATIO`].
    pub fn passes(&self) -> bool {
        self.ratio >= GATE_MIN_RATIO
    }
}

/// Timed samples per configuration; the fastest is reported.
pub(crate) const SUITE_SAMPLES: usize = 3;

/// One timed suite configuration, as recorded in
/// `BENCH_experiments.json`.
#[derive(Debug, Clone)]
pub struct SuiteBenchResult {
    /// `"all/jobs1"` (forced serial) or `"all/default"` (pool-sized).
    pub name: String,
    /// The `--jobs` value passed; `0` means the binary's default.
    pub jobs: u64,
    /// Samples taken.
    pub samples: u64,
    /// Wall-clock nanoseconds of the fastest sample.
    pub elapsed_nanos: u64,
    /// Full suite runs per wall-clock second (`1e9 / elapsed_nanos`) —
    /// the throughput figure the ratio gate compares.
    pub suite_runs_per_sec: f64,
}

rlb_json::json_struct!(SuiteBenchResult {
    name,
    jobs,
    samples,
    elapsed_nanos,
    suite_runs_per_sec,
});

/// The machine-readable suite-gate report.
#[derive(Debug, Clone)]
pub struct SuiteBenchReport {
    /// Executor size the `"all/default"` configuration resolved to.
    pub default_jobs: u64,
    /// Serial elapsed / parallel elapsed (1.0 on a single-core host).
    pub speedup: f64,
    /// One entry per timed configuration.
    pub results: Vec<SuiteBenchResult>,
}

rlb_json::json_struct!(SuiteBenchReport {
    default_jobs,
    speedup,
    results,
});

/// Locates the `experiments` binary next to the current executable
/// (both are built into the same cargo target directory).
///
/// # Errors
/// Returns a message if the current executable's directory cannot be
/// resolved or holds no `experiments` binary.
pub fn locate_experiments_bin() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate current exe: {e}"))?;
    let dir = me
        .parent()
        .ok_or("current exe has no parent directory")?
        .to_path_buf();
    let candidate = dir.join(format!("experiments{}", std::env::consts::EXE_SUFFIX));
    if candidate.is_file() {
        Ok(candidate)
    } else {
        Err(format!(
            "no experiments binary at {candidate:?}; build it first \
             (cargo build --release -p rlb-experiments)"
        ))
    }
}

/// Runs the suite binary once with the given `--jobs` override (`0` =
/// binary default) and returns the wall-clock. Output is discarded; a
/// failing exit status (any `[FAIL]` shape check) is an error, so the
/// gate cannot "pass" on a broken suite.
fn time_suite_once(bin: &Path, quick: bool, jobs: u64) -> Result<std::time::Duration, String> {
    let mut cmd = std::process::Command::new(bin);
    cmd.arg("all");
    if quick {
        cmd.arg("--quick");
    }
    if jobs > 0 {
        cmd.args(["--jobs", &jobs.to_string()]);
    }
    cmd.env_remove("RLB_JOBS");
    cmd.stdout(std::process::Stdio::null());
    cmd.stderr(std::process::Stdio::null());
    let start = Instant::now();
    let status = cmd
        .status()
        .map_err(|e| format!("cannot run {bin:?}: {e}"))?;
    let elapsed = start.elapsed();
    if !status.success() {
        return Err(format!(
            "suite run (--jobs {jobs}) exited with {status}; fix the failing shape checks \
             before benchmarking"
        ));
    }
    Ok(elapsed)
}

fn time_suite(bin: &Path, quick: bool, jobs: u64, name: &str) -> Result<SuiteBenchResult, String> {
    let mut best: Option<std::time::Duration> = None;
    for _ in 0..SUITE_SAMPLES {
        let elapsed = time_suite_once(bin, quick, jobs)?;
        if best.is_none_or(|b| elapsed < b) {
            best = Some(elapsed);
        }
    }
    let elapsed = best.expect("SUITE_SAMPLES > 0");
    let nanos = elapsed.as_nanos().max(1) as u64;
    Ok(SuiteBenchResult {
        name: name.to_string(),
        jobs,
        samples: SUITE_SAMPLES as u64,
        elapsed_nanos: nanos,
        suite_runs_per_sec: 1e9 / nanos as f64,
    })
}

/// Times the suite serial (`--jobs 1`) and at the binary's default
/// executor size, fastest-of-[`SUITE_SAMPLES`] each.
///
/// # Errors
/// Returns a message if a suite run cannot be launched or fails its
/// shape checks.
pub fn run_suite_gate(bin: &Path, quick: bool) -> Result<SuiteBenchReport, String> {
    let serial = time_suite(bin, quick, 1, "all/jobs1")?;
    let parallel = time_suite(bin, quick, 0, "all/default")?;
    let speedup = serial.elapsed_nanos as f64 / parallel.elapsed_nanos.max(1) as f64;
    let default_jobs = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    Ok(SuiteBenchReport {
        default_jobs,
        speedup,
        results: vec![serial, parallel],
    })
}

/// Extracts `(name, suite_runs_per_sec)` pairs from a previously
/// written `BENCH_experiments.json`, tolerating schema drift: entries
/// only need `name` and `suite_runs_per_sec` (a strict
/// [`SuiteBenchReport`] parse would reject a file written before a
/// field was added).
///
/// # Errors
/// Returns a message if the document is not JSON or has no `results`
/// array.
pub fn parse_baseline(json: &str) -> Result<Vec<(String, f64)>, String> {
    let v = rlb_json::Json::parse(json)?;
    let results = v
        .get("results")
        .and_then(rlb_json::Json::as_arr)
        .ok_or("baseline has no results array")?;
    Ok(results
        .iter()
        .filter_map(|r| {
            let name = r.get("name")?.as_str()?.to_string();
            let rps = r.get("suite_runs_per_sec")?.as_f64()?;
            Some((name, rps))
        })
        .collect())
}

/// Compares a fresh suite report against a baseline, one row per
/// configuration present in both.
pub fn compare_to_baseline(report: &SuiteBenchReport, baseline: &[(String, f64)]) -> Vec<GateRow> {
    report
        .results
        .iter()
        .filter_map(|r| {
            let &(_, base) = baseline.iter().find(|(n, _)| *n == r.name)?;
            if base <= 0.0 {
                return None;
            }
            Some(GateRow {
                name: r.name.clone(),
                ratio: r.suite_runs_per_sec / base,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_and_baseline_parse_is_lenient() {
        let report = SuiteBenchReport {
            default_jobs: 8,
            speedup: 3.5,
            results: vec![SuiteBenchResult {
                name: "all/jobs1".into(),
                jobs: 1,
                samples: 3,
                elapsed_nanos: 2_000_000_000,
                suite_runs_per_sec: 0.5,
            }],
        };
        let json = rlb_json::to_string_pretty(&report);
        let back: SuiteBenchReport = rlb_json::from_str(&json).unwrap();
        assert_eq!(back.results.len(), 1);
        let baseline = parse_baseline(&json).unwrap();
        assert_eq!(baseline, vec![("all/jobs1".to_string(), 0.5)]);
        assert!(parse_baseline("{}").is_err());
    }

    #[test]
    fn comparison_is_keyed_by_name_and_ratioed() {
        let report = SuiteBenchReport {
            default_jobs: 4,
            speedup: 1.0,
            results: vec![
                SuiteBenchResult {
                    name: "all/jobs1".into(),
                    jobs: 1,
                    samples: 3,
                    elapsed_nanos: 1_000_000_000,
                    suite_runs_per_sec: 1.0,
                },
                SuiteBenchResult {
                    name: "all/new".into(),
                    jobs: 2,
                    samples: 3,
                    elapsed_nanos: 1_000_000_000,
                    suite_runs_per_sec: 1.0,
                },
            ],
        };
        let rows = compare_to_baseline(&report, &[("all/jobs1".to_string(), 1.25)]);
        assert_eq!(rows.len(), 1, "unmatched configurations are skipped");
        assert!((rows[0].ratio - 0.8).abs() < 1e-9);
        assert!(!rows[0].passes());
    }
}
