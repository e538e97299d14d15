//! The two wall-clock gates behind `rlb-sim bench`.
//!
//! * [`suite`] — `bench --suite`: times the `experiments` binary
//!   serial vs default-jobs and compares against the committed
//!   `BENCH_experiments.json`.
//! * [`meanfield`] — `bench --meanfield`: mean-field solver wall-time
//!   across `m` plus the solver-vs-engine speedup floor recorded in
//!   `BENCH_meanfield.json`.
//!
//! Neither sits on a request's path. Engine and wire-path throughput
//! are measured by the stand-alone `benchmark/` package
//! (`BENCHMARK.json`), and by nothing here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod meanfield;
pub mod suite;
