//! The wall-clock gate behind `rlb-sim bench`.
//!
//! * [`meanfield`] — `bench --meanfield`: mean-field solver wall-time
//!   across `m` plus the solver-vs-engine speedup floor recorded in
//!   `BENCH_meanfield.json`.
//!
//! It sits on no request's path. Engine and wire-path throughput are
//! measured by the stand-alone `benchmark/` package (`BENCHMARK.json`),
//! and by nothing here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod meanfield;
