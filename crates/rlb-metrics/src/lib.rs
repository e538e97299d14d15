//! Measurement infrastructure for the `reappearance-lb` workspace.
//!
//! The paper's objectives (Definitions 2.1 and 2.2, and the *safe
//! distribution* of Definition 3.2) are statistics over a simulated run:
//! rejection rate, average and maximum latency, and the tail shape of the
//! backlog distribution. This crate provides the counters, histograms and
//! checkers that compute them, plus the plain-text table formatter used by
//! the experiment harness to print paper-style result tables.
//!
//! Design notes (per the workspace performance guides): recording a sample
//! is allocation-free after construction; histograms grow geometrically and
//! are reused across steps; all statistics are exact integer counts until
//! the final ratio is taken.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backlog;
pub mod ci;
pub(crate) mod dist;
pub(crate) mod histogram;
pub(crate) mod kahan;
pub mod table;

pub use backlog::{BacklogSnapshot, SafeDistributionReport};
pub use ci::{wilson95, ProportionCi};
pub use dist::linf_distance;
pub use histogram::{Histogram, TailValue};
pub use kahan::{KahanSum, RunningMean};
pub use table::Table;
