//! Distributed key-value-store simulation layer.
//!
//! The paper's motivation (§1) is a distributed database: clients request
//! *keys*; keys live in immutable *chunks*; chunks are replicated on `d`
//! servers; a load balancer routes each request. This crate provides the
//! downstream-facing façade over [`rlb_core`]:
//!
//! * [`directory`] — the key → chunk mapping (hash-partitioned, with a
//!   bounded explicit-override table).
//! * [`cluster`] — [`cluster::KvCluster`]: issue `get`s, advance time,
//!   read the paper's metrics off the live system.
//! * [`runner`] — a scoped-thread parallel runner executing many
//!   independent simulation trials (seed sweeps, parameter sweeps)
//!   across threads; this is where the experiment harness gets its
//!   statistical power.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod directory;
pub mod runner;

pub use cluster::{KvCluster, StepSummary, TenantStats};
pub use directory::ChunkDirectory;
pub use runner::{run_trials, run_trials_traced};
