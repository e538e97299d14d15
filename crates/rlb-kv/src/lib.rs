//! Distributed key-value-store simulation layer.
//!
//! The paper's motivation (§1) is a distributed database: clients request
//! *keys*; keys live in immutable *chunks*; chunks are replicated on `d`
//! servers; a load balancer routes each request. This crate provides the
//! downstream-facing façade over [`rlb_core`]:
//!
//! * [`directory`] — the key → chunk mapping (a seeded hash).
//! * [`cluster`] — [`cluster::KvCluster`]: issue `get`s, advance time,
//!   read the paper's metrics off the live system.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects
)]

pub mod cluster;
pub mod directory;

pub use cluster::{KvCluster, StepSummary};
pub use directory::ChunkDirectory;
