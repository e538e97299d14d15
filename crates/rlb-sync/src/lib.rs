//! # rlb-sync — the sync primitives rlb-pool and rlb-serve import
//!
//! A plain re-export of exactly the `std` types those two crates use:
//! no wrapper, no state, no switch. It stays a crate of its own only
//! because the benchmark's `Cargo.lock` records the edges
//! `rlb-pool → rlb-sync` and `rlb-serve → rlb-sync`; once the benchmark
//! stops naming the pool, the crate and both edges can go.

#![forbid(unsafe_code)]

pub use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
pub use std::sync::{Arc, OnceLock};

/// Thread surface: the executor's scoped batches and its sizing.
pub mod thread {
    pub use std::thread::{available_parallelism, scope};
}
