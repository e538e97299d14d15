//! Core simulator for *Distributed Load Balancing in the Face of
//! Reappearance Dependencies* (Agrawal, Kuszmaul, Wang, Zhao — SPAA '24).
//!
//! Implements the model of §2 — `m` servers with bounded FIFO queues and
//! processing rate `g`, `n` chunks replicated on `d` random servers, up
//! to `m` distinct-chunk requests per step routed online — and the
//! paper's algorithms:
//!
//! * [`policies::Greedy`] — §3: least-backlogged replica, queue size
//!   `Θ(log m)`, with periodic flushes (Theorem 3.1).
//! * [`policies::DelayedCuckoo`] — §4: phase-based routing with delayed
//!   cuckoo tables, queue size `Θ(log log m)` (Theorem 4.3, optimal by
//!   Theorem 5.1).
//! * Baselines for the lower bounds and comparisons of §5:
//!   [`policies::OneChoice`], [`policies::UniformRandom`],
//!   [`policies::RoundRobin`], [`policies::TimeStepIsolated`].
//!
//! Outage injection ([`OutageSchedule`]) is the one extension of the
//! model kept here. Baselines outside it, such as the Wang-et-al.
//! chunk-migration simulator of experiment E19, live beside the
//! experiment that runs them, in `rlb-experiments`.
//!
//! The engine ([`Simulation`]) is deterministic given the config seed,
//! allocation-free in the routing hot loop, and exposes an [`Observer`]
//! hook for experiment instrumentation.
//!
//! # Example
//!
//! ```
//! use rlb_core::{SimConfig, Simulation, policies::Greedy};
//!
//! // 64 servers, the same 64 chunks requested every step.
//! let config = SimConfig::baseline(64).with_seed(7);
//! let mut sim = Simulation::new(config, Greedy::new());
//! let mut workload = |_step: u64, out: &mut Vec<u32>| out.extend(0..64);
//! sim.run(&mut workload, 100);
//! let report = sim.finish();
//! assert_eq!(report.arrived, 6400);
//! assert!(report.rejection_rate < 0.01);
//! ```

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

pub mod config;
pub mod outage;
pub mod policies;
pub mod policy;
pub mod queue;
pub mod sim;
pub mod stats;
pub mod trace;
pub mod view;

pub use config::{DrainMode, SimConfig};
pub use outage::{Outage, OutageSchedule};
pub use policy::{Decision, Policy, RejectReason, RouteCtx};
pub use queue::{ClassSpec, QueueArray};
pub use sim::{NullObserver, Observer, Simulation, Workload};
pub use stats::{RunReport, RunStats};
pub use trace::{latency_steps, NoopSink, TraceCause, TraceEvent, TraceSink};
pub use view::ClusterView;
