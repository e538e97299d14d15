//! # rlb-load — the load generator
//!
//! Drives rlb-serve with open-loop Poisson ([`arrivals`]) and
//! closed-loop clients ([`client`]) under Zipf / phased-working-set
//! key popularity ([`keys`]), and reports p50/p99/max latency plus
//! rejection rates ([`report`]).
//!
//! Two drivers share the same client state machines:
//!
//! * [`sim_driver`] — a deterministic virtual-time co-simulation over
//!   framed pipes: the daemon's own server pass and sessions
//!   (`rlb_serve::pass`), no sockets, byte-identical
//!   transcripts across runs (the committed golden in
//!   `tests/sim_golden.rs` pins this);
//! * [`live_driver`] — real TCP, one pool job per client, wall-clock
//!   latency.
//!
//! Clients of one Zipf shape built on one thread share one alias table
//! (the memo in [`keys`]), so the co-simulation's memory grows with the
//! key universe, not with clients × universe. The live driver builds
//! each client on its own pool executor, so its clients share nothing.

#![forbid(unsafe_code)]
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

pub mod arrivals;
pub mod client;
pub mod keys;
pub(crate) mod live_driver;
pub mod report;
pub(crate) mod sim_driver;

pub use arrivals::PoissonArrivals;
pub use client::{Client, ClientConfig, Mode};
pub use keys::{KeyPicker, Popularity};
pub use live_driver::{aggregate, run_live, LiveClientResult, LiveSpec};
pub use report::LoadReport;
pub use sim_driver::{co_simulate, SimOutput, SimSpec};

/// [`co_simulate`] under its former name, with the pool the driver no
/// longer uses; `_pool` is ignored.
#[doc(hidden)]
pub fn run_sim<P: rlb_core::Policy>(
    core: rlb_serve::ServerCore<P>,
    clients: Vec<Client>,
    spec: &SimSpec,
    _pool: &rlb_pool::Pool,
) -> SimOutput {
    co_simulate(core, clients, spec)
}
