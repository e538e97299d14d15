//! # reappearance-lb
//!
//! A full reproduction of *Distributed Load Balancing in the Face of
//! Reappearance Dependencies* (Agrawal, Kuszmaul, Wang, Zhao —
//! SPAA '24): load balancing for distributed key-value stores where each
//! data chunk is replicated on `d` servers and — crucially — a chunk
//! requested many times always presents the **same** `d` server choices
//! (reappearance dependencies), defeating the fresh-randomness
//! assumption behind classical power-of-two-choices results.
//!
//! The workspace implements the paper's model, both of its algorithms,
//! the lower-bound constructions, and every substrate they stand on:
//!
//! * [`core`] — the discrete-time cluster simulator and the policies:
//!   greedy (§3, `Θ(log m)` queues) and delayed cuckoo routing (§4,
//!   optimal `Θ(log log m)` queues), plus baselines.
//! * [`cuckoo`] — cuckoo hashing with a stash: the exact offline solver
//!   behind Theorem 4.1 and the tripartite request assignment
//!   (Lemma 4.2) delayed cuckoo routing builds every step.
//! * [`workloads`] — oblivious-adversary request generators and traces.
//! * [`kv`] — a key-value-store façade.
//! * [`pool`] — the deterministic job executor independent trials run on.
//! * [`hash`] / [`metrics`] — deterministic randomness and measurement.
//!
//! ## Quickstart
//!
//! ```
//! use reappearance_lb::core::{SimConfig, Simulation, policies::DelayedCuckoo};
//! use reappearance_lb::workloads::RepeatedSet;
//!
//! // 256 servers, the same 256 chunks every step — the adversarial case.
//! let config = SimConfig::dcr_theorem(256, 16, 4).with_seed(42);
//! let policy = DelayedCuckoo::new(&config);
//! let mut sim = Simulation::new(config, policy);
//! let mut workload = RepeatedSet::first_k(256, 7);
//! sim.run(&mut workload, 100);
//! let report = sim.finish();
//! assert_eq!(report.rejected_total, 0);
//! assert!(report.avg_latency < 3.0);
//! ```
//!
//! See `examples/` for runnable scenarios and the `experiments` binary
//! (crate `rlb-experiments`) for the per-theorem reproduction suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rlb_core as core;
pub use rlb_cuckoo as cuckoo;
pub use rlb_hash as hash;
pub use rlb_kv as kv;
pub use rlb_metrics as metrics;
pub use rlb_pool as pool;
pub use rlb_workloads as workloads;
