//! Trace sinks for the simulation engine.
//!
//! `rlb-core` defines the event taxonomy and the [`TraceSink`] trait
//! (with the compile-time-erased `NoopSink`); this crate provides what
//! does something with the stream:
//!
//! * [`JsonlSink`] — streams every event as one compact JSON line,
//!   suitable for files, diffing, and external tooling. Deterministic:
//!   the same seeded run yields a byte-identical stream;
//! * [`parse_jsonl`] — reads such a stream back into events;
//! * [`Aggregator`] — folds events back into `rlb-metrics` histograms
//!   (per-class latency, rejection causes, enqueue-time backlog), so
//!   any traced run yields the per-class latency anatomy that
//!   experiment E18 builds from engine internals.
//!
//! Serialize, persist, parse, fold is the one route (`rlb-sim trace`
//! takes it through a file on every invocation):
//!
//! ```
//! use rlb_core::{policies::Greedy, SimConfig, Simulation};
//! use rlb_trace::{parse_jsonl, Aggregator, JsonlSink};
//!
//! let config = SimConfig::baseline(16).with_seed(3);
//! let mut sim = Simulation::new(config, Greedy::new()).with_sink(JsonlSink::new());
//! let mut workload = |_s: u64, out: &mut Vec<u32>| out.extend(0..16u32);
//! sim.run(&mut workload, 10);
//! let (report, jsonl) = sim.finish_traced();
//! let events = parse_jsonl(jsonl.as_str()).unwrap();
//! assert_eq!(events.len() as u64, jsonl.lines());
//! let mut agg = Aggregator::new();
//! for event in &events {
//!     agg.ingest(event);
//! }
//! assert_eq!(agg.completed(), report.completed);
//! ```
//!
//! [`TraceSink`]: rlb_core::TraceSink

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod jsonl;

pub use aggregate::Aggregator;
pub use jsonl::{parse_jsonl, JsonlSink};
