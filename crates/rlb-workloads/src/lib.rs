//! Oblivious-adversary workload generators.
//!
//! The paper's adversary knows the load-balancing algorithm but not its
//! random bits (§1). Concretely, a workload here is any
//! [`rlb_core::Workload`] whose request stream is generated without
//! inspecting the placement or queue state. The generators cover the
//! regimes the paper's analysis distinguishes:
//!
//! * [`RepeatedSet`] — the same `k` chunks every step: maximal
//!   reappearance dependencies, the hard case motivating both algorithms
//!   and the `d = 1` impossibility.
//! * [`FreshRandom`] — new uniform chunks each step: no reappearance at
//!   all, the easy case where classical analysis applies.
//! * [`PartialRepeat`] — interpolates between the two with a repeat
//!   probability per slot.
//! * [`PhasedWorkingSets`] — rotates among several fixed working sets
//!   (diurnal-style shifts).
//! * [`ZipfDistinct`] — skewed popularity with the model's
//!   distinct-chunks-per-step constraint enforced.
//! * [`planted`] — *white-box* chunk sets for the Theorem 5.2 lower
//!   bound, found by scanning the placement (documented there; not an
//!   oblivious workload).
//! * [`trace`] — record/replay of arbitrary request traces (JSON).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmap;
pub mod generators;
pub mod planted;
pub mod spec;
pub mod trace;
pub mod zipf;

pub use generators::{FreshRandom, OnOffBurst, PartialRepeat, PhasedWorkingSets, RepeatedSet};
pub use spec::WorkloadSpec;
pub use trace::Trace;
pub use zipf::ZipfDistinct;
