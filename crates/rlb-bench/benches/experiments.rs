//! Wall-clock regression guard for the per-theorem experiment suite.
//!
//! Each entry runs one experiment in quick mode — this is the harness
//! that regenerates the paper's "tables and figures" (see
//! `rlb-experiments`), so keeping its runtime tracked keeps the full
//! reproduction loop usable. These are second-scale benchmarks, so each
//! is measured over the default window without extra repetition.

use rlb_bench::wallclock::Harness;
use rlb_experiments::registry;

fn main() {
    let mut h = Harness::new();
    // A representative spread: positive result, substrate, lower bound.
    for id in ["e5", "e6", "e10", "e11"] {
        let experiment = *registry().iter().find(|e| e.id == id).expect("registry id");
        h.bench("experiments_quick", id, None, || {
            let out = experiment.run(true);
            assert!(out.all_passed());
            out.tables.len()
        });
    }
}
