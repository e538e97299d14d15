//! The engine holds no per-chunk state under Greedy: a run over the
//! whole u32 chunk-id space (2^32 chunks) builds and steps in the memory
//! its servers need. This is its own test binary so that the process's
//! peak virtual size below is this run's alone.

use rlb_core::policies::Greedy;
use rlb_core::{SimConfig, Simulation};

#[test]
fn a_run_over_two_to_the_32_chunks_holds_no_per_chunk_memory() {
    let config = SimConfig {
        num_chunks: 1 << 32,
        ..SimConfig::baseline(1024)
    };
    let mut sim = Simulation::new(config, Greedy::new());
    // One step of `RepeatedSet::first_k(1024)` in fixed order (the
    // generator lives downstream of this crate).
    sim.run(
        &mut |_step: u64, out: &mut Vec<u32>| out.extend(0..1024u32),
        1,
    );
    // A replica row a chunk would be 32 GiB here; a bit a chunk 512 MiB.
    let replica = sim.placement().replicas(u32::MAX);
    assert_eq!(replica.len(), 2);
    let report = sim.finish();
    assert_eq!(report.arrived, 1024);
    report.check_conservation().unwrap();
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        let peak_kib: u64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmPeak:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap_or(0);
        assert!(
            peak_kib > 0 && peak_kib < 256 << 10,
            "peak virtual size {peak_kib} KiB: per-chunk state was allocated"
        );
    }
}
