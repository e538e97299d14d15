//! Property-based tests over the public API.
//!
//! Each property is exercised over a deterministic sweep of randomized
//! cases driven by the workspace's own PCG generator, so the suite needs
//! no external property-testing framework and every failure is
//! reproducible from the printed case seed.

use reappearance_lb::core::policies::{Greedy, UniformRandom};
use reappearance_lb::core::{DrainMode, SimConfig, Simulation};
use reappearance_lb::hash::placement::ReplicaPlacement;
use reappearance_lb::hash::{Pcg64, Rng};
use reappearance_lb::metrics::{BacklogSnapshot, Histogram};
use reappearance_lb::workloads::Trace;

const CASES: u64 = 64;

fn case_rng(property: u64, case: u64) -> Pcg64 {
    Pcg64::new(0x70726f70 ^ (property << 32) ^ case, property)
}

/// Engine conservation laws hold for arbitrary configurations and
/// request streams.
#[test]
fn simulation_conserves_requests() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let m = 1 + rng.gen_index(23);
        let d = (1 + rng.gen_index(3)).min(m);
        let g = 1 + rng.gen_range(5) as u32;
        let q = 1 + rng.gen_range(7) as u32;
        let steps = 1 + rng.gen_range(29);
        let flush = if rng.gen_range(2) == 0 {
            Some(1 + rng.gen_range(9))
        } else {
            None
        };
        let interleaved = rng.gen_range(2) == 0;
        let seed = rng.next_u64();
        let config = SimConfig {
            num_servers: m,
            num_chunks: 4 * m,
            replication: d,
            process_rate: g,
            queue_capacity: q,
            flush_interval: flush,
            drain_mode: if interleaved {
                DrainMode::Interleaved
            } else {
                DrainMode::EndOfStep
            },
            seed,
            safety_check_every: Some(1),
        };
        let mut sim = Simulation::new(config, Greedy::new());
        // Saturating workload: every chunk id below min(4m, m) requested.
        let k = m as u32;
        let mut workload = move |_s: u64, out: &mut Vec<u32>| out.extend(0..k);
        sim.run(&mut workload, steps);
        let report = sim.finish();
        assert!(
            report.check_conservation().is_ok(),
            "case {case}: {:?}",
            report.check_conservation()
        );
        assert_eq!(report.arrived, steps * k as u64, "case {case}");
        // Latency can never exceed the run length.
        assert!(report.max_latency <= steps, "case {case}");
    }
}

/// Random-replica routing also conserves and respects replica sets.
#[test]
fn random_policy_conserves() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let m = 2 + rng.gen_index(14);
        let steps = 1 + rng.gen_range(19);
        let seed = rng.next_u64();
        let config = SimConfig {
            num_servers: m,
            num_chunks: 2 * m,
            replication: 2,
            process_rate: 2,
            queue_capacity: 3,
            flush_interval: None,
            drain_mode: DrainMode::EndOfStep,
            seed,
            safety_check_every: None,
        };
        let mut sim = Simulation::new(config, UniformRandom::new(seed ^ 1));
        let k = m as u32;
        let mut workload = move |_s: u64, out: &mut Vec<u32>| out.extend(0..k);
        sim.run(&mut workload, steps);
        assert!(sim.finish().check_conservation().is_ok(), "case {case}");
    }
}

/// Histogram quantiles are monotone and bounded by min/max.
#[test]
fn histogram_quantiles_are_monotone() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let len = 1 + rng.gen_index(199);
        let values: Vec<u64> = (0..len).map(|_| rng.gen_range(1000)).collect();
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut prev = h.quantile(0.0).unwrap();
        for i in 1..=20 {
            let q = h.quantile(i as f64 / 20.0).unwrap();
            assert!(q >= prev, "case {case}");
            prev = q;
        }
        assert_eq!(
            h.quantile(1.0).unwrap(),
            *values.iter().max().unwrap(),
            "case {case}"
        );
        assert_eq!(h.count(), values.len() as u64, "case {case}");
    }
}

/// Backlog snapshots agree with a naive tail count.
#[test]
fn backlog_snapshot_matches_naive() {
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let len = 1 + rng.gen_index(63);
        let backlogs: Vec<u64> = (0..len).map(|_| rng.gen_range(30)).collect();
        let s = BacklogSnapshot::from_backlogs(&backlogs);
        for j in 0..32u64 {
            let naive = backlogs.iter().filter(|&&b| b > j).count() as u64;
            assert_eq!(s.servers_above(j), naive, "case {case}, j={j}");
        }
        let report = s.safety(1.0);
        // Re-derive the worst ratio naively.
        let m = backlogs.len() as f64;
        let jmax = (m.log2().floor() as u64).max(1);
        let mut worst: f64 = 0.0;
        for j in 1..=jmax {
            let above = backlogs.iter().filter(|&&b| b > j).count() as f64;
            worst = worst.max(above / (m / 2f64.powi(j as i32)));
        }
        assert!((report.worst_ratio - worst).abs() < 1e-9, "case {case}");
    }
}

/// Placements always produce d distinct in-range servers, and the
/// placement is a pure function of the seed.
#[test]
fn placement_is_distinct_and_deterministic() {
    for case in 0..CASES {
        let mut rng = case_rng(6, case);
        let m = 2 + rng.gen_index(62);
        let d = (1 + rng.gen_index(4)).min(m);
        let n = 1 + rng.gen_index(127);
        let seed = rng.next_u64();
        let a = ReplicaPlacement::random(n, m, d, seed);
        let b = ReplicaPlacement::random(n, m, d, seed);
        assert_eq!(&a, &b, "case {case}");
        for c in 0..n as u32 {
            let r = a.replicas(c);
            for (i, &s) in r.iter().enumerate() {
                assert!((s as usize) < m, "case {case}");
                assert!(!r[..i].contains(&s), "case {case}");
            }
        }
    }
}

/// Traces survive a JSON round trip for arbitrary distinct-step data.
#[test]
fn trace_json_round_trip() {
    for case in 0..CASES {
        let mut rng = case_rng(7, case);
        let num_steps = rng.gen_index(16);
        let mut t = Trace::new();
        for _ in 0..num_steps {
            let k = rng.gen_index(32);
            let mut set = std::collections::BTreeSet::new();
            while set.len() < k {
                set.insert(rng.gen_range(1000) as u32);
            }
            t.push_step(set.into_iter().collect());
        }
        let back = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(t, back, "case {case}");
    }
}
