//! Every workload generator must respect the model's constraints (§2):
//! chunks within a step are distinct and inside the declared universe.
//! Cases are swept deterministically with the workspace PCG generator.

use rlb_core::Workload;
use rlb_hash::{Pcg64, Rng};
use rlb_workloads::{FreshRandom, PartialRepeat, PhasedWorkingSets, RepeatedSet, ZipfDistinct};

const CASES: u64 = 48;

fn case_rng(property: u64, case: u64) -> Pcg64 {
    Pcg64::new(0x776b6c64 ^ (property << 32) ^ case, property)
}

fn check_steps(workload: &mut dyn Workload, universe: u64, steps: u64) {
    let mut out = Vec::new();
    for step in 0..steps {
        out.clear();
        workload.next_step(step, &mut out);
        let mut seen = std::collections::BTreeSet::new();
        for &c in &out {
            assert!((c as u64) < universe, "step {step}: chunk {c} out of range");
            assert!(seen.insert(c), "step {step}: duplicate chunk {c}");
        }
    }
}

#[test]
fn repeated_set_respects_model() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let k = 1 + rng.gen_range(199) as u32;
        let seed = rng.next_u64();
        let mut w = RepeatedSet::first_k(k, seed);
        check_steps(&mut w, k as u64, 20);
    }
}

#[test]
fn fresh_random_respects_model() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let universe = 1 + rng.gen_range(4999);
        let seed = rng.next_u64();
        let frac = 1 + rng.gen_range(99);
        let per_step = ((universe * frac) / 100).max(1) as usize;
        let mut w = FreshRandom::new(universe, per_step, seed);
        check_steps(&mut w, universe, 20);
    }
}

#[test]
fn partial_repeat_respects_model() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let universe = 10 + rng.gen_range(4990);
        let p = rng.gen_f64();
        let seed = rng.next_u64();
        let per_step = (universe / 2).max(1) as usize;
        let mut w = PartialRepeat::new(universe, per_step, p, seed);
        check_steps(&mut w, universe, 20);
    }
}

#[test]
fn zipf_respects_model() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let universe = 2 + rng.gen_index(2998);
        let alpha = rng.gen_f64() * 2.5;
        let seed = rng.next_u64();
        let per_step = (universe / 2).max(1);
        let mut w = ZipfDistinct::new(universe, per_step, alpha, seed);
        check_steps(&mut w, universe as u64, 15);
    }
}

#[test]
fn phased_sets_respect_model() {
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let w_count = 1 + rng.gen_index(4);
        let k = 1 + rng.gen_index(49);
        let phase = 1 + rng.gen_range(9);
        let seed = rng.next_u64();
        let universe = (w_count * k * 4) as u64;
        let mut w = PhasedWorkingSets::random(universe, w_count, k, phase, seed);
        check_steps(&mut w, universe, 30);
    }
}

/// Partial repeat actually repeats: the expected overlap between
/// consecutive steps tracks p.
#[test]
fn partial_repeat_overlap_tracks_p() {
    for case in 0..CASES {
        let mut rng = case_rng(6, case);
        let p = 0.1 + rng.gen_f64() * 0.8;
        let universe = 100_000u64;
        let per_step = 2000usize;
        let mut w = PartialRepeat::new(universe, per_step, p, 7);
        let mut prev: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
        let mut total_overlap = 0usize;
        let mut out = Vec::new();
        let rounds = 10;
        for step in 0..=rounds {
            out.clear();
            w.next_step(step, &mut out);
            if step > 0 {
                total_overlap += out.iter().filter(|c| prev.contains(c)).count();
            }
            prev = out.iter().copied().collect();
        }
        let mean_overlap = total_overlap as f64 / (rounds as f64 * per_step as f64);
        assert!(
            (mean_overlap - p).abs() < 0.08,
            "case {case}: overlap {mean_overlap} vs p {p}"
        );
    }
}
