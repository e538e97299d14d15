//! Table-identity gate for the offline solver.
//!
//! `RoutingTable::build` and `TableBuilder::solve` feed the
//! delayed-cuckoo goldens, E10 and `results/*.json`, so a rewrite of
//! the solver must reproduce every table bit for bit: same peel order,
//! same component scan, same stash rule. This suite sweeps PCG-generated
//! request sets from far below to far above the Lemma 4.2 load (so both
//! healthy and failed tables occur), with and without `h1 == h2` items,
//! folds each result into one `fmix64` digest, and compares against
//! digests recorded from the per-call `Solver` that preceded the
//! reusable `TableBuilder` (commit `a214c3f`).
//!
//! To regenerate after an *intentional* change of which table is
//! produced, run:
//!
//! ```text
//! RLB_REGEN_GOLDEN=1 cargo test -p rlb-cuckoo --test table_golden
//! ```

use rlb_cuckoo::offline::STASHED;
use rlb_cuckoo::{Choices, RoutingTable, TableBuilder};
use rlb_hash::mix::fmix64;
use rlb_hash::{Pcg64, Rng};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/table_digests.txt"
);

const SIZES: [usize; 6] = [7, 16, 50, 300, 2_000, 16_384];

fn fold(h: u64, x: u64) -> u64 {
    fmix64(h ^ x)
}

fn items_for(m: usize, k: usize, self_loops: bool) -> Vec<Choices> {
    let mut rng = Pcg64::new(
        0x7461626c ^ ((m as u64) << 24) ^ k as u64,
        self_loops as u64,
    );
    (0..k)
        .map(|_| {
            let a = rng.gen_index(m) as u32;
            let mut b = rng.gen_index(m) as u32;
            if self_loops {
                if rng.gen_index(8) == 0 {
                    b = a;
                }
            } else {
                while b == a {
                    b = rng.gen_index(m) as u32;
                }
            }
            Choices::new(a, b)
        })
        .collect()
}

fn table_digest(m: usize, items: &[Choices]) -> u64 {
    let t = RoutingTable::build(m, items);
    let mut h = fold(m as u64, t.len() as u64);
    for i in 0..t.len() {
        h = fold(h, t.server_of(i) as u64);
    }
    h = fold(h, t.failed() as u64);
    h = fold(h, t.total_stash() as u64);
    fold(h, t.max_per_server() as u64)
}

/// Folds what the solver's one-call form reported before it wrote a
/// slot vector: each item's position (`u64::MAX` if stashed), the stash
/// size, and the stashed items in ascending order.
fn assignment_digest(m: usize, items: &[Choices]) -> u64 {
    let mut slots = vec![0; items.len()];
    let stashed = TableBuilder::new().solve(m, items, &mut slots);
    let mut h = fold(m as u64, slots.len() as u64);
    for &s in &slots {
        h = fold(h, if s == STASHED { u64::MAX } else { u64::from(s) });
    }
    h = fold(h, stashed as u64);
    for i in (0..slots.len()).filter(|&i| slots[i] == STASHED) {
        h = fold(h, i as u64);
    }
    h
}

/// One line per case: `m k self_loops table_digest assignment_digest`.
fn produce() -> String {
    let mut out = String::new();
    for m in SIZES {
        for k in [m / 3 + 1, m / 2, m, 2 * m, 3 * m] {
            for self_loops in [false, true] {
                let items = items_for(m, k, self_loops);
                out.push_str(&format!(
                    "{m} {k} {} {:016x} {:016x}\n",
                    self_loops as u8,
                    table_digest(m, &items),
                    assignment_digest(m, &items),
                ));
            }
        }
    }
    out
}

#[test]
fn tables_match_recorded_digests() {
    let produced = produce();
    if std::env::var("RLB_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, &produced).unwrap();
        eprintln!("regenerated {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing; run with RLB_REGEN_GOLDEN=1 to create it");
    assert_eq!(produced.lines().count(), golden.lines().count());
    for (got, want) in produced.lines().zip(golden.lines()) {
        assert_eq!(
            got, want,
            "table diverged (m k self_loops table assignment)"
        );
    }
}

/// The sweep must exercise what it claims to: failed and healthy tables,
/// non-empty stashes, and self-loop items.
#[test]
fn sweep_covers_failed_tables_stashes_and_self_loops() {
    let (mut failed, mut healthy, mut stashed, mut loops) = (0, 0, 0, 0);
    for m in SIZES {
        for k in [m / 3 + 1, 3 * m] {
            let items = items_for(m, k, true);
            loops += items.iter().filter(|c| c.h1 == c.h2).count();
            let t = RoutingTable::build(m, &items);
            if t.failed() {
                failed += 1;
            } else {
                healthy += 1;
            }
            stashed += t.total_stash();
        }
    }
    assert!(
        failed >= 3 && healthy >= 3,
        "{failed} failed, {healthy} healthy"
    );
    assert!(stashed > 0 && loops > 0);
}
