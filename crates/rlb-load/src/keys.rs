//! Key popularity: which key does the next request touch?
//!
//! Three shapes, all seeded and fully deterministic:
//!
//! * **Uniform** over a key universe — the paper's baseline;
//! * **Zipf(α)** by rank (key 0 most popular), via the alias-method
//!   [`ZipfSampler`] — rank-frequency ratios are pinned by
//!   `tests/stats.rs`;
//! * **Phased** working sets via [`PhasedWorkingSets`] — the
//!   reappearance-dependency stress shape: a rotating set of hot keys
//!   whose chunks keep reappearing in consecutive steps.
//!
//! A Zipf alias table costs 12 bytes a key and is the same for every
//! client of one shape, so clients share it: [`KeyPicker::new`] takes it
//! from a per-thread memo of `(universe, α)` → `Weak<ZipfSampler>` and
//! builds it only when no live picker on the thread holds one. The memo
//! owns nothing, so a table lives exactly as long as its last picker.
//! Each picker keeps its own `rng`, so sharing moves no key stream.
//!
//! A client draws a tick's keys in one call: the crate-private
//! `KeyPicker::pick_into` hands a Zipf picker's whole batch to
//! [`ZipfSampler::sample_into`], whose table reads overlap, and picks
//! the other shapes one by one. It returns exactly what as many
//! [`KeyPicker::pick`] calls would.

use std::cell::Cell;
use std::sync::{Arc, Weak};

use rlb_core::Workload as _;
use rlb_hash::sample::ZipfSampler;
use rlb_hash::{Pcg64, Rng};
use rlb_workloads::PhasedWorkingSets;

/// Popularity shape parameters (CLI-facing).
#[derive(Debug, Clone, PartialEq)]
pub enum Popularity {
    /// Every key in `[0, universe)` equally likely.
    Uniform {
        /// Key universe size.
        universe: u64,
    },
    /// `P(rank) ∝ 1/(rank+1)^alpha` over `[0, universe)`.
    Zipf {
        /// Skew exponent.
        alpha: f64,
        /// Key universe size.
        universe: usize,
    },
    /// `sets` rotating disjoint working sets of `set_size` keys from
    /// `[0, universe)`, switching every `ticks_per_phase` ticks.
    Phased {
        /// Number of working sets.
        sets: usize,
        /// Keys per working set.
        set_size: usize,
        /// Ticks before rotating to the next set.
        ticks_per_phase: u64,
        /// Key universe size.
        universe: u64,
    },
}

enum PickerKind {
    Uniform {
        universe: u64,
    },
    Zipf(Arc<ZipfSampler>),
    Phased {
        gen: PhasedWorkingSets,
        current: Vec<u32>,
        tick: Option<u64>,
    },
}

/// One memo entry: a table's universe, its α's bits, and the table if
/// some picker still holds it. `Arc`, not `Rc`: the live driver hands
/// its clients back across threads.
type ZipfEntry = (usize, u64, Weak<ZipfSampler>);

thread_local! {
    static ZIPF_TABLES: Cell<Vec<ZipfEntry>> = const { Cell::new(Vec::new()) };
}

/// The Zipf(`alpha`) table over `[0, universe)`, shared with every live
/// picker of the same shape built on this thread. Entries whose table
/// is gone are pruned on each lookup.
fn shared_zipf(universe: usize, alpha: f64) -> Arc<ZipfSampler> {
    let key = (universe, alpha.to_bits());
    ZIPF_TABLES.with(|memo| {
        let mut tables = memo.take();
        tables.retain(|(_, _, table)| table.strong_count() > 0);
        let found = tables
            .iter()
            .find(|&&(u, a, _)| (u, a) == key)
            .and_then(|(_, _, table)| table.upgrade());
        let table = found.unwrap_or_else(|| {
            let table = Arc::new(ZipfSampler::new(universe, alpha));
            tables.push((key.0, key.1, Arc::downgrade(&table)));
            table
        });
        memo.set(tables);
        table
    })
}

/// A seeded key source for one client.
pub struct KeyPicker {
    kind: PickerKind,
    rng: Pcg64,
}

impl KeyPicker {
    /// Builds a picker for `shape`, seeded independently of every other
    /// random stream.
    pub fn new(shape: &Popularity, seed: u64) -> Self {
        let kind = match shape {
            Popularity::Uniform { universe } => PickerKind::Uniform {
                universe: (*universe).max(1),
            },
            Popularity::Zipf { alpha, universe } => {
                PickerKind::Zipf(shared_zipf((*universe).max(1), *alpha))
            }
            Popularity::Phased {
                sets,
                set_size,
                ticks_per_phase,
                universe,
            } => PickerKind::Phased {
                gen: PhasedWorkingSets::random(
                    (*universe).max(sets.saturating_mul(*set_size) as u64),
                    (*sets).max(1),
                    (*set_size).max(1),
                    (*ticks_per_phase).max(1),
                    seed ^ 0x5068_6173, // "Phas"
                ),
                current: Vec::new(),
                tick: None,
            },
        };
        Self {
            kind,
            rng: Pcg64::new(seed, 0x4b65_7973), // "Keys"
        }
    }

    /// Draws the key for one request issued at `tick`.
    pub fn pick(&mut self, tick: u64) -> u64 {
        match &mut self.kind {
            PickerKind::Uniform { universe } => self.rng.gen_range(*universe),
            PickerKind::Zipf(sampler) => sampler.sample(&mut self.rng),
            PickerKind::Phased {
                gen,
                current,
                tick: at,
            } => {
                if *at != Some(tick) {
                    current.clear();
                    gen.next_step(tick, current);
                    *at = Some(tick);
                }
                #[expect(clippy::indexing_slicing, reason = "gen_index(len) < len, len >= 1")]
                let key = current[self.rng.gen_index(current.len())];
                u64::from(key)
            }
        }
    }

    /// Fills `out` with the keys of `out.len()` requests issued at `tick`:
    /// what as many [`pick`](Self::pick) calls return. A Zipf picker draws
    /// them in one [`ZipfSampler::sample_into`]; the other shapes pick
    /// one by one.
    pub(crate) fn pick_into(&mut self, tick: u64, out: &mut [u64]) {
        if let PickerKind::Zipf(sampler) = &self.kind {
            sampler.sample_into(&mut self.rng, out);
        } else {
            for slot in out {
                *slot = self.pick(tick);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_the_universe() {
        let mut p = KeyPicker::new(&Popularity::Uniform { universe: 8 }, 3);
        let mut seen = [false; 8];
        for t in 0..500 {
            seen[p.pick(t) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zipf_rank_zero_dominates() {
        let mut p = KeyPicker::new(
            &Popularity::Zipf {
                alpha: 1.0,
                universe: 100,
            },
            5,
        );
        let mut counts = [0u32; 100];
        for t in 0..20_000 {
            counts[p.pick(t) as usize] += 1;
        }
        assert!(counts[0] > counts[10] && counts[0] > counts[99]);
    }

    #[test]
    fn phased_keys_stay_inside_one_set_per_phase() {
        let shape = Popularity::Phased {
            sets: 4,
            set_size: 8,
            ticks_per_phase: 10,
            universe: 1000,
        };
        let mut p = KeyPicker::new(&shape, 11);
        // Within one phase, at most set_size distinct keys.
        let mut distinct: Vec<u64> = (0..200).map(|i| p.pick(3 + (i % 2))).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() <= 8, "phase leaked: {distinct:?}");
    }

    /// One digest over the first 10 000 picks of each shape × seed, two
    /// picks a tick.
    #[test]
    fn key_streams_are_pinned() {
        const PINNED: [[u64; 3]; 3] = [
            [0xa5ee41d34e8f6207, 0x07f92f50556f66db, 0x577a1b6b8a377d8e],
            [0x1d47ab5eddfa22dd, 0x481e5e58ce5de628, 0x6ad21765f9b6a77c],
            [0xff2fe8e160ebac77, 0x7b76c0a68e8587ff, 0xd4fa3c2ec81a5298],
        ];
        let shapes = [
            Popularity::Uniform {
                universe: 1_000_003,
            },
            Popularity::Zipf {
                alpha: 1.1,
                universe: 100_000,
            },
            Popularity::Phased {
                sets: 4,
                set_size: 64,
                ticks_per_phase: 5,
                universe: 100_000,
            },
        ];
        let mut got = [[0u64; 3]; 3];
        for (shape, row) in shapes.iter().zip(&mut got) {
            for (seed, digest) in [1u64, 7, 23].into_iter().zip(row.iter_mut()) {
                let mut p = KeyPicker::new(shape, seed);
                *digest = (0..10_000u64).fold(0, |h, i| rlb_hash::mix::mix2(h, p.pick(i / 2)));
            }
        }
        assert_eq!(got, PINNED, "key streams moved: {got:#x?}");
    }

    /// The batch form against `pick`, for every shape: the same keys over
    /// lengths either side of a sampler block, on ticks that move the
    /// phased working set with the batch the first to draw on the new
    /// tick, and pickers left in step.
    #[test]
    fn pick_into_is_repeated_pick() {
        let shapes = [
            Popularity::Uniform { universe: 1000 },
            zipf(1.1, 5000),
            Popularity::Phased {
                sets: 3,
                set_size: 16,
                ticks_per_phase: 1,
                universe: 1000,
            },
        ];
        for shape in &shapes {
            let mut batch = KeyPicker::new(shape, 9);
            let mut one = KeyPicker::new(shape, 9);
            for (tick, len) in [(0, 5), (0, 40), (1, 33), (2, 0), (2, 1), (3, 64), (7, 100)] {
                let mut out = vec![u64::MAX; len];
                batch.pick_into(tick, &mut out);
                let want: Vec<u64> = (0..len).map(|_| one.pick(tick)).collect();
                assert_eq!(out, want, "{shape:?} at tick {tick}");
            }
            for tick in 8..40 {
                assert_eq!(batch.pick(tick), one.pick(tick), "{shape:?} at tick {tick}");
            }
        }
    }

    fn table(p: &KeyPicker) -> &Arc<ZipfSampler> {
        match &p.kind {
            PickerKind::Zipf(table) => table,
            _ => panic!("not a Zipf picker"),
        }
    }

    fn zipf(alpha: f64, universe: usize) -> Popularity {
        Popularity::Zipf { alpha, universe }
    }

    #[test]
    fn pickers_of_one_shape_share_one_table() {
        let pickers: Vec<KeyPicker> = (0..8)
            .map(|s| KeyPicker::new(&zipf(1.1, 5000), s))
            .collect();
        for p in &pickers[1..] {
            assert!(Arc::ptr_eq(table(&pickers[0]), table(p)));
        }
        assert_eq!(Arc::strong_count(table(&pickers[0])), 8);
    }

    #[test]
    fn another_alpha_or_universe_gets_its_own_table() {
        let base = KeyPicker::new(&zipf(1.1, 5000), 1);
        for (alpha, universe) in [(0.9, 5000), (1.1, 5001)] {
            let p = KeyPicker::new(&zipf(alpha, universe), 1);
            assert!(!Arc::ptr_eq(table(&base), table(&p)), "{alpha} {universe}");
            assert_eq!(table(&p).len(), universe);
        }
    }

    #[test]
    fn the_memo_keeps_no_table_alive() {
        let pickers: Vec<KeyPicker> = (0..3).map(|s| KeyPicker::new(&zipf(1.3, 700), s)).collect();
        let weak = Arc::downgrade(table(&pickers[0]));
        drop(pickers);
        assert!(weak.upgrade().is_none(), "a table outlived its pickers");
        // The next picker of the shape builds afresh, and the dead entry
        // is pruned rather than kept beside the new one.
        let again = KeyPicker::new(&zipf(1.3, 700), 0);
        assert_eq!(Arc::strong_count(table(&again)), 1);
        let entries = ZIPF_TABLES.with(|memo| {
            let tables = memo.take();
            let n = tables.iter().filter(|&&(u, _, _)| u == 700).count();
            memo.set(tables);
            n
        });
        assert_eq!(entries, 1);
    }

    #[test]
    fn same_seed_same_keys() {
        for shape in [
            Popularity::Uniform { universe: 50 },
            Popularity::Zipf {
                alpha: 0.8,
                universe: 50,
            },
            Popularity::Phased {
                sets: 2,
                set_size: 5,
                ticks_per_phase: 3,
                universe: 64,
            },
        ] {
            let mut a = KeyPicker::new(&shape, 21);
            let mut b = KeyPicker::new(&shape, 21);
            for t in 0..200 {
                assert_eq!(a.pick(t), b.pick(t), "shape {shape:?}");
            }
        }
    }
}
