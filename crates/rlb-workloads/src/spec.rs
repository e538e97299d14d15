//! Declarative workload specifications.
//!
//! A [`WorkloadSpec`] is a plain-data description of a workload — the
//! CLI counterpart of the concrete generators.
//! `spec.build(seed)` instantiates the generator; specs also parse from
//! the compact CLI syntax used by the `rlb-sim` tool:
//!
//! ```text
//! repeated:512          the same 512 chunks every step
//! fresh:512             512 fresh uniform chunks per step
//! partial:0.5,512       keep each chunk w.p. 0.5, refill to 512
//! zipf:0.99,512         512 distinct Zipf(0.99) chunks per step
//! phased:4,128,50       4 working sets of 128, switching every 50 steps
//! burst:512,64,5,5      512/step for 5 steps, then 64/step for 5 steps
//! ```

use crate::generators::{FreshRandom, OnOffBurst, PartialRepeat, PhasedWorkingSets, RepeatedSet};
use crate::zipf::ZipfDistinct;
use rlb_core::Workload;
use std::str::FromStr;

/// A workload description.
///
/// ```
/// use rlb_workloads::WorkloadSpec;
///
/// let spec = WorkloadSpec::parse_cli("zipf:0.99,64", 1000).unwrap();
/// let mut workload = spec.build(7);
/// let mut out = Vec::new();
/// rlb_core::Workload::next_step(workload.as_mut(), 0, &mut out);
/// assert_eq!(out.len(), 64);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// The same `k` chunks (ids `0..k`) every step.
    Repeated {
        /// Chunks per step.
        k: u32,
    },
    /// `per_step` fresh uniform chunks from `[0, universe)`.
    Fresh {
        /// Chunk universe size.
        universe: u64,
        /// Chunks per step.
        per_step: usize,
    },
    /// Keep each of the previous step's chunks with probability `p`,
    /// refill to `per_step` from `[0, universe)`.
    Partial {
        /// Chunk universe size.
        universe: u64,
        /// Chunks per step.
        per_step: usize,
        /// Repeat probability.
        p: f64,
    },
    /// `per_step` distinct Zipf(`alpha`) chunks from `[0, universe)`.
    Zipf {
        /// Chunk universe size.
        universe: usize,
        /// Chunks per step.
        per_step: usize,
        /// Skew exponent.
        alpha: f64,
    },
    /// On/off bursty traffic over working set `0..universe`.
    Burst {
        /// Working-set size (chunk ids `0..universe`).
        universe: u32,
        /// Chunks per step during bursts.
        burst_per_step: usize,
        /// Chunks per step during troughs.
        trough_per_step: usize,
        /// Burst phase length in steps.
        burst_len: u64,
        /// Trough phase length in steps.
        trough_len: u64,
    },
    /// `sets` disjoint random working sets of `k` chunks, rotating every
    /// `steps_per_phase` steps.
    Phased {
        /// Chunk universe size.
        universe: u64,
        /// Number of working sets.
        sets: usize,
        /// Chunks per set (= per step).
        k: usize,
        /// Steps before switching sets.
        steps_per_phase: u64,
    },
}

impl WorkloadSpec {
    /// Instantiates the described workload with randomness from `seed`.
    ///
    /// # Panics
    /// Panics if the parameters are invalid (propagated from the
    /// generator constructors).
    pub fn build(&self, seed: u64) -> Box<dyn Workload + Send> {
        match *self {
            WorkloadSpec::Repeated { k } => Box::new(RepeatedSet::first_k(k, seed)),
            WorkloadSpec::Fresh { universe, per_step } => {
                Box::new(FreshRandom::new(universe, per_step, seed))
            }
            WorkloadSpec::Partial {
                universe,
                per_step,
                p,
            } => Box::new(PartialRepeat::new(universe, per_step, p, seed)),
            WorkloadSpec::Zipf {
                universe,
                per_step,
                alpha,
            } => Box::new(ZipfDistinct::new(universe, per_step, alpha, seed)),
            WorkloadSpec::Burst {
                universe,
                burst_per_step,
                trough_per_step,
                burst_len,
                trough_len,
            } => Box::new(OnOffBurst::new(
                universe,
                burst_per_step,
                trough_per_step,
                burst_len,
                trough_len,
                seed,
            )),
            WorkloadSpec::Phased {
                universe,
                sets,
                k,
                steps_per_phase,
            } => Box::new(PhasedWorkingSets::random(
                universe,
                sets,
                k,
                steps_per_phase,
                seed,
            )),
        }
    }

    /// The number of requests per step this spec produces.
    pub fn per_step(&self) -> usize {
        match *self {
            WorkloadSpec::Repeated { k } => k as usize,
            WorkloadSpec::Fresh { per_step, .. } => per_step,
            WorkloadSpec::Partial { per_step, .. } => per_step,
            WorkloadSpec::Zipf { per_step, .. } => per_step,
            WorkloadSpec::Burst { burst_per_step, .. } => burst_per_step,
            WorkloadSpec::Phased { k, .. } => k,
        }
    }

    /// The chunk-universe size the spec assumes (`num_chunks` must be at
    /// least this).
    pub fn universe(&self) -> u64 {
        match *self {
            WorkloadSpec::Repeated { k } => k as u64,
            WorkloadSpec::Fresh { universe, .. } => universe,
            WorkloadSpec::Partial { universe, .. } => universe,
            WorkloadSpec::Zipf { universe, .. } => universe as u64,
            WorkloadSpec::Burst { universe, .. } => universe as u64,
            WorkloadSpec::Phased { universe, .. } => universe,
        }
    }

    /// Parses the compact CLI syntax (see module docs) over a universe
    /// of `universe` chunks.
    ///
    /// Everything the generator constructors assert is checked here, so
    /// a spec this returns builds: counts are whole numbers of at least
    /// 1 (a trough may be 0), a step's chunks fit the universe, `p` is a
    /// probability and `alpha` a finite non-negative exponent.
    ///
    /// # Errors
    /// Returns a one-line message naming `--workload` and the offending
    /// text.
    pub fn parse_cli(s: &str, universe: u64) -> Result<Self, String> {
        let (kind, rest) = s.split_once(':').unwrap_or((s, ""));
        let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
        match (kind, parts.as_slice()) {
            ("repeated", [k]) => Ok(WorkloadSpec::Repeated {
                k: count("k", k, 1)?,
            }),
            ("fresh", [per]) => Ok(WorkloadSpec::Fresh {
                universe,
                per_step: per_step("per_step", per, 1, universe)?,
            }),
            ("partial", [p, per]) => Ok(WorkloadSpec::Partial {
                universe,
                per_step: per_step("per_step", per, 1, universe)?,
                p: float("p", p, "a number in [0, 1]", |p| (0.0..=1.0).contains(&p))?,
            }),
            ("zipf", [alpha, per]) => Ok(WorkloadSpec::Zipf {
                universe: universe as usize,
                per_step: per_step("per_step", per, 1, universe)?,
                alpha: float("alpha", alpha, "finite and >= 0", |a| a >= 0.0)?,
            }),
            ("burst", [burst, trough, burst_len, trough_len]) => {
                let universe = universe.min(u64::from(u32::MAX));
                Ok(WorkloadSpec::Burst {
                    universe: universe as u32,
                    burst_per_step: per_step("burst", burst, 1, universe)?,
                    trough_per_step: per_step("trough", trough, 0, universe)?,
                    burst_len: count("burst_len", burst_len, 1)?,
                    trough_len: count("trough_len", trough_len, 1)?,
                })
            }
            ("phased", [sets, k, steps]) => {
                let sets: usize = count("sets", sets, 1)?;
                let k: usize = count("k", k, 1)?;
                if sets.checked_mul(k).is_none_or(|n| n as u64 > universe) {
                    return Err(format!(
                        "--workload: sets * k must be at most the universe of {universe} chunks, got {s:?}"
                    ));
                }
                Ok(WorkloadSpec::Phased {
                    universe,
                    sets,
                    k,
                    steps_per_phase: count("steps", steps, 1)?,
                })
            }
            _ => Err(format!(
                "--workload: expected repeated:K | fresh:N | partial:P,N | zipf:ALPHA,N | \
                 phased:SETS,K,STEPS | burst:N,TROUGH,LEN,TROUGH_LEN, got {s:?}"
            )),
        }
    }
}

/// One integer field of a spec, parsed as the integer it is: a float
/// parse and a cast would turn `-5` and `nan` into 0, `3.9` into 3 and
/// `1e30` into the type's maximum.
fn count<T: FromStr + PartialOrd + From<u8>>(name: &str, raw: &str, min: u8) -> Result<T, String> {
    match raw.parse::<T>() {
        Ok(n) if n >= T::from(min) => Ok(n),
        _ => Err(format!(
            "--workload: {name} must be an integer >= {min}, got {raw:?}"
        )),
    }
}

/// A per-step request count: distinct chunks, so at most the universe.
fn per_step(name: &str, raw: &str, min: u8, universe: u64) -> Result<usize, String> {
    let n: usize = count(name, raw, min)?;
    if n as u64 > universe {
        return Err(format!(
            "--workload: {name} must be at most the universe of {universe} chunks, got {raw:?}"
        ));
    }
    Ok(n)
}

/// A finite float field satisfying `ok`; `constraint` completes "must
/// be …".
fn float(name: &str, raw: &str, constraint: &str, ok: impl Fn(f64) -> bool) -> Result<f64, String> {
    match raw.parse::<f64>() {
        Ok(x) if x.is_finite() && ok(x) => Ok(x),
        _ => Err(format!(
            "--workload: {name} must be {constraint}, got {raw:?}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_working_generators() {
        let specs = [
            WorkloadSpec::Repeated { k: 16 },
            WorkloadSpec::Fresh {
                universe: 100,
                per_step: 16,
            },
            WorkloadSpec::Partial {
                universe: 100,
                per_step: 16,
                p: 0.5,
            },
            WorkloadSpec::Zipf {
                universe: 100,
                per_step: 16,
                alpha: 1.0,
            },
            WorkloadSpec::Phased {
                universe: 200,
                sets: 2,
                k: 16,
                steps_per_phase: 3,
            },
        ];
        for spec in specs {
            let mut w = spec.build(1);
            let mut out = Vec::new();
            for step in 0..5 {
                out.clear();
                w.next_step(step, &mut out);
                assert_eq!(out.len(), spec.per_step(), "{spec:?}");
                assert!(out.iter().all(|&c| (c as u64) < spec.universe()));
            }
        }
    }

    #[test]
    fn cli_parsing_round_trip() {
        assert_eq!(
            WorkloadSpec::parse_cli("repeated:512", 4096).unwrap(),
            WorkloadSpec::Repeated { k: 512 }
        );
        assert_eq!(
            WorkloadSpec::parse_cli("fresh:16", 4096).unwrap(),
            WorkloadSpec::Fresh {
                universe: 4096,
                per_step: 16
            }
        );
        assert_eq!(
            WorkloadSpec::parse_cli("partial:0.5,100", 4096).unwrap(),
            WorkloadSpec::Partial {
                universe: 4096,
                per_step: 100,
                p: 0.5
            }
        );
        assert_eq!(
            WorkloadSpec::parse_cli("zipf:0.99,64", 1000).unwrap(),
            WorkloadSpec::Zipf {
                universe: 1000,
                per_step: 64,
                alpha: 0.99
            }
        );
        assert_eq!(
            WorkloadSpec::parse_cli("phased:4,128,50", 9999).unwrap(),
            WorkloadSpec::Phased {
                universe: 9999,
                sets: 4,
                k: 128,
                steps_per_phase: 50
            }
        );
    }

    #[test]
    fn burst_spec_parses_and_builds() {
        let spec = WorkloadSpec::parse_cli("burst:100,10,3,2", 200).unwrap();
        assert_eq!(
            spec,
            WorkloadSpec::Burst {
                universe: 200,
                burst_per_step: 100,
                trough_per_step: 10,
                burst_len: 3,
                trough_len: 2
            }
        );
        let mut w = spec.build(5);
        let mut out = Vec::new();
        rlb_core::Workload::next_step(w.as_mut(), 0, &mut out);
        assert_eq!(out.len(), 100);
        out.clear();
        rlb_core::Workload::next_step(w.as_mut(), 4, &mut out);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn cli_parsing_rejects_garbage() {
        assert!(WorkloadSpec::parse_cli("nope:1", 10).is_err());
        assert!(WorkloadSpec::parse_cli("repeated", 10).is_err());
        assert!(WorkloadSpec::parse_cli("partial:x,1", 10).is_err());
        assert!(WorkloadSpec::parse_cli("zipf:1.0", 10).is_err());
    }

    #[test]
    fn every_spec_that_parses_builds() {
        // Just past what the constructors assert, universe 64 (rlb-cli's
        // `flag_messages.rs` has the wording of the plainer cases).
        for bad in [
            "repeated:0",
            "partial:-0.1,16",
            "partial:0.5,65",
            "zipf:-1,16",
            "zipf:inf,16",
            "burst:8,4,5,0",
            "burst:65,4,5,5",
            "burst:8,65,5,5",
            "phased:4,0,5",
            "phased:4,4,0",
            "phased:9,8,5",
            "phased:18446744073709551615,2,5",
        ] {
            let err = WorkloadSpec::parse_cli(bad, 64).expect_err(bad);
            assert!(err.starts_with("--workload: "), "{bad}: {err}");
            assert!(!err.contains('\n'), "{bad}: {err}");
        }
        // The edges of what they accept.
        for good in [
            "repeated:1",
            "fresh:64",
            "partial:0,64",
            "partial:1,1",
            "zipf:0,64",
            "burst:64,0,1,1",
            "phased:8,8,1",
        ] {
            let spec = WorkloadSpec::parse_cli(good, 64).expect(good);
            let mut out = Vec::new();
            spec.build(3).next_step(0, &mut out);
            assert_eq!(out.len(), spec.per_step(), "{good}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = WorkloadSpec::Fresh {
            universe: 1000,
            per_step: 32,
        };
        let mut a = spec.build(9);
        let mut b = spec.build(9);
        let mut oa = Vec::new();
        let mut ob = Vec::new();
        for step in 0..4 {
            oa.clear();
            ob.clear();
            a.next_step(step, &mut oa);
            b.next_step(step, &mut ob);
            assert_eq!(oa, ob);
        }
    }
}
