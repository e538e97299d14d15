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

    /// Parses the compact CLI syntax (see module docs). The universe for
    /// `fresh`/`partial`/`zipf` defaults to `default_universe`.
    ///
    /// # Errors
    /// Returns a human-readable message for malformed input.
    pub fn parse_cli(s: &str, default_universe: u64) -> Result<Self, String> {
        let (kind, rest) = s.split_once(':').unwrap_or((s, ""));
        let parts: Vec<&str> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',').collect()
        };
        let num = |s: &str| -> Result<f64, String> {
            s.trim()
                .parse::<f64>()
                .map_err(|_| format!("not a number: {s:?}"))
        };
        match kind {
            "repeated" => {
                let k = *parts.first().ok_or("repeated needs k, e.g. repeated:512")?;
                Ok(WorkloadSpec::Repeated {
                    k: num(k)? as u32,
                })
            }
            "fresh" => {
                let per = *parts.first().ok_or("fresh needs per_step, e.g. fresh:512")?;
                Ok(WorkloadSpec::Fresh {
                    universe: default_universe,
                    per_step: num(per)? as usize,
                })
            }
            "partial" => {
                if parts.len() != 2 {
                    return Err("partial needs p,per_step, e.g. partial:0.5,512".into());
                }
                Ok(WorkloadSpec::Partial {
                    universe: default_universe,
                    per_step: num(parts[1])? as usize,
                    p: num(parts[0])?,
                })
            }
            "zipf" => {
                if parts.len() != 2 {
                    return Err("zipf needs alpha,per_step, e.g. zipf:0.99,512".into());
                }
                Ok(WorkloadSpec::Zipf {
                    universe: default_universe as usize,
                    per_step: num(parts[1])? as usize,
                    alpha: num(parts[0])?,
                })
            }
            "burst" => {
                if parts.len() != 4 {
                    return Err(
                        "burst needs burst,trough,burst_len,trough_len, e.g. burst:512,64,5,5"
                            .into(),
                    );
                }
                Ok(WorkloadSpec::Burst {
                    universe: default_universe.min(u32::MAX as u64) as u32,
                    burst_per_step: num(parts[0])? as usize,
                    trough_per_step: num(parts[1])? as usize,
                    burst_len: num(parts[2])? as u64,
                    trough_len: num(parts[3])? as u64,
                })
            }
            "phased" => {
                if parts.len() != 3 {
                    return Err("phased needs sets,k,steps, e.g. phased:4,128,50".into());
                }
                Ok(WorkloadSpec::Phased {
                    universe: default_universe,
                    sets: num(parts[0])? as usize,
                    k: num(parts[1])? as usize,
                    steps_per_phase: num(parts[2])? as u64,
                })
            }
            other => Err(format!(
                "unknown workload kind {other:?} (expected repeated/fresh/partial/zipf/phased/burst)"
            )),
        }
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
