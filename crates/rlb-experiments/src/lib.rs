//! Experiment harness: every theorem and lemma of the paper, regenerated
//! as a table.
//!
//! The paper is a theory paper with no empirical section, so the
//! "tables and figures" deliverable is the suite below: one experiment
//! per result, each producing (a) paper-style tables and (b) explicit
//! *shape checks* — the qualitative predictions of the theory (who wins,
//! what scales like `log m` vs `log log m`, which impossibility bites)
//! evaluated against the measured numbers. `EXPERIMENTS.md` records the
//! outputs.
//!
//! | id | paper result | module |
//! |----|--------------|--------|
//! | E1 | Thm 3.1 greedy guarantees | [`e01_greedy`] |
//! | E2 | Def 3.2 / Lemma 3.4 safe distribution | [`e02_safety`] |
//! | E3 | Thm 4.3 delayed cuckoo routing guarantees | [`e03_dcr`] |
//! | E4 | queue-size frontier (Thm 3.1 vs Thm 4.3/5.1) | [`e04_frontier`] |
//! | E5 | d = 1 impossibility (\[34\], §1) vs d ≥ 2 | [`e05_replication`] |
//! | E6 | Thm 5.1 / Vöcking one-step max load | [`e06_one_step`] |
//! | E7 | Thm 5.2 rejection lower bound | [`e07_collision`] |
//! | E8 | Lemma 5.3 / Cor 5.4 time-step isolation | [`e08_isolated`] |
//! | E9 | Lemma 4.8 P-queue arrival tail | [`e09_ptail`] |
//! | E10 | Thm 4.1 / Lemma 4.2 cuckoo substrate | [`e10_cuckoo`] |
//! | E11 | Berenbrink heavily-loaded gap (Lemma 4.4) | [`e11_heavy`] |
//! | E12 | load/throughput frontier across policies | [`e12_load`] |
//! | E13 | ablation: small queues without the delayed table | [`e13_smallq`] |
//! | E14 | ablation: greedy flush interval (Thm 3.1 proof) | [`e14_flush`] |
//! | E15 | extension: outage resilience through replication | [`e15_outage`] |
//! | E16 | extension: robustness to popularity skew | [`e16_skew`] |
//! | E17 | extension: within-step information value (batched model, ref \[21\]) | [`e17_batched`] |
//! | E18 | DCR latency anatomy by queue class (Prop. 4.9) | [`e18_class_latency`] |
//! | E19 | related work: migration (Wang et al. \[34\]) vs replication | [`e19_migration`] |
//! | E20 | ablation: DCR phase length | [`e20_phase`] |
//! | E21 | extension: queues as burst absorbers | [`e21_burst`] |
//! | E22 | the model's third knob: voluntary rejection / latency flooring | [`e22_shedding`] |
//! | E23 | capacity thresholds at scale via the mean-field solver | [`e23_threshold`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod ballsbins;
pub(crate) mod common;
pub(crate) mod e01_greedy;
pub(crate) mod e02_safety;
pub(crate) mod e03_dcr;
pub(crate) mod e04_frontier;
pub(crate) mod e05_replication;
pub(crate) mod e06_one_step;
pub(crate) mod e07_collision;
pub(crate) mod e08_isolated;
pub(crate) mod e09_ptail;
pub(crate) mod e10_cuckoo;
pub(crate) mod e11_heavy;
pub(crate) mod e12_load;
pub(crate) mod e13_smallq;
pub(crate) mod e14_flush;
pub(crate) mod e15_outage;
pub(crate) mod e16_skew;
pub(crate) mod e17_batched;
pub(crate) mod e18_class_latency;
pub(crate) mod e19_migration;
pub(crate) mod e20_phase;
pub(crate) mod e21_burst;
pub(crate) mod e22_shedding;
pub(crate) mod e23_threshold;
pub(crate) mod migration;
pub(crate) mod theory;

use rlb_json::{Json, ToJson};
use rlb_metrics::Table;

/// A shape check: a qualitative prediction of the theory, evaluated.
#[derive(Debug, Clone)]
pub struct Check {
    /// What the theory predicts.
    pub name: String,
    /// Whether the measurement matched.
    pub passed: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

impl Check {
    /// Builds a check.
    pub fn new(name: impl Into<String>, passed: bool, detail: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            passed,
            detail: detail.into(),
        }
    }
}

/// What an experiment module's `run` returns: its tables and its shape
/// checks. Id and title are the registry's.
pub(crate) type Findings = (Vec<Table>, Vec<Check>);

/// The output of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Experiment id (`"E1"`, ...).
    pub id: String,
    /// Human title.
    pub title: &'static str,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Shape checks.
    pub checks: Vec<Check>,
}

impl ExperimentOutput {
    /// Whether every shape check passed.
    pub fn all_passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Renders tables and checks to a string.
    pub fn render(&self) -> String {
        let mut out = format!("# {} — {}\n\n", self.id, self.title);
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        for c in &self.checks {
            out.push_str(&format!(
                "[{}] {} — {}\n",
                if c.passed { "PASS" } else { "FAIL" },
                c.name,
                c.detail
            ));
        }
        out
    }
}

// `title` is `&'static str`, so only serialization (not parsing) is
// meaningful for experiment outputs.
impl ToJson for Check {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".to_string(), self.name.to_json()),
            ("passed".to_string(), self.passed.to_json()),
            ("detail".to_string(), self.detail.to_json()),
        ])
    }
}

impl ToJson for ExperimentOutput {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".to_string(), self.id.to_json()),
            ("title".to_string(), self.title.to_json()),
            ("tables".to_string(), self.tables.to_json()),
            ("checks".to_string(), self.checks.to_json()),
        ])
    }
}

/// One registry entry: the one owner of an experiment's id and title.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Id as typed on the command line (`"e1"`, ...).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    body: fn(bool) -> Findings,
}

impl Experiment {
    /// Runs the experiment (`quick` = reduced sizes and trials).
    pub fn run(&self, quick: bool) -> ExperimentOutput {
        let (tables, checks) = (self.body)(quick);
        ExperimentOutput {
            id: self.id.to_uppercase(),
            title: self.title,
            tables,
            checks,
        }
    }
}

/// The experiment registry.
pub fn registry() -> Vec<Experiment> {
    let e = |id, title, body: fn(bool) -> Findings| Experiment { id, title, body };
    vec![
        e("e1", "Theorem 3.1: greedy guarantees", e01_greedy::run),
        e(
            "e2",
            "Definition 3.2 / Lemma 3.4: safe distribution",
            e02_safety::run,
        ),
        e("e3", "Theorem 4.3: delayed cuckoo routing", e03_dcr::run),
        e(
            "e4",
            "Queue-size frontier: greedy vs DCR",
            e04_frontier::run,
        ),
        e("e5", "d = 1 impossibility vs d >= 2", e05_replication::run),
        e(
            "e6",
            "Theorem 5.1: one-step max load lower bound",
            e06_one_step::run,
        ),
        e(
            "e7",
            "Theorem 5.2: rejection-rate lower bound",
            e07_collision::run,
        ),
        e(
            "e8",
            "Lemma 5.3 / Corollary 5.4: time-step isolation",
            e08_isolated::run,
        ),
        e("e9", "Lemma 4.8: P-queue arrival tail", e09_ptail::run),
        e(
            "e10",
            "Theorem 4.1 / Lemma 4.2: cuckoo substrate",
            e10_cuckoo::run,
        ),
        e(
            "e11",
            "Heavily-loaded gap (Lemma 4.4 ingredient)",
            e11_heavy::run,
        ),
        e(
            "e12",
            "Load/throughput frontier across policies",
            e12_load::run,
        ),
        e(
            "e13",
            "Ablation: DCR's 'g sufficiently large' constant",
            e13_smallq::run,
        ),
        e("e14", "Ablation: greedy flush interval", e14_flush::run),
        e(
            "e15",
            "Extension: outage resilience through replication",
            e15_outage::run,
        ),
        e(
            "e16",
            "Extension: robustness to popularity skew",
            e16_skew::run,
        ),
        e(
            "e17",
            "Extension: the value of within-step information",
            e17_batched::run,
        ),
        e(
            "e18",
            "DCR latency anatomy by queue class (Prop. 4.9)",
            e18_class_latency::run,
        ),
        e(
            "e19",
            "Related work: migration (Wang et al.) vs replication",
            e19_migration::run,
        ),
        e("e20", "Ablation: DCR phase length", e20_phase::run),
        e(
            "e21",
            "Extension: queues as burst absorbers",
            e21_burst::run,
        ),
        e(
            "e22",
            "The third knob: voluntary rejection (latency flooring)",
            e22_shedding::run,
        ),
        e(
            "e23",
            "Capacity thresholds at scale: log m vs log log m",
            e23_threshold::run,
        ),
    ]
}

/// The CLI usage text, with the id range derived from [`registry`] so
/// it cannot rot as experiments are added.
pub fn usage() -> String {
    let reg = registry();
    let first = reg.first().map_or("e1", |e| e.id);
    let last = reg.last().map_or("e1", |e| e.id);
    format!(
        "experiments [IDS...] [--quick] [--json] [--out-dir DIR] [--jobs N]\n\
         \n\
         \x20 IDS        experiment ids ({first}..{last}) or \"all\" (default: all)\n\
         \x20 --quick    reduced sizes/trials for a fast smoke run\n\
         \x20 --json     print results as a JSON array instead of text\n\
         \x20 --out-dir  additionally write per-experiment .txt and .json files\n\
         \x20 --jobs     executor threads (default: all cores; 1 = serial)\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let mut ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), registry().len());
    }

    #[test]
    fn quick_runs_pass_all_shape_checks() {
        let outputs = rlb_pool::global().map(registry(), |e| e.run(true));
        for out in outputs {
            assert!(out.all_passed(), "failed checks:\n{}", out.render());
            assert!(!out.tables.is_empty(), "{} printed no table", out.id);
            assert!(out.tables.iter().all(|t| !t.is_empty()), "{}", out.id);
        }
    }

    #[test]
    fn usage_tracks_the_registry() {
        let reg = registry();
        let u = usage();
        let first = reg.first().unwrap().id;
        let last = reg.last().unwrap().id;
        assert!(
            u.contains(&format!("({first}..{last})")),
            "usage must quote the registry's id range: {u}"
        );
    }

    #[test]
    fn check_rendering() {
        let out = ExperimentOutput {
            id: "E0".into(),
            title: "demo",
            tables: vec![],
            checks: vec![Check::new("a", true, "ok"), Check::new("b", false, "bad")],
        };
        assert!(!out.all_passed());
        let s = out.render();
        assert!(s.contains("[PASS] a"));
        assert!(s.contains("[FAIL] b"));
    }
}
