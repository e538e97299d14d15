//! Observation-equivalence gate for engine optimizations.
//!
//! The hot-path work (occupancy-indexed draining, modulo-free rings,
//! incremental backlog totals) must not change a single observable
//! number. This suite runs long Greedy and DelayedCuckoo simulations
//! under both drain modes and compares the full serialized `RunReport`
//! against golden fingerprints captured from the pre-optimization
//! engine (commit `e4e85b1` lineage).
//!
//! To regenerate the goldens after an *intentional* semantic change,
//! run:
//!
//! ```text
//! RLB_REGEN_GOLDEN=1 cargo test -p rlb-core --test engine_equivalence
//! ```
//!
//! and commit the rewritten `tests/golden/engine_reports.json` with an
//! explanation of why observable behavior moved.

use rlb_core::policies::{DelayedCuckoo, Greedy};
use rlb_core::{DrainMode, NoopSink, RunReport, SimConfig, Simulation, TraceEvent, TraceSink};
use rlb_hash::mix::fmix64;
use rlb_hash::{sample, Pcg64};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/engine_reports.json"
);

fn scenario_config(m: usize, drain_mode: DrainMode) -> SimConfig {
    SimConfig {
        num_servers: m,
        num_chunks: 4 * m,
        replication: 2,
        process_rate: 2,
        queue_capacity: 6,
        flush_interval: Some(50),
        drain_mode,
        seed: 0xec_u64 ^ 0x5eed,
        safety_check_every: Some(7),
    }
}

/// Runs one named scenario to a serialized report string.
fn run_scenario(name: &str) -> String {
    run_scenario_traced(name, NoopSink).0
}

/// Runs one named scenario with a trace sink attached.
fn run_scenario_traced<S: TraceSink>(name: &str, sink: S) -> (String, S) {
    let (policy_kind, drain) = match name {
        "greedy_end_of_step" => ("greedy", DrainMode::EndOfStep),
        "greedy_interleaved" => ("greedy", DrainMode::Interleaved),
        "dcr_end_of_step" => ("dcr", DrainMode::EndOfStep),
        "dcr_interleaved" => ("dcr", DrainMode::Interleaved),
        other => panic!("unknown scenario {other}"),
    };
    let m = 192;
    let steps = 400;
    let config = scenario_config(m, drain);
    // A churn-heavy mixed workload: a sticky core plus fresh filler,
    // distinct chunks within each step, enough volume to exercise
    // overflow rejections, flushes, and migration.
    // Offered load of 2.5 requests per server per step against a drain
    // rate of 2 keeps queues near capacity, so overflow and flush
    // rejections both occur and latencies spread across the histogram.
    let per_step = m as u32 * 5 / 2;
    let core = per_step * 3 / 5;
    let filler = per_step - core;
    let universe = 4 * m as u64;
    let mut wrng = Pcg64::new(11, 7);
    let mut workload = move |_s: u64, out: &mut Vec<u32>| {
        out.extend(0..core);
        for c in sample::sample_k_distinct(&mut wrng, universe - core as u64, filler as usize) {
            out.push(core + c as u32);
        }
    };
    let (report, sink): (RunReport, S) = match policy_kind {
        "greedy" => {
            let mut sim = Simulation::new(config, Greedy::new()).with_sink(sink);
            sim.run(&mut workload, steps);
            sim.finish_traced()
        }
        _ => {
            let policy = DelayedCuckoo::new(&config);
            let mut sim = Simulation::new(config, policy).with_sink(sink);
            sim.run(&mut workload, steps);
            sim.finish_traced()
        }
    };
    report.check_conservation().unwrap();
    (rlb_json::to_string(&report), sink)
}

const SCENARIOS: [&str; 4] = [
    "greedy_end_of_step",
    "greedy_interleaved",
    "dcr_end_of_step",
    "dcr_interleaved",
];

#[test]
fn reports_match_pre_optimization_goldens() {
    let mut produced: Vec<(String, String)> = Vec::new();
    for name in SCENARIOS {
        produced.push((name.to_string(), run_scenario(name)));
    }
    if std::env::var("RLB_REGEN_GOLDEN").is_ok() {
        let obj = rlb_json::Json::Obj(
            produced
                .iter()
                .map(|(k, v)| (k.clone(), rlb_json::Json::parse(v).unwrap()))
                .collect(),
        );
        let mut out = String::new();
        obj.write_pretty(&mut out, 0);
        out.push('\n');
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, out).unwrap();
        eprintln!("regenerated {GOLDEN_PATH}");
        return;
    }
    let golden_raw = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing; run with RLB_REGEN_GOLDEN=1 to create it");
    let golden = rlb_json::Json::parse(&golden_raw).unwrap();
    for (name, json) in &produced {
        let expected = golden
            .get(name)
            .unwrap_or_else(|| panic!("golden file has no scenario {name}"));
        let actual = rlb_json::Json::parse(json).unwrap();
        assert_eq!(
            &actual, expected,
            "scenario {name}: RunReport diverged from the pre-optimization engine"
        );
    }
}

/// The engine is deterministic run-to-run (prerequisite for the golden
/// comparison to be meaningful).
#[test]
fn scenarios_are_deterministic() {
    for name in SCENARIOS {
        assert_eq!(run_scenario(name), run_scenario(name), "scenario {name}");
    }
}

/// A live (enabled) sink that observes every event without storing the
/// stream: it counts them and folds each one's JSON into a digest.
#[derive(Default)]
struct TailSink {
    events: u64,
    drains: u64,
    last_step: u64,
    digest: u64,
}

impl TraceSink for TailSink {
    fn on_event(&mut self, event: &TraceEvent) {
        self.events += 1;
        self.last_step = event.step();
        if matches!(event, TraceEvent::Drain { .. }) {
            self.drains += 1;
        }
        let json = rlb_json::to_string(event);
        self.digest = json.bytes().fold(self.digest ^ json.len() as u64, |h, b| {
            fmix64(h ^ u64::from(b))
        });
    }
}

/// The digest of each scenario's whole event stream (every event, in
/// engine order), re-captured when the placement became a hash of the
/// chunk id (first captured at commit 7c46991). The scenarios overflow,
/// flush every 50 steps and, under DCR, roll phases, so every engine
/// event kind but the outage pair is in them. The two DCR streams
/// coincide, as their goldens do.
const STREAM_DIGESTS: [(&str, u64); 4] = [
    ("greedy_end_of_step", 0x151bf9885a5ec81a),
    ("greedy_interleaved", 0x99771ba3a2a162f8),
    ("dcr_end_of_step", 0x134ba1446b618840),
    ("dcr_interleaved", 0x134ba1446b618840),
];

/// Attaching a live sink must not change a single observable number:
/// the traced report is byte-identical to the untraced one (which the
/// golden test above pins to the pre-trace engine), in every scenario
/// and drain mode. The stream itself is pinned by its digest.
#[test]
fn traced_runs_do_not_perturb_reports() {
    assert_eq!(STREAM_DIGESTS.map(|(name, _)| name), SCENARIOS);
    for (name, digest) in STREAM_DIGESTS {
        let untraced = run_scenario(name);
        let (traced, sink) = run_scenario_traced(name, TailSink::default());
        assert_eq!(
            traced, untraced,
            "scenario {name}: tracing changed the report"
        );
        assert!(sink.events > 0, "scenario {name}: sink saw no events");
        assert!(sink.drains > 0, "scenario {name}: sink saw no drains");
        assert_eq!(
            sink.last_step,
            400 - 1,
            "scenario {name}: stream ended early"
        );
        assert_eq!(
            sink.digest, digest,
            "scenario {name}: event stream {:#018x} moved",
            sink.digest
        );
    }
}
