//! Golden determinism gate for the serve+load co-simulation.
//!
//! One mixed scenario — open- and closed-loop clients, two tenants,
//! zipf and phased popularity, puts and gets, an undersized gate so
//! admission rejects occur — runs once. The full output text
//! (per-frame transcript + client report + server summary) must match
//! the committed golden **byte for byte**, pinning the serving layer the
//! same way `rlb-core`'s `engine_equivalence` suite pins the engine.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```text
//! RLB_REGEN_GOLDEN=1 cargo test -p rlb-load --test sim_golden
//! ```
//!
//! and commit the rewritten `tests/golden/sim_transcript.txt` with an
//! explanation of why observable behavior moved.

use rlb_core::policies::Greedy;
use rlb_core::SimConfig;
use rlb_load::{co_simulate, Client, ClientConfig, Mode, Popularity, SimSpec};
use rlb_serve::{ServeConfig, ServerCore};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/sim_transcript.txt"
);

/// The pinned scenario. Every number here is part of the golden
/// contract — change one and the transcript legitimately moves.
fn run_scenario() -> String {
    // A deliberately contended cluster: drain rate 2 with 4-deep queues
    // builds real backlogs, so latencies spread and the undersized gate
    // fills under the open-loop bursts.
    let engine = SimConfig {
        process_rate: 2,
        queue_capacity: 4,
        ..SimConfig::baseline(16)
    }
    .with_seed(0x90_1d);
    let core = ServerCore::new(
        ServeConfig {
            engine,
            // Small enough that open-loop bursts overrun it: admission
            // rejects are part of the pinned behavior.
            gate_limit: 16,
        },
        Greedy::new(),
    );
    let clients = vec![
        Client::new(ClientConfig {
            tenant: 0,
            mode: Mode::Closed { concurrency: 4 },
            popularity: Popularity::Zipf {
                alpha: 1.1,
                universe: 256,
            },
            put_ratio: 0.3,
            total_requests: 40,
            seed: 101,
        }),
        Client::new(ClientConfig {
            tenant: 1,
            mode: Mode::Open { rate: 3.0 },
            popularity: Popularity::Phased {
                sets: 3,
                set_size: 8,
                ticks_per_phase: 5,
                universe: 256,
            },
            put_ratio: 0.5,
            total_requests: 35,
            seed: 202,
        }),
        Client::new(ClientConfig {
            tenant: 0,
            mode: Mode::Open { rate: 8.0 },
            popularity: Popularity::Uniform { universe: 64 },
            put_ratio: 0.0,
            total_requests: 60,
            seed: 303,
        }),
    ];
    let spec = SimSpec {
        ticks: 24,
        transcript: true,
    };
    let out = co_simulate(core, clients, &spec);
    assert_eq!(
        out.report.replies + out.report.rejects(),
        out.report.sent,
        "every request must resolve"
    );
    out.text
}

#[test]
fn sim_transcript_matches_golden() {
    let baseline = run_scenario();

    if std::env::var("RLB_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, &baseline).unwrap();
        eprintln!("regenerated {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing; run with RLB_REGEN_GOLDEN=1 to create it");
    assert_eq!(
        baseline, golden,
        "serve+load transcript diverged from the committed golden"
    );
}

#[test]
fn scenario_is_deterministic_run_to_run() {
    assert_eq!(run_scenario(), run_scenario());
}

#[test]
fn transcript_contains_every_layer() {
    // Sanity on the golden's coverage: requests both ways, replies,
    // admission rejects, the client report, and the server summary.
    let text = run_scenario();
    assert!(text.contains(" > get "), "client get issued:\n{text}");
    assert!(text.contains(" > put "), "client put issued:\n{text}");
    assert!(text.contains(" < reply "), "server replied:\n{text}");
    assert!(
        text.contains("cause=admission"),
        "gate pressure produced admission rejects:\n{text}"
    );
    assert!(text.contains("clients: sent="), "client report:\n{text}");
    assert!(text.contains("server: replies="), "server summary:\n{text}");
    assert!(text.contains("tenant 0:"), "per-tenant accounting:\n{text}");
    assert!(text.contains("tenant 1:"), "per-tenant accounting:\n{text}");
}
