//! Every policy name produces the run report and the sim-clock serve
//! transcript it produced before the name -> constructor dispatch moved
//! into `rlb_core::policies::with_policy`. Digests, not files: the one
//! full transcript worth reading is `rlb-load/tests/sim_golden.rs`'s.
//! The constants were captured from commit d1c6ee9.
//!
//! Each surface has two flag sets. The first is light enough that the
//! daemon answers every request in the tick it arrives, so all six
//! serve transcripts are one text (and two pairs of run reports
//! coincide); the second is overloaded, where all six differ — that is
//! the row that fails if two names swap constructors.

use rlb_core::policies::POLICY_NAMES;
use rlb_hash::mix::fmix64;

fn digest(text: &str) -> u64 {
    text.bytes()
        .fold(text.len() as u64, |h, b| fmix64(h ^ u64::from(b)))
}

fn args(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_string).collect()
}

const RUN_FLAGS: [&str; 2] = [
    "--servers 64 --steps 40 --workload repeated:64",
    "--servers 64 --steps 40 --workload repeated:128 --rate 2 --queue 4",
];

const SERVE_FLAGS: [&str; 2] = [
    "--servers 32 --clients 4 --requests 200 --ticks 64 --seed 7 --transcript",
    "--servers 32 --clients 4 --requests 200 --ticks 64 --seed 7 --transcript --rate 1 --queue 2",
];

/// `(policy, run-report digests, serve-transcript digests)`, one digest
/// per flag set above.
#[rustfmt::skip]
const GOLDEN: [(&str, [u64; 2], [u64; 2]); 6] = [
    ("greedy", [0xb8952fb5ee13c23c, 0xfc15ce0585c4013a], [0xe6adeaa71de88976, 0x0d7338a001eac14e]),
    ("delayed-cuckoo", [0x7e9b6646fa2259e9, 0x9cb6d429b05f8926], [0xe6adeaa71de88976, 0xb3307cc97f3134fe]),
    ("one-choice", [0xf160a53272e56d65, 0x781f81c73d09fe9f], [0xe6adeaa71de88976, 0xf5a24472869bdd11]),
    ("uniform-random", [0xbc275a65e3903e72, 0x11fe90815242abf2], [0xe6adeaa71de88976, 0xcb47ba33159b4fc4]),
    ("round-robin", [0xf160a53272e56d65, 0x673115043443ed73], [0xe6adeaa71de88976, 0x7d225014acea7570]),
    ("step-isolated", [0xb8952fb5ee13c23c, 0x2065ef1f339c528e], [0xe6adeaa71de88976, 0x6fa3920752f63361]),
];

#[test]
fn every_policy_reproduces_the_parent_commits_outputs() {
    assert_eq!(
        GOLDEN.map(|(name, _, _)| name),
        POLICY_NAMES,
        "a policy was added or renamed without a digest"
    );
    for (policy, run_digests, serve_digests) in GOLDEN {
        for (flags, want) in RUN_FLAGS.iter().zip(run_digests) {
            let opts = rlb_cli::parse_args(&args(&format!("--policy {policy} {flags}"))).unwrap();
            let report = rlb_json::to_string(&rlb_cli::run(&opts).unwrap());
            assert_eq!(
                digest(&report),
                want,
                "{policy} {flags}: run report changed"
            );
        }
        for (flags, want) in SERVE_FLAGS.iter().zip(serve_digests) {
            let transcript =
                rlb_cli::run_serve(&args(&format!("--sim-clock --policy {policy} {flags}")))
                    .unwrap();
            assert_eq!(
                digest(&transcript),
                want,
                "{policy} {flags}: serve transcript changed"
            );
        }
    }
}
