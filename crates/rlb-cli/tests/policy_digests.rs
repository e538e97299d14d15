//! Every policy name produces the run report and the sim-clock serve
//! transcript it produced before the name -> constructor dispatch moved
//! into `rlb_core::policies::with_policy`. Digests, not files: the one
//! full transcript worth reading is `rlb-load/tests/sim_golden.rs`'s.
//! The constants were captured from commit d1c6ee9 and re-captured once
//! when the placement became a hash of the chunk id.
//!
//! Each surface has two flag sets. The first is light enough that the
//! daemon answers every request in the tick it arrives, so all six
//! serve transcripts are one text (and greedy, one-choice and
//! step-isolated report alike); the second is overloaded, where all six
//! differ — that is the row that fails if two names swap constructors.

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
    ("greedy", [0xb8952fb5ee13c23c, 0xf01a7e0a5d231bab], [0xe6adeaa71de88976, 0x3901fc95f577c7c4]),
    ("delayed-cuckoo", [0x7e9b6646fa2259e9, 0x2541203653c76226], [0xe6adeaa71de88976, 0x13449d5e4512bbd3]),
    ("one-choice", [0xb8952fb5ee13c23c, 0x98d0985b0c63e0b6], [0xe6adeaa71de88976, 0x232ad0b5d65f086b]),
    ("uniform-random", [0xbc275a65e3903e72, 0x013043c9f02ec4c6], [0xe6adeaa71de88976, 0x88c1370b43840175]),
    ("round-robin", [0xf160a53272e56d65, 0x44ce0dc1ffcb026a], [0xe6adeaa71de88976, 0x3dc425a062e78af2]),
    ("step-isolated", [0xb8952fb5ee13c23c, 0xb9c3d08204f60466], [0xe6adeaa71de88976, 0x8475681deb5a47b5]),
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
