//! Every policy name produces the run report and the sim-clock serve
//! transcript it produced before the name -> constructor dispatch moved
//! into `rlb_core::policies::with_policy`. Digests, not files: the one
//! full transcript worth reading is `rlb-load/tests/sim_golden.rs`'s.
//! The constants were captured from commit d1c6ee9 and re-captured
//! when the placement became a hash of the chunk id; the run-report
//! digests moved once more when the report lost its mean-backlog time
//! series (each is the previous report text with that member cut out).
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
    ("greedy", [0x0bcd80ee23fa7ab4, 0x8344f3096626a8b2], [0xe6adeaa71de88976, 0x3901fc95f577c7c4]),
    ("delayed-cuckoo", [0xe8f74cc47ce336e9, 0x1be2cbac661a8070], [0xe6adeaa71de88976, 0x13449d5e4512bbd3]),
    ("one-choice", [0x0bcd80ee23fa7ab4, 0x3462be09a01fe6da], [0xe6adeaa71de88976, 0x232ad0b5d65f086b]),
    ("uniform-random", [0xdf0d040ba7bd23c2, 0x6a7329a48eebc512], [0xe6adeaa71de88976, 0x88c1370b43840175]),
    ("round-robin", [0x33e100585b49884a, 0xd041b05776ab4fbf], [0xe6adeaa71de88976, 0x3dc425a062e78af2]),
    ("step-isolated", [0x0bcd80ee23fa7ab4, 0xe4de15bbabec40b2], [0xe6adeaa71de88976, 0x8475681deb5a47b5]),
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
