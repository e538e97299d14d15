//! The binary's contract at the front door, for the bare run and every
//! subcommand: an unrecognised flag is a usage error (exit 2, nothing
//! on stdout, the flag named on stderr), and `--help` anywhere prints
//! the one usage text to stdout and exits 0.

use std::process::{Command, Output};

const SUBCOMMANDS: [&str; 7] = ["", "bench", "lint", "trace", "fastforward", "serve", "load"];

fn rlb_sim(subcommand: &str, flag: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rlb-sim"))
        .args(subcommand.split_whitespace())
        .arg(flag)
        .output()
        .expect("run rlb-sim")
}

#[test]
fn unknown_flags_exit_2_everywhere() {
    for subcommand in SUBCOMMANDS {
        let out = rlb_sim(subcommand, "--definitely-not-a-flag");
        assert_eq!(out.status.code(), Some(2), "rlb-sim {subcommand}");
        assert!(out.stdout.is_empty(), "rlb-sim {subcommand}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("error: unknown ") && stderr.contains("--definitely-not-a-flag"),
            "rlb-sim {subcommand}: {stderr}"
        );
    }
}

#[test]
fn help_prints_the_usage_to_stdout_after_any_subcommand() {
    // Regression: `rlb-sim bench --help` was `unknown bench option
    // "--help"` (exit 2), and the bare `--help` wrote to stderr.
    let usage = rlb_sim("", "--help").stdout;
    assert!(usage.starts_with(b"rlb-sim: simulate"));
    for subcommand in SUBCOMMANDS {
        for flag in ["--help", "-h"] {
            let out = rlb_sim(subcommand, flag);
            assert_eq!(out.status.code(), Some(0), "rlb-sim {subcommand} {flag}");
            assert_eq!(out.stdout, usage, "rlb-sim {subcommand} {flag}");
            assert!(out.stderr.is_empty(), "rlb-sim {subcommand} {flag}");
        }
    }
}
