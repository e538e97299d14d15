//! Regression test: the suite's stdout is byte-identical for any
//! `--jobs` value. This is the user-facing face of the pool's
//! determinism contract — `--jobs` may only change wall-clock, never a
//! byte of output.

use std::process::Command;

fn run_quick(extra_args: &[&str]) -> (Vec<u8>, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["all", "--quick"])
        .args(extra_args)
        .output()
        .expect("run experiments binary");
    (out.stdout, out.status.success())
}

#[test]
fn quick_suite_is_byte_identical_across_jobs() {
    let (serial, serial_ok) = run_quick(&["--jobs", "1"]);
    assert!(serial_ok, "serial quick suite must pass its shape checks");
    assert!(!serial.is_empty(), "suite must print its tables");
    for jobs in ["2", "8"] {
        let (parallel, parallel_ok) = run_quick(&["--jobs", jobs]);
        assert!(parallel_ok, "--jobs {jobs} run must pass its shape checks");
        assert_eq!(
            serial, parallel,
            "stdout must be byte-identical between --jobs 1 and --jobs {jobs}"
        );
    }
}

#[test]
fn json_output_is_byte_identical_across_jobs() {
    // A two-experiment selection keeps this cheap while still crossing
    // the parallel path (multiple experiments and sweep rows in flight).
    let run = |jobs: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["e6", "e11", "--quick", "--json", "--jobs", jobs])
            .output()
            .expect("run experiments binary");
        assert!(out.status.success(), "--jobs {jobs} json run failed");
        out.stdout
    };
    let serial = run("1");
    assert!(
        serial.starts_with(b"["),
        "json mode must print a JSON array"
    );
    assert_eq!(serial, run("4"));
}

#[test]
fn bad_jobs_values_are_rejected() {
    // `--jobs` with a missing value or a non-positive value must error
    // out (exit 2) rather than being silently ignored or promoted.
    for bad_args in [
        &["e1", "--quick", "--jobs"][..],
        &["e1", "--quick", "--jobs", "0"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(bad_args)
            .output()
            .expect("run experiments binary");
        assert_eq!(out.status.code(), Some(2), "args {bad_args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--jobs expects a positive integer"),
            "args {bad_args:?} must explain the error: {stderr}"
        );
    }
}

#[test]
fn unknown_flags_and_missing_values_are_rejected() {
    // Regression: any `--x` used to be dropped from the id list and
    // otherwise unread, so `e11 --quik` ran the *full* sweep and exited
    // 0, and a trailing `--out-dir` was silently ignored.
    for (bad_args, flag) in [
        (&["e11", "--quik"][..], "--quik"),
        (&["e1", "--quick", "--out-dir"][..], "--out-dir"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(bad_args)
            .output()
            .expect("run experiments binary");
        assert_eq!(out.status.code(), Some(2), "args {bad_args:?} must exit 2");
        assert!(out.stdout.is_empty(), "args {bad_args:?} must run nothing");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag) && stderr.contains("--help"),
            "args {bad_args:?} must name the flag and point at --help: {stderr}"
        );
    }
}

#[test]
fn help_usage_is_registry_derived() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("--help")
        .output()
        .expect("run experiments binary");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("usage is utf-8");
    assert_eq!(text, rlb_experiments::usage());
    let last_id = rlb_experiments::registry().last().unwrap().id;
    assert!(
        text.contains(last_id),
        "usage must mention the newest experiment id {last_id}: {text}"
    );
}
