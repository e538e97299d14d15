//! Seeds known-bad code through `lint_files` and asserts the rules
//! report it where they apply and nowhere else. The self-lint test
//! proves the real workspace is clean; this suite proves the rules
//! would actually fire on the bug patterns they exist to catch.

use rlb_lint::{lint_files, LintReport};

/// In `lossy-cast`'s scope.
const ACCOUNTING: &str = "crates/rlb-core/src/stats.rs";

fn run(files: &[(&str, &str)]) -> LintReport {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    lint_files(&owned)
}

fn messages(report: &LintReport, rule: &str) -> Vec<String> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| format!("{}:{}: {}", f.file, f.line, f.message))
        .collect()
}

#[test]
fn dead_pub_surface_is_reported_and_test_usage_counts() {
    let lib = "\
pub fn used_by_tests() -> u32 {
    7
}
pub fn truly_dead() -> u32 {
    8
}
";
    let test = "\
#[test]
fn uses_it() {
    assert_eq!(seeded::used_by_tests(), 7);
}
";
    let report = run(&[
        ("crates/seeded/src/lib.rs", lib),
        ("crates/seeded/tests/api.rs", test),
    ]);
    let dead = messages(&report, "dead-pub");
    assert_eq!(dead.len(), 1, "findings: {}", report.render());
    assert!(
        dead[0].contains("truly_dead"),
        "wrong item flagged: {}",
        dead[0]
    );
}

#[test]
fn suppressed_seeded_bug_counts_as_a_used_suppression() {
    let src = "\
fn entry(x: u64) -> u32 {
    // justified for the test. lint:allow(lossy-cast)
    x as u32
}
";
    let report = run(&[(ACCOUNTING, src)]);
    assert!(
        messages(&report, "lossy-cast").is_empty(),
        "suppression ignored: {}",
        report.render()
    );
    assert_eq!(
        report.dead_suppressions(),
        0,
        "suppression marked dead: {}",
        report.render()
    );
}

/// An excuse naming a rule the catalog no longer carries (or never
/// did) is dead, whatever it sits above: `trace-guard` went with the
/// guards it checked, and `panic-path` and `unchecked-arith` moved to
/// clippy; an excuse for any of them must not outlive it.
#[test]
fn an_excuse_for_a_retired_rule_is_reported() {
    let src = "\
fn entry(x: Option<u32>) -> u32 {
    // justified for the test. lint:allow(trace-guard)
    x.unwrap()
}
// a typo. lint:allow(lossy-casts)
fn typo() {}
// prose: suppress with lint:allow(<rule>)
fn prose() {}
";
    let report = run(&[(ACCOUNTING, src)]);
    let dead = messages(&report, "unused-suppression");
    assert_eq!(dead.len(), 2, "findings: {}", report.render());
    assert!(
        dead[0].contains(":2: `lint:allow(trace-guard)` names no rule"),
        "{}",
        dead[0]
    );
    assert!(
        dead[1].contains(":5: `lint:allow(lossy-casts)` names no rule"),
        "{}",
        dead[1]
    );
}
