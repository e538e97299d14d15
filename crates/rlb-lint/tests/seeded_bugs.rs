//! Seeds known-bad code through `lint_files` and asserts the rules
//! report it where they apply and nowhere else.
//!
//! `panic-path` and `unchecked-arith` cover a list of engine-path
//! files, every non-test fn in them. Each case plants one violation
//! class in a scoped file (and, where it matters, the same text in an
//! unscoped one). The self-lint test proves the real workspace is
//! clean; this suite proves the rules would actually fire on the bug
//! patterns they exist to catch.

use rlb_lint::{lint_files, LintReport};

/// In `panic-path` and `unchecked-arith`'s scope.
const SCOPED: &str = "crates/rlb-hash/src/placement.rs";
/// The same crate, outside that scope.
const UNSCOPED: &str = "crates/rlb-hash/src/mix.rs";

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

/// Shaped like `ReplicaPlacement::random`, which the retired
/// call-graph cone never reached: a table built from a scratch row,
/// with a bare `+` and an index. In a scoped file both are reported wherever the fn is called
/// from; the same text in an unscoped file is not.
#[test]
fn a_scoped_fn_is_checked_whoever_calls_it() {
    let src = "\
pub struct Table {
    servers: Vec<u32>,
}
impl Table {
    pub fn random(num_chunks: usize, replication: usize) -> Self {
        let mut scratch = [0u32; 8];
        let mut servers = Vec::new();
        for c in 0..num_chunks {
            scratch[0] = c as u32 + 1;
            servers.extend_from_slice(&scratch[..replication]);
        }
        Self { servers }
    }
}
";
    let report = run(&[(SCOPED, src)]);
    let panics = messages(&report, "panic-path");
    assert_eq!(panics.len(), 1, "findings: {}", report.render());
    assert!(
        panics[0].contains("indexing `[..]` at lines 9, 10 in `Table::random`"),
        "{}",
        panics[0]
    );
    let arith = messages(&report, "unchecked-arith");
    assert_eq!(arith.len(), 1, "findings: {}", report.render());
    assert!(
        arith[0].contains("bare `+` integer arithmetic at line 9 in `Table::random`"),
        "{}",
        arith[0]
    );
    let report = run(&[(UNSCOPED, src)]);
    assert!(
        messages(&report, "panic-path").is_empty()
            && messages(&report, "unchecked-arith").is_empty(),
        "unscoped file checked: {}",
        report.render()
    );
}

/// One fn a site kind, each in a scoped file and in an unscoped one.
#[test]
fn every_site_kind_is_reported_in_scope_only() {
    #[rustfmt::skip]
    let cases: &[(&str, &str, &str)] = &[
        ("panic-path", "`.unwrap()`", "fn f(x: Option<u32>) -> u32 { x.unwrap() }"),
        ("panic-path", "`.expect(..)`", "fn f(x: Option<u32>) -> u32 { x.expect(\"some\") }"),
        ("panic-path", "`panic!`", "fn f(x: u32) -> u32 { if x == 0 { panic!(\"zero\") } x }"),
        ("panic-path", "indexing", "fn f(v: &[u32], i: usize) -> u32 { v[i] }"),
        ("panic-path", "slice pattern", "fn f(v: &[u32]) -> u32 { let [a] = v else { return 0 }; *a }"),
        ("panic-path", "`/`-`%`", "fn f(a: u32, b: u32) -> u32 { a / b }"),
        ("unchecked-arith", "bare `+`", "fn f(a: u32, b: u32) -> u32 { a + b }"),
    ];
    for &(rule, label, src) in cases {
        let report = run(&[(SCOPED, src)]);
        let found = messages(&report, rule);
        assert_eq!(found.len(), 1, "{src}: {}", report.render());
        assert!(found[0].contains(label), "{src}: {}", found[0]);
        assert!(
            run(&[(UNSCOPED, src)]).is_clean(),
            "{src} reported unscoped"
        );
    }
}

/// `items.rs` used to end a header at any `;`, so the `;` of an array
/// type cut a signature in two and the `fn` vanished: its body's sites
/// went unchecked.
#[test]
fn a_fn_with_an_array_in_its_signature_is_checked() {
    let src = "\
pub fn entry(x: Option<u32>) -> [u32; 3] {
    lanes([x, x, x])
}
fn lanes(p: [Option<u32>; 3]) -> [u32; 3] {
    p.map(|x| x.unwrap())
}
";
    let report = run(&[(SCOPED, src)]);
    assert_eq!(report.stats.scoped_fns, 2, "stats: {:?}", report.stats);
    let panics = messages(&report, "panic-path");
    assert_eq!(panics.len(), 1, "findings: {}", report.render());
    assert!(panics[0].contains("in `lanes`"), "{}", panics[0]);
}

#[test]
fn checked_arithmetic_and_debug_asserts_are_exempt() {
    let src = "\
pub fn entry(a: u64, b: u64) -> u64 {
    debug_assert!(a < 1 << 32);
    let safe = a.saturating_add(b).checked_mul(2).unwrap_or(u64::MAX);
    safe.wrapping_sub(1)
}
";
    let report = run(&[(SCOPED, src)]);
    assert!(
        messages(&report, "unchecked-arith").is_empty(),
        "checked forms flagged: {}",
        report.render()
    );
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
fn entry(x: Option<u32>) -> u32 {
    // justified for the test. lint:allow(panic-path)
    x.unwrap()
}
";
    let report = run(&[(SCOPED, src)]);
    assert!(
        messages(&report, "panic-path").is_empty(),
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
