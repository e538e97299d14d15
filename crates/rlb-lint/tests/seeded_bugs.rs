//! Seeds known-bad code through `lint_files` and asserts the
//! call-graph passes report it with full provenance.
//!
//! Each case plants one violation class behind a helper chain so the
//! finding must carry the whole root → site path, not just the
//! offending line. The self-lint test proves the real workspace is
//! clean; this suite proves the passes would actually fire on the bug
//! patterns they exist to catch.

use rlb_lint::{lint_files, LintReport};

fn run(files: &[(&str, &str)], roots: &str) -> LintReport {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    lint_files(&owned, Some(roots)).expect("manifest parses")
}

fn messages(report: &LintReport, rule: &str) -> Vec<String> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| format!("{}:{}: {}", f.file, f.line, f.message))
        .collect()
}

const ROOTS: &str = "\
[[root]]
fn = \"entry\"
reason = \"seeded test root\"
";

#[test]
fn transitive_unwrap_reports_the_full_chain() {
    let src = "\
pub fn entry(x: Option<u32>) -> u32 {
    middle(x)
}
fn middle(x: Option<u32>) -> u32 {
    deepest(x)
}
fn deepest(x: Option<u32>) -> u32 {
    x.unwrap()
}
";
    let report = run(&[("crates/seeded/src/lib.rs", src)], ROOTS);
    let panics = messages(&report, "panic-path");
    assert_eq!(panics.len(), 1, "findings: {}", report.render());
    assert!(
        panics[0].contains("`deepest`, reached from root via `entry` -> `middle` -> `deepest`"),
        "chain missing from: {}",
        panics[0]
    );
    assert!(
        panics[0].contains(".unwrap("),
        "site kind missing: {}",
        panics[0]
    );
}

/// `items.rs` used to end a header at any `;`, so the `;` of an array
/// type cut a signature in two and the `fn` vanished: no graph node,
/// and a panic site inside it reported from nowhere.
#[test]
fn a_fn_with_an_array_in_its_signature_is_in_the_graph() {
    let src = "\
pub fn entry(x: Option<u32>) -> [u32; 3] {
    lanes([x, x, x])
}
fn lanes(p: [Option<u32>; 3]) -> [u32; 3] {
    p.map(|x| x.unwrap())
}
";
    let report = run(&[("crates/seeded/src/lib.rs", src)], ROOTS);
    assert_eq!(report.stats.fns, 2, "stats: {:?}", report.stats);
    assert_eq!(report.stats.cone_fns, 2, "stats: {:?}", report.stats);
    let panics = messages(&report, "panic-path");
    assert_eq!(panics.len(), 1, "findings: {}", report.render());
    assert!(
        panics[0].contains("`lanes`, reached from root via `entry` -> `lanes`"),
        "chain missing from: {}",
        panics[0]
    );
}

#[test]
fn bare_arithmetic_in_the_cone_is_reported() {
    let src = "\
pub fn entry(a: u64, b: u64) -> u64 {
    helper(a, b)
}
fn helper(a: u64, b: u64) -> u64 {
    a + b * 2
}
fn unreachable_helper(a: u64) -> u64 {
    a + 1
}
";
    let report = run(&[("crates/seeded/src/lib.rs", src)], ROOTS);
    let arith = messages(&report, "unchecked-arith");
    assert_eq!(arith.len(), 1, "findings: {}", report.render());
    assert!(
        arith[0].contains("`helper`, reached from root via `entry` -> `helper`"),
        "chain missing from: {}",
        arith[0]
    );
    // `unreachable_helper` is outside the cone: its bare `+` is not a
    // finding (the pass is reachability-scoped, not file-scoped).
    assert!(
        !report.render().contains("unreachable_helper"),
        "cone leaked: {}",
        report.render()
    );
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
    let report = run(&[("crates/seeded/src/lib.rs", src)], ROOTS);
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
    let report = run(
        &[
            ("crates/seeded/src/lib.rs", lib),
            ("crates/seeded/tests/api.rs", test),
        ],
        "",
    );
    let dead = messages(&report, "dead-pub");
    assert_eq!(dead.len(), 1, "findings: {}", report.render());
    assert!(
        dead[0].contains("truly_dead"),
        "wrong item flagged: {}",
        dead[0]
    );
}

#[test]
fn manifest_rot_is_a_finding_not_a_silent_skip() {
    let src = "\
pub fn entry() -> u32 {
    1
}
";
    let rotted = "\
[[root]]
fn = \"entry\"
reason = \"live root\"

[[root]]
fn = \"renamed_away\"
reason = \"stale entry\"

[[exempt]]
crate = \"no-such-crate\"
reason = \"stale exemption\"
";
    let report = run(&[("crates/seeded/src/lib.rs", src)], rotted);
    let rot = messages(&report, "lint-roots");
    assert_eq!(rot.len(), 2, "findings: {}", report.render());
    assert!(rot.iter().any(|m| m.contains("renamed_away")));
    assert!(rot.iter().any(|m| m.contains("no-such-crate")));
}

#[test]
fn suppressed_seeded_bug_counts_as_a_used_suppression() {
    let src = "\
pub fn entry(x: Option<u32>) -> u32 {
    // justified for the test. lint:allow(panic-path)
    x.unwrap()
}
";
    let report = run(&[("crates/seeded/src/lib.rs", src)], ROOTS);
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
