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
/// type cut a signature in two and the `fn` vanished: no graph node, no
/// CFG, and a panic site inside it reported from nowhere.
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
fn unvalidated_wire_length_reaching_allocation_is_reported_with_provenance() {
    // The wire-read helper caps nothing; the caller allocates straight
    // from the declared length. The finding must carry the whole flow:
    // source site -> helper return -> binding -> sink.
    let src = "\
fn read_len(buf: &[u8]) -> usize {
    u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize
}
pub fn decode_frame(buf: &[u8]) -> Vec<u8> {
    let declared = read_len(buf);
    let frame = Vec::with_capacity(declared);
    frame
}
";
    let report = run(&[("crates/rlb-serve/src/lib.rs", src)], "");
    let hits = messages(&report, "untrusted-input");
    assert_eq!(hits.len(), 1, "findings: {}", report.render());
    assert!(
        hits[0].contains("reaches an allocation size"),
        "sink kind missing: {}",
        hits[0]
    );
    assert!(
        hits[0].contains("wire bytes (`from_le_bytes`"),
        "source missing: {}",
        hits[0]
    );
    assert!(
        hits[0].contains("returned by `read_len`") && hits[0].contains("`declared`"),
        "flow provenance missing: {}",
        hits[0]
    );
}

#[test]
fn cap_validated_wire_length_is_clean() {
    // Same shape, but the length is compared against a MAX_* cap
    // before the allocation: the validator kills the taint.
    let src = "\
const MAX_FRAME: usize = 1024;
fn read_len(buf: &[u8]) -> usize {
    u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize
}
pub fn decode_frame(buf: &[u8]) -> Option<Vec<u8>> {
    let declared = read_len(buf);
    if declared > MAX_FRAME {
        return None;
    }
    let frame = Vec::with_capacity(declared);
    Some(frame)
}
";
    let report = run(&[("crates/rlb-serve/src/lib.rs", src)], "");
    assert!(
        messages(&report, "untrusted-input").is_empty(),
        "validated flow flagged: {}",
        report.render()
    );
}

#[test]
fn a_wire_length_bound_inside_a_let_initialiser_is_still_followed() {
    // `Frame::decode_body` is one `let frame = match tag { … };`: the
    // per-field lengths are bound inside the initialiser's arms, so the
    // arms have to be lowered like a statement-position `match`. One
    // case per initialiser shape; each allocates before any cap.
    let in_match_arm = "\
pub fn decode(k: u8, p: &[u8]) -> Vec<u8> {
    let body = match k {
        0 => {
            let n = u32::from_le_bytes([p[0], p[1], p[2], p[3]]) as usize;
            Vec::<u8>::with_capacity(n)
        }
        _ => Vec::new(),
    };
    body
}
";
    let in_block = "\
pub fn decode(p: &[u8]) -> Vec<u8> {
    let body = {
        let n = u32::from_le_bytes([p[0], p[1], p[2], p[3]]) as usize;
        Vec::<u8>::with_capacity(n)
    };
    body
}
";
    let in_if_branch = "\
pub fn decode(long: bool, p: &[u8]) -> Vec<u8> {
    let body = if long {
        let n = u32::from_le_bytes([p[0], p[1], p[2], p[3]]) as usize;
        Vec::<u8>::with_capacity(n)
    } else {
        Vec::new()
    };
    body
}
";
    for src in [in_match_arm, in_block, in_if_branch] {
        let report = run(&[("crates/rlb-serve/src/lib.rs", src)], "");
        let hits = messages(&report, "untrusted-input");
        assert_eq!(hits.len(), 1, "in:\n{src}\nfindings: {}", report.render());
        assert!(
            hits[0].contains("reaches an allocation size") && hits[0].contains("`n`"),
            "wrong flow: {}",
            hits[0]
        );
    }

    // The initialiser's value still reaches the binding: arm tails
    // taint `n`, and a cap checked inside an arm still validates.
    let tail_taints_the_binding = "\
pub fn decode(k: u8, p: &[u8]) -> Vec<u8> {
    let n = match k {
        0 => u32::from_le_bytes([p[0], p[1], p[2], p[3]]) as usize,
        _ => 0,
    };
    Vec::with_capacity(n)
}
";
    let report = run(
        &[("crates/rlb-serve/src/lib.rs", tail_taints_the_binding)],
        "",
    );
    assert_eq!(
        messages(&report, "untrusted-input").len(),
        1,
        "findings: {}",
        report.render()
    );
    let capped_inside_the_arm = "\
const MAX_BODY: usize = 1024;
pub fn decode(k: u8, p: &[u8]) -> Option<Vec<u8>> {
    let body = match k {
        0 => {
            let n = u32::from_le_bytes([p[0], p[1], p[2], p[3]]) as usize;
            if n > MAX_BODY {
                return None;
            }
            Vec::<u8>::with_capacity(n)
        }
        _ => Vec::new(),
    };
    Some(body)
}
";
    let report = run(
        &[("crates/rlb-serve/src/lib.rs", capped_inside_the_arm)],
        "",
    );
    assert!(
        messages(&report, "untrusted-input").is_empty(),
        "validated flow flagged: {}",
        report.render()
    );
}

#[test]
fn an_equality_test_against_a_literal_is_not_a_bound() {
    // `proto.rs`'s `split_frame` rejects `declared == 0` before it
    // compares against `MAX_FRAME_LEN`; an allocation placed between
    // the two is sized by the peer. Only an ordering compare (or an
    // equality against a named cap or a `.len()`) bounds a length.
    let src = "\
const MAX_FRAME: usize = 1024;
pub fn next_frame(buf: &mut Vec<u8>, p: &[u8]) -> Option<usize> {
    let declared = u32::from_le_bytes([p[0], p[1], p[2], p[3]]) as usize;
    if declared == 0 {
        return None;
    }
    buf.reserve(declared);
    if declared > MAX_FRAME {
        return None;
    }
    Some(declared)
}
";
    let report = run(&[("crates/rlb-serve/src/lib.rs", src)], "");
    let hits = messages(&report, "untrusted-input");
    assert_eq!(hits.len(), 1, "findings: {}", report.render());
    assert!(
        hits[0].contains(":7:") && hits[0].contains("reaches an allocation size"),
        "wrong site: {}",
        hits[0]
    );
}

#[test]
fn clock_laundered_through_helpers_into_a_report_field_is_reported() {
    // `Instant::now` passes through two helpers before landing in a
    // `…Report` struct literal; the finding must name both hops.
    let src = "\
pub struct RunReport {
    pub elapsed_ms: u64,
}
fn sample_ms() -> u64 {
    let t = std::time::Instant::now().elapsed().as_millis() as u64; // seeded. lint:allow(determinism)
    t
}
fn laundered() -> u64 {
    sample_ms()
}
pub fn finish() -> RunReport {
    RunReport { elapsed_ms: laundered() }
}
";
    let report = run(&[("crates/seeded/src/lib.rs", src)], "");
    let hits = messages(&report, "determinism-flow");
    assert_eq!(hits.len(), 1, "findings: {}", report.render());
    assert!(
        hits[0].contains("reaches a report field"),
        "sink kind missing: {}",
        hits[0]
    );
    assert!(
        hits[0].contains("clock (`Instant::now`"),
        "source missing: {}",
        hits[0]
    );
    assert!(
        hits[0].contains("returned by `sample_ms`") && hits[0].contains("returned by `laundered`"),
        "hop chain missing: {}",
        hits[0]
    );
}

#[test]
fn bench_scoped_clock_use_is_exempt_from_determinism_flow() {
    // rlb-cli owns wall-clock measurement (`rlb-sim bench`); the
    // identical pattern there is not a finding.
    let src = "\
pub struct RunReport {
    pub elapsed_ms: u64,
}
fn sample_ms() -> u64 {
    std::time::Instant::now().elapsed().as_millis() as u64
}
pub fn finish() -> RunReport {
    RunReport { elapsed_ms: sample_ms() }
}
";
    let report = run(&[("crates/rlb-cli/src/bench.rs", src)], "");
    assert!(
        messages(&report, "determinism-flow").is_empty(),
        "bench-scoped clock flagged: {}",
        report.render()
    );
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
