//! The workspace must pass its own lint pass: every rule violation in
//! `crates/*/src` is either fixed or carries a justified
//! `lint:allow(...)` suppression, and every suppression must still be
//! earning its keep. A regression here means new code introduced an
//! unsuppressed finding — run `rlb-sim lint` locally for the file/line
//! list.

use rlb_lint::LintReport;
use std::path::Path;
use std::sync::OnceLock;

/// The one workspace scan all three tests read (it is most of this
/// crate's test time).
fn workspace_report() -> &'static LintReport {
    static REPORT: OnceLock<LintReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
        rlb_lint::lint_workspace(&root).expect("workspace walk")
    })
}

#[test]
fn workspace_is_lint_clean() {
    let report = workspace_report();
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — walk broken?",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "workspace has unsuppressed lint findings:\n{}",
        report.render()
    );
    assert_eq!(
        report.dead_suppressions(),
        0,
        "stale lint:allow comments:\n{}",
        report.render()
    );
}

/// The call-graph passes only mean something if `lint-roots.toml`
/// actually resolved and the reachability cone is non-trivial. A clean
/// report with zero roots would be vacuous — this pins the analysis as
/// live, not silently skipped.
#[test]
fn call_graph_passes_are_live() {
    let s = &workspace_report().stats;
    assert!(s.fns > 500, "call graph too small: {} fns", s.fns);
    assert!(s.edges > 1000, "call graph too sparse: {} edges", s.edges);
    assert!(
        s.root_fns >= 10,
        "lint-roots.toml resolved only {} root fns — manifest rot?",
        s.root_fns
    );
    assert!(
        s.cone_fns > s.root_fns,
        "reachability cone ({} fns) never left the {} roots",
        s.cone_fns,
        s.root_fns
    );
    // 71 at time of writing. A fn the item parser drops (as it did one
    // with an array type in its signature) leaves the cone silently; a
    // floor makes a wholesale loss loud.
    assert!(
        s.cone_fns >= 60,
        "only {} fns reachable from the roots",
        s.cone_fns
    );
    assert!(
        s.pub_items > 300,
        "dead-pub pass checked only {} items",
        s.pub_items
    );
}

/// Same vacuity guard for the tier-3 flow passes: a clean workspace
/// only means something if the CFGs were built and the sources were
/// seen. The floors sit under the measured values (5204 blocks / 5
/// untrusted at time of writing) so routine growth doesn't touch them,
/// but a plumbing regression that silently zeroes a pass fails loudly.
#[test]
fn flow_passes_are_live() {
    let s = &workspace_report().stats;
    assert!(s.cfg_blocks > 3000, "too few CFG blocks: {}", s.cfg_blocks);
    assert!(
        s.cfg_edges > s.cfg_blocks,
        "CFGs degenerate: {} edges for {} blocks",
        s.cfg_edges,
        s.cfg_blocks
    );
    assert!(
        s.untrusted_sources >= 3,
        "untrusted-input pass sees only {} wire-read sources — rlb-serve unscanned?",
        s.untrusted_sources
    );
    assert!(
        s.untrusted_sources_by_crate
            .get("rlb-serve")
            .copied()
            .unwrap_or(0)
            > 0,
        "no untrusted sources attributed to rlb-serve: {:?}",
        s.untrusted_sources_by_crate
    );
}
