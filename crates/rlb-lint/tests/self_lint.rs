//! The workspace must pass its own lint pass: every rule violation in
//! `crates/*/src` is either fixed or carries a justified
//! `lint:allow(...)` suppression, and every suppression must still be
//! earning its keep. A regression here means new code introduced an
//! unsuppressed finding — run `rlb-sim lint` locally for the file/line
//! list.

use rlb_lint::rules::{in_scope, scopes};
use rlb_lint::LintReport;
use std::path::Path;
use std::sync::OnceLock;

/// The one workspace scan both tests read (it is most of this
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
        report.files.len() > 50,
        "suspiciously few files scanned ({}) — walk broken?",
        report.files.len()
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

/// A per-file rule only means something over files that exist: a scope
/// entry left behind by a rename or a move covers nothing, and a clean
/// report from it is vacuous. Every entry of every scope must name a
/// file (or a directory of files) the workspace walk lints, and the
/// engine-path scope must keep the fns it holds.
#[test]
fn every_scope_names_linted_files() {
    let report = workspace_report();
    let scopes = scopes();
    assert_eq!(
        scopes.iter().map(|(rule, _)| *rule).collect::<Vec<_>>(),
        ["lossy-cast", "panic-path", "unchecked-arith"]
    );
    for (rule, scope) in scopes {
        for entry in scope {
            assert!(
                report.files.iter().any(|f| in_scope(&[entry], f)),
                "{rule}'s scope names {entry}, which no linted file matches"
            );
        }
    }
    // 189 at time of writing, over the 11 files that hold every fn the
    // retired call graph reached from its roots (83). A fn the item
    // parser drops (as it did one with an array type in its signature)
    // goes unchecked silently; a floor makes a wholesale loss loud.
    let s = &report.stats;
    assert!(
        s.scoped_fns >= 189,
        "only {} engine-path fns checked",
        s.scoped_fns
    );
    assert!(
        s.pub_items > 300,
        "dead-pub pass checked only {} items",
        s.pub_items
    );
}
