//! The workspace pass: dead-pub-surface.
//!
//! Unlike the per-file rules, it needs the whole workspace at once:
//! every file's identifier set. It emits through the same
//! [`Finding`]/suppression machinery as the per-file rules, so a
//! `lint:allow` comment naming `dead-pub`, with a justification, on
//! the finding line or the line above suppresses — and rots into an
//! `unused-suppression` finding when the item moves.

use crate::items::{crate_of, ParsedFile};
use crate::rules::{emit, Finding, Suppressions};
use crate::LintStats;
use std::collections::{BTreeMap, BTreeSet};

/// Dead-pub-surface: a `pub` item in a library crate's `src/` that no
/// *other* compilation unit of the workspace mentions — sibling
/// crates, the defining crate's own `tests/`/`examples/` and in-file
/// `#[cfg(test)]` modules, its binaries (`main.rs`, `src/bin/`), the
/// root package's facade, `tests/` and `examples/`, and `benchmark/src`
/// all count as usage. Mentioned only inside its own lib: that is exactly the
/// "demote to `pub(crate)`" case; mentioned nowhere: delete it.
///
/// Re-export leaves (`pub use` names) are reference sources but not
/// candidates: a dead re-exported item is reported once, at its
/// definition, and the re-export goes away with it.
///
/// Documented boundaries: references are by identifier, so a same-name
/// item anywhere keeps an unrelated dead item alive (false negative),
/// and glob re-exports / macro-generated references are invisible.
pub(crate) fn dead_pub(
    linted: &[ParsedFile],
    reference: &[ParsedFile],
    allow: &[Suppressions],
    findings: &mut Vec<Finding>,
    stats: &mut LintStats,
) {
    // Identifier sets per compilation unit. In-file test modules count
    // as a separate unit (`<crate>/t`): a pub item exercised only by
    // its own unit tests is deliberately-kept API, not dead surface.
    let mut idents: BTreeMap<String, BTreeSet<&str>> = BTreeMap::new();
    for pf in linted.iter().chain(reference) {
        let unit = unit_of(&pf.rel_path);
        let mut main_set = BTreeSet::new();
        let mut test_set = BTreeSet::new();
        for c in 0..pf.code.len() {
            if pf.kind(c) == crate::token::TokenKind::Ident {
                if pf.items.in_test(pf.byte(c)) {
                    test_set.insert(pf.text(c));
                } else {
                    main_set.insert(pf.text(c));
                }
            }
        }
        if !test_set.is_empty() {
            idents
                .entry(format!("{unit}/t"))
                .or_default()
                .append(&mut test_set);
        }
        idents.entry(unit).or_default().append(&mut main_set);
    }
    for (fi, pf) in linted.iter().enumerate() {
        let unit = unit_of(&pf.rel_path);
        // Only library-crate source declares workspace-visible API.
        if unit.contains('/') {
            continue;
        }
        for item in &pf.items.pub_items {
            if item.kind == "use" {
                continue;
            }
            stats.pub_items += 1;
            let used_elsewhere = idents
                .iter()
                .any(|(u, set)| *u != unit && set.contains(item.name.as_str()));
            if used_elsewhere {
                continue;
            }
            let qname = match &item.owner {
                Some(o) => format!("{o}::{}", item.name),
                None => item.name.clone(),
            };
            let message = format!(
                "`pub {} {qname}` is referenced nowhere else in the workspace (other crates, \
                 tests, examples, and binaries included): demote to `pub(crate)`, delete it, or \
                 justify with `lint:allow(dead-pub)`",
                item.kind
            );
            emit(
                findings,
                pf,
                &allow[fi],
                (item.line, 0),
                "dead-pub",
                message,
            );
        }
    }
}

/// The compilation unit a file belongs to, for reference counting:
/// `rlb-core` (the lib), `rlb-cli/bin` (its binaries), `rlb-core/aux`
/// (tests/examples), `root/aux` (the root package: facade, tests,
/// examples; and `benchmark/src`).
fn unit_of(rel_path: &str) -> String {
    let Some(krate) = crate_of(rel_path) else {
        return "root/aux".to_string();
    };
    let rest = rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.split_once('/'))
        .map(|(_, rest)| rest)
        .unwrap_or("");
    if rest == "src/main.rs" || rest.starts_with("src/bin/") {
        format!("{krate}/bin")
    } else if rest.starts_with("src/") {
        krate.to_string()
    } else {
        format!("{krate}/aux")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::allow_by_line;

    #[test]
    fn dead_pub_flags_unreferenced_and_honors_usage() {
        let lib = ParsedFile::new(
            "crates/rlb-metrics/src/lib.rs",
            "pub fn used_elsewhere() {}\npub fn never_used() {}\npub struct Seen;\n",
        );
        let user = ParsedFile::new(
            "crates/rlb-core/src/sim.rs",
            "fn f() { rlb_metrics::used_elsewhere(); let s: Seen = todo!(); }\n",
        );
        let allows = vec![allow_by_line(&lib.comments), allow_by_line(&user.comments)];
        let linted = vec![lib, user];
        let (mut findings, mut stats) = (Vec::new(), LintStats::default());
        dead_pub(&linted, &[], &allows, &mut findings, &mut stats);
        assert_eq!(stats.pub_items, 3);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "dead-pub");
        assert!(findings[0].message.contains("never_used"));
    }

    #[test]
    fn dead_pub_counts_own_tests_and_bins_as_usage() {
        let lib = ParsedFile::new(
            "crates/rlb-cli/src/lib.rs",
            "pub fn run_lint() {}\npub fn truly_dead() {}\n",
        );
        let bin = ParsedFile::new(
            "crates/rlb-cli/src/main.rs",
            "fn main() { rlb_cli::run_lint(); }\n",
        );
        let tests = ParsedFile::new("crates/rlb-cli/tests/cli.rs", "fn t() {}\n");
        let allows = vec![allow_by_line(&lib.comments), allow_by_line(&bin.comments)];
        let linted = vec![lib, bin];
        let mut findings = Vec::new();
        dead_pub(
            &linted,
            &[tests],
            &allows,
            &mut findings,
            &mut LintStats::default(),
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("truly_dead"));
    }
}
