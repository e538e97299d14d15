//! The rule catalog, the per-file rule passes, and the finding and
//! suppression machinery every pass emits through.
//!
//! Every per-file rule scans the comment-free *code* view of a parsed
//! file (see [`ParsedFile`]), so findings carry exact line:column
//! positions and never fire on comment or string-literal prose.
//! `#[cfg(test)]` regions are exempt from every rule, and a finding is
//! suppressed by a `// lint:allow(<rule>)` comment on the same line or
//! the line above.
//!
//! [`CATALOG`] is the one list of rules: what each is called, whether
//! a `lint:allow` may name it, and — for the per-file rules — the list
//! of files it covers and which function checks it. The workspace pass
//! ([`crate::passes`]) owns the remaining rows and emits through the
//! same [`emit`].

use crate::items::ParsedFile;
use crate::token::TokenKind;

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (0 when the finding has no single token, e.g. a
    /// dead suppression).
    pub col: usize,
    /// Rule name (one of [`all_rule_names`]).
    pub rule: &'static str,
    /// What fired and what to do about it.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.col > 0 {
            write!(
                f,
                "{}:{}:{}: [{}] {}",
                self.file, self.line, self.col, self.rule, self.message
            )
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.file, self.line, self.rule, self.message
            )
        }
    }
}

/// Which files a per-file rule covers: workspace-relative paths, an
/// entry ending in `/` covering every file under that directory.
type Scope = &'static [&'static str];
/// A per-file check: pushes its findings for one parsed file.
type FileCheck = fn(&ParsedFile, &Suppressions, &mut Vec<Finding>);

/// One row of the rule catalog.
pub(crate) struct Rule {
    /// The name findings carry and `lint:allow(...)` / `--rule` take.
    pub(crate) name: &'static str,
    /// Whether a `lint:allow` may suppress it. The meta rule is not: a
    /// dead excuse cannot be excused.
    pub(crate) suppressible: bool,
    /// For a per-file rule (appliable by [`lint_source`] on one file
    /// alone): which files it covers, and the check. `None` for the
    /// workspace pass and the meta rule.
    per_file: Option<(Scope, FileCheck)>,
}

/// Every rule a finding can carry, in the order `rlb-sim lint --rule`
/// lists them.
pub(crate) const CATALOG: &[Rule] = &[
    // Narrowing `as u8` / `as u16` / `as u32` in accounting code.
    Rule::per_file("lossy-cast", ACCOUNTING, lossy_cast),
    // The workspace pass (`passes`): the pub surface.
    Rule::workspace("dead-pub", true),
    // The meta rule. `unused-suppression` runs after everything else:
    // a `lint:allow` naming a suppressible rule that suppressed nothing,
    // or a rule-shaped name no row carries, is itself a finding (stale
    // excuses hide real ones).
    Rule::workspace("unused-suppression", false),
];

/// `lossy-cast`'s scope: accounting code, where a silently truncated
/// counter corrupts a result instead of crashing.
const ACCOUNTING: Scope = &[
    "crates/rlb-core/src/stats.rs",
    "crates/rlb-metrics/src/",
    "crates/rlb-cli/src/aggregate.rs",
    "crates/rlb-pool/src/",
    "crates/rlb-experiments/src/",
    "crates/rlb-serve/src/",
    "crates/rlb-load/src/",
    "crates/rlb-meanfield/src/",
];

impl Rule {
    const fn per_file(name: &'static str, scope: Scope, check: FileCheck) -> Rule {
        Rule {
            name,
            suppressible: true,
            per_file: Some((scope, check)),
        }
    }

    const fn workspace(name: &'static str, suppressible: bool) -> Rule {
        Rule {
            name,
            suppressible,
            per_file: None,
        }
    }
}

/// Every rule name a finding can carry. This is the vocabulary
/// `rlb-sim lint --rule` validates against.
pub fn all_rule_names() -> Vec<&'static str> {
    CATALOG.iter().map(|r| r.name).collect()
}

/// Each per-file rule with the file list it covers, so a test can
/// check that every entry still names a linted file.
pub fn scopes() -> Vec<(&'static str, Scope)> {
    CATALOG
        .iter()
        .filter_map(|r| r.per_file.map(|(scope, _)| (r.name, scope)))
        .collect()
}

/// Whether `rel_path` is one of `scope`'s files or under one of its
/// directories.
pub fn in_scope(scope: &[&str], rel_path: &str) -> bool {
    scope
        .iter()
        .any(|s| rel_path == *s || (s.ends_with('/') && rel_path.starts_with(s)))
}

/// Lints one file in isolation: the per-file rules plus the dead-
/// suppression check against them (a `lint:allow` naming a workspace
/// pass is left for the workspace engine to judge).
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let pf = ParsedFile::new(rel_path, source);
    let allow = allow_by_line(&pf.comments);
    let mut findings = Vec::new();
    file_rules(&pf, &allow, &mut findings);
    unused_suppressions(&pf, &allow, |r| r.per_file.is_some(), &mut findings);
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    findings
}

/// Runs every in-scope per-file rule on a parsed file. The caller owns
/// the suppression table so workspace passes can share its usage flags
/// before the dead-suppression check runs.
pub(crate) fn file_rules(pf: &ParsedFile, allow: &Suppressions, findings: &mut Vec<Finding>) {
    for rule in CATALOG {
        if let Some((scope, check)) = rule.per_file {
            if in_scope(scope, &pf.rel_path) {
                check(pf, allow, findings);
            }
        }
    }
}

// ---------------------------------------------------------------- rules

fn lossy_cast(pf: &ParsedFile, allow: &Suppressions, findings: &mut Vec<Finding>) {
    for p in 0..pf.code.len() {
        if !pf.at(p, "as") || pf.kind(p) != TokenKind::Ident {
            continue;
        }
        let Some(ty) = ["u8", "u16", "u32"].iter().find(|ty| pf.at(p + 1, ty)) else {
            continue;
        };
        emit_at(
            findings,
            pf,
            allow,
            pf.byte(p),
            "lossy-cast",
            format!(
                "narrowing `as {ty}` in accounting code silently truncates; use `try_from` or \
                 widen the destination"
            ),
        );
    }
}

/// Pushes a finding at byte offset `pos` unless it is in a test region
/// or suppressed (see [`emit`]).
pub(crate) fn emit_at(
    findings: &mut Vec<Finding>,
    pf: &ParsedFile,
    allow: &Suppressions,
    pos: usize,
    rule: &'static str,
    message: String,
) {
    if !pf.items.in_test(pos) {
        let at = (pf.tokens.line_of(pos), pf.tokens.col_of(pos));
        emit(findings, pf, allow, at, rule, message);
    }
}

/// The one way a suppressible finding is reported: pushed at
/// `(line, col)` (`col` 0 for a whole-line finding) unless a
/// `lint:allow` on its line or the line above names `rule`.
pub(crate) fn emit(
    findings: &mut Vec<Finding>,
    pf: &ParsedFile,
    allow: &Suppressions,
    (line, col): (usize, usize),
    rule: &'static str,
    message: String,
) {
    if !allow.suppresses(line, rule) {
        findings.push(Finding {
            file: pf.rel_path.clone(),
            line,
            col,
            rule,
            message,
        });
    }
}

/// After every pass has run, reports `lint:allow` entries naming a
/// `checked` rule that suppressed nothing, and entries whose rule-shaped
/// name (lowercase and `-`) is in no catalog row: an excuse for a
/// retired or misspelled rule. Dead suppressions rot fastest of all
/// annotations — the code they excused changes and the excuse outlives
/// it — so they are findings in their own right (and not suppressible
/// ones); entries inside `#[cfg(test)]` regions, prose like
/// `lint:allow(<rule>)` in docs, and a catalog rule left unchecked (a
/// workspace-pass rule when only one file is linted) are skipped.
pub(crate) fn unused_suppressions(
    pf: &ParsedFile,
    allow: &Suppressions,
    checked: fn(&Rule) -> bool,
    findings: &mut Vec<Finding>,
) {
    for (l0, entries) in allow.by_line.iter().enumerate() {
        for (rule, used) in entries {
            let why = match CATALOG.iter().find(|r| r.name == rule) {
                Some(r) if checked(r) => "suppresses no finding",
                Some(_) => continue,
                None if is_rule_shaped(rule) => "names no rule of the catalog",
                None => continue,
            };
            if used.get() || pf.items.in_test(pf.tokens.line_start(l0)) {
                continue;
            }
            findings.push(Finding {
                file: pf.rel_path.clone(),
                line: l0 + 1,
                col: 0,
                rule: "unused-suppression",
                message: format!(
                    "`lint:allow({rule})` {why}; delete it (stale excuses hide real ones)"
                ),
            });
        }
    }
}

/// Lowercase letters and `-`: how a rule is named, as opposed to prose.
fn is_rule_shaped(name: &str) -> bool {
    !name.is_empty() && name.bytes().all(|b| b.is_ascii_lowercase() || b == b'-')
}

/// Per-line `lint:allow(...)` annotations with per-entry usage
/// tracking, so entries that suppress nothing can be reported by
/// [`unused_suppressions`].
pub(crate) struct Suppressions {
    /// 0-indexed by line: each entry is a rule name plus a "consumed at
    /// least one finding" flag ([`std::cell::Cell`] because the rule
    /// passes hold the table by shared reference).
    pub(crate) by_line: Vec<Vec<(String, std::cell::Cell<bool>)>>,
}

impl Suppressions {
    /// Does an allow on `line` (1-based) or the line above name `rule`?
    /// Every matching entry is marked used — either copy justifies the
    /// suppression, so neither is dead.
    pub(crate) fn suppresses(&self, line: usize, rule: &str) -> bool {
        let mut hit = false;
        for l in [line.checked_sub(1), line.checked_sub(2)]
            .into_iter()
            .flatten()
        {
            if let Some(entries) = self.by_line.get(l) {
                for (r, used) in entries {
                    if r == rule {
                        used.set(true);
                        hit = true;
                    }
                }
            }
        }
        hit
    }
}

/// Extracts `lint:allow(<rule>, ...)` annotations from per-line comment
/// text (0-indexed by line).
pub(crate) fn allow_by_line(comments: &[String]) -> Suppressions {
    let by_line = comments
        .iter()
        .map(|c| {
            let mut rules = Vec::new();
            let mut rest = c.as_str();
            while let Some(p) = rest.find("lint:allow(") {
                rest = &rest[p + "lint:allow(".len()..];
                if let Some(close) = rest.find(')') {
                    for r in rest[..close].split(',') {
                        rules.push((r.trim().to_string(), std::cell::Cell::new(false)));
                    }
                    rest = &rest[close..];
                } else {
                    break;
                }
            }
            rules
        })
        .collect();
    Suppressions { by_line }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_stats(src: &str) -> Vec<Finding> {
        lint_source("crates/rlb-core/src/stats.rs", src)
    }

    /// A narrowing cast in accounting code: one `lossy-cast` finding.
    const NARROWING: &str = "fn f(x: u64) -> u32 { x as u32 }";

    #[test]
    fn a_finding_is_suppressed_by_allow() {
        let above = format!("// bounded by the caller. lint:allow(lossy-cast)\n{NARROWING}");
        assert!(lint_stats(&above).is_empty());
        let same = format!("{NARROWING} // lint:allow(lossy-cast)");
        assert!(lint_stats(&same).is_empty());
        // Another rule's name does not suppress it.
        let wrong = format!("{NARROWING} // lint:allow(dead-pub)");
        let f = lint_stats(&wrong);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "lossy-cast");
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = format!("fn g() {{}}\n#[cfg(test)]\nmod tests {{\n    {NARROWING}\n}}");
        assert!(lint_stats(&src).is_empty());
    }

    #[test]
    fn lossy_cast_fires_only_in_accounting_scope() {
        let src = "fn f(x: u64) -> u32 { x as u32 }";
        assert_eq!(lint_source("crates/rlb-core/src/stats.rs", src).len(), 1);
        assert_eq!(
            lint_source("crates/rlb-metrics/src/histogram.rs", src).len(),
            1
        );
        // The executor and the experiment suite: index/count plumbing
        // there narrows via checked helpers, not bare `as`.
        assert_eq!(lint_source("crates/rlb-pool/src/lib.rs", src).len(), 1);
        assert_eq!(
            lint_source("crates/rlb-experiments/src/e01_greedy.rs", src).len(),
            1
        );
        // Frame math in serve/load joined with the call-graph PR.
        assert_eq!(lint_source("crates/rlb-serve/src/proto.rs", src).len(), 1);
        assert_eq!(lint_source("crates/rlb-load/src/report.rs", src).len(), 1);
        // Occupancy accounting in the mean-field solver joined with
        // the fastforward PR.
        assert_eq!(
            lint_source("crates/rlb-meanfield/src/model.rs", src).len(),
            1
        );
        assert!(lint_source("crates/rlb-core/src/sim.rs", src).is_empty());
    }

    #[test]
    fn lossy_cast_allows_widening() {
        let src = "fn f(x: u32) -> u64 { let a = x as u64; let b = x as f64; a + b as u64 }";
        assert!(lint_source("crates/rlb-cli/src/aggregate.rs", src).is_empty());
    }

    #[test]
    fn unused_suppression_is_reported() {
        let f = lint_stats("// lint:allow(lossy-cast)\nfn f() { let x = 3; }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unused-suppression");
        assert_eq!(f[0].line, 1);
        assert!(f[0].message.contains("lossy-cast"), "{}", f[0].message);
    }

    #[test]
    fn used_suppression_is_not_reported() {
        let f = lint_stats(&format!(
            "// bounded by the caller. lint:allow(lossy-cast)\n{NARROWING}"
        ));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unused_suppression_skips_test_regions_and_unknown_names() {
        let in_test = "#[cfg(test)]\nmod tests {\n    // lint:allow(lossy-cast)\n    fn g() {}\n}";
        assert!(lint_stats(in_test).is_empty());
        // Prose naming no catalog rule (docs say `lint:allow(<rule>)`).
        let prose = "// suppress with lint:allow(<rule>)\nfn f() {}";
        assert!(lint_stats(prose).is_empty());
        // A workspace-pass rule is not judged by the per-file path.
        let wsp = "// justified elsewhere. lint:allow(dead-pub)\nfn f() {}";
        assert!(lint_stats(wsp).is_empty());
    }

    #[test]
    fn findings_are_ordered_and_displayable() {
        // The dead allow on line 1 is found after the cast on line 3.
        let src = format!("// lint:allow(lossy-cast)\nfn g() {{}}\n{NARROWING}");
        let f = lint_stats(&src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!((f[0].rule, f[1].rule), ("unused-suppression", "lossy-cast"));
        assert_eq!((f[0].line, f[1].line), (1, 3));
        assert!(f[1].col > 1, "col is exact: {}", f[1].col);
        let shown = f[1].to_string();
        assert!(shown.contains("crates/rlb-core/src/stats.rs:3"), "{shown}");
    }
}
