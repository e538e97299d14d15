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
//! a `lint:allow` may name it, and — for the per-file rules — where it
//! applies and which function checks it. The workspace passes
//! ([`crate::passes`]) own the remaining rows and emit through the
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
    /// 1-based column (0 when the finding has no single token, e.g.
    /// manifest rot).
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

/// Which files a per-file rule covers.
type Scope = fn(&ParsedFile) -> bool;
/// A per-file check: pushes its findings for one parsed file.
type FileCheck = fn(&ParsedFile, &Suppressions, &mut Vec<Finding>);

/// One row of the rule catalog.
pub(crate) struct Rule {
    /// The name findings carry and `lint:allow(...)` / `--rule` take.
    pub(crate) name: &'static str,
    /// Whether a `lint:allow` may suppress it. The meta rules are not:
    /// dead excuses and manifest rot cannot be excused.
    pub(crate) suppressible: bool,
    /// For a per-file rule (appliable by [`lint_source`] on one file
    /// alone): which files it covers, and the check. `None` for the
    /// workspace passes.
    per_file: Option<(Scope, FileCheck)>,
}

/// Every rule a finding can carry, in the order `rlb-sim lint --rule`
/// lists them.
pub(crate) const CATALOG: &[Rule] = &[
    // `.on_event(` outside `if S::ENABLED { … }` (sink impls exempt).
    Rule::per_file(
        "trace-guard",
        |pf| TRACE_GUARD_CRATES.contains(&pf.crate_name()),
        trace_guard,
    ),
    // Narrowing `as u8` / `as u16` / `as u32` in accounting code.
    Rule::per_file(
        "lossy-cast",
        |pf| in_lossy_cast_scope(&pf.rel_path),
        lossy_cast,
    ),
    // The transitive workspace passes (`passes`): cones of the
    // `lint-roots.toml` roots and the pub surface.
    Rule::workspace("panic-path", true),
    Rule::workspace("unchecked-arith", true),
    Rule::workspace("dead-pub", true),
    // The meta rules. `unused-suppression` runs after everything else:
    // a `lint:allow` naming a suppressible rule that suppressed nothing
    // is itself a finding (stale excuses hide real ones).
    Rule::workspace("unused-suppression", false),
    Rule::workspace("lint-roots", false),
];

impl Rule {
    const fn per_file(name: &'static str, in_scope: Scope, check: FileCheck) -> Rule {
        Rule {
            name,
            suppressible: true,
            per_file: Some((in_scope, check)),
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

/// Crates whose emission sites must be behind `if S::ENABLED`. The
/// serve/load layer joined when its hot paths gained trace hooks as a
/// possibility: the rule is a no-op there until one exists, and then
/// it is not.
const TRACE_GUARD_CRATES: &[&str] = &["rlb-core", "rlb-kv", "rlb-serve", "rlb-load"];

fn in_lossy_cast_scope(rel_path: &str) -> bool {
    rel_path == "crates/rlb-core/src/stats.rs"
        || rel_path.starts_with("crates/rlb-metrics/src/")
        || rel_path == "crates/rlb-trace/src/aggregate.rs"
        || rel_path.starts_with("crates/rlb-pool/src/")
        || rel_path.starts_with("crates/rlb-experiments/src/")
        || rel_path.starts_with("crates/rlb-serve/src/")
        || rel_path.starts_with("crates/rlb-load/src/")
        || rel_path.starts_with("crates/rlb-meanfield/src/")
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
        if let Some((in_scope, check)) = rule.per_file {
            if in_scope(pf) {
                check(pf, allow, findings);
            }
        }
    }
}

// ---------------------------------------------------------------- rules

fn trace_guard(pf: &ParsedFile, allow: &Suppressions, findings: &mut Vec<Finding>) {
    for p in 0..pf.code.len() {
        if !(pf.at(p, "on_event") && p > 0 && pf.at(p - 1, ".") && pf.at(p + 1, "(")) {
            continue;
        }
        let byte = pf.byte(p - 1);
        // Sink implementations (and forwarders) live inside
        // `fn on_event` bodies; those are receivers, not emitters.
        if pf.items.in_guard(byte) || pf.items.in_on_event_fn(byte) {
            continue;
        }
        emit_at(
            findings,
            pf,
            allow,
            byte,
            "trace-guard",
            "`.on_event(..)` outside an `if S::ENABLED { .. }` guard: the emission (and its \
             argument construction) must compile out when the sink is disabled"
                .to_string(),
        );
    }
}

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
/// `checked` rule that suppressed nothing. Dead suppressions rot
/// fastest of all annotations — the code they excused changes and the
/// excuse outlives it — so they are findings in their own right (and
/// not suppressible ones); entries inside `#[cfg(test)]` regions and
/// entries naming no checked rule (prose like `lint:allow(<rule>)` in
/// docs, or a workspace-pass rule when only one file is linted) are
/// skipped.
pub(crate) fn unused_suppressions(
    pf: &ParsedFile,
    allow: &Suppressions,
    checked: fn(&Rule) -> bool,
    findings: &mut Vec<Finding>,
) {
    for (l0, entries) in allow.by_line.iter().enumerate() {
        for (rule, used) in entries {
            if used.get() || !CATALOG.iter().any(|r| r.name == rule && checked(r)) {
                continue;
            }
            if pf.items.in_test(pf.tokens.line_start(l0)) {
                continue;
            }
            findings.push(Finding {
                file: pf.rel_path.clone(),
                line: l0 + 1,
                col: 0,
                rule: "unused-suppression",
                message: format!(
                    "`lint:allow({rule})` suppresses no finding; delete it (stale excuses hide \
                     real ones)"
                ),
            });
        }
    }
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

/// Extracts `lint:allow(rule, ...)` annotations from per-line comment
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

    fn lint_core(src: &str) -> Vec<Finding> {
        lint_source("crates/rlb-core/src/sim.rs", src)
    }

    /// An unguarded emission: one `trace-guard` finding in rlb-core.
    const UNGUARDED: &str = "fn f(&mut self) { self.sink.on_event(&ev); }";

    #[test]
    fn a_finding_is_suppressed_by_allow() {
        let above = format!("// a forwarder. lint:allow(trace-guard)\n{UNGUARDED}");
        assert!(lint_core(&above).is_empty());
        let same = format!("{UNGUARDED} // lint:allow(trace-guard)");
        assert!(lint_core(&same).is_empty());
        // The wrong rule name does not suppress — and, being dead, is
        // itself reported.
        let wrong = format!("{UNGUARDED} // lint:allow(lossy-cast)");
        let f = lint_core(&wrong);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.rule == "trace-guard"));
        assert!(f.iter().any(|x| x.rule == "unused-suppression"));
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = format!("fn g() {{}}\n#[cfg(test)]\nmod tests {{\n    {UNGUARDED}\n}}");
        assert!(lint_core(&src).is_empty());
    }

    #[test]
    fn trace_guard_fires_on_unguarded_emission() {
        let src = "fn route(&mut self) { self.sink.on_event(&ev); }";
        let f = lint_core(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "trace-guard");
    }

    #[test]
    fn trace_guard_accepts_enabled_guard() {
        for src in [
            "fn route(&mut self) { if S::ENABLED { self.sink.on_event(&ev); } }",
            "fn route(&mut self) { if S::ENABLED && !scratch.is_empty() { sink.on_event(&ev); } }",
            "fn route(&mut self) { if Self::ENABLED { self.sink.on_event(&ev); } }",
        ] {
            assert!(lint_core(src).is_empty(), "{src}");
        }
    }

    #[test]
    fn trace_guard_rejects_negated_guard_and_else() {
        let f = lint_core("fn r(&mut self) { if !S::ENABLED { self.sink.on_event(&ev); } }");
        assert_eq!(f.len(), 1, "negated guard must not count");
        let f = lint_core(
            "fn r(&mut self) { if S::ENABLED { x(); } else { self.sink.on_event(&ev); } }",
        );
        assert_eq!(f.len(), 1, "else branch is unguarded");
    }

    #[test]
    fn trace_guard_exempts_sink_impls() {
        let src = "impl TraceSink for Tee { fn on_event(&mut self, ev: &TraceEvent) { \
                   self.a.on_event(ev); self.b.on_event(ev); } }";
        assert!(lint_core(src).is_empty());
    }

    #[test]
    fn trace_guard_covers_serve_and_load_now() {
        let src = "fn f(&mut self) { self.inner.on_event(&ev); }";
        assert!(lint_source("crates/rlb-trace/src/recorder.rs", src).is_empty());
        assert_eq!(lint_source("crates/rlb-kv/src/cluster.rs", src).len(), 1);
        assert_eq!(lint_source("crates/rlb-serve/src/server.rs", src).len(), 1);
        assert_eq!(lint_source("crates/rlb-load/src/client.rs", src).len(), 1);
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
        assert!(lint_source("crates/rlb-core/src/stats.rs", src).is_empty());
    }

    #[test]
    fn unused_suppression_is_reported() {
        let f = lint_core("// lint:allow(trace-guard)\nfn f() { let x = 3; }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unused-suppression");
        assert_eq!(f[0].line, 1);
        assert!(f[0].message.contains("trace-guard"), "{}", f[0].message);
    }

    #[test]
    fn used_suppression_is_not_reported() {
        let f = lint_core(&format!(
            "// a forwarder. lint:allow(trace-guard)\n{UNGUARDED}"
        ));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unused_suppression_skips_test_regions_and_unknown_names() {
        let in_test = "#[cfg(test)]\nmod tests {\n    // lint:allow(trace-guard)\n    fn g() {}\n}";
        assert!(lint_core(in_test).is_empty());
        // Prose naming no catalog rule (docs say `lint:allow(<rule>)`).
        let prose = "// suppress with lint:allow(some-rule)\nfn f() {}";
        assert!(lint_core(prose).is_empty());
        // A workspace-pass rule is not judged by the per-file path.
        let wsp = "// justified elsewhere. lint:allow(panic-path)\nfn f() {}";
        assert!(lint_core(wsp).is_empty());
    }

    #[test]
    fn findings_are_ordered_and_displayable() {
        // stats.rs is in both per-file rules' scope.
        let src = format!("fn f(x: u64) -> u32 {{ x as u32 }}\n{UNGUARDED}");
        let f = lint_source("crates/rlb-core/src/stats.rs", &src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!((f[0].rule, f[1].rule), ("lossy-cast", "trace-guard"));
        assert!(f[0].line < f[1].line);
        assert!(f[0].col > 1, "col is exact: {}", f[0].col);
        let shown = f[0].to_string();
        assert!(shown.contains("crates/rlb-core/src/stats.rs:1"), "{shown}");
    }
}
