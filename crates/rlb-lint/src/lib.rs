//! # rlb-lint — self-hosted static analysis for the workspace
//!
//! The reproduction's validation story rests on properties the
//! compiler does not enforce: accounting never narrows a counter, and
//! nothing reachable from a request path panics or wraps. This crate
//! guards the first, and the pub surface; the rest is clippy's.
//! **Determinism per seed** (no `HashMap`, clock read or raw thread):
//! the root `clippy.toml` disallows the types and methods. **No panic
//! or silent wrap on the request path**: the engine, its policies, the
//! daemon and the load client `#![deny]` clippy's panic lints,
//! `indexing_slicing` and `arithmetic_side_effects` once per crate
//! root, and a site that cannot fail carries an
//! `#[expect(.., reason = "…")]` on the narrowest statement or item
//! clippy lets it reach. The tracing hot path is zero-overhead when
//! disabled by construction, not by a rule: `rlb-core`'s
//! `TraceSink::emit` builds an event only for an enabled sink, and
//! `clippy.toml` disallows calling `TraceSink::on_event` anywhere else.
//!
//! Every file is tokenized ([`token`]) and item-parsed ([`items`])
//! once into a [`items::ParsedFile`], which owns the comment-free code
//! view and the one cursor (token text/kind/position) all passes walk
//! it with. The rule catalog, the finding
//! type and the suppression machinery live in [`rules`]. The analysis
//! has two tiers:
//!
//! 1. **A per-file rule** ([`rules`]) over a list of files: lossy-cast
//!    in accounting code.
//! 2. **A workspace pass** ([`passes`]): a dead-pub-surface sweep that
//!    counts references from every crate, test, example, and binary in
//!    the workspace, the root package's and `benchmark/src` included.
//!
//! No pass follows calls or values: wire lengths are capped by
//! construction (`rlb-serve`'s `proto.rs` reads each one through a
//! cursor call that checks its cap first), and the workspace takes no
//! lock, so no pass orders locks.
//!
//! * Suppress a benign finding with `// lint:allow(<rule>)` on the
//!   same line or the line above — always with a justification comment.
//! * `#[cfg(test)]` modules are exempt.
//! * Run it as `rlb-sim lint [--root PATH] [--json [PATH]]`; exits
//!   nonzero on findings. `unused-suppression` findings (an excuse
//!   that suppresses nothing, or names no rule) are not themselves
//!   suppressible.
//!
//! No external dependencies: the JSON artifact is written through the
//! workspace's own `rlb-json`; the linter lints itself (it is part of
//! the workspace it scans).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod items;
mod passes;
pub mod rules;
pub mod token;

pub use rules::{lint_source, Finding};

use items::ParsedFile;
use rlb_json::{Json, ToJson};
use rules::Suppressions;
use std::path::{Path, PathBuf};

/// Counters from the analysis, for the report footer and the JSON
/// artifact — they make a "0 findings" run auditable (a lint that
/// checked 0 items is vacuously green, not clean).
#[derive(Debug, Clone, Default)]
pub struct LintStats {
    /// `pub` items checked by the dead-pub-surface pass.
    pub pub_items: usize,
}

/// The outcome of a workspace scan.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// The files linted (workspace-relative; reference-only files not
    /// counted), in walk order.
    pub files: Vec<String>,
    /// All unsuppressed findings, sorted by file, line, column, rule.
    pub findings: Vec<Finding>,
    /// Analysis counters.
    pub stats: LintStats,
}

impl LintReport {
    /// `true` when the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Dead `lint:allow` entries (rule `unused-suppression`).
    pub fn dead_suppressions(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.rule == "unused-suppression")
            .count()
    }

    /// Renders the report as the CLI prints it: one `file:line:col:
    /// [rule] message` per finding, a summary line, and an analysis
    /// stats line.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{f}");
        }
        let dead = self.dead_suppressions();
        let _ = writeln!(
            out,
            "rlb-lint: {} file(s) scanned, {} finding(s), {} dead suppression(s)",
            self.files.len(),
            self.findings.len() - dead,
            dead
        );
        let _ = writeln!(
            out,
            "rlb-lint: {} pub item(s) checked",
            self.stats.pub_items
        );
        out
    }

    /// Renders the report as a single JSON object for the CI artifact.
    pub fn to_json(&self) -> String {
        fn entry(key: &str, value: impl ToJson) -> (String, Json) {
            (key.to_string(), value.to_json())
        }
        let findings = self
            .findings
            .iter()
            .map(|f| {
                Json::Obj(vec![
                    entry("file", &f.file),
                    entry("line", f.line),
                    entry("col", f.col),
                    entry("rule", f.rule),
                    entry("message", &f.message),
                ])
            })
            .collect();
        let report = Json::Obj(vec![
            entry("files_scanned", self.files.len()),
            entry("findings", Json::Arr(findings)),
            entry("dead_suppressions", self.dead_suppressions()),
            entry(
                "stats",
                Json::Obj(vec![entry("pub_items", self.stats.pub_items)]),
            ),
            entry("clean", self.is_clean()),
        ]);
        let mut out = String::new();
        report.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }
}

/// Whether a workspace-relative path is *linted* (subject to rules and
/// passes) as opposed to reference-only (scanned for identifiers by the
/// dead-pub pass: crate `tests/`/`examples/`, the root package's
/// `src/`, `tests/` and `examples/`, and `benchmark/src/`).
fn is_linted_path(rel_path: &str) -> bool {
    match rel_path.strip_prefix("crates/") {
        Some(rest) => rest
            .split_once('/')
            .is_some_and(|(_, tail)| tail.starts_with("src/")),
        None => false,
    }
}

/// Pure in-memory entry point: lints `files` (workspace-relative path,
/// source text). Files under `crates/*/src/` are linted; everything
/// else participates only as reference material for the dead-pub pass.
pub fn lint_files(files: &[(String, String)]) -> LintReport {
    let mut linted: Vec<ParsedFile> = Vec::new();
    let mut reference: Vec<ParsedFile> = Vec::new();
    for (path, source) in files {
        let pf = ParsedFile::new(path, source);
        if is_linted_path(path) {
            linted.push(pf);
        } else {
            reference.push(pf);
        }
    }
    let allows: Vec<Suppressions> = linted
        .iter()
        .map(|pf| rules::allow_by_line(&pf.comments))
        .collect();

    let mut findings = Vec::new();
    // Phase 1: per-file rules.
    for (pf, allow) in linted.iter().zip(&allows) {
        rules::file_rules(pf, allow, &mut findings);
    }
    let mut stats = LintStats::default();
    // Phase 2: the workspace pass.
    passes::dead_pub(&linted, &reference, &allows, &mut findings, &mut stats);
    // Unused-suppression audit runs last: every rule above has marked
    // the `lint:allow` entries it consumed.
    for (pf, allow) in linted.iter().zip(&allows) {
        rules::unused_suppressions(pf, allow, |r| r.suppressible, &mut findings);
    }
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    LintReport {
        files: linted.into_iter().map(|pf| pf.rel_path).collect(),
        findings,
        stats,
    }
}

/// Lints every `.rs` file under `crates/*/src` of the workspace at
/// `root`, using `crates/*/{tests,examples}`, the root package's
/// `{src,tests,examples}` (the facade, its integration tests and the
/// worked examples) and `benchmark/src` (the repo benchmark, a package
/// outside the workspace that calls product API) as reference material.
///
/// # Errors
/// Returns a message when `root` has no `crates/` directory or a file
/// cannot be read (findings are diagnostics, not errors).
pub fn lint_workspace(root: &Path) -> Result<LintReport, String> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(format!(
            "{} has no crates/ directory (pass the workspace root via --root)",
            root.display()
        ));
    }
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.join("src").is_dir())
        .collect();
    crate_dirs.sort();
    let mut paths = Vec::new();
    for dir in &crate_dirs {
        collect_rs_files(&dir.join("src"), &mut paths)?;
    }
    // Reference-only material: each crate's tests and examples, then
    // the root package's facade, integration tests and examples, and
    // the benchmark's sources.
    let reference_dirs = crate_dirs
        .iter()
        .flat_map(|dir| ["tests", "examples"].map(|aux| dir.join(aux)))
        .chain(["src", "tests", "examples", "benchmark/src"].map(|aux| root.join(aux)));
    for dir in reference_dirs.filter(|dir| dir.is_dir()) {
        collect_rs_files(&dir, &mut paths)?;
    }
    let mut files = Vec::new();
    for file in &paths {
        let source = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        files.push((rel_path(root, file), source));
    }
    Ok(lint_files(&files))
}

/// Recursively collects `.rs` files, sorted for deterministic output.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes (rule scopes match on
/// these).
fn rel_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_crates_dir_is_an_error() {
        let dir = std::env::temp_dir().join("rlb_lint_no_crates");
        let _ = std::fs::create_dir_all(&dir);
        assert!(lint_workspace(&dir).is_err());
    }

    #[test]
    fn walker_scans_and_reports() {
        let root = std::env::temp_dir().join("rlb_lint_walk_test");
        let src = root.join("crates/rlb-core/src");
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("stats.rs"), "fn f(x: u64) -> u32 { x as u32 }\n").unwrap();
        std::fs::write(src.join("clean.rs"), "fn g() -> u32 { 3 }\n").unwrap();
        let report = lint_workspace(&root).unwrap();
        assert_eq!(report.files.len(), 2);
        assert_eq!(report.findings.len(), 1);
        assert!(!report.is_clean());
        assert_eq!(report.findings[0].file, "crates/rlb-core/src/stats.rs");
        let text = report.render();
        assert!(text.contains("2 file(s) scanned, 1 finding(s)"), "{text}");
        assert!(text.contains("0 pub item(s) checked"), "{text}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn walker_reads_reference_dirs() {
        let root = std::env::temp_dir().join("rlb_lint_walk_refs_test");
        let _ = std::fs::remove_dir_all(&root);
        let src = root.join("crates/rlb-core/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::create_dir_all(root.join("crates/rlb-core/tests")).unwrap();
        std::fs::create_dir_all(root.join("examples")).unwrap();
        std::fs::create_dir_all(root.join("benchmark/src")).unwrap();
        std::fs::write(
            src.join("sim.rs"),
            "pub fn run(x: Option<u32>) -> u32 { x.unwrap() }\npub fn spare() {}\n\
             pub fn shown() {}\npub fn timed() {}\n",
        )
        .unwrap();
        // The crate's own tests/ keep `spare` and `run` alive, a root
        // example keeps `shown` alive, the benchmark keeps `timed` alive.
        std::fs::write(
            root.join("crates/rlb-core/tests/api.rs"),
            "fn t() { rlb_core::spare(); rlb_core::run(None); }\n",
        )
        .unwrap();
        std::fs::write(
            root.join("examples/x.rs"),
            "fn main() { rlb_core::shown(); }\n",
        )
        .unwrap();
        std::fs::write(
            root.join("benchmark/src/main.rs"),
            "fn main() { rlb_core::timed(); }\n",
        )
        .unwrap();
        let report = lint_workspace(&root).unwrap();
        assert_eq!(report.files, ["crates/rlb-core/src/sim.rs"], "{report:?}");
        assert_eq!(report.stats.pub_items, 4);
        assert!(report.is_clean(), "{report:?}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn json_report_shape_and_escaping() {
        let files = vec![(
            "crates/rlb-core/src/stats.rs".to_string(),
            "fn f(x: u64) -> u32 { x as u32 }\n".to_string(),
        )];
        let mut report = lint_files(&files);
        let nasty = "a \"quoted\" \\path\nand a second line";
        report.findings[0].message = nasty.to_string();
        let json = Json::parse(&report.to_json()).unwrap();
        let num = |v: &Json, key: &str| v.get(key).and_then(Json::as_u64);
        assert_eq!(num(&json, "files_scanned"), Some(1));
        assert_eq!(num(&json, "dead_suppressions"), Some(0));
        assert_eq!(json.get("stats").and_then(|s| num(s, "pub_items")), Some(0));
        assert_eq!(json.get("clean"), Some(&Json::Bool(false)));
        let findings = json.get("findings").and_then(Json::as_arr).unwrap();
        assert_eq!(findings.len(), 1);
        let text = |key: &str| findings[0].get(key).and_then(Json::as_str);
        assert_eq!(text("file"), Some("crates/rlb-core/src/stats.rs"));
        assert_eq!(text("rule"), Some("lossy-cast"));
        assert_eq!(text("message"), Some(nasty));
        assert_eq!(num(&findings[0], "line"), Some(1));
        assert!(num(&findings[0], "col").is_some());
    }
}
