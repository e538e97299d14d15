//! The transitive workspace passes: panic-reachability,
//! unchecked-arithmetic, and dead-pub-surface.
//!
//! Unlike the per-file rules, these need the whole workspace at once:
//! the call graph ([`crate::callgraph`]) for the two cone passes, and
//! every file's identifier set for the pub-surface pass. They emit
//! through the same [`Finding`]/suppression machinery as the per-file
//! rules, so a `lint:allow` comment naming the rule (`panic-path`,
//! `unchecked-arith`, or `dead-pub`) with a justification on the
//! finding line or the line above suppresses — and rots into an
//! `unused-suppression` finding when the site moves.

use crate::callgraph::{CallGraph, PanicKind};
use crate::items::{crate_of, ParsedFile};
use crate::roots::Manifest;
use crate::rules::{emit, emit_at, Finding, Suppressions};
use crate::LintStats;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Runs panic-reachability and unchecked-arithmetic over every root
/// cone. Manifest entries that resolve to nothing are *rot* and
/// reported under the unsuppressible `lint-roots` rule against the
/// manifest itself. Traversal never enters an `[[exempt]]`ed crate.
pub(crate) fn cone_passes(
    files: &[ParsedFile],
    allow: &[Suppressions],
    g: &CallGraph,
    manifest: &Manifest,
    findings: &mut Vec<Finding>,
    stats: &mut LintStats,
) {
    // A manifest entry that matches nothing, against the manifest line.
    let mut rot = |line: usize, entry: String, what: &str| {
        findings.push(Finding {
            file: "lint-roots.toml".to_string(),
            line,
            col: 0,
            rule: "lint-roots",
            message: format!(
                "`{entry}` matches no {what} — manifest rot; rename or remove the entry"
            ),
        });
    };
    // Exempted crates: rot-checked against the linted files, then used
    // as a traversal barrier below.
    let mut exempt: BTreeSet<&str> = BTreeSet::new();
    for e in &manifest.exempts {
        if files
            .iter()
            .any(|pf| crate_of(&pf.rel_path) == Some(e.krate.as_str()))
        {
            exempt.insert(e.krate.as_str());
        } else {
            rot(e.line, format!("crate = \"{}\"", e.krate), "linted crate");
        }
    }

    // Resolve the manifest, in order — the first root to reach a fn
    // owns its diagnostic chain.
    let mut root_nodes: Vec<usize> = Vec::new();
    for spec in &manifest.roots {
        let ids = if let Some(name) = &spec.fn_name {
            g.resolve_qname(name)
        } else if let Some(path) = &spec.file {
            g.fns_in_file(files, path)
        } else {
            Vec::new()
        };
        if ids.is_empty() {
            let entry = spec
                .fn_name
                .as_ref()
                .map(|n| format!("fn = \"{n}\""))
                .unwrap_or_else(|| format!("file = \"{}\"", spec.file.as_deref().unwrap_or("")));
            rot(spec.line, entry, "function in the workspace");
            continue;
        }
        root_nodes.extend(ids);
    }
    root_nodes.dedup();

    // Multi-source BFS, sources in manifest order: visited[n] = parent
    // (`None` for a root) reconstructs one concrete root→n call chain.
    let mut visited: BTreeMap<usize, Option<usize>> = BTreeMap::new();
    let mut queue = VecDeque::new();
    for &r in &root_nodes {
        if !visited.contains_key(&r) && !exempt.contains(g.nodes[r].krate.as_str()) {
            visited.insert(r, None);
            queue.push_back(r);
        }
    }
    stats.root_fns = queue.len();
    while let Some(n) = queue.pop_front() {
        for &callee in &g.edges[n] {
            if !visited.contains_key(&callee) && !exempt.contains(g.nodes[callee].krate.as_str()) {
                visited.insert(callee, Some(n));
                queue.push_back(callee);
            }
        }
    }
    stats.cone_fns = visited.len();

    let chain_of = |n: usize| -> String {
        let mut names = vec![g.nodes[n].qname.clone()];
        let mut cur = n;
        while let Some(&Some(parent)) = visited.get(&cur) {
            names.push(g.nodes[parent].qname.clone());
            cur = parent;
        }
        names.reverse();
        names
            .iter()
            .map(|q| format!("`{q}`"))
            .collect::<Vec<_>>()
            .join(" -> ")
    };

    for (&n, &parent) in &visited {
        let node = &g.nodes[n];
        let (pf, allow) = (&files[node.file], &allow[node.file]);
        let line_of = |pos: usize| pf.tokens.line_of(pos);
        let provenance = if parent.is_none() {
            format!("root fn `{}`", node.qname)
        } else {
            format!("`{}`, reached from root via {}", node.qname, chain_of(n))
        };

        // ---- panic-reachability: one finding per (fn, panic kind),
        // anchored at the kind's first site so suppressions stay
        // site-specific and rot when sites move.
        let mut by_kind: BTreeMap<PanicKind, Vec<usize>> = BTreeMap::new();
        for s in &g.panic_sites[n] {
            by_kind.entry(s.kind).or_default().push(s.pos);
        }
        for (kind, sites) in by_kind {
            let message = format!(
                "{} at {} in {provenance}: make the path infallible, propagate an error, or \
                 justify with `lint:allow(panic-path)`",
                kind.label(),
                lines_of(sites.iter().copied().map(line_of)),
            );
            emit_at(findings, pf, allow, sites[0], "panic-path", message);
        }

        // ---- unchecked arithmetic, same anchoring scheme.
        let live: Vec<_> = g.arith_sites[n]
            .iter()
            .filter(|s| !s.debug_asserted)
            .collect();
        if let Some(anchor) = live.first() {
            let ops: BTreeSet<&str> = live.iter().map(|s| s.op).collect();
            let message = format!(
                "bare `{}` integer arithmetic at {} in {provenance}: use \
                 checked_*/saturating_*/wrapping_* (or debug_assert! the bounds), or justify \
                 with `lint:allow(unchecked-arith)`",
                ops.into_iter().collect::<Vec<_>>().join("` `"),
                lines_of(live.iter().map(|s| line_of(s.pos))),
            );
            emit_at(findings, pf, allow, anchor.pos, "unchecked-arith", message);
        }
    }
}

/// `line 12` / `lines 12, 14, 90` (deduped, capped).
fn lines_of(lines: impl Iterator<Item = usize>) -> String {
    let set: BTreeSet<usize> = lines.collect();
    let mut v: Vec<String> = set.iter().take(6).map(usize::to_string).collect();
    if set.len() > 6 {
        v.push(format!("(+{} more)", set.len() - 6));
    }
    if set.len() == 1 {
        format!("line {}", v[0])
    } else {
        format!("lines {}", v.join(", "))
    }
}

/// Dead-pub-surface: a `pub` item in a library crate's `src/` that no
/// *other* compilation unit of the workspace mentions — sibling
/// crates, the defining crate's own `tests/`/`examples/` and in-file
/// `#[cfg(test)]` modules, its binaries (`main.rs`, `src/bin/`), and
/// the root package's facade, `tests/` and `examples/` all count as
/// usage. Mentioned only inside its own lib: that is exactly the
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
/// examples).
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
    use crate::callgraph::build;
    use crate::roots::parse_manifest;
    use crate::rules::allow_by_line;

    fn run(files: &[(&str, &str)], roots: &str) -> (Vec<Finding>, LintStats) {
        let parsed: Vec<ParsedFile> = files.iter().map(|(p, s)| ParsedFile::new(p, s)).collect();
        let allows: Vec<Suppressions> = parsed.iter().map(|p| allow_by_line(&p.comments)).collect();
        let g = build(&parsed);
        let manifest = parse_manifest(roots).expect("roots parse");
        let (mut findings, mut stats) = (Vec::new(), LintStats::default());
        cone_passes(&parsed, &allows, &g, &manifest, &mut findings, &mut stats);
        (findings, stats)
    }

    const ROOT: &str = "[[root]]\nfn = \"decode\"\nreason = \"wire is total\"\n";

    #[test]
    fn transitive_unwrap_is_reported_with_chain() {
        let (f, stats) = run(
            &[(
                "crates/rlb-serve/src/proto.rs",
                "fn decode(b: &[u8]) -> u32 { step1(b) }\n\
                 fn step1(b: &[u8]) -> u32 { step2(b) }\n\
                 fn step2(b: &[u8]) -> u32 { b.first().unwrap(); 0 }\n",
            )],
            ROOT,
        );
        assert_eq!(stats.root_fns, 1);
        assert_eq!(stats.cone_fns, 3);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "panic-path");
        assert_eq!(f[0].line, 3);
        assert!(
            f[0].message.contains("`decode` -> `step1` -> `step2`"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn sites_outside_the_cone_are_not_reported() {
        let (f, _) = run(
            &[(
                "crates/rlb-serve/src/proto.rs",
                "fn decode(b: &[u8]) -> u32 { 0 }\n\
                 fn unrelated(x: Option<u32>) -> u32 { x.unwrap() }\n",
            )],
            ROOT,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn suppression_at_first_site_line_works() {
        let (f, _) = run(
            &[(
                "crates/rlb-serve/src/proto.rs",
                "fn decode(b: &[u8]) -> u8 {\n\
                 // length checked by caller. lint:allow(panic-path)\n\
                 b[0]\n}\n",
            )],
            ROOT,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn arith_in_cone_is_reported_and_debug_assert_exempts() {
        let (f, _) = run(
            &[(
                "crates/rlb-serve/src/proto.rs",
                "fn decode(a: u32, b: u32) -> u32 { debug_assert!(a + b < 100); a + b }\n",
            )],
            ROOT,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unchecked-arith");
        assert!(
            f[0].message.contains("root fn `decode`"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn exempt_crate_is_a_traversal_barrier() {
        let (f, stats) = run(
            &[
                (
                    "crates/rlb-serve/src/proto.rs",
                    "fn decode(b: &[u8]) -> u32 { harness_hook(b) }\n",
                ),
                (
                    "crates/rlb-harness/src/rt.rs",
                    "pub fn harness_hook(b: &[u8]) -> u32 { b.first().unwrap(); 0 }\n",
                ),
            ],
            "[[root]]\nfn = \"decode\"\nreason = \"wire\"\n\
             [[exempt]]\ncrate = \"rlb-harness\"\nreason = \"panics by design\"\n",
        );
        assert_eq!(stats.cone_fns, 1, "{f:?}");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn exempt_rot_is_reported() {
        let (f, _) = run(
            &[("crates/rlb-serve/src/proto.rs", "fn decode() {}\n")],
            "[[root]]\nfn = \"decode\"\nreason = \"wire\"\n\
             [[exempt]]\ncrate = \"rlb-gone\"\nreason = \"stale\"\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "lint-roots");
        assert!(f[0].message.contains("rlb-gone"), "{}", f[0].message);
    }

    #[test]
    fn manifest_rot_is_an_unsuppressible_finding() {
        let (f, stats) = run(
            &[("crates/rlb-serve/src/proto.rs", "fn decode() {}\n")],
            "[[root]]\nfn = \"Gone::missing\"\nreason = \"was renamed\"\n\
             [[root]]\nfile = \"crates/rlb-serve/src/nope.rs\"\nreason = \"gone\"\n",
        );
        assert_eq!(stats.root_fns, 0);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "lint-roots"));
        assert!(f.iter().all(|x| x.file == "lint-roots.toml"));
    }

    #[test]
    fn file_roots_cover_every_fn_in_the_file() {
        let (f, stats) = run(
            &[(
                "crates/rlb-serve/src/proto.rs",
                "fn a(x: Option<u32>) -> u32 { x.unwrap() }\nfn b() {}\n",
            )],
            "[[root]]\nfile = \"crates/rlb-serve/src/proto.rs\"\nreason = \"all of it\"\n",
        );
        assert_eq!(stats.root_fns, 2);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("root fn `a`"));
    }

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
