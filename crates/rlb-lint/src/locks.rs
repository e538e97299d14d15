//! Tier 3: static lock-order checking (`lock-order`).
//!
//! Builds an acquired-while-holding graph over every `.lock()` call
//! site in the workspace and reports any cycle: two functions that
//! acquire `a` then `b` and `b` then `a` can deadlock under the right
//! interleaving, even when each function is individually correct.
//!
//! How a site is read (lexically, per function — lock *holds* are a
//! scope property, so no CFG is needed):
//!
//! - A lock's identity is the receiver field name: `self.incoming
//!   .lock()` acquires `incoming`, `self.slots[i].lock()` acquires
//!   `slots` (walking back over balanced `()`/`[]`). Same name = same
//!   lock — a deliberate may-alias coarsening in both directions:
//!   distinct locks sharing a field name merge (may false-positive),
//!   and `slots[i]` vs `slots[j]` merge (hides real intra-array
//!   ordering). Unnamed receivers (`self.0.lock()`) contribute a site
//!   but no edges.
//! - A `let`-bound guard is held to the end of its enclosing brace
//!   scope, or until `drop(guard)`. A temporary guard is held to the
//!   first `;` at its brace depth or shallower — so one taken in a
//!   match arm or a braced closure ends with the statement holding the
//!   match or the call — or through the attached `{ … }` block when one
//!   opens first (`if let Some(x) = m.lock()….take() { … }` holds
//!   `m` through the body; Rust ≤ 2021 temporary-scope semantics,
//!   which is what this workspace pins).
//! - Acquiring `b` with `a` held draws edge `a -> b`. Calling a
//!   resolved function with `a` held draws `a -> x` for every `x` in
//!   the callee's *transitive* acquire set (a call-graph fixpoint), so
//!   the ordering discipline is checked across function boundaries.
//!
//! Scope: test fns are exempt. Unresolved calls draw no edges — the
//! same documented false-negative boundary as the call graph itself.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{self, CallGraph, Resolution, Resolver};
use crate::items::ParsedFile;
use crate::rules::{self, Finding, Suppressions};
use crate::token::TokenKind;
use crate::LintStats;

/// One acquired-while-holding edge with its evidence.
#[derive(Debug, Clone)]
struct Edge {
    from: String,
    to: String,
    /// File index + byte offset of the later acquisition (or the call
    /// that leads to it) — where a finding anchors.
    file: usize,
    pos: usize,
    /// Human evidence: `"`b` acquired at server.rs:245 while holding
    /// `a` (server.rs:225)"`.
    why: String,
}

/// How long a held lock stays held.
enum Hold {
    /// `let g = ….lock()…;` — to scope end (or `drop(g)`).
    Scope { var: Option<String> },
    /// Temporary — to the statement `;`, or through an attached block.
    Temp,
}

struct Held {
    name: String,
    depth: usize,
    hold: Hold,
    line: usize,
}

/// A call made while locks are held:
/// (holder names + acquisition lines, callee node, file, byte pos).
type HeldCall = (Vec<(String, usize)>, usize, usize, usize);

/// Runs the pass: scans every in-scope fn, propagates transitive
/// acquire sets over the call graph, reports cycles.
pub(crate) fn run(
    files: &[ParsedFile],
    allows: &[Suppressions],
    graph: &CallGraph,
    resolver: &Resolver<'_>,
    findings: &mut Vec<Finding>,
    stats: &mut LintStats,
) {
    let mut direct: Vec<BTreeSet<String>> = vec![BTreeSet::new(); graph.nodes.len()];
    let mut edges: Vec<Edge> = Vec::new();
    let mut held_calls: Vec<HeldCall> = Vec::new();

    for (n, node) in graph.nodes.iter().enumerate() {
        if node.in_test {
            continue;
        }
        scan_fn(
            files,
            graph,
            resolver,
            n,
            stats,
            &mut direct[n],
            &mut edges,
            &mut held_calls,
        );
    }

    // Transitive acquire sets over the call graph (monotone fixpoint).
    let mut trans = direct.clone();
    for _ in 0..64 {
        let mut changed = false;
        for n in 0..graph.nodes.len() {
            for &c in &graph.edges[n] {
                if graph.nodes[c].in_test {
                    continue;
                }
                let add: Vec<String> = trans[c].difference(&trans[n]).cloned().collect();
                if !add.is_empty() {
                    trans[n].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    // A call made while holding `h` may acquire everything in the
    // callee's transitive set.
    for (helds, callee, file, pos) in held_calls {
        for l2 in &trans[callee] {
            for (h, hline) in &helds {
                if h != l2 {
                    edges.push(Edge {
                        from: h.clone(),
                        to: l2.clone(),
                        file,
                        pos,
                        why: format!(
                            "call to `{}` here acquires `{l2}` transitively while `{h}` \
                             (held since line {hline}) is held",
                            graph.nodes[callee].qname
                        ),
                    });
                }
            }
        }
    }

    // Name-level adjacency + edge count for stats.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut pairs: BTreeSet<(&str, &str)> = BTreeSet::new();
    for e in &edges {
        adj.entry(&e.from).or_default().insert(&e.to);
        pairs.insert((&e.from, &e.to));
    }
    stats.lock_edges = pairs.len();

    // Cycle detection: an edge participates in a cycle iff its target
    // can reach its source. Report one finding per ordered name pair.
    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    for e in &edges {
        if !reaches(&adj, &e.to, &e.from) {
            continue;
        }
        if !reported.insert((e.from.clone(), e.to.clone())) {
            continue;
        }
        // The reverse evidence: some edge on a path to -> … -> from.
        // For the dominant 2-cycle, that is the direct reverse edge.
        let reverse = edges
            .iter()
            .find(|r| r.from == e.to && r.to == e.from)
            .map(|r| {
                format!(
                    "; the reverse order is at {}:{} ({})",
                    files[r.file].rel_path,
                    files[r.file].tokens.line_of(r.pos),
                    r.why
                )
            })
            .unwrap_or_else(|| format!(" (cycle closes back to `{}` transitively)", e.from));
        rules::emit_at(
            findings,
            &files[e.file],
            &allows[e.file],
            e.pos,
            "lock-order",
            format!(
                "lock-acquisition cycle `{}` -> `{}`: {}{reverse}; acquire these locks in one \
                 global order (or drop the first before taking the second)",
                e.from, e.to, e.why
            ),
        );
    }
}

fn reaches(adj: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> bool {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut work = vec![from];
    while let Some(n) = work.pop() {
        if n == to {
            return true;
        }
        if !seen.insert(n) {
            continue;
        }
        if let Some(next) = adj.get(n) {
            work.extend(next.iter().copied());
        }
    }
    false
}

/// Lexically scans one function body for lock sites, holds, edges,
/// and calls made while holding.
#[allow(clippy::too_many_arguments)]
fn scan_fn(
    files: &[ParsedFile],
    graph: &CallGraph,
    resolver: &Resolver<'_>,
    n: usize,
    stats: &mut LintStats,
    direct: &mut BTreeSet<String>,
    edges: &mut Vec<Edge>,
    held_calls: &mut Vec<HeldCall>,
) {
    let node = &graph.nodes[n];
    let pf = &files[node.file];
    let (lo, hi) = pf.code_range(pf.items.fns[node.item].body_toks);

    let mut held: Vec<Held> = Vec::new();
    let mut brace = 0usize;
    let mut paren = 0usize;
    // A pending `let` binding name for the current statement.
    let mut pending_let: Option<String> = None;
    let mut c = lo;
    while c < hi {
        // Tokens belonging to a *nested* fn are that fn's business.
        if pf.items.fn_at(pf.code[c]) != Some(node.item) {
            c += 1;
            continue;
        }
        let t = pf.text(c);
        match t {
            "let" => {
                // The first binding-looking ident after `let [mut]`.
                let mut j = c + 1;
                while j < hi && (pf.text(j) == "mut" || pf.text(j) == "(") {
                    j += 1;
                }
                if j < hi && pf.kind(j) == TokenKind::Ident && callgraph::is_value_ident(pf.text(j))
                {
                    pending_let = Some(pf.text(j).to_string());
                }
            }
            "{" => {
                brace += 1;
            }
            "}" => {
                brace = brace.saturating_sub(1);
                // Scope guards die when their scope closes; temporaries
                // die when the block attached to their statement does.
                held.retain(|h| match h.hold {
                    Hold::Scope { .. } => h.depth <= brace,
                    Hold::Temp => h.depth > brace,
                });
            }
            "(" | "[" => paren += 1,
            ")" | "]" => paren = paren.saturating_sub(1),
            ";" if paren == 0 => {
                pending_let = None;
                // Or shallower: a temporary in a match arm or a braced
                // closure ends with the statement around it.
                held.retain(|h| !matches!(h.hold, Hold::Temp if h.depth >= brace));
            }
            _ => {}
        }
        if pf.kind(c) == TokenKind::Ident && c + 1 < hi && pf.text(c + 1) == "(" {
            if t == "lock" && c > lo && pf.text(c - 1) == "." {
                let name = receiver_name(pf, lo, c - 1);
                stats.lock_sites += 1;
                *stats
                    .lock_sites_by_crate
                    .entry(node.krate.clone())
                    .or_default() += 1;
                if let Some(name) = name {
                    direct.insert(name.clone());
                    for h in &held {
                        if h.name != name {
                            edges.push(Edge {
                                from: h.name.clone(),
                                to: name.clone(),
                                file: node.file,
                                pos: pf.byte(c),
                                why: format!(
                                    "`{name}` acquired at {}:{} while holding `{}` (since \
                                     line {})",
                                    pf.rel_path,
                                    pf.line(c),
                                    h.name,
                                    h.line
                                ),
                            });
                        }
                    }
                    // A `let` binds the *guard* only when the chain
                    // after `.lock()` is just `?`/`.unwrap()`/
                    // `.expect(…)`; anything else (`.len()`, `.take()`)
                    // consumes the guard as a temporary.
                    let binds_guard = pending_let.is_some() && chain_ends_with_guard(pf, c + 1, hi);
                    held.push(Held {
                        name,
                        depth: brace,
                        hold: if binds_guard {
                            Hold::Scope {
                                var: pending_let.take(),
                            }
                        } else {
                            Hold::Temp
                        },
                        line: pf.line(c),
                    });
                }
            } else if t == "drop" {
                // `drop(guard)` releases a scope-held guard early.
                if c + 3 < hi && pf.kind(c + 2) == TokenKind::Ident && pf.text(c + 3) == ")" {
                    let var = pf.text(c + 2);
                    held.retain(|h| !matches!(&h.hold, Hold::Scope { var: Some(v) } if v == var));
                }
            } else if callgraph::is_value_ident(t) && !held.is_empty() {
                let prev = (c > lo).then(|| pf.text(c - 1));
                let prev2 = (c > lo + 1).then(|| pf.text(c - 2));
                if let Resolution::One(callee) = resolver.resolve(n, t, prev, prev2) {
                    held_calls.push((
                        held.iter().map(|h| (h.name.clone(), h.line)).collect(),
                        callee,
                        node.file,
                        pf.byte(c),
                    ));
                }
            }
        }
        c += 1;
    }
}

/// The lock's field name: the ident reached from the `.` before
/// `lock`, walking back over balanced `()` / `[]` chains.
fn receiver_name(pf: &ParsedFile, lo: usize, dot: usize) -> Option<String> {
    if dot <= lo {
        return None;
    }
    let mut j = dot - 1;
    loop {
        let t = pf.text(j);
        if t == ")" || t == "]" {
            // Walk to the matching opener.
            let (open, close) = if t == ")" { ("(", ")") } else { ("[", "]") };
            let mut d = 0usize;
            loop {
                let u = pf.text(j);
                if u == close {
                    d += 1;
                } else if u == open {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                if j == lo {
                    return None;
                }
                j -= 1;
            }
            if j == lo {
                return None;
            }
            j -= 1;
            continue;
        }
        break;
    }
    let name = pf.text(j);
    (pf.kind(j) == TokenKind::Ident
        && callgraph::is_value_ident(name)
        && name != "self"
        && !callgraph::is_camel_type(name))
    .then(|| name.to_string())
}

/// From the `(` of `.lock(`: does the method chain end with the guard
/// still in hand (only `?` / `.unwrap()` / `.expect(…)` follow)?
fn chain_ends_with_guard(pf: &ParsedFile, open: usize, hi: usize) -> bool {
    let mut j = pf.matching(open, hi) + 1;
    loop {
        if j >= hi {
            return true;
        }
        match pf.text(j) {
            "?" => j += 1,
            "." if j + 2 < hi
                && (pf.text(j + 1) == "unwrap" || pf.text(j + 1) == "expect")
                && pf.text(j + 2) == "(" =>
            {
                j = pf.matching(j + 2, hi) + 1;
            }
            // Any other method / field access consumes the guard.
            "." => return false,
            _ => return true,
        }
    }
}
