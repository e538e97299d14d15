//! A name-resolution-approximate workspace call graph.
//!
//! One pass over every parsed file builds a function table and, per
//! function body, the outgoing call edges plus the *site lists* the
//! transitive passes consume: panic sites (`unwrap`/`expect`/panic
//! macros/indexing/slice patterns/`/`-`%`) and bare-arithmetic sites
//! (`+ - * <<` and their compound assignments).
//!
//! Resolution (one `Resolver`) is deliberately approximate, erring
//! toward *fewer* edges, with the boundaries documented here and in
//! ARCHITECTURE.md:
//!
//! * `Type::name(..)` and `Self::name(..)` resolve through the
//!   (owner, name) table; `module::name(..)` falls back to free
//!   functions by name.
//! * `.name(..)` method calls resolve to the enclosing impl's method
//!   when one exists, else to the *unique* `self`-taking function of
//!   that name in the workspace. Two or more candidates go to the
//!   explicit ambiguity set instead of guessing — an ambiguous call is
//!   a documented false-negative edge, surfaced in the lint stats.
//! * Calls that resolve to nothing are assumed to be std (or another
//!   non-workspace) call and treated as non-panicking; so are trait
//!   calls through `dyn`/generic dispatch and turbofish forms
//!   (`f::<T>(..)`). `?` propagates errors, not panics, so a try site
//!   is not a panic site.
//! * `#[cfg(test)]` functions are excluded from the table: a test
//!   helper must never capture resolution of a hot-path name.

use crate::items::ParsedFile;
use crate::token::TokenKind;
use std::collections::{BTreeMap, BTreeSet};

/// What kind of potentially-panicking site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PanicKind {
    /// `.unwrap()`
    Unwrap,
    /// `.expect(..)`
    Expect,
    /// `panic!(..)`
    Panic,
    /// `unreachable!(..)`
    Unreachable,
    /// `todo!(..)`
    Todo,
    /// `unimplemented!(..)`
    Unimplemented,
    /// `x[i]` indexing (slices, arrays, `Vec`, maps)
    Index,
    /// `let [a, b] = ..` refutable-looking slice binding
    SlicePattern,
    /// `/` or `%` (division by zero; `MIN / -1` overflow)
    DivMod,
}

impl PanicKind {
    /// Human label used in findings.
    pub(crate) fn label(self) -> &'static str {
        match self {
            PanicKind::Unwrap => "`.unwrap()`",
            PanicKind::Expect => "`.expect(..)`",
            PanicKind::Panic => "`panic!`",
            PanicKind::Unreachable => "`unreachable!`",
            PanicKind::Todo => "`todo!`",
            PanicKind::Unimplemented => "`unimplemented!`",
            PanicKind::Index => "indexing `[..]`",
            PanicKind::SlicePattern => "slice pattern",
            PanicKind::DivMod => "`/`-`%` arithmetic",
        }
    }
}

/// A potentially-panicking site inside a function body.
#[derive(Debug, Clone, Copy)]
// element of `CallGraph::panic_sites`. lint:allow(dead-pub)
pub struct PanicSite {
    /// Which kind.
    pub kind: PanicKind,
    /// Byte offset of the site's token.
    pub pos: usize,
}

/// A bare-arithmetic site inside a function body.
#[derive(Debug, Clone)]
pub struct ArithSite {
    /// The operator (`+`, `<<=`, …).
    pub op: &'static str,
    /// Byte offset of the operator.
    pub pos: usize,
    /// Inside a `debug_assert*!(..)` argument (exempt: compiled out in
    /// release, and the assert *is* the overflow justification).
    pub debug_asserted: bool,
}

/// One function in the workspace graph.
#[derive(Debug, Clone)]
// element of `CallGraph::nodes`. lint:allow(dead-pub)
pub struct FnNode {
    /// Index into the parsed-file slice.
    pub file: usize,
    /// Index into that file's `items.fns`.
    pub item: usize,
    /// `Owner::name` or bare `name`.
    pub qname: String,
    /// Defining crate (`rlb-core`).
    pub krate: String,
    /// Inside `#[cfg(test)]`.
    pub in_test: bool,
}

/// The workspace call graph plus per-function site lists.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// All function nodes, in file/declaration order.
    pub nodes: Vec<FnNode>,
    /// Adjacency: `edges[n]` = resolved callee node ids (sorted, deduped).
    pub edges: Vec<Vec<usize>>,
    /// Per-node panic sites.
    pub panic_sites: Vec<Vec<PanicSite>>,
    /// Per-node bare-arithmetic sites.
    pub arith_sites: Vec<Vec<ArithSite>>,
    /// Method/free-call names that matched 2+ candidates: name → the
    /// candidate qnames. These calls produce *no* edge (documented
    /// false-negative boundary); the set is surfaced in lint stats.
    pub ambiguities: BTreeMap<String, BTreeSet<String>>,
}

impl CallGraph {
    /// Node ids whose qname is `q` (`Owner::name` or a bare free-fn
    /// name), excluding test fns. Bare names also match methods when
    /// unambiguous across the workspace.
    pub fn resolve_qname(&self, q: &str) -> Vec<usize> {
        let direct: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.in_test && n.qname == q)
            .map(|(i, _)| i)
            .collect();
        if !direct.is_empty() || q.contains("::") {
            return direct;
        }
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.in_test && n.qname.rsplit("::").next() == Some(q))
            .map(|(i, _)| i)
            .collect()
    }

    /// Node ids of every non-test fn defined in `rel_path`.
    pub fn fns_in_file(&self, files: &[ParsedFile], rel_path: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.in_test && files[n.file].rel_path == rel_path)
            .map(|(i, _)| i)
            .collect()
    }
}

/// What a call site resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resolution<'r> {
    /// Exactly one workspace function: the graph draws an edge.
    One(usize),
    /// Several candidates share the name. No edge is drawn (the
    /// documented false-negative boundary); the candidates go to
    /// [`CallGraph::ambiguities`].
    Ambiguous(&'r [usize]),
    /// Nothing in the workspace table: assumed std.
    Unresolved,
}

/// The one place a call site is resolved to a callee: [`build`] draws
/// its edges from it. Test fns are in none of the tables.
struct Resolver<'a> {
    /// owner → name → ids: every fn declared in an `impl`/`trait`.
    by_owner_name: BTreeMap<&'a str, BTreeMap<&'a str, Vec<usize>>>,
    /// The `self`-taking subset of the above, by name alone.
    method_by_name: BTreeMap<&'a str, Vec<usize>>,
    free_by_name: BTreeMap<&'a str, Vec<usize>>,
    /// Per node: its enclosing owner and its crate, as a *caller*.
    callers: Vec<(Option<&'a str>, &'a str)>,
}

impl<'a> Resolver<'a> {
    fn new(files: &'a [ParsedFile], nodes: &[FnNode]) -> Self {
        let mut r = Resolver {
            by_owner_name: BTreeMap::new(),
            method_by_name: BTreeMap::new(),
            free_by_name: BTreeMap::new(),
            callers: Vec::with_capacity(nodes.len()),
        };
        for (id, n) in nodes.iter().enumerate() {
            let pf = &files[n.file];
            let f = &pf.items.fns[n.item];
            r.callers.push((f.owner.as_deref(), pf.crate_name()));
            if n.in_test {
                continue;
            }
            let name = f.name.as_str();
            match f.owner.as_deref() {
                Some(o) => {
                    let by_name = r.by_owner_name.entry(o).or_default();
                    by_name.entry(name).or_default().push(id);
                    if f.has_self {
                        r.method_by_name.entry(name).or_default().push(id);
                    }
                }
                None => r.free_by_name.entry(name).or_default().push(id),
            }
        }
        r
    }

    /// Resolves a call to `name` preceded by `prev`/`prev2` (the two
    /// code tokens before the name), made from inside node `caller`.
    fn resolve(
        &self,
        caller: usize,
        name: &str,
        prev: Option<&str>,
        prev2: Option<&str>,
    ) -> Resolution<'_> {
        let (owner, krate) = self.callers[caller];
        let owned = |o: &str| {
            self.by_owner_name
                .get(o)
                .and_then(|by_name| by_name.get(name))
        };
        let by_name = match prev {
            Some(".") => {
                // Method call: same-owner method wins, else unique-name.
                if let Some([one]) = owner.and_then(owned).map(Vec::as_slice) {
                    return Resolution::One(*one);
                }
                self.method_by_name.get(name)
            }
            Some("::") => {
                // `Type::name(..)` / `Self::name(..)` through the owner
                // table; `module::name(..)` falls back to free fns.
                let qualifier = prev2.unwrap_or("");
                let looked_up = if qualifier == "Self" {
                    owner
                } else {
                    Some(qualifier)
                };
                looked_up
                    .and_then(owned)
                    .or_else(|| self.free_by_name.get(name))
            }
            // Bare call: a free fn, unique workspace-wide — or unique
            // in the calling crate (local names shadow).
            _ => {
                let free = self.free_by_name.get(name);
                if let Some(many) = free.filter(|all| all.len() > 1) {
                    let mut local = many.iter().filter(|&&c| self.callers[c].1 == krate);
                    if let (Some(&one), None) = (local.next(), local.next()) {
                        return Resolution::One(one);
                    }
                }
                free
            }
        };
        match by_name.map(Vec::as_slice) {
            Some([one]) => Resolution::One(*one),
            Some(many) => Resolution::Ambiguous(many),
            None => Resolution::Unresolved,
        }
    }
}

/// Keywords that never produce a value, so an operator right after one
/// is unary / a type position, not binary arithmetic or indexing.
const NON_VALUE_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while", "yield",
];

fn is_value_ident(text: &str) -> bool {
    !NON_VALUE_KEYWORDS.contains(&text)
}

/// `Send`, `FnOnce`, `Iterator` … — CamelCase identifiers next to a
/// `+` are trait bounds (`dyn Fn() + Send`), not arithmetic.
/// ALL-CAPS constants (`MAX_FRAME_LEN`) stay arithmetic operands.
fn is_camel_type(text: &str) -> bool {
    text.starts_with(|c: char| c.is_ascii_uppercase())
        && text.chars().any(|c| c.is_ascii_lowercase())
}

/// Builds the graph over every parsed file.
pub(crate) fn build(files: &[ParsedFile]) -> CallGraph {
    let mut g = CallGraph::default();
    // node id lookup for (file, item)
    let mut node_of: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for (fi, pf) in files.iter().enumerate() {
        for (ii, f) in pf.items.fns.iter().enumerate() {
            node_of.insert((fi, ii), g.nodes.len());
            g.nodes.push(FnNode {
                file: fi,
                item: ii,
                qname: f.qname(),
                krate: pf.crate_name().to_string(),
                in_test: f.in_test,
            });
        }
    }
    let resolver = Resolver::new(files, &g.nodes);
    g.edges = vec![Vec::new(); g.nodes.len()];
    g.panic_sites = vec![Vec::new(); g.nodes.len()];
    g.arith_sites = vec![Vec::new(); g.nodes.len()];

    // ---- body walks
    for (fi, pf) in files.iter().enumerate() {
        // debug_assert*!(..) argument byte spans.
        let da_spans = debug_assert_spans(pf);

        for p in 0..pf.code.len() {
            let Some(item) = pf.items.fn_at(pf.code[p]) else {
                continue;
            };
            let node = node_of[&(fi, item)];
            let pos = pf.byte(p);
            let prev = p.checked_sub(1).map(|q| pf.text(q));
            let next = (p + 1 < pf.code.len()).then(|| pf.text(p + 1));
            let prev_is_value = match p.checked_sub(1).map(|q| pf.kind(q)) {
                Some(TokenKind::Ident) => is_value_ident(prev.unwrap_or("")),
                Some(TokenKind::Int | TokenKind::Float | TokenKind::Str | TokenKind::Char) => true,
                Some(TokenKind::Punct) => matches!(prev, Some(")") | Some("]")),
                _ => false,
            };
            let mut panic_site = |kind| g.panic_sites[node].push(PanicSite { kind, pos });

            match pf.kind(p) {
                TokenKind::Ident => {
                    let name = pf.text(p);
                    // Macro invocation?
                    if next == Some("!") {
                        match name {
                            "panic" => panic_site(PanicKind::Panic),
                            "unreachable" => panic_site(PanicKind::Unreachable),
                            "todo" => panic_site(PanicKind::Todo),
                            "unimplemented" => panic_site(PanicKind::Unimplemented),
                            _ => {}
                        }
                        continue;
                    }
                    if next != Some("(") || prev == Some("fn") {
                        continue;
                    }
                    // A call. `.unwrap()` / `.expect(` are panic sites,
                    // everything else resolves to an edge when it can.
                    match (prev, name) {
                        (Some("."), "unwrap") => panic_site(PanicKind::Unwrap),
                        (Some("."), "expect") => panic_site(PanicKind::Expect),
                        _ => match resolver.resolve(
                            node,
                            name,
                            prev,
                            p.checked_sub(2).map(|q| pf.text(q)),
                        ) {
                            Resolution::One(callee) => g.edges[node].push(callee),
                            Resolution::Ambiguous(candidates) => {
                                let qnames = candidates.iter().map(|&c| g.nodes[c].qname.clone());
                                g.ambiguities
                                    .entry(name.to_string())
                                    .or_default()
                                    .extend(qnames);
                            }
                            Resolution::Unresolved => {}
                        },
                    }
                }
                TokenKind::Punct => {
                    let op = pf.text(p);
                    match op {
                        "[" if prev == Some("let") => panic_site(PanicKind::SlicePattern),
                        "[" if prev_is_value => panic_site(PanicKind::Index),
                        // Float division cannot panic; `x as f64 / y`
                        // and `m / 2f64.powi(..)` are visible without
                        // type inference.
                        "/" | "%" | "/=" | "%=" if prev_is_value && !float_adjacent(pf, p) => {
                            panic_site(PanicKind::DivMod)
                        }
                        "+" | "-" | "*" | "<<" | "+=" | "-=" | "*=" | "<<=" if prev_is_value => {
                            if arith_is_exempt(pf, p) {
                                continue;
                            }
                            let op_static = match op {
                                "+" => "+",
                                "-" => "-",
                                "*" => "*",
                                "<<" => "<<",
                                "+=" => "+=",
                                "-=" => "-=",
                                "*=" => "*=",
                                _ => "<<=",
                            };
                            g.arith_sites[node].push(ArithSite {
                                op: op_static,
                                pos,
                                debug_asserted: da_spans.iter().any(|&(a, b)| a <= pos && pos < b),
                            });
                        }
                        _ => {}
                    }
                }
                _ => {}
            }
        }
    }
    for e in &mut g.edges {
        e.sort_unstable();
        e.dedup();
    }
    g
}

/// Operand-level exemptions for the arithmetic pass: float-adjacent
/// operations (no wrap semantics), `+ 'static` / `+ Send` trait-bound
/// positions, and `*`-deref/`-`-negation already excluded by the
/// binary-position check at the call site.
fn arith_is_exempt(pf: &ParsedFile, p: usize) -> bool {
    float_adjacent(pf, p)
        || neighbours(pf, p).any(|q| {
            pf.kind(q) == TokenKind::Lifetime
                || (pf.kind(q) == TokenKind::Ident && is_camel_type(pf.text(q)))
        })
}

/// Whether either operand next to the operator at code position `p` is
/// visibly a float: a float literal, or an `f64`/`f32` ident (the tail
/// of an `as f64` cast).
fn float_adjacent(pf: &ParsedFile, p: usize) -> bool {
    neighbours(pf, p).any(|q| {
        pf.kind(q) == TokenKind::Float
            || (pf.kind(q) == TokenKind::Ident && matches!(pf.text(q), "f64" | "f32"))
    })
}

/// The code positions on either side of `p` that exist.
fn neighbours(pf: &ParsedFile, p: usize) -> impl Iterator<Item = usize> {
    [p.checked_sub(1), (p + 1 < pf.code.len()).then_some(p + 1)]
        .into_iter()
        .flatten()
}

/// `debug_assert*!( … )` argument byte spans in one file.
fn debug_assert_spans(pf: &ParsedFile) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut p = 0;
    while p + 2 < pf.code.len() {
        if pf.kind(p) == TokenKind::Ident
            && pf.text(p).starts_with("debug_assert")
            && pf.text(p + 1) == "!"
            && matches!(pf.text(p + 2), "(" | "[")
        {
            let close = pf.matching(p + 2, pf.code.len());
            spans.push((pf.byte(p + 2), pf.tok(close).hi));
            p = close + 1;
            continue;
        }
        p += 1;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(files: &[(&str, &str)]) -> Vec<ParsedFile> {
        files.iter().map(|(p, s)| ParsedFile::new(p, s)).collect()
    }

    fn graph_of(files: &[(&str, &str)]) -> (Vec<ParsedFile>, CallGraph) {
        let parsed = parse(files);
        let g = build(&parsed);
        (parsed, g)
    }

    fn node(g: &CallGraph, q: &str) -> usize {
        let ids = g.resolve_qname(q);
        assert_eq!(ids.len(), 1, "{q} -> {ids:?}");
        ids[0]
    }

    #[test]
    fn direct_and_qualified_calls_resolve() {
        let (_, g) = graph_of(&[(
            "crates/rlb-core/src/sim.rs",
            "fn top() { helper(3); QueueArray::route(q); }\n\
             fn helper(x: u32) -> u32 { x }\n\
             impl QueueArray { fn route(&mut self) { self.inner(); } fn inner(&mut self) {} }",
        )]);
        let top = node(&g, "top");
        assert!(g.edges[top].contains(&node(&g, "helper")));
        assert!(g.edges[top].contains(&node(&g, "QueueArray::route")));
        let route = node(&g, "QueueArray::route");
        assert!(g.edges[route].contains(&node(&g, "QueueArray::inner")));
    }

    #[test]
    fn cross_crate_method_resolution_is_unique_name() {
        let (_, g) = graph_of(&[
            (
                "crates/rlb-serve/src/proto.rs",
                "impl Cursor { fn u16at(&mut self) -> u16 { 0 } }",
            ),
            (
                "crates/rlb-serve/src/wire.rs",
                "fn decode(c: &mut Cursor) { c.u16at(); }",
            ),
        ]);
        let d = node(&g, "decode");
        assert_eq!(g.edges[d], vec![node(&g, "Cursor::u16at")]);
    }

    #[test]
    fn ambiguous_methods_get_no_edge_but_are_recorded() {
        let (_, g) = graph_of(&[(
            "crates/rlb-core/src/sim.rs",
            "impl A { fn go(&self) {} }\nimpl B { fn go(&self) {} }\n\
             fn f(x: &C) { x.go(); }",
        )]);
        let f = node(&g, "f");
        assert!(g.edges[f].is_empty());
        let cands = g.ambiguities.get("go").expect("recorded");
        assert!(cands.contains("A::go") && cands.contains("B::go"));
    }

    #[test]
    fn test_fns_do_not_capture_resolution() {
        let files = parse(&[(
            "crates/rlb-core/src/sim.rs",
            "fn f(x: &T) { x.probe(); }\n\
             #[cfg(test)]\nmod tests { impl Fake { fn probe(&self) { panic!() } } }",
        )]);
        let g = build(&files);
        let resolver = Resolver::new(&files, &g.nodes);
        let f = node(&g, "f");
        assert!(g.edges[f].is_empty());
        assert_eq!(
            resolver.resolve(f, "probe", Some("."), Some("x")),
            Resolution::Unresolved
        );
    }

    /// Every arm of the resolver (`.name(`, `Qual::name(`, bare
    /// `name(`) against each of its three outcomes.
    #[test]
    fn resolution_table() {
        let files = parse(&[
            (
                "crates/a/src/lib.rs",
                "fn helper() {}\nfn unique_free() {}\nfn from_a() {}\n\
                 impl Q { fn run(&self) {} fn make() {} fn go(&self) {} fn dup() {} }\n\
                 impl R { fn go(&self) {} fn solo(&self) {} }",
            ),
            (
                "crates/b/src/lib.rs",
                "fn helper() {}\nfn from_b() {}\nimpl Q { fn dup() {} }",
            ),
            ("crates/c/src/lib.rs", "fn from_c() {}"),
        ]);
        let g = build(&files);
        let resolver = Resolver::new(&files, &g.nodes);
        // Node id of the fn `qname` declared in crate `krate`.
        let id = |krate: &str, qname: &str| {
            let found = g
                .nodes
                .iter()
                .position(|n| n.krate == krate && n.qname == qname);
            found.unwrap_or_else(|| panic!("no {qname} in {krate}"))
        };
        use Resolution::{Ambiguous, One, Unresolved};
        let go = [id("a", "Q::go"), id("a", "R::go")];
        let dup = [id("a", "Q::dup"), id("b", "Q::dup")];
        let helper = [id("a", "helper"), id("b", "helper")];
        // (caller's crate, caller, the call site's last code tokens, outcome)
        #[rustfmt::skip]
        let cases: &[(&str, &str, &str, Resolution)] = &[
            // `.name(`: the caller's own impl wins over a shared name,
            // else the workspace-unique `self`-taking fn of that name.
            ("a", "Q::run", "self . go", One(go[0])),
            ("c", "from_c", "x . solo", One(id("a", "R::solo"))),
            ("c", "from_c", "x . go", Ambiguous(&go)),
            ("c", "from_c", "x . make", Unresolved), // takes no `self`
            ("c", "from_c", "v . push", Unresolved),
            // `Qual::name(`: the (owner, name) table, `Self` standing
            // for the caller's owner; `module::name(` falls back to
            // free fns by name, with no crate preference.
            ("c", "from_c", "Q :: make", One(id("a", "Q::make"))),
            ("a", "Q::run", "Self :: make", One(id("a", "Q::make"))),
            ("c", "from_c", "a :: unique_free", One(id("a", "unique_free"))),
            ("c", "from_c", "Q :: dup", Ambiguous(&dup)),
            ("a", "from_a", "b :: helper", Ambiguous(&helper)),
            ("a", "from_a", "Self :: make", Unresolved), // caller has no owner
            ("c", "from_c", "Vec :: new", Unresolved),
            // Bare `name(`: a free fn unique in the workspace, or — two
            // crates define `helper` — the calling crate's own.
            ("c", "from_c", "unique_free", One(id("a", "unique_free"))),
            ("a", "from_a", ") { helper", One(helper[0])),
            ("b", "from_b", ") { helper", One(helper[1])),
            ("c", "from_c", ") { helper", Ambiguous(&helper)),
            ("c", "from_c", "; make", Unresolved), // not a free fn
            ("c", "from_c", "= drop", Unresolved),
        ];
        for &(krate, caller, call, want) in cases {
            let mut toks = call.split(' ').rev();
            let (name, prev, prev2) = (toks.next().expect("a name"), toks.next(), toks.next());
            let got = resolver.resolve(id(krate, caller), name, prev, prev2);
            assert_eq!(got, want, "in {caller}: {call}(");
        }
    }

    #[test]
    fn panic_sites_are_classified() {
        let (_, g) = graph_of(&[(
            "crates/rlb-core/src/sim.rs",
            "fn f(v: &[u32], x: Option<u32>, n: u32) -> u32 {\n\
             let a = x.unwrap();\n\
             let b = x.expect(\"m\");\n\
             if n == 0 { panic!(\"n\"); }\n\
             let c = v[0];\n\
             let [d, e] = v else { unreachable!() };\n\
             a + b + c + d + e + n / 2\n}",
        )]);
        let f = node(&g, "f");
        let kinds: Vec<PanicKind> = g.panic_sites[f].iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&PanicKind::Unwrap));
        assert!(kinds.contains(&PanicKind::Expect));
        assert!(kinds.contains(&PanicKind::Panic));
        assert!(kinds.contains(&PanicKind::Index));
        assert!(kinds.contains(&PanicKind::SlicePattern));
        assert!(kinds.contains(&PanicKind::Unreachable));
        assert!(kinds.contains(&PanicKind::DivMod));
    }

    #[test]
    fn arith_sites_skip_floats_bounds_and_debug_asserts() {
        let (_, g) = graph_of(&[(
            "crates/rlb-core/src/sim.rs",
            "fn f(a: u32, b: u32, x: f64) -> u32 {\n\
             let c = a + b;\n\
             let d = x * 2.0;\n\
             let e: Box<dyn Fn() + Send> = Box::new(|| {});\n\
             debug_assert!(a + b < 1000);\n\
             c - 1\n}",
        )]);
        let f = node(&g, "f");
        let live: Vec<&ArithSite> = g.arith_sites[f]
            .iter()
            .filter(|s| !s.debug_asserted)
            .collect();
        assert_eq!(live.len(), 2, "{:?}", g.arith_sites[f]);
        assert_eq!(live[0].op, "+");
        assert_eq!(live[1].op, "-");
        assert!(g.arith_sites[f].iter().any(|s| s.debug_asserted));
    }

    #[test]
    fn checked_and_saturating_ops_are_naturally_exempt() {
        let (_, g) = graph_of(&[(
            "crates/rlb-core/src/sim.rs",
            "fn f(a: u32, b: u32) -> u32 { a.checked_add(b).unwrap_or(0).saturating_mul(2) }",
        )]);
        let f = node(&g, "f");
        assert!(g.arith_sites[f].is_empty());
    }

    #[test]
    fn try_sites_are_not_panic_sites() {
        let (_, g) = graph_of(&[(
            "crates/rlb-core/src/sim.rs",
            "fn f(x: Option<u32>) -> Option<u32> { let y = x?; Some(y) }",
        )]);
        let f = node(&g, "f");
        assert!(g.panic_sites[f].is_empty());
    }

    #[test]
    fn file_roots_enumerate_non_test_fns() {
        let (files, g) = graph_of(&[(
            "crates/rlb-serve/src/proto.rs",
            "fn a() {} fn b() {}\n#[cfg(test)]\nmod t { fn c() {} }",
        )]);
        let ids = g.fns_in_file(&files, "crates/rlb-serve/src/proto.rs");
        assert_eq!(ids.len(), 2);
    }
}
