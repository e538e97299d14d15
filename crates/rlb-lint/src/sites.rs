//! Where a function body can panic or wrap: the site scan behind the
//! `panic-path` and `unchecked-arith` rules.
//!
//! One walk over a file's code tokens files every site under the
//! innermost fn whose body holds it: panic sites (`unwrap`/`expect`/
//! panic macros/indexing/slice patterns/`/`-`%`) and bare-arithmetic
//! sites (`+ - * <<` and their compound assignments). `?` propagates
//! errors, not panics, so a try site is not a panic site.
//!
//! Both rules cover a list of files (`rules::ENGINE_PATH`) and check
//! every non-test fn in them where it is defined. No call is followed:
//! a fn outside the list is not checked however it is reached, and a
//! fn inside it is checked whoever calls it.

use crate::items::{FnItem, ParsedFile};
use crate::rules::{emit_at, Finding, Suppressions};
use crate::token::TokenKind;
use std::collections::{BTreeMap, BTreeSet};

/// What kind of potentially-panicking site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum PanicKind {
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
    fn label(self) -> &'static str {
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
pub(crate) struct PanicSite {
    /// Which kind.
    pub(crate) kind: PanicKind,
    /// Byte offset of the site's token.
    pub(crate) pos: usize,
}

/// A bare-arithmetic site inside a function body.
#[derive(Debug, Clone)]
pub(crate) struct ArithSite {
    /// The operator (`+`, `<<=`, …).
    pub(crate) op: &'static str,
    /// Byte offset of the operator.
    pub(crate) pos: usize,
    /// Inside a `debug_assert*!(..)` argument (exempt: compiled out in
    /// release, and the assert *is* the overflow justification).
    pub(crate) debug_asserted: bool,
}

/// The sites of one function, in source order.
#[derive(Debug, Clone, Default)]
pub(crate) struct FnSites {
    /// Potentially-panicking sites.
    pub(crate) panics: Vec<PanicSite>,
    /// Bare-arithmetic sites.
    pub(crate) arith: Vec<ArithSite>,
}

/// `panic-path`: one finding per (fn, panic kind), anchored at the
/// kind's first site so suppressions stay site-specific and rot when
/// sites move.
pub(crate) fn panic_path(pf: &ParsedFile, allow: &Suppressions, findings: &mut Vec<Finding>) {
    for (f, sites) in checked_fns(pf) {
        let mut by_kind: BTreeMap<PanicKind, Vec<usize>> = BTreeMap::new();
        for s in &sites.panics {
            by_kind.entry(s.kind).or_default().push(s.pos);
        }
        for (kind, sites) in by_kind {
            let message = format!(
                "{} at {} in `{}`: make the path infallible, propagate an error, or justify \
                 with `lint:allow(panic-path)`",
                kind.label(),
                lines_of(sites.iter().map(|&pos| pf.tokens.line_of(pos))),
                f.qname(),
            );
            emit_at(findings, pf, allow, sites[0], "panic-path", message);
        }
    }
}

/// `unchecked-arith`: one finding per fn, anchored at its first bare
/// operator outside a `debug_assert!`.
pub(crate) fn unchecked_arith(pf: &ParsedFile, allow: &Suppressions, findings: &mut Vec<Finding>) {
    for (f, sites) in checked_fns(pf) {
        let live: Vec<_> = sites.arith.iter().filter(|s| !s.debug_asserted).collect();
        if let Some(anchor) = live.first() {
            let ops: BTreeSet<&str> = live.iter().map(|s| s.op).collect();
            let message = format!(
                "bare `{}` integer arithmetic at {} in `{}`: use \
                 checked_*/saturating_*/wrapping_* (or debug_assert! the bounds), or justify \
                 with `lint:allow(unchecked-arith)`",
                ops.into_iter().collect::<Vec<_>>().join("` `"),
                lines_of(live.iter().map(|s| pf.tokens.line_of(s.pos))),
                f.qname(),
            );
            emit_at(findings, pf, allow, anchor.pos, "unchecked-arith", message);
        }
    }
}

/// Every non-test fn of the file, with its sites.
fn checked_fns(pf: &ParsedFile) -> impl Iterator<Item = (&FnItem, FnSites)> {
    pf.items
        .fns
        .iter()
        .zip(scan(pf))
        .filter(|(f, _)| !f.in_test)
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

/// Walks one file's code once: `scan(pf)[i]` holds the sites of
/// `pf.items.fns[i]`. Tokens outside every fn body (consts, statics)
/// belong to no fn and are not scanned.
pub(crate) fn scan(pf: &ParsedFile) -> Vec<FnSites> {
    let mut fns = vec![FnSites::default(); pf.items.fns.len()];
    // debug_assert*!(..) argument byte spans.
    let da_spans = debug_assert_spans(pf);

    for p in 0..pf.code.len() {
        let Some(item) = pf.items.fn_at(pf.code[p]) else {
            continue;
        };
        let sites = &mut fns[item];
        let pos = pf.byte(p);
        let prev = p.checked_sub(1).map(|q| pf.text(q));
        let next = (p + 1 < pf.code.len()).then(|| pf.text(p + 1));
        let prev_is_value = match p.checked_sub(1).map(|q| pf.kind(q)) {
            Some(TokenKind::Ident) => is_value_ident(prev.unwrap_or("")),
            Some(TokenKind::Int | TokenKind::Float | TokenKind::Str | TokenKind::Char) => true,
            Some(TokenKind::Punct) => matches!(prev, Some(")") | Some("]")),
            _ => false,
        };
        let mut panic_site = |kind| sites.panics.push(PanicSite { kind, pos });

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
                // A `.unwrap()` / `.expect(` call is a panic site; no
                // other call is followed.
                match (prev, name, next) {
                    (Some("."), "unwrap", Some("(")) => panic_site(PanicKind::Unwrap),
                    (Some("."), "expect", Some("(")) => panic_site(PanicKind::Expect),
                    _ => {}
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
                        sites.arith.push(ArithSite {
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
    fns
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
    use crate::lint_source;

    /// The sites of the one fn in `src`.
    fn sites_of(src: &str) -> FnSites {
        let pf = ParsedFile::new("crates/rlb-core/src/sim.rs", src);
        let mut fns = scan(&pf);
        assert_eq!(fns.len(), 1, "{src}");
        fns.remove(0)
    }

    /// A file both rules cover.
    const SCOPED: &str = "crates/rlb-serve/src/proto.rs";

    #[test]
    fn panic_sites_are_classified() {
        let sites = sites_of(
            "fn f(v: &[u32], x: Option<u32>, n: u32) -> u32 {\n\
             let a = x.unwrap();\n\
             let b = x.expect(\"m\");\n\
             if n == 0 { panic!(\"n\"); }\n\
             let c = v[0];\n\
             let [d, e] = v else { unreachable!() };\n\
             a + b + c + d + e + n / 2\n}",
        );
        let kinds: Vec<PanicKind> = sites.panics.iter().map(|s| s.kind).collect();
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
        let sites = sites_of(
            "fn f(a: u32, b: u32, x: f64) -> u32 {\n\
             let c = a + b;\n\
             let d = x * 2.0;\n\
             let e: Box<dyn Fn() + Send> = Box::new(|| {});\n\
             debug_assert!(a + b < 1000);\n\
             c - 1\n}",
        );
        let live: Vec<&ArithSite> = sites.arith.iter().filter(|s| !s.debug_asserted).collect();
        assert_eq!(live.len(), 2, "{:?}", sites.arith);
        assert_eq!(live[0].op, "+");
        assert_eq!(live[1].op, "-");
        assert!(sites.arith.iter().any(|s| s.debug_asserted));
    }

    #[test]
    fn checked_and_saturating_ops_are_naturally_exempt() {
        let sites = sites_of(
            "fn f(a: u32, b: u32) -> u32 { a.checked_add(b).unwrap_or(0).saturating_mul(2) }",
        );
        assert!(sites.arith.is_empty());
    }

    #[test]
    fn try_sites_are_not_panic_sites() {
        let sites = sites_of("fn f(x: Option<u32>) -> Option<u32> { let y = x?; Some(y) }");
        assert!(sites.panics.is_empty());
    }

    #[test]
    fn every_fn_in_a_scoped_file_is_checked_and_others_are_not() {
        let src = "fn a(x: Option<u32>) -> u32 { x.unwrap() }\nfn b() {}\n\
                   fn c(x: Option<u32>) -> u32 { x.unwrap() + x.unwrap() }\n";
        let f = lint_source(SCOPED, src);
        let found: Vec<(&str, usize)> = f.iter().map(|x| (x.rule, x.line)).collect();
        assert_eq!(
            found,
            [("panic-path", 1), ("panic-path", 3), ("unchecked-arith", 3)],
            "{f:?}"
        );
        assert!(f[1].message.contains("in `c`"), "{}", f[1].message);
        assert!(lint_source("crates/rlb-core/src/policies/greedy.rs", src).is_empty());
    }

    #[test]
    fn one_finding_per_fn_and_kind_at_its_first_site() {
        let f = lint_source(
            SCOPED,
            "fn f(v: &[u8], x: Option<u8>) -> u8 {\n\
             let a = v[0];\n\
             let b = v[1] + x.unwrap();\n\
             a / b\n}\n",
        );
        let found: Vec<(&str, usize)> = f.iter().map(|x| (x.rule, x.line)).collect();
        assert_eq!(
            found,
            [
                ("panic-path", 2),
                ("unchecked-arith", 3),
                ("panic-path", 3),
                ("panic-path", 4)
            ],
            "{f:?}"
        );
        assert!(f[0].message.contains("lines 2, 3"), "{}", f[0].message);
    }

    #[test]
    fn suppression_at_first_site_line_works() {
        let f = lint_source(
            SCOPED,
            "fn decode(b: &[u8]) -> u8 {\n\
             // length checked by caller. lint:allow(panic-path)\n\
             b[0]\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn arith_is_reported_once_and_debug_assert_exempts() {
        let f = lint_source(
            SCOPED,
            "fn decode(a: u32, b: u32) -> u32 { debug_assert!(a + b < 100); a + b }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unchecked-arith");
        assert!(f[0].message.contains("in `decode`"), "{}", f[0].message);
    }

    #[test]
    fn test_fns_are_not_checked() {
        let src =
            "fn f() {}\n#[cfg(test)]\nmod t { fn g(x: Option<u32>) -> u32 { x.unwrap() + 1 } }";
        assert!(lint_source(SCOPED, src).is_empty());
    }
}
