//! A lightweight item parser over the token stream.
//!
//! One brace-tracking pass over a file's [`crate::token::Tokens`]
//! recovers just enough structure for the rule passes: function items
//! (name, enclosing `impl`/`trait` owner, visibility, body token
//! range), `#[cfg(test)]` regions, and the module-level `pub` surface
//! (for the dead-pub pass).
//!
//! Like the tokenizer, this is an *approximation with documented
//! boundaries*, not a Rust parser: each `{` is classified by its
//! header — the tokens since the previous `{`, `}`, or `;` (a `;`
//! inside `[` `]` is an array type's, `[usize; 3]`, and ends nothing) —
//! which is where attributes, `fn` signatures, and `impl` headers
//! necessarily sit. Token-level matching (not substring matching) means
//! `fn_count:` in a struct literal or `HashMap` inside a string can no
//! longer confuse the structural analysis.

use crate::token::{comments_by_line, tokenize, Token, TokenKind, Tokens};

/// A fully parsed file: the unit the rule passes consume. Parsing happens once per file; every pass reads from this.
#[derive(Debug, Clone)]
pub struct ParsedFile {
    /// Workspace-relative path, forward slashes.
    pub rel_path: String,
    /// The raw source.
    pub source: String,
    /// Token stream with line table.
    pub tokens: Tokens,
    /// Structural items (fns, regions, pub surface).
    pub items: FileItems,
    /// Per-line comment text (0-indexed), for `lint:allow` extraction.
    pub comments: Vec<String>,
    /// The comment-free view every pass walks: `code[c]` is the token
    /// index (into `tokens.toks`) of *code position* `c`. Statement
    /// ranges, call sites and bracket matches are all code positions,
    /// read through the cursor methods below.
    pub(crate) code: Vec<usize>,
}

impl ParsedFile {
    /// Tokenizes and item-parses `source`.
    pub fn new(rel_path: &str, source: &str) -> Self {
        let tokens = tokenize(source);
        let items = parse(source, &tokens);
        let comments = comments_by_line(source, &tokens);
        let code = tokens.code_tokens().map(|(i, _)| i).collect();
        ParsedFile {
            rel_path: rel_path.to_string(),
            source: source.to_string(),
            tokens,
            items,
            comments,
            code,
        }
    }

    /// The token at code position `c`.
    pub(crate) fn tok(&self, c: usize) -> &Token {
        &self.tokens.toks[self.code[c]]
    }

    /// Text of the token at code position `c`.
    pub(crate) fn text(&self, c: usize) -> &str {
        self.tok(c).text(&self.source)
    }

    /// Kind of the token at code position `c`.
    pub(crate) fn kind(&self, c: usize) -> TokenKind {
        self.tok(c).kind
    }

    /// Byte offset of the token at code position `c`.
    pub(crate) fn byte(&self, c: usize) -> usize {
        self.tok(c).lo
    }

    /// Is there a token at code position `c`, and is it exactly `s`?
    pub(crate) fn at(&self, c: usize, s: &str) -> bool {
        c < self.code.len() && self.text(c) == s
    }

    /// Code position of the bracket closing the opener at `open`,
    /// looking no further than `hi`. When the range ends before the
    /// close (unbalanced input), clamps to the last position in range
    /// so callers always get a position they may index.
    pub(crate) fn matching(&self, open: usize, hi: usize) -> usize {
        let mut depth = 0usize;
        for c in open..hi {
            match self.text(c) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return c;
                    }
                }
                _ => {}
            }
        }
        hi.saturating_sub(1).max(open)
    }
}

/// The crate name of `crates/<name>/...` paths.
pub(crate) fn crate_of(rel_path: &str) -> Option<&str> {
    rel_path.strip_prefix("crates/")?.split('/').next()
}

/// A function item: free fn, inherent/trait method, or trait default
/// method. Nested `fn`s inside bodies are recorded too (ownerless).
#[derive(Debug, Clone)]
// element of `FileItems::fns`. lint:allow(dead-pub)
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any (`QueueArray` for
    /// `impl QueueArray { fn enqueue … }`).
    pub owner: Option<String>,
    /// `pub` (externally visible; `pub(crate)`/`pub(super)` are not).
    pub is_pub: bool,
    /// Token index range of the body (between the braces, exclusive).
    pub body_toks: (usize, usize),
    /// Whether the item sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

impl FnItem {
    /// `Owner::name` or `name` — how findings name the fn.
    pub fn qname(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A module-level `pub` item (the dead-pub pass's candidate set).
#[derive(Debug, Clone)]
// element of `FileItems::pub_items`. lint:allow(dead-pub)
pub struct PubItem {
    /// What kind of item (`fn`, `struct`, `use`, …) — for messages.
    pub kind: &'static str,
    /// The item's name (for `pub use`, each re-exported leaf).
    pub name: String,
    /// 1-based declaration line.
    pub line: usize,
    /// Enclosing `impl`/`trait` owner for methods/assoc items.
    pub owner: Option<String>,
}

/// Everything the structural pass extracts from one file.
#[derive(Debug, Clone, Default)]
pub struct FileItems {
    /// `#[cfg(test)]` byte ranges (brace to matching brace).
    pub test_ranges: Vec<(usize, usize)>,
    /// All function items, in declaration order.
    pub fns: Vec<FnItem>,
    /// Module-level pub surface (not inside fn bodies or test regions).
    pub pub_items: Vec<PubItem>,
}

impl FileItems {
    /// Is byte offset `pos` inside a `#[cfg(test)]` region?
    pub fn in_test(&self, pos: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(lo, hi)| lo <= pos && pos < hi)
    }

    /// The innermost function whose body tokens contain token index
    /// `ti`, or `None` at module level. ("Innermost" attributes closure
    /// bodies and nested fns to the nested fn, not the outer one.)
    pub fn fn_at(&self, ti: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, f) in self.fns.iter().enumerate() {
            if f.body_toks.0 <= ti && ti < f.body_toks.1 {
                best = match best {
                    Some(b) if self.fns[b].body_toks.0 >= f.body_toks.0 => Some(b),
                    _ => Some(i),
                };
            }
        }
        best
    }
}

/// What a `{` meant, decided from its header tokens.
struct Region {
    byte_start: usize,
    test: bool,
    /// A pending fn item: finalized with its body range at the `}`.
    pending_fn: Option<FnItem>,
    /// `impl Type` / `trait Type` owner for fns declared inside.
    owner: Option<String>,
}

/// Parses `source` (with its token stream) into [`FileItems`].
pub fn parse(source: &str, tokens: &Tokens) -> FileItems {
    let toks = &tokens.toks;
    let mut out = FileItems::default();
    // Header = code-token indices since the last `{`, `}`, or `;`.
    let mut header: Vec<usize> = Vec::new();
    let mut stack: Vec<Region> = Vec::new();
    let mut fn_stack: Vec<usize> = Vec::new(); // indices into out.fns

    for i in 0..toks.len() {
        let t = &toks[i];
        if matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        if t.kind != TokenKind::Punct {
            header.push(i);
            continue;
        }
        // Braces in a `use` tree (`pub use rules::{a, b};`) group paths,
        // not blocks: keep them in the header until the closing `;`
        // (`use` is keyword-only in declarations, so its presence in
        // the header is unambiguous).
        if matches!(t.text(source), "{" | "}")
            && header
                .iter()
                .any(|&j| toks[j].kind == TokenKind::Ident && toks[j].text(source) == "use")
        {
            header.push(i);
            continue;
        }
        match t.text(source) {
            "{" => {
                let in_test_now =
                    stack.iter().any(|r| r.test) || header_is_cfg_test(source, toks, &header);
                let in_fn_body = !fn_stack.is_empty();
                if !in_fn_body && !in_test_now {
                    scan_pub_items(
                        source,
                        toks,
                        &header,
                        tokens,
                        enclosing_owner(&stack),
                        &mut out,
                    );
                }
                let owner = header_impl_or_trait_owner(source, toks, &header)
                    .or_else(|| enclosing_owner(&stack).map(str::to_string));
                let pending_fn = header_fn_item(source, toks, &header).map(|mut f| {
                    f.owner = enclosing_owner(&stack).map(str::to_string);
                    f.in_test = in_test_now;
                    f
                });
                if pending_fn.is_some() {
                    // Reserve the slot now so fn_at nesting works via
                    // body ranges alone; body range set at the `}`.
                    fn_stack.push(out.fns.len());
                    let mut f = pending_fn.clone().expect("just checked");
                    f.body_toks = (i + 1, usize::MAX);
                    out.fns.push(f);
                }
                stack.push(Region {
                    byte_start: t.lo,
                    test: in_test_now,
                    pending_fn,
                    owner,
                });
                header.clear();
            }
            "}" => {
                if let Some(r) = stack.pop() {
                    if r.test && !stack.iter().any(|x| x.test) {
                        out.test_ranges.push((r.byte_start, t.lo));
                    }
                    if r.pending_fn.is_some() {
                        if let Some(fi) = fn_stack.pop() {
                            out.fns[fi].body_toks.1 = i;
                        }
                    }
                }
                header.clear();
            }
            // A `;` inside `[` `]` belongs to an array type or a repeat
            // expression (`-> [usize; 3]`, `[0u8; 4]`): ending the header
            // there dropped every `fn` with an array in its signature,
            // and the sites in its body went unchecked.
            ";" if header_has_open_square(source, toks, &header) => header.push(i),
            ";" => {
                let in_test_now = stack.iter().any(|r| r.test);
                if fn_stack.is_empty() && !in_test_now {
                    scan_pub_items(
                        source,
                        toks,
                        &header,
                        tokens,
                        enclosing_owner(&stack),
                        &mut out,
                    );
                }
                header.clear();
            }
            _ => header.push(i),
        }
    }
    // Unclosed regions (EOF inside a block) extend to the end.
    let len = source.len();
    for r in stack {
        if r.test {
            out.test_ranges.push((r.byte_start, len));
        }
    }
    for fi in fn_stack {
        out.fns[fi].body_toks.1 = toks.len();
    }
    out
}

/// The owner type of the innermost enclosing `impl`/`trait` region.
fn enclosing_owner(stack: &[Region]) -> Option<&str> {
    stack.iter().rev().find_map(|r| r.owner.as_deref())
}

/// More `[` than `]` in the header?
fn header_has_open_square(source: &str, toks: &[Token], header: &[usize]) -> bool {
    let count = |p: &str| {
        header
            .iter()
            .filter(|&&j| toks[j].text(source) == p)
            .count()
    };
    count("[") > count("]")
}

/// `#[cfg(test)]` or `#[cfg(all(test, …))]` in the header?
fn header_is_cfg_test(source: &str, toks: &[Token], header: &[usize]) -> bool {
    for (k, &hi) in header.iter().enumerate() {
        if toks[hi].text(source) != "cfg" {
            continue;
        }
        let t = |off: usize| {
            header
                .get(k + off)
                .map(|&j| toks[j].text(source))
                .unwrap_or("")
        };
        if t(1) == "(" && (t(2) == "test" || (t(2) == "all" && t(3) == "(" && t(4) == "test")) {
            return true;
        }
    }
    false
}

/// If the header declares a function with a braced body, its item
/// (owner/test flags filled in by the caller).
fn header_fn_item(source: &str, toks: &[Token], header: &[usize]) -> Option<FnItem> {
    let fn_at = header
        .iter()
        .position(|&j| toks[j].kind == TokenKind::Ident && toks[j].text(source) == "fn")?;
    let name_i = *header.get(fn_at + 1)?;
    if toks[name_i].kind != TokenKind::Ident {
        return None;
    }
    let name = toks[name_i].text(source).to_string();
    // Find the parameter list: skip a generic intro `<…>` after the
    // name, then expect `(`.
    let mut k = fn_at + 2;
    if header.get(k).is_some_and(|&j| toks[j].text(source) == "<") {
        let mut depth = 0i32;
        while k < header.len() {
            depth += angle_delta(toks[header[k]].text(source));
            k += 1;
            if depth <= 0 {
                break;
            }
        }
    }
    if header.get(k).is_none_or(|&j| toks[j].text(source) != "(") {
        return None;
    }
    Some(FnItem {
        name,
        owner: None,
        is_pub: header_is_pub(source, toks, &header[..fn_at]),
        body_toks: (0, 0),
        in_test: false,
    })
}

/// A bare `pub` (not `pub(crate)`/`pub(super)`) among these tokens?
fn header_is_pub(source: &str, toks: &[Token], header: &[usize]) -> bool {
    for (k, &j) in header.iter().enumerate() {
        if toks[j].text(source) == "pub" {
            let next = header.get(k + 1).map(|&n| toks[n].text(source));
            return next != Some("(");
        }
    }
    false
}

/// `impl`/`trait` header → owner type name. `impl<T> Queue<T>` →
/// `Queue`; `impl fmt::Display for Frame` → `Frame`; `trait Rng` →
/// `Rng`. Returns the last angle-depth-0 identifier of the type
/// segment (after `for` when present, truncated at `where`).
fn header_impl_or_trait_owner(source: &str, toks: &[Token], header: &[usize]) -> Option<String> {
    let kw = header.iter().position(|&j| {
        toks[j].kind == TokenKind::Ident && matches!(toks[j].text(source), "impl" | "trait")
    })?;
    if toks[header[kw]].text(source) == "trait" {
        let name_i = *header.get(kw + 1)?;
        if toks[name_i].kind == TokenKind::Ident {
            return Some(toks[name_i].text(source).to_string());
        }
        return None;
    }
    // impl: skip a generic intro right after the keyword.
    let mut k = kw + 1;
    if header.get(k).is_some_and(|&j| toks[j].text(source) == "<") {
        let mut depth = 0i32;
        while k < header.len() {
            depth += angle_delta(toks[header[k]].text(source));
            k += 1;
            if depth <= 0 {
                break;
            }
        }
    }
    // Segment after a depth-0 `for`, else the whole rest; stop at a
    // depth-0 `where`.
    let mut seg_start = k;
    let mut depth = 0i32;
    for m in k..header.len() {
        let s = toks[header[m]].text(source);
        if depth == 0 && s == "for" {
            seg_start = m + 1;
        }
        depth += angle_delta(s);
    }
    let mut owner = None;
    depth = 0;
    for m in seg_start..header.len() {
        let s = toks[header[m]].text(source);
        if depth == 0 && s == "where" {
            break;
        }
        if depth == 0 && toks[header[m]].kind == TokenKind::Ident && s != "dyn" {
            owner = Some(s.to_string());
        }
        depth += angle_delta(s);
    }
    owner
}

fn angle_delta(s: &str) -> i32 {
    match s {
        "<" => 1,
        "<<" => 2,
        ">" => -1,
        ">>" => -2,
        _ => 0,
    }
}

/// Records module-level `pub` declarations from a header: `pub fn f`,
/// `pub struct S`, `pub use a::{b, c}`, … Glob re-exports (`pub use
/// m::*`) are skipped — the dead-pub pass documents that boundary.
fn scan_pub_items(
    source: &str,
    toks: &[Token],
    header: &[usize],
    tokens: &Tokens,
    owner: Option<&str>,
    out: &mut FileItems,
) {
    const DECLS: &[&str] = &[
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union", "use",
    ];
    for (k, &j) in header.iter().enumerate() {
        if toks[j].kind != TokenKind::Ident || toks[j].text(source) != "pub" {
            continue;
        }
        // `pub(crate)` / `pub(super)` / `pub(in …)` are not external
        // surface.
        let mut m = k + 1;
        if header.get(m).is_some_and(|&n| toks[n].text(source) == "(") {
            return;
        }
        // Skip modifiers between `pub` and the declarator.
        while header
            .get(m)
            .is_some_and(|&n| matches!(toks[n].text(source), "async" | "unsafe" | "extern"))
        {
            m += 1;
        }
        let Some(&decl_i) = header.get(m) else { return };
        let decl = toks[decl_i].text(source);
        if !DECLS.contains(&decl) {
            return; // e.g. a `pub field: u32` struct field
        }
        let decl: &'static str = DECLS
            .iter()
            .find(|d| **d == toks[decl_i].text(source))
            .expect("just matched");
        if decl == "use" {
            scan_pub_use_leaves(source, toks, &header[m + 1..], tokens, out);
            return;
        }
        let Some(&name_i) = header.get(m + 1) else {
            return;
        };
        if toks[name_i].kind != TokenKind::Ident {
            return;
        }
        out.pub_items.push(PubItem {
            kind: decl,
            name: toks[name_i].text(source).to_string(),
            line: tokens.line_of(toks[name_i].lo),
            owner: owner.map(str::to_string),
        });
        return;
    }
}

/// The re-exported leaves of a `pub use` tree: idents not followed by
/// `::` and not shadowed by an `as` rename (`a::b as c` exports `c`).
fn scan_pub_use_leaves(
    source: &str,
    toks: &[Token],
    rest: &[usize],
    tokens: &Tokens,
    out: &mut FileItems,
) {
    for (k, &j) in rest.iter().enumerate() {
        if toks[j].kind != TokenKind::Ident {
            continue;
        }
        let name = toks[j].text(source);
        if matches!(name, "self" | "crate" | "super" | "as") {
            continue;
        }
        let next = rest.get(k + 1).map(|&n| toks[n].text(source));
        let prev = k.checked_sub(1).map(|p| toks[rest[p]].text(source));
        // `x as y`: x is a path segment, y is the exported leaf.
        if next == Some("::") || next == Some("as") {
            continue;
        }
        if prev == Some("as") || !matches!(next, Some(",") | Some("}") | None) {
            // Renames are leaves; anything else mid-path is not.
            if prev != Some("as") {
                continue;
            }
        }
        out.pub_items.push(PubItem {
            kind: "use",
            name: name.to_string(),
            line: tokens.line_of(toks[j].lo),
            owner: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::tokenize;

    fn parse_src(src: &str) -> FileItems {
        parse(src, &tokenize(src))
    }

    #[test]
    fn free_fns_and_methods_are_indexed() {
        let src = "pub fn free(x: u32) -> u32 { x }\n\
                   impl QueueArray {\n    pub fn enqueue(&mut self, c: u32) { self.n += 1; }\n\
                   fn helper() {}\n}\n\
                   impl fmt::Display for Frame { fn fmt(&self, f: &mut F) -> R { todo!() } }\n";
        let items = parse_src(src);
        let names: Vec<String> = items.fns.iter().map(|f| f.qname()).collect();
        assert_eq!(
            names,
            [
                "free",
                "QueueArray::enqueue",
                "QueueArray::helper",
                "Frame::fmt"
            ]
        );
        assert!(items.fns[0].is_pub && items.fns[1].is_pub);
        assert!(!items.fns[2].is_pub && !items.fns[3].is_pub);
    }

    #[test]
    fn generic_impls_and_where_clauses_resolve_owner() {
        let src = "impl<T: Clone> Stack<T> where T: Default { fn push(&mut self, t: T) {} }\n\
                   impl<'a> Iterator for Iter<'a> { fn next(&mut self) -> Option<u32> { None } }";
        let items = parse_src(src);
        let names: Vec<String> = items.fns.iter().map(|f| f.qname()).collect();
        assert_eq!(names, ["Stack::push", "Iter::next"]);
    }

    #[test]
    fn trait_blocks_own_their_default_methods() {
        let src = "pub trait Rng { fn gen_range(&mut self, n: u64) -> u64 { 0 } }";
        let items = parse_src(src);
        assert_eq!(items.fns[0].qname(), "Rng::gen_range");
        assert_eq!(items.pub_items[0].name, "Rng");
        assert_eq!(items.pub_items[0].kind, "trait");
    }

    #[test]
    fn nested_fns_attribute_to_the_innermost() {
        let src = "fn outer() { fn inner(x: u32) -> u32 { x + 1 } inner(3); }";
        let items = parse_src(src);
        assert_eq!(items.fns.len(), 2);
        let t = tokenize(src);
        // Token index of the `+` sits inside inner's body.
        let plus = t
            .toks
            .iter()
            .position(|tk| tk.text(src) == "+")
            .expect("plus");
        let f = items.fn_at(plus).expect("in a fn");
        assert_eq!(items.fns[f].name, "inner");
    }

    #[test]
    fn cfg_test_regions_and_test_fns() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let items = parse_src(src);
        assert!(!items.fns[0].in_test);
        assert!(items.fns[1].in_test);
        assert_eq!(items.test_ranges.len(), 1);
    }

    #[test]
    fn pub_surface_is_collected_at_module_level_only() {
        let src = "pub struct Frame { pub len: u32 }\n\
                   pub const MAX: usize = 4;\n\
                   pub(crate) fn internal() {}\n\
                   pub use rules::{lint_source, Finding as F, seen::*};\n\
                   fn body() { pub fn not_really_scanned() {} let x = 1; }\n\
                   pub mod token;\n";
        let items = parse_src(src);
        let got: Vec<(&str, &str)> = items
            .pub_items
            .iter()
            .map(|p| (p.kind, p.name.as_str()))
            .collect();
        assert_eq!(
            got,
            [
                ("struct", "Frame"),
                ("const", "MAX"),
                ("use", "lint_source"),
                ("use", "F"),
                ("mod", "token"),
            ],
            "{got:?}"
        );
    }

    #[test]
    fn pub_methods_carry_their_owner() {
        let src = "impl Histogram { pub fn record(&mut self, v: u64) { self.n += 1; } }";
        let items = parse_src(src);
        assert_eq!(items.pub_items.len(), 1);
        assert_eq!(items.pub_items[0].owner.as_deref(), Some("Histogram"));
        assert_eq!(items.pub_items[0].name, "record");
    }

    #[test]
    fn bracket_matcher_nests_and_clamps() {
        // 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15
        // f ( a [ 1 ] , { ( b )  }  )  +  g  (
        let pf = ParsedFile::new("crates/x/src/lib.rs", "f(a[1], { (b) }) + g(");
        let n = pf.code.len();
        assert_eq!(n, 16);
        // Nested mixed brackets: each opener finds its own close.
        assert_eq!(pf.matching(1, n), 12);
        assert_eq!(pf.matching(3, n), 5);
        assert_eq!(pf.matching(7, n), 11);
        // The range ends before the close: clamped to its last position.
        assert_eq!(pf.matching(1, 9), 8);
        // An opener at `hi - 1` (here also the unclosed `g(`): itself.
        assert_eq!(pf.matching(15, n), 15);
        assert_eq!(pf.matching(1, 2), 1);
    }

    #[test]
    fn struct_literals_do_not_confuse_the_parser() {
        let src = "fn f() { let s = Config { fn_count: 3, impl_kind: 4 }; s.go(); }";
        let items = parse_src(src);
        assert_eq!(items.fns.len(), 1);
        assert_eq!(items.fns[0].name, "f");
    }
}
