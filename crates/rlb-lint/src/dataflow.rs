//! Tier 3, layer 2: worklist taint dataflow over the per-function
//! CFGs, powering the `untrusted-input` rule.
//!
//! One engine carries the taint as bits in a small lattice:
//!
//! - `UNTRUSTED` — a value decoded from wire bytes in rlb-serve
//!   (`from_le_bytes` on read buffers). It must pass a recognized
//!   validation (comparison against a `MAX_*`/`.len()` bound, ordering
//!   comparison against a literal — `n == 0` bounds nothing —
//!   a `checked_*`/`saturating_*`/`try_from` operation, `.min(`/
//!   `.clamp(`, or a range-bounding `%`/`&`) before reaching an
//!   allocation (`with_capacity`/`reserve`/`vec![_; n]`), a slice
//!   index, or bare arithmetic.
//! - Eight per-parameter bits track pass-independent param-to-return
//!   and param-to-sink flow, giving interprocedural summaries: each
//!   function's [`Summary`] (which source/param bits its return value
//!   may carry, and which parameters reach sinks inside it) is
//!   computed to fixpoint over the call graph, then applied at call
//!   sites during a final reporting pass. Provenance strings ride
//!   along (`` wire bytes (`from_le_bytes`, proto.rs:446) -> returned
//!   by `read_u32` -> `declared` ``), so a finding shows the whole
//!   flow.
//!
//! Approximation boundaries (the honest list, like `callgraph.rs`):
//!
//! - **Path-insensitive.** States join at CFG merge points; a guard
//!   comparison (`if len > MAX { … }`) validates its variable for
//!   *both* branches from there on. This trades a class of
//!   early-return misuses for zero false positives on the dominant
//!   check-then-use shape.
//! - **Aggregates are opaque.** Taint does not enter a constructed
//!   struct literal's value, does not come back out of a field read,
//!   and match-pattern bindings start clean (scrutinee-to-binding
//!   flow is not tracked). Tuple-struct wrappers (`Ok(x)`, `Some(x)`)
//!   *are* transparent — that is how decode results travel.
//! - **Variables are names.** No aliasing, no tracking through
//!   containers; `let` rebinding overwrites, compound assignment
//!   unions.
//! - **Arity-8 summaries, flat argument scan.** Only the first eight
//!   parameters get bits, and a call argument's taint is read from
//!   the tokens of the argument expression (variables and direct
//!   sources; nested calls inside arguments are not re-summarized).
//! - Arithmetic sinks trigger on a tainted identifier directly
//!   adjacent to `+ - * <<` (or a tainted right-hand side of
//!   `+= -= *= <<=`); composite operands hide behind parentheses.
//!
//! `tests/seeded_bugs.rs` pins caught violations with full provenance,
//! plus clean negatives for each escape hatch.

use std::collections::BTreeMap;

use crate::callgraph::{self, CallGraph, Resolution, Resolver};
use crate::cfg::{FileCfgs, Stmt};
use crate::items::{FnItem, ParsedFile};
use crate::rules::{self, Finding, Suppressions};
use crate::token::TokenKind;
use crate::LintStats;

/// Taint bit: decoded wire bytes (rlb-serve).
const UNTRUSTED: u32 = 1;
/// Parameter `i` (0-based, `i < MAX_PARAMS`) carries bit `PARAM0 << i`.
const PARAM0: u32 = 2;
const MAX_PARAMS: usize = 8;

fn param_bit(i: usize) -> u32 {
    PARAM0 << i
}

/// Crates whose `from_le_bytes` results are untrusted wire input.
const UNTRUSTED_SOURCE_CRATES: &[&str] = &["rlb-serve"];

/// A variable's abstract value: taint bits plus how they got there.
#[derive(Debug, Clone, PartialEq, Eq)]
struct VarT {
    mask: u32,
    prov: String,
}

/// Per-block dataflow state. The pseudo-variable `"«ret»"` collects
/// return-value taint (no Rust identifier can collide with it).
type State = BTreeMap<String, VarT>;

const RET: &str = "\u{ab}ret\u{bb}";

/// Joins `src` into `dst`; true if `dst` grew. Provenance keeps the
/// first writer (monotone, so the fixpoint terminates).
fn join(dst: &mut State, src: &State) -> bool {
    let mut changed = false;
    for (k, v) in src {
        match dst.get_mut(k) {
            Some(d) => {
                if d.mask | v.mask != d.mask {
                    d.mask |= v.mask;
                    changed = true;
                }
            }
            None => {
                dst.insert(k.clone(), v.clone());
                changed = true;
            }
        }
    }
    changed
}

/// What a tainted value must not reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum SinkKind {
    /// `with_capacity(n)` / `reserve(n)` / `vec![x; n]`.
    Alloc,
    /// `buf[i]` / `&buf[..i]`.
    Index,
    /// Bare `+ - * <<` (or compound) on the tainted value.
    Arith,
}

impl SinkKind {
    fn what(self) -> &'static str {
        match self {
            SinkKind::Alloc => "an allocation size",
            SinkKind::Index => "a slice index",
            SinkKind::Arith => "bare arithmetic",
        }
    }
}

/// One parameter-reaches-sink fact in a function summary.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ParamSink {
    param: usize,
    kind: SinkKind,
    /// `file.rs:line` of the sink, plus the hop chain that led there.
    site: String,
}

/// Interprocedural facts about one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Summary {
    /// Source bits (`UNTRUSTED`) the return value may carry.
    ret_src: u32,
    /// Param bits the return value may carry (param-to-return flow).
    ret_params: u32,
    /// Provenance for `ret_src`.
    ret_prov: String,
    /// Parameters that reach a sink inside this function (capped).
    param_sinks: Vec<ParamSink>,
}

/// Runs CFG construction and the taint pass over the linted files.
/// `allows` is parallel to `files`.
pub(crate) fn run(
    files: &[ParsedFile],
    allows: &[Suppressions],
    graph: &CallGraph,
    resolver: &Resolver<'_>,
    findings: &mut Vec<Finding>,
    stats: &mut LintStats,
) {
    let cfgs: Vec<FileCfgs> = files.iter().map(crate::cfg::build_file).collect();
    for fc in &cfgs {
        for (_, cfg) in &fc.cfgs {
            stats.cfg_blocks += cfg.blocks.len();
            stats.cfg_edges += cfg.edge_count();
        }
    }
    count_sources(files, stats);

    // node id -> (file index, index into that file's cfgs)
    let mut node_of: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for (id, n) in graph.nodes.iter().enumerate() {
        node_of.insert((n.file, n.item), id);
    }
    let mut cfg_of: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
    for (fi, fc) in cfgs.iter().enumerate() {
        for (ci, (item, _)) in fc.cfgs.iter().enumerate() {
            if let Some(&node) = node_of.get(&(fi, *item)) {
                cfg_of.insert(node, (fi, ci));
            }
        }
    }
    let params: Vec<Vec<String>> = (0..graph.nodes.len())
        .map(|n| {
            cfg_of
                .get(&n)
                .map(|&(fi, _)| param_names(&files[fi], &files[fi].items.fns[graph.nodes[n].item]))
                .unwrap_or_default()
        })
        .collect();

    let mut eng = Engine {
        files,
        cfgs: &cfgs,
        resolver,
        cfg_of,
        params,
        summaries: vec![Summary::default(); graph.nodes.len()],
        allows,
    };

    // Summary fixpoint over the call graph: monotone in the bit
    // masks and the (capped, deduped) param-sink sets, so this
    // terminates; the round cap is a defensive bound on chain depth.
    for _ in 0..12 {
        let mut changed = false;
        for n in 0..graph.nodes.len() {
            if !eng.cfg_of.contains_key(&n) {
                continue;
            }
            let s = eng.analyze(n, None);
            if s != eng.summaries[n] {
                eng.summaries[n] = s;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Final reporting pass with stable summaries.
    let mut out: Vec<Finding> = Vec::new();
    for n in 0..graph.nodes.len() {
        if eng.cfg_of.contains_key(&n) {
            eng.analyze(n, Some(&mut out));
        }
    }
    out.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule, &a.message)
            .cmp(&(&b.file, b.line, b.col, b.rule, &b.message))
    });
    out.dedup();
    findings.extend(out);
}

/// Raw source-site statistics, counted independently of the analysis
/// so the CI vacuity pins cannot be blinded by plumbing regressions.
fn count_sources(files: &[ParsedFile], stats: &mut LintStats) {
    for pf in files {
        let krate = pf.crate_name();
        if !UNTRUSTED_SOURCE_CRATES.contains(&krate) {
            continue;
        }
        for c in 0..pf.code.len() {
            if pf.at(c, "from_le_bytes") && pf.at(c + 1, "(") && !pf.items.in_test(pf.byte(c)) {
                stats.untrusted_sources += 1;
                *stats
                    .untrusted_sources_by_crate
                    .entry(krate.to_string())
                    .or_default() += 1;
            }
        }
    }
}

/// Extracts up to [`MAX_PARAMS`] parameter names of `item` by walking
/// its signature backwards from the body brace.
fn param_names(pf: &ParsedFile, item: &FnItem) -> Vec<String> {
    // Code position of the body `{` = last code token before the body.
    let body_lo = pf.code_range(item.body_toks).0;
    // Reverse scan to the `fn` keyword at reverse bracket depth 0.
    let mut c = body_lo.saturating_sub(1); // the `{`
    let mut d = 0i32;
    let fn_pos = loop {
        if c == 0 {
            return Vec::new();
        }
        c -= 1;
        match pf.text(c) {
            ")" | "]" | "}" => d += 1,
            "(" | "[" | "{" => d -= 1,
            "fn" if d <= 0 => break c,
            _ => {}
        }
    };
    // Forward: name, optional generics (angle-tracked), then `(`.
    let mut open = fn_pos + 2; // skip `fn name`
    let mut angle = 0i32;
    while open < body_lo {
        match pf.text(open) {
            "<" => angle += 1,
            ">" => angle -= 1,
            "<<" => angle += 2,
            ">>" => angle -= 2,
            "(" if angle <= 0 => break,
            _ => {}
        }
        open += 1;
    }
    if open >= body_lo {
        return Vec::new();
    }
    // Per parameter: the lowercase idents before its `:` are the
    // binding (patterns bind several; `self` has no `:` and binds
    // none).
    let mut names = Vec::new();
    for (lo, hi) in arg_ranges(pf, open, pf.matching(open, body_lo)) {
        let colon = pf.depth0(lo, hi, |t| t == ":").unwrap_or(lo);
        let bound: Vec<&str> = (lo..colon)
            .filter(|&k| binds(pf, k) && pf.text(k) != "self")
            .map(|k| pf.text(k))
            .collect();
        if !bound.is_empty() && names.len() < MAX_PARAMS {
            names.push(bound.join("+"));
        }
    }
    names
}

/// Is the token at `c` a name a pattern could bind: a lowercase,
/// non-keyword identifier?
fn binds(pf: &ParsedFile, c: usize) -> bool {
    let t = pf.text(c);
    pf.kind(c) == TokenKind::Ident
        && t.starts_with(|ch: char| ch.is_ascii_lowercase())
        && callgraph::is_value_ident(t)
}

/// Argument ranges of a call: `open` is the `(`, `close` its match;
/// split at depth-1 commas.
fn arg_ranges(pf: &ParsedFile, open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut args = Vec::new();
    let mut d = 0usize;
    let mut start = open + 1;
    for c in open..=close {
        match pf.text(c) {
            "(" | "[" | "{" => d += 1,
            ")" | "]" | "}" => {
                d = d.saturating_sub(1);
                if d == 0 && c > start {
                    args.push((start, c));
                }
            }
            "," if d == 1 => {
                args.push((start, c));
                start = c + 1;
            }
            _ => {}
        }
    }
    args
}

struct Engine<'a> {
    files: &'a [ParsedFile],
    cfgs: &'a [FileCfgs],
    resolver: &'a Resolver<'a>,
    cfg_of: BTreeMap<usize, (usize, usize)>,
    /// Per node: parameter binding names (a pattern param joins its
    /// idents with `+`, and every piece gets the bit).
    params: Vec<Vec<String>>,
    summaries: Vec<Summary>,
    allows: &'a [Suppressions],
}

/// Per-function context during one analysis.
struct FnCtx<'a> {
    pf: &'a ParsedFile,
    node: usize,
    file: usize,
    krate: String,
}

impl FnCtx<'_> {
    /// `file.rs:line` of code position `c`, for provenance chains.
    fn site(&self, c: usize) -> String {
        let short = self.pf.rel_path.rsplit('/').next().unwrap_or("");
        format!("{short}:{}", self.pf.line(c))
    }
}

impl<'a> Engine<'a> {
    /// Analyzes fn node `n` to a local fixpoint; returns its summary.
    /// With `out`, also emits findings (the final reporting pass).
    fn analyze(&self, n: usize, out: Option<&mut Vec<Finding>>) -> Summary {
        let (fi, ci) = self.cfg_of[&n];
        let pf = &self.files[fi];
        let cfg = &self.cfgs[fi].cfgs[ci].1;
        let ctx = FnCtx {
            pf,
            node: n,
            file: fi,
            krate: pf.crate_name().to_string(),
        };
        let mut summary = Summary::default();
        let mut in_states: Vec<Option<State>> = vec![None; cfg.blocks.len()];
        let mut entry = State::new();
        for (i, name) in self.params[n].iter().enumerate() {
            for piece in name.split('+') {
                entry.insert(
                    piece.to_string(),
                    VarT {
                        mask: param_bit(i),
                        prov: format!("parameter `{piece}`"),
                    },
                );
            }
        }
        in_states[cfg.entry] = Some(entry);
        let mut work = vec![cfg.entry];
        let mut visits = 0usize;
        let cap = cfg.blocks.len() * 64 + 64;
        while let Some(b) = work.pop() {
            visits += 1;
            if visits > cap {
                break; // defensive bound; joins are monotone anyway
            }
            let mut st = in_states[b].clone().unwrap_or_default();
            for stmt in &cfg.blocks[b].stmts {
                self.transfer(&ctx, stmt, &mut st, &mut summary, &mut None);
            }
            for &s in &cfg.succ[b] {
                let grew = match &mut in_states[s] {
                    Some(dst) => join(dst, &st),
                    slot @ None => {
                        *slot = Some(st.clone());
                        true
                    }
                };
                if grew {
                    work.push(s);
                }
            }
        }
        if let Some(out) = out {
            // Reporting pass: re-run each block's transfer from its
            // stable in-state, now emitting findings.
            for (b, blk) in cfg.blocks.iter().enumerate() {
                let Some(start) = &in_states[b] else { continue };
                let mut st = start.clone();
                let mut emit = Some(&mut *out);
                for stmt in &blk.stmts {
                    self.transfer(&ctx, stmt, &mut st, &mut summary, &mut emit);
                }
            }
        }
        // The return value's taint is whatever reached the exit
        // block's RET pseudo-variable.
        if let Some(exit) = &in_states[cfg.exit] {
            if let Some(r) = exit.get(RET) {
                summary.ret_src = r.mask & UNTRUSTED;
                summary.ret_params = r.mask & !UNTRUSTED;
                summary.ret_prov = r.prov.clone();
            }
        }
        summary.param_sinks.sort();
        summary.param_sinks.dedup();
        summary.param_sinks.truncate(8);
        summary
    }

    /// One abstract step for `stmt`. Order: shape parse, RHS taint
    /// evaluation (sources, calls, cleansers), sink scan against the
    /// pre-assignment state, binding application, validator kills.
    fn transfer(
        &self,
        ctx: &FnCtx<'_>,
        stmt: &Stmt,
        st: &mut State,
        summary: &mut Summary,
        out: &mut Option<&mut Vec<Finding>>,
    ) {
        let (lo, hi) = (stmt.lo, stmt.hi);
        if lo >= hi {
            return;
        }
        if stmt.pattern {
            // Match arm: guard comparisons validate, bindings start
            // clean (aggregate boundary).
            self.validator_kills(ctx, lo, hi, st);
            for c in lo..hi {
                if binds(ctx.pf, c) && (c + 1 >= hi || ctx.pf.text(c + 1) != ":") {
                    st.remove(ctx.pf.text(c));
                }
            }
            return;
        }
        let first = ctx.pf.text(lo);
        // Shape: `let [mut] PAT = RHS`, `for PAT in RHS`, `LHS op= RHS`
        // or a bare expression.
        let (pat, rhs, compound) = if first == "let" {
            match ctx.pf.depth0(lo, hi, |t| t == "=") {
                Some(eq) => ((lo + 1, eq), (eq + 1, hi), false),
                None => ((lo + 1, hi), (hi, hi), false),
            }
        } else if first == "for" {
            match (lo..hi).find(|&c| ctx.pf.text(c) == "in") {
                Some(inp) => ((lo + 1, inp), (inp + 1, hi), false),
                None => ((lo, lo), (lo, hi), false),
            }
        } else if first == "return" {
            ((lo, lo), (lo + 1, hi), false)
        } else {
            match self.depth0_assign(ctx, lo, hi) {
                Some((op, comp)) => ((lo, op), (op + 1, hi), comp),
                None => ((lo, lo), (lo, hi), false),
            }
        };

        let val = self.eval(ctx, rhs.0, rhs.1, st, summary, out);
        self.scan_sinks(ctx, lo, hi, st, summary, out);

        // Binding application.
        let bound = self.pattern_vars(ctx, pat.0, pat.1);
        let is_ret = first == "return" || (!stmt.semi && !compound);
        for var in &bound {
            if compound {
                if let Some(v) = st.get_mut(var) {
                    v.mask |= val.mask;
                } else if val.mask != 0 {
                    st.insert(
                        var.clone(),
                        VarT {
                            mask: val.mask,
                            prov: format!("{} -> `{var}`", val.prov),
                        },
                    );
                }
            } else if val.mask == 0 {
                st.remove(var);
            } else {
                st.insert(
                    var.clone(),
                    VarT {
                        mask: val.mask,
                        prov: format!("{} -> `{var}`", val.prov),
                    },
                );
            }
        }
        if is_ret && val.mask != 0 {
            // A value leaves through the fn's return — or, for a branch
            // value inside a lowered `let` initialiser, into that
            // `let`'s bindings.
            let into = match stmt.tail_of {
                Some((plo, phi)) if first != "return" => self.pattern_vars(ctx, plo, phi),
                _ => vec![RET.to_string()],
            };
            for var in into {
                match st.get_mut(&var) {
                    Some(r) => r.mask |= val.mask,
                    None => {
                        st.insert(var, val.clone());
                    }
                }
            }
        }

        // Validator comparisons kill last, so `let ok = n <= MAX;`
        // and condition statements validate their variable.
        self.validator_kills(ctx, lo, hi, st);
    }

    /// First depth-0 assignment operator: `(pos, is_compound)`.
    fn depth0_assign(&self, ctx: &FnCtx<'_>, lo: usize, hi: usize) -> Option<(usize, bool)> {
        const COMPOUND: &[&str] = &["+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="];
        let op = ctx
            .pf
            .depth0(lo, hi, |t| t == "=" || COMPOUND.contains(&t))?;
        Some((op, ctx.pf.text(op) != "="))
    }

    /// The lowercase idents a binding pattern introduces.
    fn pattern_vars(&self, ctx: &FnCtx<'_>, lo: usize, hi: usize) -> Vec<String> {
        let mut v = Vec::new();
        // `self.f = …` and `x[i] = …` are stores, not bindings.
        if hi > lo + 1 {
            let second = ctx.pf.text(lo + 1);
            if second == "." || second == "[" {
                return v;
            }
        }
        for c in lo..hi {
            if binds(ctx.pf, c) && ctx.pf.text(c) != "self" {
                v.push(ctx.pf.text(c).to_string());
            }
        }
        v
    }

    /// Evaluates an expression range's taint: state variables in value
    /// position, fresh sources, summaries of resolved calls; cleansers
    /// strip `UNTRUSTED` from the result.
    fn eval(
        &self,
        ctx: &FnCtx<'_>,
        lo: usize,
        hi: usize,
        st: &State,
        summary: &mut Summary,
        out: &mut Option<&mut Vec<Finding>>,
    ) -> VarT {
        let mut mask = 0u32;
        let mut prov = String::new();
        let mut cleansed = false;
        let mut c = lo;
        while c < hi {
            let t = ctx.pf.text(c);
            let k = ctx.pf.kind(c);
            let next = (c + 1 < hi).then(|| ctx.pf.text(c + 1));
            let prev = (c > lo).then(|| ctx.pf.text(c - 1));
            // Opaque aggregate: `Camel { … }` construction.
            if k == TokenKind::Ident && callgraph::is_camel_type(t) && next == Some("{") {
                c = ctx.pf.matching(c + 1, hi) + 1;
                continue;
            }
            if k == TokenKind::Ident {
                // Cleansers.
                if next == Some("(")
                    && (t.starts_with("checked_")
                        || t.starts_with("saturating_")
                        || t.starts_with("wrapping_")
                        || t == "try_from"
                        || t == "try_into"
                        || (prev == Some(".") && (t == "min" || t == "clamp")))
                {
                    cleansed = true;
                }
                // Sources.
                if let Some(p) = self.source_at(ctx, c, hi) {
                    mask |= UNTRUSTED;
                    if prov.is_empty() {
                        prov = p;
                    }
                    c += 1;
                    continue;
                }
                // Calls with summaries.
                if next == Some("(") && callgraph::is_value_ident(t) {
                    let prev2 = (c >= lo + 2).then(|| ctx.pf.text(c - 2));
                    if let Resolution::One(callee) = self.resolver.resolve(ctx.node, t, prev, prev2)
                    {
                        let close = ctx.pf.matching(c + 1, hi);
                        let args = arg_ranges(ctx.pf, c + 1, close);
                        let cs = self.summaries[callee].clone();
                        if cs.ret_src != 0 {
                            mask |= cs.ret_src;
                            if prov.is_empty() {
                                prov = format!("{} -> returned by `{t}`", cs.ret_prov);
                            }
                        }
                        if cs.ret_params != 0 || !cs.param_sinks.is_empty() {
                            let ats: Vec<VarT> = args
                                .iter()
                                .map(|&(alo, ahi)| self.scan_taint(ctx, alo, ahi, st))
                                .collect();
                            for (i, at) in ats.iter().enumerate() {
                                if cs.ret_params & param_bit(i) != 0 && at.mask != 0 {
                                    mask |= at.mask;
                                    if prov.is_empty() {
                                        prov = format!("{} -> through `{t}`", at.prov);
                                    }
                                }
                            }
                            for ps in &cs.param_sinks {
                                let Some(at) = ats.get(ps.param) else {
                                    continue;
                                };
                                if at.mask & UNTRUSTED != 0 {
                                    // Source-tainted argument reaches a
                                    // sink inside the callee: finding
                                    // at this call site.
                                    self.hit(
                                        ctx,
                                        c,
                                        ps.kind,
                                        &at.prov,
                                        Some(&format!("passed to `{t}` -> {}", ps.site)),
                                        out,
                                    );
                                } else if at.mask != 0 {
                                    // Param-tainted argument: lift the
                                    // fact into this fn's summary.
                                    for (i, _) in self.params[ctx.node]
                                        .iter()
                                        .enumerate()
                                        .filter(|(i, _)| at.mask & param_bit(*i) != 0)
                                    {
                                        push_param_sink(
                                            summary,
                                            ParamSink {
                                                param: i,
                                                kind: ps.kind,
                                                site: format!("via `{t}` -> {}", ps.site),
                                            },
                                        );
                                    }
                                }
                            }
                        }
                        c = close + 1;
                        continue;
                    }
                }
                // A variable read in value position.
                if prev != Some(".")
                    && next != Some(":")
                    && next != Some("!")
                    && callgraph::is_value_ident(t)
                {
                    if let Some(v) = st.get(t) {
                        mask |= v.mask;
                        if prov.is_empty() {
                            prov = v.prov.clone();
                        }
                    }
                }
            }
            // Range-bounding operators strip UNTRUSTED: `h % n` and
            // `h & mask` are bounded whatever `h` was.
            if t == "%" || (t == "&" && prev.is_some_and(is_value_end)) {
                cleansed = true;
            }
            c += 1;
        }
        if cleansed {
            mask &= !UNTRUSTED;
        }
        VarT { mask, prov }
    }

    /// Flat taint scan for call arguments: variables, direct sources,
    /// and resolved-call *return* taint (so `f(helper())` sees through
    /// the inner call). Param
    /// flows and sinks inside the scanned range are not re-applied
    /// here — that is [`Self::eval`]'s job; this scan only answers
    /// "may this range carry taint".
    fn scan_taint(&self, ctx: &FnCtx<'_>, lo: usize, hi: usize, st: &State) -> VarT {
        let mut mask = 0u32;
        let mut prov = String::new();
        let mut c = lo;
        while c < hi {
            let t = ctx.pf.text(c);
            let k = ctx.pf.kind(c);
            let next = (c + 1 < hi).then(|| ctx.pf.text(c + 1));
            if k == TokenKind::Ident && callgraph::is_camel_type(t) && next == Some("{") {
                c = ctx.pf.matching(c + 1, hi) + 1;
                continue;
            }
            if k == TokenKind::Ident {
                if let Some(p) = self.source_at(ctx, c, hi) {
                    mask |= UNTRUSTED;
                    if prov.is_empty() {
                        prov = p;
                    }
                } else if next == Some("(") && callgraph::is_value_ident(t) {
                    let prev = (c > lo).then(|| ctx.pf.text(c - 1));
                    let prev2 = (c > lo + 1).then(|| ctx.pf.text(c - 2));
                    if let Resolution::One(callee) = self.resolver.resolve(ctx.node, t, prev, prev2)
                    {
                        let cs = &self.summaries[callee];
                        if cs.ret_src != 0 {
                            mask |= cs.ret_src;
                            if prov.is_empty() {
                                prov = format!("{} -> returned by `{t}`", cs.ret_prov);
                            }
                        }
                    }
                } else if (c == lo || ctx.pf.text(c - 1) != ".")
                    && next != Some(":")
                    && callgraph::is_value_ident(t)
                {
                    if let Some(v) = st.get(t) {
                        mask |= v.mask;
                        if prov.is_empty() {
                            prov = v.prov.clone();
                        }
                    }
                }
            }
            c += 1;
        }
        VarT { mask, prov }
    }

    /// Is the ident at `c` a taint source? Returns its origin. A
    /// `lint:allow` on a source line suppresses the whole flow from
    /// that source, so a suppressed source is none.
    fn source_at(&self, ctx: &FnCtx<'_>, c: usize, hi: usize) -> Option<String> {
        let source = c + 1 < hi
            && ctx.pf.text(c + 1) == "("
            && ctx.pf.text(c) == "from_le_bytes"
            && UNTRUSTED_SOURCE_CRATES.contains(&ctx.krate.as_str());
        (source && !self.allows[ctx.file].suppresses(ctx.pf.line(c), "untrusted-input"))
            .then(|| format!("wire bytes (`from_le_bytes`, {})", ctx.site(c)))
    }

    /// Sinks in the statement, checked against the pre-assignment
    /// state: allocations, indexing and bare arithmetic.
    fn scan_sinks(
        &self,
        ctx: &FnCtx<'_>,
        lo: usize,
        hi: usize,
        st: &State,
        summary: &mut Summary,
        out: &mut Option<&mut Vec<Finding>>,
    ) {
        const ARITH: &[&str] = &["+", "-", "*", "<<", "+=", "-=", "*=", "<<="];
        let mut c = lo;
        while c < hi {
            let t = ctx.pf.text(c);
            let k = ctx.pf.kind(c);
            let next = (c + 1 < hi).then(|| ctx.pf.text(c + 1));
            let prev = (c > lo).then(|| ctx.pf.text(c - 1));
            if k == TokenKind::Ident
                && next == Some("(")
                && (t == "with_capacity" || t == "reserve")
            {
                let close = ctx.pf.matching(c + 1, hi);
                let at = self.scan_taint(ctx, c + 2, close, st);
                self.sink_hit(ctx, c, SinkKind::Alloc, &at, summary, out);
                c = close + 1;
                continue;
            }
            // `vec![elem; len]`: the length part.
            if k == TokenKind::Ident
                && t == "vec"
                && next == Some("!")
                && c + 2 < hi
                && ctx.pf.text(c + 2) == "["
            {
                let close = ctx.pf.matching(c + 2, hi);
                if let Some(semi) = ctx.pf.depth0(c + 3, close, |t| t == ";") {
                    let at = self.scan_taint(ctx, semi + 1, close, st);
                    self.sink_hit(ctx, c, SinkKind::Alloc, &at, summary, out);
                }
                c = close + 1;
                continue;
            }
            // Indexing: `expr[i]` — `[` after a value token.
            if t == "[" && prev.is_some_and(is_value_end) {
                let close = ctx.pf.matching(c, hi);
                let at = self.scan_taint(ctx, c + 1, close, st);
                self.sink_hit(ctx, c, SinkKind::Index, &at, summary, out);
                c += 1;
                continue;
            }
            // Bare arithmetic on a tainted single-token operand.
            if ARITH.contains(&t) && prev.is_some_and(is_value_end) {
                for nb in [c.checked_sub(1), (c + 1 < hi).then_some(c + 1)]
                    .into_iter()
                    .flatten()
                {
                    let nt = ctx.pf.text(nb);
                    if ctx.pf.kind(nb) == TokenKind::Ident
                        && !callgraph::is_camel_type(nt)
                        && callgraph::is_value_ident(nt)
                    {
                        // Field reads (`x.f + 1`) are aggregate reads,
                        // not variable reads.
                        if nb > lo && ctx.pf.text(nb - 1) == "." {
                            continue;
                        }
                        if let Some(v) = st.get(nt) {
                            self.sink_hit(ctx, c, SinkKind::Arith, v, summary, out);
                        }
                    }
                }
            }
            c += 1;
        }
    }

    /// A comparison against a recognized bound validates the compared
    /// variable: `n <= MAX_FRAME_LEN`, `MAX >= n`, `n < 64`,
    /// `n > buf.len()` all strip `UNTRUSTED` from `n` for the rest of
    /// the flow (path-insensitively — see the module boundary list).
    fn validator_kills(&self, ctx: &FnCtx<'_>, lo: usize, hi: usize, st: &mut State) {
        const CMP: &[&str] = &["<", "<=", ">", ">=", "==", "!="];
        let mut kills: Vec<String> = Vec::new();
        for c in lo..hi {
            if !CMP.contains(&ctx.pf.text(c)) {
                continue;
            }
            // `n == 0` / `n != 4` says nothing about how large `n` may
            // be on the other branch; only an ordering bounds against a
            // literal.
            let ordering = !matches!(ctx.pf.text(c), "==" | "!=");
            // Tainted single-ident operand on the left, bound on the
            // right (within a short window), and mirrored.
            let sides = [
                (c.checked_sub(1), c + 1, (c + 8).min(hi)),
                (
                    (c + 1 < hi).then_some(c + 1),
                    c.saturating_sub(8).max(lo),
                    c,
                ),
            ];
            for (var_at, wlo, whi) in sides {
                let Some(v) = var_at else { continue };
                let t = ctx.pf.text(v);
                if ctx.pf.kind(v) != TokenKind::Ident
                    || !t.starts_with(|ch: char| ch.is_ascii_lowercase())
                    || st.get(t).is_none_or(|x| x.mask & UNTRUSTED == 0)
                {
                    continue;
                }
                let bound = (wlo..whi).any(|w| {
                    let wt = ctx.pf.text(w);
                    (ordering && ctx.pf.kind(w) == TokenKind::Int)
                        || is_screaming(wt)
                        || wt == "len"
                        || wt == "capacity"
                });
                if bound {
                    kills.push(t.to_string());
                }
            }
        }
        for k in kills {
            if let Some(v) = st.get_mut(&k) {
                v.mask &= !UNTRUSTED;
                if v.mask == 0 {
                    st.remove(&k);
                }
            }
        }
    }

    /// Dispatches a sink hit by the scanned taint: source bits emit a
    /// finding, param bits record a summary fact.
    fn sink_hit(
        &self,
        ctx: &FnCtx<'_>,
        c: usize,
        kind: SinkKind,
        at: &VarT,
        summary: &mut Summary,
        out: &mut Option<&mut Vec<Finding>>,
    ) {
        if at.mask & UNTRUSTED != 0 {
            self.hit(ctx, c, kind, &at.prov, None, out);
        } else if at.mask != 0 {
            self.param_fact(ctx, c, kind, at, summary);
        }
    }

    /// Records `param reaches kind` facts for every param bit in `at`.
    fn param_fact(
        &self,
        ctx: &FnCtx<'_>,
        c: usize,
        kind: SinkKind,
        at: &VarT,
        summary: &mut Summary,
    ) {
        for i in 0..MAX_PARAMS.min(self.params[ctx.node].len()) {
            if at.mask & param_bit(i) != 0 {
                push_param_sink(
                    summary,
                    ParamSink {
                        param: i,
                        kind,
                        site: format!("{} ({})", kind.what(), ctx.site(c)),
                    },
                );
            }
        }
    }

    /// Emits one finding at code position `c` (final pass only).
    fn hit(
        &self,
        ctx: &FnCtx<'_>,
        c: usize,
        kind: SinkKind,
        prov: &str,
        via: Option<&str>,
        out: &mut Option<&mut Vec<Finding>>,
    ) {
        let Some(out) = out.as_deref_mut() else {
            // Non-reporting passes still consult the suppression table
            // so allows at sink lines register as used.
            let _ = self.allows[ctx.file].suppresses(ctx.pf.line(c), "untrusted-input");
            return;
        };
        let flow = match via {
            Some(v) => format!("{prov} -> {v}"),
            None => prov.to_string(),
        };
        rules::emit_at(
            out,
            ctx.pf,
            &self.allows[ctx.file],
            ctx.pf.byte(c),
            "untrusted-input",
            format!(
                "untrusted wire input reaches {}: {flow}; validate it first (compare against \
                 a MAX_* cap, `checked_*`, or return a DecodeError)",
                kind.what()
            ),
        );
    }
}

fn is_value_end(t: &str) -> bool {
    t == ")"
        || t == "]"
        || (t.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
            && callgraph::is_value_ident(t))
}

/// `MAX_FRAME_LEN`, `CAP`, `Q16` — a screaming-case constant name.
fn is_screaming(t: &str) -> bool {
    t.chars().any(|c| c.is_ascii_uppercase())
        && t.chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

fn push_param_sink(summary: &mut Summary, ps: ParamSink) {
    if summary.param_sinks.len() < 8 && !summary.param_sinks.contains(&ps) {
        summary.param_sinks.push(ps);
    }
}
