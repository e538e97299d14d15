//! Tier 3, layer 1: per-function control-flow graphs over the token
//! stream.
//!
//! [`build_file`] turns every non-test function body in a
//! [`ParsedFile`] into a [`Cfg`]: basic blocks of statements plus
//! successor edges. Statements are ranges of *code positions* (the
//! comment-free view [`ParsedFile`] owns), so the dataflow layer can
//! walk a statement's tokens with simple adjacency.
//!
//! Construction rules:
//!
//! - Control flow is recognized only when a statement *starts* with
//!   `if` / `match` / `while` / `for` / `loop` / a bare or labeled
//!   block (optionally behind a loop label). `if`/`else` chains fork
//!   per branch and re-join; a missing `else` adds the fall-through
//!   edge. `match` forks one block per arm (pattern + guard recorded
//!   as a [`Stmt`] with `pattern = true`) and re-joins after the arm
//!   bodies.
//! - One mid-expression position is lowered too: a `match`, `if` chain
//!   or block that is the *whole* initialiser of a `let`
//!   (`let frame = match tag { … };`). It forks and joins like the same
//!   expression as a statement; the scrutinee / condition statement
//!   starts at the `let`, and each branch's value is tagged with the
//!   `let`'s pattern ([`Stmt::tail_of`]) so it feeds the bindings, not
//!   the return value.
//! - Loops get a head block (holding the `while` condition or the
//!   whole `for pat in expr` header), a back edge from the body exit,
//!   and an after block; `break`/`continue` resolve through a stack of
//!   enclosing loop contexts, by label when one is given.
//! - `return` edges to the virtual exit block and starts a fresh
//!   (unreachable) continuation block; any `?` inside a statement adds
//!   a may-return edge to exit from that statement's block. A
//!   `let … else { … }` diverging block is scanned for `return` /
//!   `break` / `continue` and contributes the matching edges.
//! - A statement that does *not* end in `;` (a tail expression, or a
//!   brace-less match arm body) is flagged `semi = false` so the
//!   dataflow layer can fold it into the function's return value.
//!
//! Approximation boundaries, in the same spirit as `callgraph.rs`:
//!
//! - **Other mid-expression control flow is opaque.** `f(if c { a }
//!   else { b });` and `let x = match k { … }.len();` are one
//!   statement each; their braces are just nesting depth. Both
//!   branches land in one statement, so taint joins across them — a
//!   conservative union for values, but a `let` *inside* such a branch
//!   binds nothing the statement's sinks can see.
//! - **Closures are inlined into their statement.** A closure body's
//!   tokens belong to the enclosing statement (and any `break` inside
//!   it is below statement depth, so it never reaches the loop stack).
//!   Taint crossing a closure boundary is therefore treated as taint
//!   in the statement that mentions the closure.
//! - **Nested items are skipped.** A `fn`/`struct`/`impl`/… declared
//!   inside a body contributes no statements to the outer CFG (nested
//!   `fn`s get their own CFG via their own [`crate::items::FnItem`]).
//! - `if let` / `while let` body braces are found *after* the depth-0
//!   `=`, so struct patterns (`if let Frame::Put { .. } = f`) do not
//!   fool the block finder; plain conditions and `match` scrutinees
//!   cannot contain bare struct literals (the grammar forbids them),
//!   so there the first depth-0 `{` *is* the body.
//!
//! The corpus test (`tests/cfg_corpus.rs`) pins block/edge counts for
//! the nasty cases (labeled breaks, `let`-`else`, nested closures,
//! match guards) so these rules cannot drift silently.

use crate::items::ParsedFile;
use crate::token::TokenKind;

/// One statement: a `[lo, hi)` range of code positions in its file
/// (see [`ParsedFile`]).
#[derive(Debug, Clone, Copy)]
pub struct Stmt {
    /// First code-token position of the statement.
    pub lo: usize,
    /// One past the last code-token position.
    pub hi: usize,
    /// Whether the statement ended with `;` (tail expressions and
    /// expression-arm bodies do not, and feed the return value).
    pub semi: bool,
    /// Whether this is a `match` arm pattern (+ optional guard) rather
    /// than an executable statement.
    pub pattern: bool,
    /// For a statement inside a lowered `let` initialiser: the code
    /// range of that `let`'s pattern, which a `semi = false` statement
    /// (a branch's value) feeds instead of the return value.
    pub tail_of: Option<(usize, usize)>,
}

/// A basic block: statements executed in order.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// The block's statements, in execution order.
    pub stmts: Vec<Stmt>,
}

/// A per-function control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// All blocks; index 0 is the entry.
    pub blocks: Vec<Block>,
    /// Successor edges, per block (deduplicated).
    pub succ: Vec<Vec<usize>>,
    /// Entry block index (always 0).
    pub entry: usize,
    /// Virtual exit block index (always 1, always empty).
    pub exit: usize,
}

impl Cfg {
    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }
}

/// All CFGs for one file.
#[derive(Debug, Clone, Default)]
pub struct FileCfgs {
    /// `(index into pf.items.fns, cfg)` for every non-test fn.
    pub cfgs: Vec<(usize, Cfg)>,
}

/// Builds the CFGs for every non-test function in `pf`.
pub fn build_file(pf: &ParsedFile) -> FileCfgs {
    let mut cfgs = Vec::new();
    for (fi, f) in pf.items.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        let (lo, hi) = pf.code_range(f.body_toks);
        let mut b = Builder {
            pf,
            blocks: vec![Block::default(), Block::default()],
            succ: vec![Vec::new(), Vec::new()],
            loops: Vec::new(),
            tail_of: None,
        };
        let last = b.seq(lo, hi, 0);
        b.succ[last].push(EXIT);
        for s in &mut b.succ {
            s.sort_unstable();
            s.dedup();
        }
        cfgs.push((
            fi,
            Cfg {
                blocks: b.blocks,
                succ: b.succ,
                entry: 0,
                exit: EXIT,
            },
        ));
    }
    FileCfgs { cfgs }
}

const EXIT: usize = 1;

/// An enclosing loop (or labeled block) on the builder's stack.
struct LoopCtx {
    label: Option<String>,
    /// `continue` target (the loop head). For a labeled bare block
    /// this equals `after` (you cannot `continue` a block; defensive).
    head: usize,
    /// `break` target.
    after: usize,
}

struct Builder<'a> {
    pf: &'a ParsedFile,
    blocks: Vec<Block>,
    succ: Vec<Vec<usize>>,
    loops: Vec<LoopCtx>,
    /// Pattern range of the innermost `let` whose initialiser is being
    /// lowered (see [`Stmt::tail_of`]).
    tail_of: Option<(usize, usize)>,
}

impl<'a> Builder<'a> {
    fn new_block(&mut self) -> usize {
        self.blocks.push(Block::default());
        self.succ.push(Vec::new());
        self.blocks.len() - 1
    }

    fn edge(&mut self, a: usize, b: usize) {
        self.succ[a].push(b);
    }

    fn push_stmt(&mut self, block: usize, lo: usize, hi: usize, semi: bool, pattern: bool) {
        if lo < hi {
            self.blocks[block].stmts.push(Stmt {
                lo,
                hi,
                semi,
                pattern,
                tail_of: self.tail_of,
            });
            if !pattern && (lo..hi).any(|c| self.pf.text(c) == "?") {
                self.edge(block, EXIT);
            }
        }
    }

    /// First depth-0 `{` at or after `p` (the body of a condition /
    /// scrutinee that cannot contain a bare struct literal).
    fn body_brace(&self, p: usize, hi: usize) -> usize {
        let brace = self.pf.depth0(p, hi, |t| t == "{");
        brace.unwrap_or(hi.saturating_sub(1).max(p))
    }

    /// The body `{` of the `if` / `while` / `match` at `p`.
    /// `if let PAT = EXPR {`: the body brace comes after the
    /// depth-0 `=` (struct patterns may contain braces); plain
    /// conditions cannot contain bare struct literals.
    fn cond_brace(&self, p: usize, hi: usize) -> usize {
        let from = if self.pf.at(p + 1, "let") {
            self.pf.depth0(p, hi, |t| t == "=").map_or(p, |e| e + 1)
        } else {
            p
        };
        self.body_brace(from, hi)
    }

    /// One past the `match` / `if`-`else` chain / block expression that
    /// starts at `p`.
    fn ctrl_end(&self, mut p: usize, hi: usize) -> usize {
        loop {
            let lb = if self.pf.at(p, "{") {
                p
            } else {
                self.cond_brace(p, hi)
            };
            let rb = self.pf.matching(lb, hi);
            if !self.pf.at(rb + 1, "else") {
                return rb + 1;
            }
            p = rb + 2; // the `if` of `else if`, or the `{` of `else {`
        }
    }

    /// Builds the statement sequence in `[lo, hi)` starting from block
    /// `cur`; returns the block control falls out of.
    fn seq(&mut self, lo: usize, hi: usize, mut cur: usize) -> usize {
        let mut p = lo;
        while p < hi {
            // Optional loop/block label: `'outer: loop { … }`.
            let (label, q) = if self.pf.kind(p) == TokenKind::Lifetime
                && p + 1 < hi
                && self.pf.text(p + 1) == ":"
            {
                (Some(self.pf.text(p).to_string()), p + 2)
            } else {
                (None, p)
            };
            if q >= hi {
                break;
            }
            let t0 = self.pf.text(q);
            p = match t0 {
                "if" => self.if_stmt(q, q, hi, &mut cur),
                "match" => self.match_stmt(q, q, hi, &mut cur),
                "loop" | "while" | "for" => self.loop_stmt(q, t0, label, hi, &mut cur),
                "{" => self.block_stmt(q, label, hi, &mut cur),
                "unsafe" if q + 1 < hi && self.pf.text(q + 1) == "{" => {
                    self.block_stmt(q + 1, label, hi, &mut cur)
                }
                "return" => self.return_stmt(q, hi, &mut cur),
                "break" | "continue" => self.jump_stmt(q, hi, &mut cur),
                "fn" | "struct" | "enum" | "union" | "impl" | "trait" | "mod" | "macro_rules" => {
                    self.skip_item(q, hi)
                }
                _ => self.plain_stmt(q, hi, &mut cur),
            };
        }
        cur
    }

    /// `if` / `else if` / `else` chain: fork per branch, re-join. The
    /// condition statement starts at `stmt_lo`: the `if` itself, or the
    /// `let` it initialises.
    fn if_stmt(&mut self, stmt_lo: usize, p: usize, hi: usize, cur: &mut usize) -> usize {
        let mut exits = Vec::new();
        let next = self.if_chain(stmt_lo, p, *cur, hi, &mut exits);
        let join = self.new_block();
        for e in exits {
            self.edge(e, join);
        }
        *cur = join;
        next
    }

    fn if_chain(
        &mut self,
        stmt_lo: usize,
        p: usize,
        cond_block: usize,
        hi: usize,
        exits: &mut Vec<usize>,
    ) -> usize {
        let lb = self.cond_brace(p, hi);
        self.push_stmt(cond_block, stmt_lo, lb, true, false);
        let rb = self.pf.matching(lb, hi);
        let then_entry = self.new_block();
        self.edge(cond_block, then_entry);
        let then_exit = self.seq(lb + 1, rb, then_entry);
        exits.push(then_exit);
        let mut next = rb + 1;
        if next < hi && self.pf.text(next) == "else" {
            if next + 1 < hi && self.pf.text(next + 1) == "if" {
                let elif_cond = self.new_block();
                self.edge(cond_block, elif_cond);
                return self.if_chain(next + 1, next + 1, elif_cond, hi, exits);
            }
            let elb = next + 1; // the `{` of `else { … }`
            let erb = self.pf.matching(elb, hi);
            let else_entry = self.new_block();
            self.edge(cond_block, else_entry);
            let else_exit = self.seq(elb + 1, erb, else_entry);
            exits.push(else_exit);
            next = erb + 1;
        } else {
            exits.push(cond_block); // no else: condition falls through
        }
        next
    }

    /// `match`: scrutinee in the current block, one block per arm
    /// (pattern recorded, body built recursively), re-join after. The
    /// scrutinee statement starts at `stmt_lo`, as in [`Self::if_stmt`].
    fn match_stmt(&mut self, stmt_lo: usize, p: usize, hi: usize, cur: &mut usize) -> usize {
        let lb = self.body_brace(p, hi);
        self.push_stmt(*cur, stmt_lo, lb, true, false);
        let rb = self.pf.matching(lb, hi);
        let scrut = *cur;
        let join = self.new_block();
        let mut i = lb + 1;
        while i < rb {
            let Some(arrow) = self.pf.depth0(i, rb, |t| t == "=>") else {
                break;
            };
            let arm_entry = self.new_block();
            self.edge(scrut, arm_entry);
            self.push_stmt(arm_entry, i, arrow, true, true);
            let b = arrow + 1;
            let arm_exit;
            if b < rb && self.pf.text(b) == "{" {
                let brc = self.pf.matching(b, rb);
                arm_exit = self.seq(b + 1, brc, arm_entry);
                i = brc + 1;
                if i < rb && self.pf.text(i) == "," {
                    i += 1;
                }
            } else {
                let end = self.pf.depth0(b, rb, |t| t == ",").unwrap_or(rb);
                arm_exit = self.seq(b, end, arm_entry);
                i = end + 1;
            }
            self.edge(arm_exit, join);
        }
        *cur = join;
        rb + 1
    }

    /// `loop` / `while [let]` / `for`: head, body with back edge,
    /// after block; pushes a loop context for `break` / `continue`.
    fn loop_stmt(
        &mut self,
        p: usize,
        kw: &str,
        label: Option<String>,
        hi: usize,
        cur: &mut usize,
    ) -> usize {
        let lb = match kw {
            // `for PAT in EXPR {` — body brace after the `in`.
            "for" => {
                let from = (p..hi).find(|&c| self.pf.text(c) == "in");
                self.body_brace(from.map_or(p, |e| e + 1), hi)
            }
            _ => self.cond_brace(p, hi),
        };
        let head = self.new_block();
        self.edge(*cur, head);
        if lb > p + 1 || kw != "loop" {
            // The condition / `for pat in expr` header lives in the
            // head block so its bindings and kills apply per-iteration.
            self.push_stmt(head, p, lb, true, false);
        }
        let rb = self.pf.matching(lb, hi);
        let after = self.new_block();
        if kw != "loop" {
            self.edge(head, after); // condition may be false at once
        }
        let body_entry = self.new_block();
        self.edge(head, body_entry);
        self.loops.push(LoopCtx { label, head, after });
        let body_exit = self.seq(lb + 1, rb, body_entry);
        self.edge(body_exit, head);
        self.loops.pop();
        *cur = after;
        rb + 1
    }

    /// A bare `{ … }` (or `unsafe { … }`) statement block; with a
    /// label it becomes a `break`-able context.
    fn block_stmt(
        &mut self,
        lb: usize,
        label: Option<String>,
        hi: usize,
        cur: &mut usize,
    ) -> usize {
        let rb = self.pf.matching(lb, hi);
        if let Some(l) = label {
            let after = self.new_block();
            self.loops.push(LoopCtx {
                label: Some(l),
                head: after,
                after,
            });
            let inner_exit = self.seq(lb + 1, rb, *cur);
            self.edge(inner_exit, after);
            self.loops.pop();
            *cur = after;
        } else {
            *cur = self.seq(lb + 1, rb, *cur);
        }
        rb + 1
    }

    fn return_stmt(&mut self, p: usize, hi: usize, cur: &mut usize) -> usize {
        let end = self.stmt_boundary(p, hi);
        self.push_stmt(*cur, p, end, true, false);
        self.edge(*cur, EXIT);
        *cur = self.new_block(); // unreachable continuation
        end
    }

    fn jump_stmt(&mut self, p: usize, hi: usize, cur: &mut usize) -> usize {
        let end = self.stmt_boundary(p, hi);
        self.push_stmt(*cur, p, end, true, false);
        self.edge(*cur, self.jump_target(p, end));
        *cur = self.new_block(); // unreachable continuation
        end
    }

    /// Where the `break`/`continue` at `c` goes: the innermost enclosing
    /// loop, or the one named by a label before `hi`. A jump with no
    /// resolvable context degrades to an exit edge.
    fn jump_target(&self, c: usize, hi: usize) -> usize {
        let pf = self.pf;
        let label = (c + 1 < hi && pf.kind(c + 1) == TokenKind::Lifetime).then(|| pf.text(c + 1));
        let ctx = self
            .loops
            .iter()
            .rev()
            .find(|x| label.is_none_or(|l| x.label.as_deref() == Some(l)));
        ctx.map_or(EXIT, |x| {
            if pf.text(c) == "break" {
                x.after
            } else {
                x.head
            }
        })
    }

    /// Skips a nested item (`fn helper() { … }`, `struct S { … }`, …):
    /// to the depth-0 `;` or through the matching brace, whichever
    /// comes first.
    fn skip_item(&self, p: usize, hi: usize) -> usize {
        match self.pf.depth0(p, hi, |t| t == ";" || t == "{") {
            Some(c) if self.pf.text(c) == "{" => self.pf.matching(c, hi) + 1,
            Some(c) => c + 1,
            None => hi,
        }
    }

    /// End of a plain statement: one past the depth-0 `;`, or `hi`.
    fn stmt_boundary(&self, p: usize, hi: usize) -> usize {
        self.pf.depth0(p, hi, |t| t == ";").map_or(hi, |c| c + 1)
    }

    /// Any other statement. `let … else { … }` diverging blocks are
    /// consumed opaquely and scanned for `return`/`break`/`continue`.
    fn plain_stmt(&mut self, p: usize, hi: usize, cur: &mut usize) -> usize {
        let is_let = self.pf.text(p) == "let";
        if is_let {
            if let Some(next) = self.let_ctrl_init(p, hi, cur) {
                return next;
            }
        }
        let mut d = 0usize;
        let mut i = p;
        let mut diverge: Option<(usize, usize)> = None;
        while i < hi {
            let t = self.pf.text(i);
            match t {
                "{" if d == 0 && is_let && i > p && self.pf.text(i - 1) == "else" => {
                    let close = self.pf.matching(i, hi);
                    diverge = Some((i + 1, close));
                    i = close + 1;
                    continue;
                }
                "(" | "[" | "{" => d += 1,
                ")" | "]" | "}" => d = d.saturating_sub(1),
                ";" if d == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        let semi = i > p && self.pf.text(i - 1) == ";";
        self.push_stmt(*cur, p, i, semi, false);
        if let Some((dlo, dhi)) = diverge {
            self.diverge_edges(dlo, dhi, *cur);
        }
        i
    }

    /// `let PAT = match … { … };`, `= if … { … } else { … };` and
    /// `= { … };`: the initialiser is lowered as the same expression in
    /// statement position would be, so bindings made and caps checked
    /// inside it are seen in order; the statement that holds the
    /// scrutinee / condition starts at the `let` (and so binds `PAT`),
    /// and every branch value feeds `PAT` through [`Stmt::tail_of`].
    /// `None` (the statement stays opaque) when anything follows the
    /// closing brace but `;` — a method call, `?`, an operator.
    fn let_ctrl_init(&mut self, p: usize, hi: usize, cur: &mut usize) -> Option<usize> {
        let eq = self.pf.depth0(p, hi, |t| t == "=" || t == ";")?;
        let q = eq + 1;
        if !self.pf.at(eq, "=") || q >= hi || !matches!(self.pf.text(q), "match" | "if" | "{") {
            return None;
        }
        let end = self.ctrl_end(q, hi);
        if end >= hi || !self.pf.at(end, ";") {
            return None;
        }
        let outer = self.tail_of.replace((p + 1, eq));
        match self.pf.text(q) {
            "match" => self.match_stmt(p, q, hi, cur),
            "if" => self.if_stmt(p, q, hi, cur),
            _ => {
                self.push_stmt(*cur, p, q, true, false);
                self.block_stmt(q, None, hi, cur)
            }
        };
        self.tail_of = outer;
        Some(end + 1)
    }

    /// Adds the control edges a `let`-`else` diverging block implies
    /// (scanned at any depth — over-approximate, which only adds
    /// may-edges).
    fn diverge_edges(&mut self, lo: usize, hi: usize, cur: usize) {
        let mut c = lo;
        while c < hi {
            match self.pf.text(c) {
                "return" => self.edge(cur, EXIT),
                "break" | "continue" => self.edge(cur, self.jump_target(c, hi)),
                _ => {}
            }
            c += 1;
        }
    }
}
