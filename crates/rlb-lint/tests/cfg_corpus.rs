//! Pins the tier-3 CFG builder on control-flow edge cases.
//!
//! Each case is a function using one construct the statement-level
//! builder has to get right — labeled breaks, `let`-`else`, nested
//! closures, match guards, `?` — and pins the exact block/edge counts
//! so a builder change that silently merges or drops flow shows up as
//! a diff here, not as a vacuous dataflow pass. Every case also checks
//! the structural invariants (entry reaches exit, successors in
//! bounds) that the worklist engine depends on.

use rlb_lint::cfg::{build_file, Block, Cfg, FileCfgs, Stmt};
use rlb_lint::items::ParsedFile;

/// Builds the single fn in `src` and returns its CFG.
fn cfg_of(src: &str) -> Cfg {
    let pf = ParsedFile::new("crates/seeded/src/lib.rs", src);
    let fc: FileCfgs = build_file(&pf);
    assert_eq!(fc.cfgs.len(), 1, "expected one fn in:\n{src}");
    fc.cfgs.into_iter().next().unwrap().1
}

/// Entry must reach exit, and every successor must be a real block.
fn check_invariants(cfg: &Cfg, src: &str) {
    assert_eq!(cfg.blocks.len(), cfg.succ.len());
    for (b, succ) in cfg.succ.iter().enumerate() {
        for &s in succ {
            assert!(s < cfg.blocks.len(), "block {b} -> {s} out of bounds");
        }
    }
    let mut seen = vec![false; cfg.blocks.len()];
    let mut work = vec![cfg.entry];
    while let Some(b) = work.pop() {
        if std::mem::replace(&mut seen[b], true) {
            continue;
        }
        work.extend(cfg.succ[b].iter().copied());
    }
    assert!(seen[cfg.exit], "exit unreachable from entry in:\n{src}");
}

fn pin(src: &str, blocks: usize, edges: usize) {
    let cfg = cfg_of(src);
    check_invariants(&cfg, src);
    assert_eq!(
        (cfg.blocks.len(), cfg.edge_count()),
        (blocks, edges),
        "block/edge count drifted for:\n{src}"
    );
}

#[test]
fn straight_line_is_two_blocks() {
    pin("fn f() -> u32 {\n    let a = 1;\n    a\n}\n", 2, 1);
}

#[test]
fn tail_expressions_are_non_semi_statements() {
    // The dataflow engine merges non-`;` statements into return taint;
    // a builder change that loses the flag would silently break every
    // helper-return flow, so pin it here.
    let cfg = cfg_of("fn f() -> u32 {\n    let a = 1;\n    a\n}\n");
    let stmts: Vec<&Stmt> = cfg
        .blocks
        .iter()
        .flat_map(|b: &Block| b.stmts.iter())
        .collect();
    assert_eq!(stmts.len(), 2);
    assert!(stmts[0].semi, "let-statement carries its `;`");
    assert!(!stmts[1].semi, "tail expression must be semi-less");
}

#[test]
fn if_else_forks_and_rejoins() {
    // entry -> then/else -> join -> exit.
    pin(
        "fn f(c: bool) -> u32 {\n    if c {\n        1\n    } else {\n        2\n    }\n}\n",
        5,
        5,
    )
}

#[test]
fn if_without_else_falls_through() {
    // entry -> {then, join}; then -> join -> exit.
    pin(
        "fn f(c: bool) -> u32 {\n    let mut x = 0;\n    if c {\n        x = 1;\n    }\n    x\n}\n",
        4,
        4,
    )
}

#[test]
fn labeled_break_exits_the_outer_loop() {
    let src = "\
fn f() -> u32 {
    let mut n = 0;
    'outer: loop {
        loop {
            n += 1;
            if n > 3 {
                break 'outer;
            }
            break;
        }
    }
    n
}
";
    let cfg = cfg_of(src);
    check_invariants(&cfg, src);
    // Both loops are bare `loop`s, so their heads have no exit edge:
    // the only path to the exit block runs through `break 'outer` to
    // the *outer* after-block. `check_invariants` proving the exit
    // reachable is therefore itself the label-targeting test; the
    // counts pin the shape on top.
    assert_eq!((cfg.blocks.len(), cfg.edge_count()), (12, 12), "{src}");
}

#[test]
fn while_condition_can_skip_the_body() {
    // entry -> head; head -> {body, after}; body -> head; after -> exit.
    pin(
        "fn f(mut n: u32) -> u32 {\n    while n > 0 {\n        n -= 1;\n    }\n    n\n}\n",
        5,
        5,
    )
}

#[test]
fn let_else_divergence_adds_an_escape_edge() {
    let src = "\
fn f(items: &[Option<u32>]) -> u32 {
    let mut sum = 0;
    for it in items {
        let Some(v) = it else {
            return 0;
        };
        sum += v;
    }
    sum
}
";
    let cfg = cfg_of(src);
    check_invariants(&cfg, src);
    // The else-block's `return` adds a body -> exit edge on top of the
    // plain for-loop diamond (5 blocks, 5 edges).
    assert_eq!((cfg.blocks.len(), cfg.edge_count()), (5, 6), "{src}");
}

#[test]
fn let_else_continue_folds_into_the_back_edge() {
    // `continue` in the else block targets the loop head — the same
    // edge the body's fall-through already has, so the deduped shape
    // is exactly the plain diamond. Pinning this documents that the
    // divergence is modeled as a block-level may-edge, not a split.
    let src = "\
fn f(items: &[Option<u32>]) -> u32 {
    let mut sum = 0;
    for it in items {
        let Some(v) = it else {
            continue;
        };
        sum += v;
    }
    sum
}
";
    pin(src, 5, 5);
}

#[test]
fn nested_closures_are_opaque_statements() {
    // Control flow *inside* a closure argument is mid-expression: the
    // builder keeps the whole statement as one conservative unit (the
    // dataflow engine unions over it), so the `if` inside `.map(...)`
    // must NOT fork blocks. Pinning (2, 1) documents that boundary.
    pin(
        "fn f(v: &[u32]) -> u32 {\n    v.iter().map(|x| if *x > 1 { *x } else { 0 }).sum()\n}\n",
        2,
        1,
    )
}

#[test]
fn match_guards_keep_their_arms_separate() {
    let src = "\
fn f(n: u32) -> u32 {
    match n {
        0 => 10,
        x if x > 100 => {
            let y = x / 2;
            y
        }
        _ => 0,
    }
}
";
    let cfg = cfg_of(src);
    check_invariants(&cfg, src);
    // entry -> three arm blocks -> join -> exit.
    assert_eq!((cfg.blocks.len(), cfg.edge_count()), (6, 7), "{src}");
}

#[test]
fn a_let_initialiser_match_forks_like_a_statement_match() {
    // Same arms as above behind `let v = … ;`: the same fork and join,
    // with every arm value tagged as feeding `v` rather than the
    // return. Anything after the closing brace but `;` keeps the
    // statement opaque.
    let src = "\
fn f(n: u32) -> u32 {
    let v = match n {
        0 => 10,
        x if x > 100 => {
            let y = x / 2;
            y
        }
        _ => 0,
    };
    v
}
";
    let cfg = cfg_of(src);
    check_invariants(&cfg, src);
    assert_eq!((cfg.blocks.len(), cfg.edge_count()), (6, 7), "{src}");
    let tails: Vec<&Stmt> = cfg
        .blocks
        .iter()
        .flat_map(|b: &Block| b.stmts.iter())
        .filter(|s| !s.semi && !s.pattern)
        .collect();
    assert_eq!(tails.len(), 4, "three arm values and the fn's own tail");
    assert_eq!(
        tails.iter().filter(|s| s.tail_of.is_some()).count(),
        3,
        "the arm values feed `v`; the final `v` feeds the return"
    );
    pin(
        "fn f(n: u32) -> u32 {\n    let v = match n {\n        0 => 10,\n        _ => 0,\n    }\n    .max(1);\n    v\n}\n",
        2,
        1,
    );
}

#[test]
fn question_mark_adds_an_early_exit_edge() {
    // In a loop body, the `?` early exit is distinguishable from the
    // back edge: the try version gains exactly one body -> exit edge.
    let plain = cfg_of(
        "fn f(items: &[&str]) -> Result<u32, E> {\n    let mut sum = 0;\n    for s in items \
         {\n        sum += parse(s);\n    }\n    Ok(sum)\n}\n",
    );
    let try_ = cfg_of(
        "fn f(items: &[&str]) -> Result<u32, E> {\n    let mut sum = 0;\n    for s in items \
         {\n        sum += parse(s)?;\n    }\n    Ok(sum)\n}\n",
    );
    assert_eq!(
        try_.edge_count(),
        plain.edge_count() + 1,
        "`?` must add exactly one edge to exit"
    );
    assert_eq!(try_.blocks.len(), plain.blocks.len());
}

#[test]
fn early_return_starts_an_unreachable_continuation() {
    let src = "\
fn f(c: bool) -> u32 {
    if c {
        return 7;
    }
    1
}
";
    let cfg = cfg_of(src);
    check_invariants(&cfg, src);
    // The then-block ends at `return`: its only successor is exit.
    let ret_block = cfg
        .succ
        .iter()
        .enumerate()
        .find(|(b, s)| *b != cfg.entry && s.as_slice() == [cfg.exit])
        .map(|(b, _)| b);
    assert!(ret_block.is_some(), "no block flows only to exit:\n{src}");
}

#[test]
fn nested_fn_items_get_their_own_cfgs() {
    let src = "\
fn outer(c: bool) -> u32 {
    fn inner(x: u32) -> u32 {
        if x > 1 {
            x
        } else {
            1
        }
    }
    inner(3)
}
";
    let pf = ParsedFile::new("crates/seeded/src/lib.rs", src);
    let fc = build_file(&pf);
    assert_eq!(fc.cfgs.len(), 2, "outer and inner each get a CFG");
    for (_, cfg) in &fc.cfgs {
        check_invariants(cfg, src);
    }
    // `inner`'s if/else blocks must not leak into `outer`'s CFG:
    // outer is straight-line (2 blocks), inner is a diamond (5).
    let mut sizes: Vec<usize> = fc.cfgs.iter().map(|(_, c)| c.blocks.len()).collect();
    sizes.sort_unstable();
    assert_eq!(sizes, [2, 5], "{src}");
}
