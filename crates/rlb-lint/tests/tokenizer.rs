//! Pins `token::tokenize`, the linter's only scanner: where code ends
//! and comment or literal text begins, on the nastiest syntax the
//! workspace has actually hit (byte-char literals, `\`-continuation
//! strings, nested block comments, the `'` lifetime/char ambiguity).
//!
//! The oracle is the corpus itself: every source is written next to the
//! tokens it must produce, so the PCG sweep over random concatenations
//! knows the exact token stream of each document it generates.
//!
//! Spec syntax: tokens separated by spaces, a code token's kind read off
//! its first byte; a literal or comment is `K«text»` with `K` one of
//! `S`tr, `C`har, `F`loat, `L`ine comment, `B`lock comment, and `K«»`
//! standing for the whole source (less a final newline).

use rlb_hash::{pcg::Pcg64, Rng};
use rlb_lint::token::{tokenize, TokenKind, TokenKind::*};

type Expected = Vec<(TokenKind, String)>;

fn expected(source: &str, spec: &str) -> Expected {
    let mut want = Expected::new();
    for chunk in spec.split('»') {
        let (code, literal) = chunk.split_once('«').map_or((chunk, None), |(head, body)| {
            let (code, tag) = head.split_at(head.len() - 1);
            let kind = match tag {
                "S" => Str,
                "C" => Char,
                "F" => Float,
                "L" => LineComment,
                "B" => BlockComment,
                _ => panic!("unknown tag {tag:?} in {spec:?}"),
            };
            let whole = source.trim_end_matches('\n');
            let body = if body.is_empty() { whole } else { body };
            (code, Some((kind, body.to_string())))
        });
        want.extend(code.split_whitespace().map(|t| {
            let kind = match t.as_bytes()[0] {
                b'\'' => Lifetime,
                b if b.is_ascii_digit() => Int,
                b if b.is_ascii_alphabetic() || b == b'_' => Ident,
                _ => Punct,
            };
            (kind, t.to_string())
        }));
        want.extend(literal);
    }
    want
}

/// Checks `source`'s token stream against `want`, and that the spans
/// tile the source: in order, disjoint, only whitespace between them.
fn assert_tokens(source: &str, want: &Expected) {
    let tokens = tokenize(source);
    let text = |t: &rlb_lint::token::Token| (t.kind, t.text(source).to_string());
    let got: Expected = tokens.toks.iter().map(text).collect();
    assert_eq!(&got, want, "token stream of {source:?}");
    let mut at = 0;
    for t in &tokens.toks {
        assert!(at <= t.lo && t.lo < t.hi, "span {t:?} in {source:?}");
        assert_eq!(source[at..t.lo].trim(), "", "gap in {source:?}");
        at = t.hi;
    }
    assert_eq!(source[at..].trim(), "", "untokenized tail in {source:?}");
}

/// Fragments chosen to stress every scanner state: each is individually
/// valid, and random concatenations exercise the boundaries between
/// states (comment openers inside strings, string openers inside
/// comments, a literal touching the token before it).
#[rustfmt::skip]
const FRAGMENTS: &[(&str, &str)] = &[
    ("fn foo()", "fn foo ( )"),
    ("let x = 1;", "let x = 1 ;"),
    ("x_1y", "x_1y"),
    ("0xFF_u32", "0xFF_u32"),
    ("1_000_000", "1_000_000"),
    ("1e9", "F«»"),
    ("2.5f64", "F«»"),
    ("0b1010", "0b1010"),
    ("'a'", "C«»"),
    ("'\\n'", "C«»"),
    ("'\\''", "C«»"),
    ("'\\\\'", "C«»"),
    ("b'x'", "C«»"),
    ("b'\\''", "C«»"),
    ("'static", "'static"),
    ("'outer: loop {}", "'outer : loop { }"),
    ("<'a>", "< 'a >"),
    ("\"plain\"", "S«»"),
    ("\"esc \\\" quote\"", "S«»"),
    ("\"tail\\\\\"", "S«»"),
    ("\"multi\nline\"", "S«»"),
    ("\"cont\\\n    inued\"", "S«»"),
    ("b\"bytes\"", "S«»"),
    ("r\"raw\"", "S«»"),
    ("r#\"raw # hash\"#", "S«»"),
    ("r##\"nested \"# inner\"##", "S«»"),
    ("// line comment\n", "L«»"),
    ("/// doc comment\n", "L«»"),
    ("//! inner doc\n", "L«»"),
    ("/* block */", "B«»"),
    ("/* nested /* block */ still */", "B«»"),
    ("/* multi\nline\nblock */", "B«»"),
    ("/* \"string in comment\" */", "B«»"),
    ("\"/* comment in string */\"", "S«»"),
    ("// 'quote in comment\n", "L«»"),
    ("a.b.c", "a . b . c"),
    ("x?;", "x ? ;"),
    ("m!{}", "m ! { }"),
    ("#[derive(Debug)]", "# [ derive ( Debug ) ]"),
    ("Vec::<u64>::new()", "Vec :: < u64 > :: new ( )"),
    ("a << 2 >> b", "a << 2 >> b"),
    ("&&x || !y", "&& x || ! y"),
    ("..=", "..="),
    ("'outer: while x { break 'outer; }", "'outer : while x { break 'outer ; }"),
    ("let Some(v) = o else { return; };", "let Some ( v ) = o else { return ; } ;"),
    ("|a, b| a + b", "| a , b | a + b"),
    ("move || inner(|| 1)", "move || inner ( || 1 )"),
    ("match g { n if n > 0 => n, _ => 0 }", "match g { n if n > 0 => n , _ => 0 }"),
    ("🦀", "🦀"),
    ("\"emoji 🦀 in string\"", "S«»"),
    ("// emoji 🦀 in comment\n", "L«»"),
];

/// One case per literal and comment form, then the bugs this workspace
/// actually shipped: each of those is a regression case where a scanner
/// historically miscounted.
#[rustfmt::skip]
const NASTY: &[(&str, &str)] = &[
    ("let x = 1; // HashMap here\nlet y = 2;\n", "let x = 1 ; L«// HashMap here» let y = 2 ;"),
    ("a /* one /* two */ still */ b\nc /* x\ny */ d\n",
     "a B«/* one /* two */ still */» b c B«/* x\ny */» d"),
    // A string's closing quote is not the escaped one.
    (r#"panic!("HashMap {x}\" more"); let s = "a";"#,
     r#"panic ! ( S«"HashMap {x}\" more"» ) ; let s = S«"a"» ;"#),
    (r###"let x = r#"Instant::now " inside"# + 1;"###,
     r###"let x = S«r#"Instant::now " inside"#» + 1 ;"###),
    (r"let c = 'x'; let n = '\n'; fn f<'a>(s: &'a str) {} 'outer: loop {}",
     r"let c = C«'x'» ; let n = C«'\n'» ; fn f < 'a > ( s : & 'a str ) { } 'outer : loop { }"),
    // `br#x` is not a raw string (no quote): it stays code.
    (r#"let a = b"SystemTime"; let b = b'\n'; let br2 = br#x;"#,
     r#"let a = S«b"SystemTime"» ; let b = C«b'\n'» ; let br2 = br # x ;"#),
    ("let x = \"λλλ HashMap\"; let y = 'λ'; let z = 1;",
     "let x = S«\"λλλ HashMap\"» ; let y = C«'λ'» ; let z = 1 ;"),
    // A prefix letter glued to a longer identifier is not a prefix.
    ("let var_b = 1; let s = \"x\"; attr_r#try;",
     "let var_b = 1 ; let s = S«\"x\"» ; attr_r # try ;"),
    // Byte-char with an escaped newline used to desync line counts.
    ("let nl = b'\\n';\nlet tick = '\\'';\n// after\n",
     "let nl = C«b'\\n'» ; let tick = C«'\\''» ; L«// after»"),
    // A backslash-continuation string spans lines without ending the
    // literal.
    ("let s = \"line one\\\n  line two\";\nlet after = 1; // t\n",
     "let s = S«\"line one\\\n  line two\"» ; let after = 1 ; L«// t»"),
    // Lifetime vs char: `'a,` must not open a char literal that
    // swallows the rest of the file.
    ("fn f<'a, 'b>(x: &'a str, y: &'b str) {}\nlet c = 'q';\n",
     "fn f < 'a , 'b > ( x : & 'a str , y : & 'b str ) { } let c = C«'q'» ;"),
    // Nested block comments must track depth.
    ("/* a /* b /* c */ b */ a */ let x = 1;\n", "B«/* a /* b /* c */ b */ a */» let x = 1 ;"),
    // Raw strings ignore escapes entirely.
    ("let r = r\"c:\\no\\escape\";\nlet h = r#\"quote \" inside\"#;\n",
     "let r = S«r\"c:\\no\\escape\"» ; let h = S«r#\"quote \" inside\"#» ;"),
    // A quote character inside a line comment is plain text.
    ("// don't\nlet live = 'x';\n", "L«// don't» let live = C«'x'» ;"),
    // Block-comment opener inside a string literal is plain text.
    ("let s = \"/* not a comment\";\nlet t = 1; /* real */\n",
     "let s = S«\"/* not a comment\"» ; let t = 1 ; B«/* real */»"),
    // Shifts and generics share `<`/`>` tokens.
    ("let v: Vec<Vec<u8>> = vec![];\nlet s = 1u64 << 3 >> 1;\n",
     "let v : Vec < Vec < u8 >> = vec ! [ ] ; let s = 1u64 << 3 >> 1 ;"),
    // CRLF line endings: a line comment runs to the `\n`.
    ("let a = 1; // c\r\nlet b = \"x\";\r\n", "let a = 1 ; L«// c\r» let b = S«\"x\"» ;"),
    // Doc comments carry their sigils into the comment token.
    ("/// outer doc 'tick\n//! inner doc \"quote\npub fn d() {}\n",
     "L«/// outer doc 'tick» L«//! inner doc \"quote» pub fn d ( ) { }"),
    // Found by the PCG sweep: an escaped-quote char literal used to end
    // at its escaped quote, leaving a stray `'` that made `r` read as a
    // lifetime instead of a raw-string opener.
    ("'\\''r##\"nested \"# inner\"##", "C«'\\''» S«r##\"nested \"# inner\"##»"),
    ("", ""),
    ("\n\n\n", ""),
];

#[test]
fn corpus_tokenizes_as_written() {
    for (source, spec) in FRAGMENTS.iter().chain(NASTY) {
        assert_tokens(source, &expected(source, spec));
    }
}

/// Line numbers come from the newline table, so a literal or comment
/// that spans lines cannot shift the lines after it.
#[test]
fn tokens_after_multi_line_literals_keep_their_lines() {
    for (source, needle, line) in [
        ("line0\n// c\nline2 \"str\" end\n", "line2", 3),
        ("a /* x\ny */ d\n", "d", 2),
        (
            "let s = \"one\\\n  two\";\nlet after = 1; // t\n",
            "// t",
            3,
        ),
        ("let r = r\"a\nb\nc\"; tail", "tail", 3),
    ] {
        let tokens = tokenize(source);
        let found = tokens.toks.iter().find(|t| t.text(source) == needle);
        assert_eq!(tokens.line_of(found.expect(needle).lo), line, "{source:?}");
    }
}

/// The per-line comment table is rebuilt from comment tokens, so a
/// `lint:allow` is found on the line its text is on: after a string
/// that spans lines, and on the last line of a block comment.
#[test]
fn suppressions_attach_to_the_line_their_comment_text_is_on() {
    let rules_fired = |above: &str| -> Vec<&str> {
        let cast = "let n = x as u32;";
        let source = format!("fn f(x: u64) {{\n{above}\n{cast}\n}}\n");
        let findings = rlb_lint::lint_source("crates/rlb-core/src/stats.rs", &source);
        findings.iter().map(|f| f.rule).collect()
    };
    for above in [
        "let s = \"one\\\n  two\";\n// bounded above. lint:allow(lossy-cast)",
        "/* bounded above:\n   lint:allow(lossy-cast) */",
    ] {
        assert!(rules_fired(above).is_empty(), "{above:?}");
    }
    // One line further up, the same text suppresses nothing and is dead.
    assert_eq!(
        rules_fired("/* lint:allow(lossy-cast)\n   bounded above */"),
        ["unused-suppression", "lossy-cast"]
    );
}

/// PCG sweep: thousands of random fragment concatenations, each with
/// the token stream its fragments spell out. Fragments may touch (the
/// empty separator) unless Rust itself would read the junction as one
/// token: an identifier, number or lifetime running into an
/// identifier, or a `b`/`r` becoming a literal's prefix.
#[test]
fn pcg_sweep_tokenizes_as_generated() {
    const SEPS: &[&str] = &[" ", "\n", "\t", "\r\n", "", "  \n\n"];
    let is_ident_byte = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut rng = Pcg64::new(0xC0FFEE, 7);
    let mut touching = 0;
    for _ in 0..4000 {
        let (mut doc, mut want) = (String::new(), Expected::new());
        for _ in 0..=rng.gen_range(24) {
            let (fragment, spec) = FRAGMENTS[rng.gen_range(FRAGMENTS.len() as u64) as usize];
            let next = fragment.as_bytes()[0];
            let last = doc.bytes().last().unwrap_or(b' ');
            if is_ident_byte(last) && (is_ident_byte(next) || next == b'\'' || next == b'"') {
                doc.push(' ');
            } else if !last.is_ascii_whitespace() {
                touching += 1;
            }
            doc.push_str(fragment);
            want.extend(expected(fragment, spec));
            doc.push_str(SEPS[rng.gen_range(SEPS.len() as u64) as usize]);
        }
        assert_tokens(&doc, &want);
    }
    assert!(touching > 1000, "only {touching} fragments met unseparated");
}
