//! A spanned tokenizer: the one place the linter decides where code
//! ends and comment or literal text begins.
//!
//! It answers "what *tokens* make up the code": identifiers, multi-byte
//! punctuation (`::`, `->`, `<<=`, …), numeric literals with an
//! int/float split, string/char literals (plain, raw, byte), lifetimes
//! vs char literals, and comments. Every token carries exact byte
//! spans, so the rule passes and the item parser ([`crate::items`])
//! report findings at exact positions instead of substring offsets, and
//! never match text inside a comment or a literal.
//!
//! `tests/tokenizer.rs` pins the classification on a generated corpus
//! of tricky syntax (raw strings, nested block comments, lifetimes,
//! char literals, escape-continued strings) whose generator knows what
//! each fragment it emits is.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `route_range`, `u32`, …).
    Ident,
    /// A lifetime or loop label (`'a`, `'outer`) — *not* a char literal.
    Lifetime,
    /// An integer literal (`3`, `0xff_u32`, `1_000`).
    Int,
    /// A float literal (`1.5`, `2e-3`, `1.0f64`).
    Float,
    /// Any string-like literal: `"…"`, `r#"…"#`, `b"…"`, `br"…"`.
    Str,
    /// A char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// A `// …` comment (doc comments included).
    LineComment,
    /// A `/* … */` comment (nesting handled).
    BlockComment,
    /// Punctuation, greedily joined (`::`, `->`, `<<=`, `..=`, `+`, …).
    Punct,
}

/// One token. `lo..hi` is the byte span in the original source.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// Span start (byte offset, inclusive).
    pub lo: usize,
    /// Span end (byte offset, exclusive).
    pub hi: usize,
}

impl Token {
    /// The token's text.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.lo..self.hi]
    }
}

/// A tokenized file: the token stream plus a line table.
#[derive(Debug, Clone)]
// field/param type of the `items::parse` surface. lint:allow(dead-pub)
pub struct Tokens {
    /// All tokens in source order (whitespace dropped).
    pub toks: Vec<Token>,
    /// Byte offset of the start of each line (line 1 starts at offset 0).
    line_starts: Vec<usize>,
}

impl Tokens {
    /// 1-based line number of byte offset `pos`.
    pub fn line_of(&self, pos: usize) -> usize {
        self.line_starts.partition_point(|&s| s <= pos)
    }

    /// 1-based column of byte offset `pos`.
    pub fn col_of(&self, pos: usize) -> usize {
        let line = self.line_of(pos);
        pos - self.line_starts[line - 1] + 1
    }

    /// Byte offset at which 0-based line `line0` starts.
    pub(crate) fn line_start(&self, line0: usize) -> usize {
        self.line_starts[line0]
    }

    /// Number of lines (at least 1, even for empty input).
    pub fn line_count(&self) -> usize {
        self.line_starts.len()
    }

    /// The tokens whose kind is not a comment, for passes that only
    /// look at code.
    pub(crate) fn code_tokens(&self) -> impl Iterator<Item = (usize, &Token)> {
        self.toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

/// Multi-byte punctuation, longest first (greedy matching).
const PUNCT3: &[&str] = &["<<=", ">>=", "..=", "..."];
const PUNCT2: &[&str] = &[
    "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "+=", "-=", "*=", "/=", "%=",
    "^=", "&=", "|=", "..",
];

/// Tokenizes `source`.
pub fn tokenize(source: &str) -> Tokens {
    let src = source.as_bytes();
    let mut line_starts = vec![0usize];
    for (i, &b) in src.iter().enumerate() {
        if b == b'\n' {
            line_starts.push(i + 1);
        }
    }
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < src.len() {
        let b = src[i];
        // Whitespace (newlines included — the line table already knows
        // where they are).
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if b == b'/' && src.get(i + 1) == Some(&b'/') {
            let start = i;
            while i < src.len() && src[i] != b'\n' {
                i += 1;
            }
            toks.push(Token {
                kind: TokenKind::LineComment,
                lo: start,
                hi: i,
            });
            continue;
        }
        // Block comment (nested; unterminated runs to EOF).
        if b == b'/' && src.get(i + 1) == Some(&b'*') {
            let start = i;
            let mut depth = 1usize;
            i += 2;
            while i < src.len() && depth > 0 {
                if src[i] == b'/' && src.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    i += 2;
                } else if src[i] == b'*' && src.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            let end = i.min(src.len());
            toks.push(Token {
                kind: TokenKind::BlockComment,
                lo: start,
                hi: end,
            });
            continue;
        }
        // Raw / byte-string / byte-char prefixes: only when the prefix
        // byte is not the tail of a longer identifier (`var_b"x"` is a
        // plain string after an ident — the ident arm below consumes
        // `var_b` first, so reaching here with `r`/`b` means the
        // previous byte was not an identifier byte).
        {
            // r"…" / r#"…"# / br"…" / br#"…"#
            let raw_at = if b == b'r' {
                Some(i + 1)
            } else if b == b'b' && src.get(i + 1) == Some(&b'r') {
                Some(i + 2)
            } else {
                None
            };
            if let Some(mut j) = raw_at {
                let mut hashes = 0usize;
                while src.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if src.get(j) == Some(&b'"') {
                    let mut k = j + 1;
                    let end;
                    loop {
                        match src.get(k) {
                            None => {
                                end = src.len();
                                break;
                            }
                            Some(b'"') if src[k + 1..].iter().take(hashes).all(|&h| h == b'#') => {
                                end = k;
                                break;
                            }
                            Some(_) => k += 1,
                        }
                    }
                    let past = (end + 1 + hashes).min(src.len());
                    toks.push(Token {
                        kind: TokenKind::Str,
                        lo: i,
                        hi: past,
                    });
                    i = past;
                    continue;
                }
            }
            // b'…' byte-char literal.
            if b == b'b' && src.get(i + 1) == Some(&b'\'') {
                let end = scan_char_end(src, i + 1);
                toks.push(Token {
                    kind: TokenKind::Char,
                    lo: i,
                    hi: end,
                });
                i = end;
                continue;
            }
            // b"…" plain byte string.
            if b == b'b' && src.get(i + 1) == Some(&b'"') {
                let past = scan_plain_string(src, i + 1);
                toks.push(Token {
                    kind: TokenKind::Str,
                    lo: i,
                    hi: past,
                });
                i = past;
                continue;
            }
        }
        // Plain string literal.
        if b == b'"' {
            let past = scan_plain_string(src, i);
            toks.push(Token {
                kind: TokenKind::Str,
                lo: i,
                hi: past,
            });
            i = past;
            continue;
        }
        // Char literal vs lifetime.
        if b == b'\'' {
            if let Some(end) = try_char_end(src, i) {
                toks.push(Token {
                    kind: TokenKind::Char,
                    lo: i,
                    hi: end,
                });
                i = end;
                continue;
            }
            // Lifetime / loop label: `'` plus identifier bytes.
            if src.get(i + 1).copied().is_some_and(is_ident_start) {
                let mut k = i + 1;
                while k < src.len() && is_ident_byte(src[k]) {
                    k += 1;
                }
                toks.push(Token {
                    kind: TokenKind::Lifetime,
                    lo: i,
                    hi: k,
                });
                i = k;
                continue;
            }
            // A bare `'` (not valid Rust): single punct.
            toks.push(Token {
                kind: TokenKind::Punct,
                lo: i,
                hi: i + 1,
            });
            i += 1;
            continue;
        }
        // Numeric literal.
        if b.is_ascii_digit() {
            let (end, is_float) = scan_number(src, i);
            toks.push(Token {
                kind: if is_float {
                    TokenKind::Float
                } else {
                    TokenKind::Int
                },
                lo: i,
                hi: end,
            });
            i = end;
            continue;
        }
        // Identifier / keyword.
        if is_ident_start(b) {
            let mut k = i + 1;
            while k < src.len() && is_ident_byte(src[k]) {
                k += 1;
            }
            toks.push(Token {
                kind: TokenKind::Ident,
                lo: i,
                hi: k,
            });
            i = k;
            continue;
        }
        // Punctuation, greedy multi-byte. Multi-byte UTF-8 sequences
        // outside literals (not valid Rust anyway) fall through here
        // one byte at a time.
        let rest = &source[i..];
        let len = PUNCT3
            .iter()
            .chain(PUNCT2)
            .find(|p| rest.starts_with(**p))
            .map_or_else(|| utf8_len(b), |p| p.len());
        toks.push(Token {
            kind: TokenKind::Punct,
            lo: i,
            hi: (i + len).min(src.len()),
        });
        i += len;
    }
    Tokens { toks, line_starts }
}

/// Index just past a plain (or byte) string whose opening quote is at
/// `quote` (clamped at EOF when unterminated).
fn scan_plain_string(src: &[u8], quote: usize) -> usize {
    let mut k = quote + 1;
    loop {
        match src.get(k) {
            None => break,
            Some(b'\\') => k += 2,
            Some(b'"') => break,
            Some(_) => k += 1,
        }
    }
    (k + 1).min(src.len())
}

/// Index just past a char literal whose opening `'` is at `quote`
/// (clamped at EOF / end of line).
fn scan_char_end(src: &[u8], quote: usize) -> usize {
    let mut k = quote + 1;
    if src.get(k) == Some(&b'\\') {
        k += 2;
    }
    while k < src.len() && src[k] != b'\'' && src[k] != b'\n' {
        k += 1;
    }
    (k + 1).min(src.len())
}

/// `Some(end)` if the `'` at `start` begins a char literal rather than
/// a lifetime.
fn try_char_end(src: &[u8], start: usize) -> Option<usize> {
    let next = *src.get(start + 1)?;
    if next == b'\\' {
        // Skip the backslash AND the escaped byte before searching for
        // the closing quote, or `'\''` ends at its escaped quote.
        let mut k = start + 3;
        while k < src.len() && src[k] != b'\'' && src[k] != b'\n' {
            k += 1;
        }
        return Some((k + 1).min(src.len()));
    }
    if next == b'\'' {
        return None;
    }
    let char_len = utf8_len(next);
    match src.get(start + 1 + char_len) {
        Some(&b'\'') => Some(start + char_len + 2),
        _ => None,
    }
}

/// Scans a numeric literal starting at a digit; returns `(end,
/// is_float)`. Handles `0x`/`0o`/`0b` prefixes, `_` separators, type
/// suffixes (`1u32`, `1.0f64`), fractional parts (`1.5`, but not `1.x`
/// field access or `1..` ranges), and signed exponents (`1e-3`).
fn scan_number(src: &[u8], start: usize) -> (usize, bool) {
    let radix_prefixed = src.get(start) == Some(&b'0')
        && matches!(
            src.get(start + 1),
            Some(b'x' | b'o' | b'b' | b'X' | b'O' | b'B')
        );
    let mut k = start;
    let mut is_float = false;
    // Integer part (digits, separators, radix letters, suffix letters).
    k = scan_digit_run(src, k, radix_prefixed);
    // Fractional part: a dot followed by a digit, or a trailing dot
    // that is not a range (`1..`) or a method/field access (`1.max`).
    if !radix_prefixed && src.get(k) == Some(&b'.') {
        match src.get(k + 1) {
            Some(&d) if d.is_ascii_digit() => {
                is_float = true;
                k = scan_digit_run(src, k + 1, false);
            }
            Some(&d) if !is_ident_start(d) && d != b'.' => {
                is_float = true;
                k += 1;
            }
            None => {
                is_float = true;
                k += 1;
            }
            _ => {}
        }
    }
    if !radix_prefixed {
        let run = &src[start..k];
        if run.iter().any(|&b| b == b'e' || b == b'E') {
            is_float = true;
        }
        if run.ends_with(b"f32") || run.ends_with(b"f64") {
            is_float = true;
        }
    }
    (k, is_float)
}

/// Consumes digits/separators/letters, plus a signed exponent tail
/// (`e-3`) when not radix-prefixed.
fn scan_digit_run(src: &[u8], mut k: usize, radix_prefixed: bool) -> usize {
    while k < src.len() && is_ident_byte(src[k]) {
        k += 1;
    }
    if !radix_prefixed
        && k > 0
        && matches!(src[k - 1], b'e' | b'E')
        && matches!(src.get(k), Some(b'+' | b'-'))
        && src.get(k + 1).copied().is_some_and(|b| b.is_ascii_digit())
    {
        k += 1;
        while k < src.len() && is_ident_byte(src[k]) {
            k += 1;
        }
    }
    k
}

fn utf8_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b >= 0xf0 => 4,
        b if b >= 0xe0 => 3,
        _ => 2,
    }
}

/// Per-line comment text (0-indexed by line), rebuilt from the comment
/// tokens: each line's segment of a multi-line block comment is
/// attributed to its own line. The suppression table
/// ([`crate::rules`]) is built from this.
pub(crate) fn comments_by_line(source: &str, tokens: &Tokens) -> Vec<String> {
    let mut comments = vec![String::new(); tokens.line_count()];
    for t in &tokens.toks {
        if matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            let mut seg_start = t.lo;
            let mut line = tokens.line_of(t.lo) - 1;
            for (off, &b) in source.as_bytes()[t.lo..t.hi].iter().enumerate() {
                if b == b'\n' {
                    comments[line].push_str(&source[seg_start..t.lo + off]);
                    seg_start = t.lo + off + 1;
                    line += 1;
                }
            }
            comments[line].push_str(&source[seg_start..t.hi]);
        }
    }
    comments
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        tokenize(src)
            .toks
            .iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    #[test]
    fn idents_puncts_and_numbers() {
        let got = kinds("fn f(x: u32) -> u64 { x as u64 + 1 }");
        let texts: Vec<&str> = got.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(
            texts,
            [
                "fn", "f", "(", "x", ":", "u32", ")", "->", "u64", "{", "x", "as", "u64", "+", "1",
                "}"
            ]
        );
        assert_eq!(got[8].0, TokenKind::Ident);
        assert_eq!(got[7].0, TokenKind::Punct); // ->
        assert_eq!(got[14].0, TokenKind::Int);
    }

    #[test]
    fn multibyte_puncts_are_greedy() {
        let texts: Vec<String> = kinds("a <<= b << c .. d ..= e ::f")
            .into_iter()
            .map(|(_, s)| s)
            .collect();
        assert!(texts.contains(&"<<=".to_string()));
        assert!(texts.contains(&"<<".to_string()));
        assert!(texts.contains(&"..".to_string()));
        assert!(texts.contains(&"..=".to_string()));
        assert!(texts.contains(&"::".to_string()));
    }

    #[test]
    fn floats_vs_ints_vs_ranges() {
        let got = kinds("1 + 1.5 - 2e-3 * 0xff / 1..4 % 1.max(2) , 1.0f64 , 3u32");
        let find = |s: &str| got.iter().find(|(_, t)| t == s).map(|(k, _)| *k);
        assert_eq!(find("1"), Some(TokenKind::Int));
        assert_eq!(find("1.5"), Some(TokenKind::Float));
        assert_eq!(find("2e-3"), Some(TokenKind::Float));
        assert_eq!(find("0xff"), Some(TokenKind::Int));
        assert_eq!(find("1.0f64"), Some(TokenKind::Float));
        assert_eq!(find("3u32"), Some(TokenKind::Int));
        // `1..4` keeps the range punct; `1.max` keeps the method call.
        assert_eq!(find(".."), Some(TokenKind::Punct));
        assert_eq!(find("max"), Some(TokenKind::Ident));
    }

    #[test]
    fn hex_e_suffix_is_not_an_exponent() {
        // `0x1e-2` is `0x1e` minus `2`, not a float exponent.
        let got = kinds("0x1e-2");
        assert_eq!(got.len(), 3, "{got:?}");
        assert_eq!(got[0], (TokenKind::Int, "0x1e".to_string()));
        assert_eq!(got[1].1, "-");
    }

    #[test]
    fn lifetimes_chars_and_labels() {
        let got = kinds(r"fn f<'a>(s: &'a str) { let c = 'x'; 'outer: loop { break 'outer; } }");
        let lifetimes: Vec<&str> = got
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .map(|(_, s)| s.as_str())
            .collect();
        assert_eq!(lifetimes, ["'a", "'a", "'outer", "'outer"]);
        assert!(got.iter().any(|(k, s)| *k == TokenKind::Char && s == "'x'"));
    }

    #[test]
    fn strings_and_raw_strings_are_single_tokens() {
        let src =
            r###"let a = "plain"; let b = r#"raw " inside"#; let c = b"bytes"; let d = br"rb";"###;
        let strs: Vec<&str> = kinds(src)
            .iter()
            .filter(|(k, _)| *k == TokenKind::Str)
            .map(|(_, s)| s.as_str())
            .collect::<Vec<_>>()
            .into_iter()
            .map(|s| Box::leak(s.to_string().into_boxed_str()) as &str)
            .collect();
        assert_eq!(strs.len(), 4, "{strs:?}");
        assert_eq!(strs[0], "\"plain\"");
        assert_eq!(strs[1], r###"r#"raw " inside"#"###);
        assert_eq!(strs[2], "b\"bytes\"");
        assert_eq!(strs[3], "br\"rb\"");
    }

    #[test]
    fn comments_are_tokens_with_text() {
        let src = "a // line\nb /* block\nmore */ c";
        let got = kinds(src);
        assert!(got
            .iter()
            .any(|(k, s)| *k == TokenKind::LineComment && s == "// line"));
        assert!(got
            .iter()
            .any(|(k, s)| *k == TokenKind::BlockComment && s.contains("more")));
    }

    #[test]
    fn line_and_col_lookup() {
        let src = "ab\ncd ef\n";
        let t = tokenize(src);
        assert_eq!(t.line_of(0), 1);
        assert_eq!(t.line_of(3), 2);
        assert_eq!(t.col_of(6), 4); // "ef"
        assert_eq!(t.line_count(), 3);
    }
}
