//! A minimal Rust tokenizer.
//!
//! `fiveg-lint` owns its lexer the same way `fiveg-obs` owns its JSON
//! reader: the vendored dependency set has no `syn`/`proc-macro2`, and
//! the item parser only needs a faithful token stream. The lexer
//! understands everything that could hide a false positive from a
//! naive grep: line and (nested) block comments, string / raw-string /
//! byte-string / char literals, lifetimes, and numeric literals with
//! suffixes. `"counter_add("` inside a string or a doc comment
//! therefore never counts as a call; only real identifier tokens do.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`HashMap`, `static`, `r#type`).
    Ident,
    /// A single punctuation byte (`.`, `:`, `{`, ...).
    Punct,
    /// A numeric literal including any suffix (`1.5e3`, `0xff_u32`).
    Num,
    /// A string literal of any flavour (`"s"`, `r#"s"#`, `b"s"`).
    Str,
    /// A character literal (`'a'`, `'\n'`).
    Char,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
    /// A `//` comment, text includes the slashes.
    LineComment,
    /// A `/* */` comment (possibly nested), text includes delimiters.
    BlockComment,
}

/// One lexed token: kind, the exact source slice, and its 1-based line.
#[derive(Debug, Clone, Copy)]
pub struct Tok<'a> {
    /// Token class.
    pub kind: TokKind,
    /// Exact source text of the token.
    pub text: &'a str,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok<'_> {
    /// True for comment tokens (skipped by the rule matcher).
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }
}

/// Lexes `src` into tokens. Unknown bytes become single-byte `Punct`
/// tokens — the linter must never fail on syntactically-broken input,
/// it only has to avoid misclassifying well-formed code.
pub fn tokenize(src: &str) -> Vec<Tok<'_>> {
    Lexer {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
    }
    .run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Tok<'a>> {
        let mut toks = Vec::new();
        while let Some(b) = self.peek(0) {
            let start = self.pos;
            let line = self.line;
            let kind = match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                    continue;
                }
                b'/' if self.peek(1) == Some(b'/') => {
                    self.line_comment();
                    TokKind::LineComment
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    self.block_comment();
                    TokKind::BlockComment
                }
                b'"' => {
                    self.string();
                    TokKind::Str
                }
                b'r' | b'b' if self.raw_or_byte_string() => TokKind::Str,
                b'\'' => self.char_or_lifetime(),
                b'_' | b'a'..=b'z' | b'A'..=b'Z' => {
                    self.ident();
                    TokKind::Ident
                }
                b'0'..=b'9' => {
                    self.number();
                    TokKind::Num
                }
                _ => {
                    // Single punctuation byte; multi-byte UTF-8 chars
                    // (only legal inside strings/comments in Rust) are
                    // consumed whole to keep slices on char bounds.
                    let w = utf8_width(b);
                    self.pos += w;
                    TokKind::Punct
                }
            };
            toks.push(Tok {
                kind,
                text: &self.src[start..self.pos],
                line,
            });
        }
        toks
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) {
        if self.bytes[self.pos] == b'\n' {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn line_comment(&mut self) {
        while let Some(b) = self.peek(0) {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
    }

    fn block_comment(&mut self) {
        self.pos += 2; // consume `/*`
        let mut depth = 1usize;
        while let Some(b) = self.peek(0) {
            if b == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.pos += 2;
            } else if b == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.pos += 2;
                if depth == 0 {
                    return;
                }
            } else {
                self.bump();
            }
        }
    }

    /// Consumes a `"…"` string starting at the current `"`.
    fn string(&mut self) {
        self.pos += 1; // opening quote
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' => {
                    self.bump();
                    if self.peek(0).is_some() {
                        self.bump();
                    }
                }
                b'"' => {
                    self.pos += 1;
                    return;
                }
                _ => self.bump(),
            }
        }
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` and `b'…'`. Returns
    /// true if a string/byte literal was consumed; false means the
    /// leading `r`/`b` starts an ordinary identifier (including raw
    /// identifiers like `r#match`), which the caller lexes instead.
    fn raw_or_byte_string(&mut self) -> bool {
        let (prefix, raw) = match (self.bytes[self.pos], self.peek(1)) {
            (b'b', Some(b'r')) => (2, true),
            (b'b', Some(b'"')) => (1, false),
            (b'b', Some(b'\'')) => {
                self.pos += 1; // past `b`; lex the rest like a char
                self.char_or_lifetime();
                return true;
            }
            (b'r', _) => (1, true),
            _ => return false,
        };
        if !raw {
            self.pos += 1; // past `b`; escapes apply as in a plain string
            self.string();
            return true;
        }
        let mut hashes = 0usize;
        while self.peek(prefix + hashes) == Some(b'#') {
            hashes += 1;
        }
        if self.peek(prefix + hashes) != Some(b'"') {
            return false; // `r#ident` / `r` / `br` used as identifiers
        }
        self.pos += prefix + hashes + 1;
        // Raw string: ends at `"` followed by `hashes` hash marks.
        while let Some(b) = self.peek(0) {
            if b == b'"' && (0..hashes).all(|h| self.peek(1 + h) == Some(b'#')) {
                self.pos += 1 + hashes;
                return true;
            }
            self.bump();
        }
        true
    }

    /// At a `'`: either a char literal or a lifetime.
    fn char_or_lifetime(&mut self) -> TokKind {
        self.pos += 1; // consume `'`
        match self.peek(0) {
            Some(b'\\') => {
                // Escaped char literal: consume escape then scan to `'`.
                self.bump();
                if self.peek(0).is_some() {
                    self.bump();
                }
                while let Some(b) = self.peek(0) {
                    self.bump();
                    if b == b'\'' {
                        break;
                    }
                }
                TokKind::Char
            }
            Some(b) if b == b'_' || b.is_ascii_alphanumeric() => {
                // `'a'` = char, `'a` / `'static` = lifetime.
                let mut i = 1;
                while matches!(self.peek(i), Some(c) if c == b'_' || c.is_ascii_alphanumeric()) {
                    i += 1;
                }
                if self.peek(i) == Some(b'\'') && i == 1 {
                    self.pos += i + 1;
                    TokKind::Char
                } else {
                    for _ in 0..i {
                        self.bump();
                    }
                    TokKind::Lifetime
                }
            }
            Some(_) => {
                // `'('` style single-char literal of a non-alnum char.
                let w = self.peek(0).map_or(1, utf8_width);
                self.pos += w;
                if self.peek(0) == Some(b'\'') {
                    self.pos += 1;
                }
                TokKind::Char
            }
            None => TokKind::Punct,
        }
    }

    fn ident(&mut self) {
        while matches!(self.peek(0), Some(b) if b == b'_' || b.is_ascii_alphanumeric()) {
            self.pos += 1;
        }
    }

    /// Numeric literal. Careful not to eat the `.` of a method call:
    /// `1.0.total_cmp(...)` must lex as `1.0` `.` `total_cmp`.
    fn number(&mut self) {
        if self.peek(0) == Some(b'0') && matches!(self.peek(1), Some(b'x' | b'o' | b'b')) {
            self.pos += 2;
            while matches!(self.peek(0), Some(b) if b.is_ascii_alphanumeric() || b == b'_') {
                self.pos += 1;
            }
            return;
        }
        while matches!(self.peek(0), Some(b) if b.is_ascii_digit() || b == b'_') {
            self.pos += 1;
        }
        if self.peek(0) == Some(b'.') && matches!(self.peek(1), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
            while matches!(self.peek(0), Some(b) if b.is_ascii_digit() || b == b'_') {
                self.pos += 1;
            }
        }
        if matches!(self.peek(0), Some(b'e' | b'E')) {
            let sign = usize::from(matches!(self.peek(1), Some(b'+' | b'-')));
            if matches!(self.peek(1 + sign), Some(b) if b.is_ascii_digit()) {
                self.pos += 1 + sign;
                while matches!(self.peek(0), Some(b) if b.is_ascii_digit() || b == b'_') {
                    self.pos += 1;
                }
            }
        }
        // Type suffix (`u32`, `f64`) — alphanumeric tail.
        while matches!(self.peek(0), Some(b) if b.is_ascii_alphanumeric() || b == b'_') {
            self.pos += 1;
        }
    }
}

fn utf8_width(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        tokenize(src)
            .into_iter()
            .map(|t| (t.kind, t.text.to_string()))
            .collect()
    }

    #[test]
    fn idents_and_punct() {
        let t = kinds("map.insert(k, v);");
        assert_eq!(t[0], (TokKind::Ident, "map".into()));
        assert_eq!(t[1], (TokKind::Punct, ".".into()));
        assert_eq!(t[2], (TokKind::Ident, "insert".into()));
    }

    #[test]
    fn strings_hide_identifiers() {
        let t = kinds(r#"let s = "HashMap::new()";"#);
        assert!(t
            .iter()
            .any(|(k, s)| *k == TokKind::Str && s.contains("HashMap")));
        assert!(!t
            .iter()
            .any(|(k, s)| *k == TokKind::Ident && s == "HashMap"));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let t = kinds(r##"let s = r#"a "quoted" HashMap"# ;"##);
        assert!(t
            .iter()
            .any(|(k, s)| *k == TokKind::Str && s.contains("quoted")));
        assert!(!t
            .iter()
            .any(|(k, s)| *k == TokKind::Ident && s == "HashMap"));
    }

    #[test]
    fn raw_identifiers_stay_identifiers() {
        let t = kinds("let r#type = 1;");
        assert!(t.iter().any(|(k, s)| *k == TokKind::Ident && s == "type"));
    }

    #[test]
    fn byte_strings() {
        let t = kinds(r#"let b = b"Instant::now";"#);
        assert!(!t
            .iter()
            .any(|(k, s)| *k == TokKind::Ident && s == "Instant"));
    }

    #[test]
    fn comments_are_tokens_not_idents() {
        let t = kinds("// HashMap here\n/* static mut */ let x = 1;");
        assert_eq!(t[0].0, TokKind::LineComment);
        assert_eq!(t[1].0, TokKind::BlockComment);
        assert!(!t
            .iter()
            .any(|(k, s)| *k == TokKind::Ident && s == "HashMap"));
    }

    #[test]
    fn nested_block_comments() {
        let t = kinds("/* a /* b */ c */ x");
        assert_eq!(t.len(), 2);
        assert_eq!(t[1], (TokKind::Ident, "x".into()));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let t = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert!(t.iter().any(|(k, s)| *k == TokKind::Lifetime && s == "'a"));
        assert!(t.iter().any(|(k, s)| *k == TokKind::Char && s == "'x'"));
        assert!(t.iter().any(|(k, _)| *k == TokKind::Char));
    }

    #[test]
    fn float_method_calls_do_not_fuse() {
        let t = kinds("1.0.total_cmp(&x); v[0].partial_cmp(&y)");
        assert!(t
            .iter()
            .any(|(k, s)| *k == TokKind::Ident && s == "total_cmp"));
        assert!(t
            .iter()
            .any(|(k, s)| *k == TokKind::Ident && s == "partial_cmp"));
        assert!(t.iter().any(|(k, s)| *k == TokKind::Num && s == "1.0"));
    }

    #[test]
    fn numeric_suffixes_and_bases() {
        let t = kinds("0xff_u32 1_000u64 2.5e-3f64");
        assert_eq!(t[0], (TokKind::Num, "0xff_u32".into()));
        assert_eq!(t[1], (TokKind::Num, "1_000u64".into()));
        assert_eq!(t[2], (TokKind::Num, "2.5e-3f64".into()));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let t = tokenize("a\nb\n\nc");
        assert_eq!(t[0].line, 1);
        assert_eq!(t[1].line, 2);
        assert_eq!(t[2].line, 4);
    }
}
