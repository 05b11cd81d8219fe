//! A small, purpose-built Rust lexer for the `hot-path-alloc` rule.
//!
//! The rule matches on *code* tokens — identifiers and punctuation —
//! so the lexer's one job is to classify every byte of a source file correctly as
//! code, comment, or literal. Getting that wrong in either direction breaks the
//! rule: an allocation call inside a string or comment must never fire, and a real
//! violation must never hide behind a lexing bug. The tricky cases are exactly the
//! ones Rust's grammar makes easy to fumble with regexes:
//!
//! * nested block comments (`/* outer /* inner */ still a comment */`),
//! * raw strings with arbitrary hash fences (`r#"…"#`, `br##"…"##`),
//! * escaped quotes inside ordinary strings (`"\""`),
//! * lifetimes vs char literals (`<'a>` vs `'a'` vs `'\u{1F600}'`),
//! * raw identifiers (`r#type`) that start like a raw string.
//!
//! The lexer is intentionally lossy about things the rule never looks at: numeric
//! literal *values*, operator *composition* (`::` is two `:` tokens) and non-ASCII
//! identifiers (treated as opaque punctuation). It never fails — malformed input
//! degrades to best-effort tokens so the rule can still scan the rest of the file.

/// What a token is. Comments keep their text (the allow-marker parse reads it);
/// identifiers keep theirs (the rule matches on them). Literal contents are
/// deliberately dropped — the rule may never fire on them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers, without the `r#` prefix).
    Ident,
    /// One punctuation character (`::` arrives as two `Punct(':')` tokens).
    Punct(char),
    /// String literal of any flavour: `"…"`, `b"…"`, `c"…"`, `r"…"`, `r#"…"#`, …
    Str,
    /// Char or byte-char literal: `'a'`, `b'\n'`, `'\u{1F600}'`.
    Char,
    /// Lifetime: `'a`, `'static`, `'_`.
    Lifetime,
    /// Numeric literal (value not kept).
    Num,
    /// Line or block comment, doc comments included; text kept verbatim.
    Comment,
}

/// One lexed token with its line span (1-based; `line == end_line` except for
/// multi-line block comments and multi-line string literals).
#[derive(Clone, Debug)]
pub struct Tok {
    pub kind: TokKind,
    /// Identifier or comment text; empty for other kinds.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
    /// 1-based line the token ends on.
    pub end_line: usize,
}

impl Tok {
    /// Whether this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lexes a whole source file into a token stream. Never fails: unterminated
/// literals and comments extend to end of file.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        bytes: src.as_bytes(),
        i: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    bytes: &'a [u8],
    i: usize,
    line: usize,
    out: Vec<Tok>,
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Tok> {
        while self.i < self.bytes.len() {
            let b = self.bytes[self.i];
            match b {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b' ' | b'\t' | b'\r' => self.i += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(),
                b'\'' => self.quote(),
                b'r' | b'b' | b'c' if self.raw_or_prefixed() => {}
                _ if is_ident_start(b) => self.ident(),
                _ if b.is_ascii_digit() => self.number(),
                _ => {
                    // One punctuation byte; non-ASCII bytes (UTF-8 continuations
                    // included) are emitted as opaque punctuation and never matched.
                    self.push_here(TokKind::Punct(b as char), String::new());
                    self.i += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.i + ahead).copied()
    }

    fn push_here(&mut self, kind: TokKind, text: String) {
        self.push_from(self.line, kind, text);
    }

    /// Pushes a token that started on `line` and ends on the current line.
    fn push_from(&mut self, line: usize, kind: TokKind, text: String) {
        self.out.push(Tok {
            kind,
            text,
            line,
            end_line: self.line,
        });
    }

    fn line_comment(&mut self) {
        let start = self.i;
        while self.i < self.bytes.len() && self.bytes[self.i] != b'\n' {
            self.i += 1;
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.i]).into_owned();
        self.push_here(TokKind::Comment, text);
    }

    fn block_comment(&mut self) {
        let start = self.i;
        let start_line = self.line;
        self.i += 2;
        let mut depth = 1usize;
        while self.i < self.bytes.len() && depth > 0 {
            match self.bytes[self.i] {
                b'/' if self.peek(1) == Some(b'*') => {
                    depth += 1;
                    self.i += 2;
                }
                b'*' if self.peek(1) == Some(b'/') => {
                    depth -= 1;
                    self.i += 2;
                }
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.i]).into_owned();
        self.push_from(start_line, TokKind::Comment, text);
    }

    /// Ordinary (escapable) string body starting at the opening quote.
    fn string(&mut self) {
        let start_line = self.line;
        self.i += 1;
        while self.i < self.bytes.len() {
            match self.bytes[self.i] {
                b'\\' => self.i += 2,
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b'"' => {
                    self.i += 1;
                    break;
                }
                _ => self.i += 1,
            }
        }
        self.push_from(start_line, TokKind::Str, String::new());
    }

    /// Raw string body: `#`-fence already counted, cursor on the opening quote.
    fn raw_string(&mut self, hashes: usize) {
        let start_line = self.line;
        self.i += 1;
        while self.i < self.bytes.len() {
            match self.bytes[self.i] {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b'"' if self.closes_raw(hashes) => {
                    self.i += 1 + hashes;
                    break;
                }
                _ => self.i += 1,
            }
        }
        self.push_from(start_line, TokKind::Str, String::new());
    }

    fn closes_raw(&self, hashes: usize) -> bool {
        (1..=hashes).all(|h| self.peek(h) == Some(b'#'))
    }

    /// `'…` — lifetime or char literal. The classic ambiguity: `'a` is a lifetime
    /// when not followed by a closing quote, a char literal when it is.
    fn quote(&mut self) {
        match self.peek(1) {
            Some(b) if is_ident_start(b) && self.peek(2) != Some(b'\'') => {
                // Lifetime: consume ident chars after the quote.
                self.i += 1;
                while self.i < self.bytes.len() && is_ident_cont(self.bytes[self.i]) {
                    self.i += 1;
                }
                self.push_here(TokKind::Lifetime, String::new());
            }
            _ => self.char_literal(),
        }
    }

    /// Char (or byte-char) literal starting at the quote; handles `'\''`, `'\\'`
    /// and `'\u{…}'`. Stops at a newline so a stray quote cannot eat the file.
    fn char_literal(&mut self) {
        self.i += 1;
        while self.i < self.bytes.len() {
            match self.bytes[self.i] {
                b'\\' => {
                    if self.peek(1) == Some(b'u') && self.peek(2) == Some(b'{') {
                        self.i += 3;
                        while self.i < self.bytes.len() && self.bytes[self.i] != b'}' {
                            self.i += 1;
                        }
                        self.i += 1;
                    } else {
                        self.i += 2;
                    }
                }
                b'\'' => {
                    self.i += 1;
                    break;
                }
                b'\n' => break,
                _ => self.i += 1,
            }
        }
        self.push_here(TokKind::Char, String::new());
    }

    /// Resolves the `r` / `b` / `c` prefix family. Returns true when it consumed a
    /// token (raw string, prefixed string, byte char, or raw identifier); false when
    /// the byte is just the start of an ordinary identifier like `radius`.
    fn raw_or_prefixed(&mut self) -> bool {
        let b0 = self.bytes[self.i];
        // Position of the possible `r` introducing a raw string: `r…`, `br…`, `cr…`.
        let r_at = match (b0, self.peek(1)) {
            (b'r', _) => Some(0),
            (b'b' | b'c', Some(b'r')) => Some(1),
            _ => None,
        };
        if let Some(off) = r_at {
            let mut hashes = 0usize;
            while self.peek(off + 1 + hashes) == Some(b'#') {
                hashes += 1;
            }
            if self.peek(off + 1 + hashes) == Some(b'"') {
                self.i += off + 1 + hashes;
                self.raw_string(hashes);
                return true;
            }
            // `r#ident` raw identifier (exactly one hash then an ident start).
            if off == 0 && hashes == 1 && self.peek(2).is_some_and(is_ident_start) {
                self.i += 2;
                self.ident();
                return true;
            }
        }
        match (b0, self.peek(1)) {
            // `b"…"` / `c"…"` strings with escapes.
            (b'b' | b'c', Some(b'"')) => {
                self.i += 1;
                self.string();
                true
            }
            // `b'x'` byte char.
            (b'b', Some(b'\'')) => {
                self.i += 1;
                self.char_literal();
                true
            }
            _ => false,
        }
    }

    fn ident(&mut self) {
        let start = self.i;
        while self.i < self.bytes.len() && is_ident_cont(self.bytes[self.i]) {
            self.i += 1;
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.i]).into_owned();
        self.push_here(TokKind::Ident, text);
    }

    /// Numeric literal, consumed loosely: digits, underscores, type suffixes and a
    /// fractional part when the dot is followed by a digit (so `1.max(2)`, `0..n`
    /// and `x.0` all tokenize correctly), plus signed exponents (`1.5e-3`).
    fn number(&mut self) {
        while self.i < self.bytes.len() {
            let b = self.bytes[self.i];
            let continues = is_ident_cont(b)
                || (b == b'.' && self.peek(1).is_some_and(|n| n.is_ascii_digit()))
                || ((b == b'+' || b == b'-')
                    && matches!(self.bytes[self.i - 1], b'e' | b'E')
                    && self.peek(1).is_some_and(|n| n.is_ascii_digit()));
            if !continues {
                break;
            }
            self.i += 1;
        }
        self.push_here(TokKind::Num, String::new());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    fn kinds(src: &str) -> Vec<TokKind> {
        lex(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_and_puncts_come_through() {
        let toks = lex("fn foo(x: usize) -> usize { x }");
        assert_eq!(
            idents("fn foo(x: usize) -> usize { x }"),
            ["fn", "foo", "x", "usize", "usize", "x"]
        );
        assert!(toks.iter().any(|t| t.is_punct('{')));
    }

    #[test]
    fn string_contents_are_not_idents() {
        assert_eq!(idents(r#"let s = "unsafe mul_add HashMap";"#), ["let", "s"]);
        assert_eq!(
            kinds(r#""a""#),
            vec![TokKind::Str],
            "a lone string is one Str token"
        );
    }

    #[test]
    fn escaped_quote_does_not_end_the_string() {
        // The `\"` must not close the literal — `unsafe` stays inside the string.
        assert_eq!(idents(r#"let s = "esc \" unsafe"; x"#), ["let", "s", "x"]);
    }

    #[test]
    fn raw_strings_with_hash_fences() {
        assert_eq!(
            idents(r##"let s = r#"std::env::var("X") "quoted""#; y"##),
            ["let", "s", "y"]
        );
        // Multi-hash fence: an inner `"#` must not close it.
        let src = "let s = r##\"inner \"# still HashMap inside\"##; z";
        assert_eq!(idents(src), ["let", "s", "z"]);
        // Byte raw string.
        assert_eq!(
            idents(r##"let s = br#"vec! inside"#; w"##),
            ["let", "s", "w"]
        );
    }

    #[test]
    fn raw_identifier_is_an_ident_not_a_raw_string() {
        assert_eq!(idents("let r#type = 1; r#match"), ["let", "type", "match"]);
    }

    #[test]
    fn nested_block_comments_swallow_rule_tokens() {
        let src = "a /* outer /* inner mul_add */ unsafe */ b";
        assert_eq!(idents(src), ["a", "b"]);
        let toks = lex("x /* line1\nline2 */ y");
        let comment = toks.iter().find(|t| t.kind == TokKind::Comment).unwrap();
        assert_eq!((comment.line, comment.end_line), (1, 2));
        // The token after the comment sits on line 2.
        assert_eq!(toks.last().unwrap().line, 2);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str, c: char) { let y = 'a'; let z = '\\n'; }");
        let lifetimes = toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(lifetimes, 2, "<'a> and &'a");
        assert_eq!(chars, 2, "'a' and '\\n'");
        // 'static is a lifetime even though it is longer than one char.
        assert!(lex("&'static str")
            .iter()
            .any(|t| t.kind == TokKind::Lifetime));
    }

    #[test]
    fn tricky_char_literals() {
        assert_eq!(kinds(r"'\''"), vec![TokKind::Char]);
        assert_eq!(kinds(r"'\\'"), vec![TokKind::Char]);
        assert_eq!(kinds(r"'\u{1F600}'"), vec![TokKind::Char]);
        assert_eq!(kinds("b'x'"), vec![TokKind::Char]);
    }

    #[test]
    fn numbers_do_not_eat_method_calls_or_ranges() {
        assert_eq!(idents("1.max(2)"), ["max"]);
        assert_eq!(idents("1.0f32.mul_add(x, y)"), ["mul_add", "x", "y"]);
        let toks = lex("0..n");
        assert_eq!(toks.iter().filter(|t| t.is_punct('.')).count(), 2);
        assert_eq!(kinds("1.5e-3"), vec![TokKind::Num]);
        assert_eq!(kinds("0xFF_usize"), vec![TokKind::Num]);
    }

    #[test]
    fn line_comments_keep_text_and_lines_advance() {
        let toks = lex("// SAFETY: fine\nunsafe {}");
        assert_eq!(toks[0].kind, TokKind::Comment);
        assert!(toks[0].text.contains("SAFETY:"));
        assert_eq!(toks[0].line, 1);
        let unsafe_tok = toks.iter().find(|t| t.is_ident("unsafe")).unwrap();
        assert_eq!(unsafe_tok.line, 2);
    }

    #[test]
    fn unterminated_literals_do_not_hang() {
        // Unterminated string runs to EOF; the lexer must still return.
        assert_eq!(idents("let s = \"open"), ["let", "s"]);
        assert_eq!(idents("/* open"), Vec::<String>::new());
    }
}
