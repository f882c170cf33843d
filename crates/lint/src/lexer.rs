//! A small Rust lexer, just deep enough that rules never fire inside
//! text.
//!
//! The token stream the rules consume contains identifiers,
//! punctuation, literals and lifetimes — with line/block comments
//! (nested), regular/raw/byte/C strings and char literals all
//! recognized and set aside. Comments are kept in a parallel list
//! (`// lint:allow(...)` suppressions live there); string *contents*
//! are kept on their tokens (the W-ENV rule looks for `"GALACTOS_*"`
//! knob names), but a string token can never be mistaken for code.
//!
//! This is a scanner, not a parser: no macro expansion, no cfg
//! evaluation. That is the documented altitude of the whole tool.

/// One lexical token.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    /// Identifier/number text, string *contents* (delimiters and
    /// prefixes stripped), or the punctuation character.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    Ident,
    /// Single punctuation character (multi-char operators arrive as
    /// consecutive tokens; rules match sequences).
    Punct,
    /// String literal of any flavor: `"…"`, `r#"…"#`, `b"…"`, `c"…"`.
    Str,
    /// Char or byte-char literal: `'x'`, `b'\n'`.
    Char,
    /// Numeric literal, suffix and fraction included: `1.0`, `3f64`.
    Num,
    /// `'lifetime` (including `'_`).
    Lifetime,
}

/// One comment, line or block, with its source line span.
#[derive(Clone, Debug, PartialEq)]
pub struct Comment {
    /// Full comment text including the `//` / `/*` markers.
    pub text: String,
    pub first_line: usize,
    pub last_line: usize,
}

/// A lexed source file.
#[derive(Debug, Default)]
pub struct LexedFile {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

impl LexedFile {
    /// Does any *code* token (not a comment) sit on `line`?
    pub(crate) fn line_has_code(&self, line: usize) -> bool {
        self.tokens.iter().any(|t| t.line == line)
    }
}

struct Scanner {
    chars: Vec<char>,
    i: usize,
    line: usize,
    out: LexedFile,
}

impl Scanner {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    /// Advance one char, tracking newlines.
    fn bump(&mut self) {
        if self.peek(0) == Some('\n') {
            self.line += 1;
        }
        self.i += 1;
    }

    fn push(&mut self, kind: TokenKind, text: String, line: usize) {
        self.out.tokens.push(Token { kind, text, line });
    }

    fn line_comment(&mut self) {
        let start = self.i;
        let line = self.line;
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.i += 1;
        }
        self.out.comments.push(Comment {
            text: self.chars[start..self.i].iter().collect(),
            first_line: line,
            last_line: line,
        });
    }

    fn block_comment(&mut self) {
        let start = self.i;
        let first_line = self.line;
        let mut depth = 0usize;
        while self.i < self.chars.len() {
            if self.peek(0) == Some('/') && self.peek(1) == Some('*') {
                depth += 1;
                self.i += 2;
            } else if self.peek(0) == Some('*') && self.peek(1) == Some('/') {
                depth -= 1;
                self.i += 2;
                if depth == 0 {
                    break;
                }
            } else {
                self.bump();
            }
        }
        self.out.comments.push(Comment {
            text: self.chars[start..self.i].iter().collect(),
            first_line,
            last_line: self.line,
        });
    }

    /// Consume a string body starting *after* the opening quote.
    /// `hashes` > 0 or `raw` selects raw-string termination; otherwise
    /// backslash escapes are honored. Pushes the Str token.
    fn string_body(&mut self, raw: bool, hashes: usize, start_line: usize) {
        let content_start = self.i;
        let mut content_end = self.chars.len();
        while self.i < self.chars.len() {
            if !raw && self.peek(0) == Some('\\') {
                self.i += 2;
                continue;
            }
            if self.peek(0) == Some('"') {
                if raw {
                    let follows = self.chars[self.i + 1..]
                        .iter()
                        .take_while(|&&h| h == '#')
                        .count();
                    if follows >= hashes {
                        content_end = self.i;
                        self.i += 1 + hashes;
                        break;
                    }
                } else {
                    content_end = self.i;
                    self.i += 1;
                    break;
                }
            }
            self.bump();
        }
        self.push(
            TokenKind::Str,
            self.chars[content_start..content_end.min(self.chars.len())]
                .iter()
                .collect(),
            start_line,
        );
    }

    /// Consume a char/byte-char body starting *after* the opening `'`.
    fn char_body(&mut self, start_line: usize) {
        let content_start = self.i;
        while self.i < self.chars.len() {
            if self.peek(0) == Some('\\') {
                self.i += 2;
                continue;
            }
            if self.peek(0) == Some('\'') {
                break;
            }
            self.i += 1;
        }
        let content_end = self.i.min(self.chars.len());
        self.push(
            TokenKind::Char,
            self.chars[content_start..content_end].iter().collect(),
            start_line,
        );
        self.i += 1; // closing quote
    }

    /// Try to lex a prefixed string (`r"`, `r#"`, `b"`, `br#"`, `c"`,
    /// `cr"`) or byte-char (`b'`) at the current position. Returns true
    /// if consumed.
    fn try_prefixed_literal(&mut self) -> bool {
        let c = match self.peek(0) {
            Some(c @ ('r' | 'b' | 'c')) => c,
            _ => return false,
        };
        let mut j = 1;
        let mut raw = c == 'r';
        if (c == 'b' || c == 'c') && self.peek(1) == Some('r') {
            raw = true;
            j = 2;
        }
        let mut hashes = 0;
        while self.peek(j) == Some('#') {
            hashes += 1;
            j += 1;
        }
        if self.peek(j) == Some('"') && (raw || hashes == 0) {
            // `r#ident` never reaches here (no quote after hashes);
            // non-raw prefixes must have zero hashes.
            if !raw && hashes > 0 {
                return false;
            }
            let line = self.line;
            self.i += j + 1;
            self.string_body(raw, hashes, line);
            return true;
        }
        if c == 'b' && self.peek(1) == Some('\'') {
            let line = self.line;
            self.i += 2;
            self.char_body(line);
            return true;
        }
        false
    }

    fn number(&mut self) {
        let start = self.i;
        let line = self.line;
        let mut saw_dot = false;
        while let Some(d) = self.peek(0) {
            if d.is_ascii_alphanumeric() || d == '_' {
                self.i += 1;
                continue;
            }
            // A '.' belongs to the number only when followed by a digit
            // (ranges `1..8` and calls `1.max(x)` stay punctuation).
            if d == '.' && !saw_dot && self.peek(1).is_some_and(|e| e.is_ascii_digit()) {
                saw_dot = true;
                self.i += 1;
                continue;
            }
            break;
        }
        let text: String = self.chars[start..self.i].iter().collect();
        self.push(TokenKind::Num, text, line);
    }

    fn ident(&mut self) {
        let start = self.i;
        let line = self.line;
        while self
            .peek(0)
            .is_some_and(|d| d.is_alphanumeric() || d == '_')
        {
            self.i += 1;
        }
        let mut text: String = self.chars[start..self.i].iter().collect();
        // Raw identifier `r#name`.
        if text == "r" && self.peek(0) == Some('#') {
            self.i += 1;
            let istart = self.i;
            while self
                .peek(0)
                .is_some_and(|d| d.is_alphanumeric() || d == '_')
            {
                self.i += 1;
            }
            text = self.chars[istart..self.i].iter().collect();
        }
        self.push(TokenKind::Ident, text, line);
    }

    fn run(mut self) -> LexedFile {
        while let Some(c) = self.peek(0) {
            if c.is_whitespace() {
                self.bump();
            } else if c == '/' && self.peek(1) == Some('/') {
                self.line_comment();
            } else if c == '/' && self.peek(1) == Some('*') {
                self.block_comment();
            } else if self.try_prefixed_literal() {
                // consumed
            } else if c == '"' {
                let line = self.line;
                self.i += 1;
                self.string_body(false, 0, line);
            } else if c == '\'' {
                let line = self.line;
                // Char literal vs lifetime: escaped, or a single char
                // closed by `'`, is a char; otherwise a lifetime.
                if self.peek(1) == Some('\\') || self.peek(2) == Some('\'') {
                    self.i += 1;
                    self.char_body(line);
                } else {
                    self.i += 1;
                    let start = self.i;
                    while self
                        .peek(0)
                        .is_some_and(|d| d.is_alphanumeric() || d == '_')
                    {
                        self.i += 1;
                    }
                    let text = self.chars[start..self.i].iter().collect();
                    self.push(TokenKind::Lifetime, text, line);
                }
            } else if c.is_ascii_digit() {
                self.number();
            } else if c.is_alphabetic() || c == '_' {
                self.ident();
            } else {
                let line = self.line;
                self.push(TokenKind::Punct, c.to_string(), line);
                self.i += 1;
            }
        }
        self.out
    }
}

/// Lex `src` into tokens and comments. Never fails: unterminated
/// constructs consume to end of input (the tool lints code that already
/// compiles, so this only matters for resilience).
pub(crate) fn lex(src: &str) -> LexedFile {
    Scanner {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        out: LexedFile::default(),
    }
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn line_comments_are_not_tokens() {
        let f = lex("let x = 1; // unsafe Instant::now() env::var\nlet y = 2;");
        assert!(!f.tokens.iter().any(|t| t.text == "unsafe"));
        assert!(!f.tokens.iter().any(|t| t.text == "Instant"));
        assert_eq!(f.comments.len(), 1);
        assert!(f.comments[0].text.contains("Instant::now"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* outer /* inner unsafe */ still comment */ b";
        let f = lex(src);
        assert_eq!(idents(src), ["a", "b"]);
        assert_eq!(f.comments.len(), 1);
        assert!(f.comments[0].text.contains("inner unsafe"));
        assert!(f.comments[0].text.ends_with("*/"));
    }

    #[test]
    fn block_comment_line_span() {
        let f = lex("x\n/* one\ntwo\nthree */\ny");
        assert_eq!(f.comments[0].first_line, 2);
        assert_eq!(f.comments[0].last_line, 4);
        let y = f.tokens.iter().find(|t| t.text == "y").unwrap();
        assert_eq!(y.line, 5);
    }

    #[test]
    fn comment_markers_inside_strings_are_text() {
        let f = lex(r#"let s = "// not a comment /* nor this";"#);
        assert!(f.comments.is_empty());
        let s = f.tokens.iter().find(|t| t.kind == TokenKind::Str).unwrap();
        assert_eq!(s.text, "// not a comment /* nor this");
    }

    #[test]
    fn raw_strings_with_hashes() {
        let f = lex(r####"let s = r##"quote " and hash "# unsafe"##; let t = 1;"####);
        let s = f.tokens.iter().find(|t| t.kind == TokenKind::Str).unwrap();
        assert_eq!(s.text, r###"quote " and hash "# unsafe"###);
        // The `unsafe` inside the raw string is not an ident token.
        assert!(!f
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == "unsafe"));
        assert!(f.tokens.iter().any(|t| t.text == "t"));
    }

    #[test]
    fn byte_and_c_strings() {
        let f = lex(r##"let a = b"bytes"; let b = br#"raw bytes"#; let c = c"cstr";"##);
        let strs: Vec<&str> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, ["bytes", "raw bytes", "cstr"]);
    }

    #[test]
    fn escaped_quotes_in_strings() {
        let f = lex(r#"let s = "he said \"unsafe\"";"#);
        let s = f.tokens.iter().find(|t| t.kind == TokenKind::Str).unwrap();
        assert!(s.text.contains("unsafe"));
        assert!(!f
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == "unsafe"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let u = '_'; let e = '\\n'; let s: &'static str = \"\"; }";
        let f = lex(src);
        let chars: Vec<&str> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(chars, ["x", "_", "\\n"]);
        let lifetimes: Vec<&str> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, ["a", "a", "static"]);
    }

    #[test]
    fn quote_char_literal() {
        // '\'' — escaped quote char still closes correctly.
        let f = lex(r"let q = '\'';");
        assert!(f.tokens.iter().any(|t| t.kind == TokenKind::Char));
        assert!(f.tokens.iter().any(|t| t.text == ";"));
    }

    #[test]
    fn byte_char_literal() {
        let f = lex(r"let b = b'\n'; let m = b'x';");
        let chars: Vec<&str> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(chars, ["\\n", "x"]);
    }

    #[test]
    fn numbers_and_floats() {
        let f =
            lex("let a = 1; let b = 2.5; let c = 1_000; let d = 3f64; let e = 1e-3; let r = 1..8;");
        let nums: Vec<&str> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Num)
            .map(|t| t.text.as_str())
            .collect();
        // Range `1..8` stays number + punct + number.
        assert_eq!(nums, ["1", "2.5", "1_000", "3f64", "1e", "3", "1", "8"]);
    }

    #[test]
    fn raw_identifiers() {
        assert_eq!(idents("let r#match = 1;"), ["let", "match"]);
    }

    #[test]
    fn idents_starting_with_string_prefix_letters() {
        assert_eq!(
            idents("let rope = bail; let cost = ribbon; break_even(crumb);"),
            [
                "let",
                "rope",
                "bail",
                "let",
                "cost",
                "ribbon",
                "break_even",
                "crumb"
            ]
        );
    }

    #[test]
    fn token_lines_are_accurate() {
        let f = lex("a\nb\n\nc");
        let lines: Vec<usize> = f.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 4]);
    }

    #[test]
    fn multiline_string_tracks_lines() {
        let f = lex("let s = \"one\ntwo\";\nnext");
        let next = f.tokens.iter().find(|t| t.text == "next").unwrap();
        assert_eq!(next.line, 3);
    }
}
