//! A small Rust lexer, sufficient for token-level invariant checking.
//!
//! The container this workspace builds in has no crates.io access, so
//! `syn` is not available; the checks in [`crate::rules`] are written
//! against this hand-rolled token stream instead. The lexer understands
//! exactly the parts of the grammar that matter for not mis-reporting:
//! line and block comments (kept as tokens — the allow-list and the
//! atomic-ordering justifications live in them), string/char/byte/raw
//! literals (so a `panic!` inside a string is not a violation),
//! lifetimes vs char literals, raw identifiers, and nested block
//! comments.
//!
//! Everything else — numbers, identifiers, punctuation — is tokenized
//! just precisely enough to ask "is this `[` an index expression?" or
//! "is this `Relaxed` preceded by `Ordering::`?".

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw `r#ident`, stored bare).
    Ident,
    /// `'a`, `'_` — lifetimes (not char literals).
    Lifetime,
    /// String / raw string / byte string / char / number literal.
    Literal,
    /// `// …` comment (text includes the `//`).
    LineComment,
    /// `/* … */` comment (text includes the delimiters).
    BlockComment,
    /// A single punctuation byte (`.`, `[`, `!`, `:`, …).
    Punct,
}

/// One token with its position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// The source text of the token.
    pub text: String,
    /// 1-based line of the token's first byte.
    pub line: usize,
    /// 1-based column (in bytes) of the token's first byte.
    pub column: usize,
}

impl Token {
    /// Is this token trivia (a comment)?
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }

    /// Is this an identifier with exactly this text?
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// Is this a punctuation token with exactly this byte?
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.starts_with(ch)
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    column: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<u8> {
        self.bytes.get(self.pos + offset).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(b)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Tokenize `source`. Unterminated constructs (string running off the
/// end of the file) terminate the current token at EOF rather than
/// erroring — a lint tool should degrade, not crash, on weird input.
pub fn tokenize(source: &str) -> Vec<Token> {
    let mut cursor = Cursor {
        bytes: source.as_bytes(),
        pos: 0,
        line: 1,
        column: 1,
    };
    let mut tokens = Vec::new();
    while let Some(b) = cursor.peek() {
        let start = cursor.pos;
        let (line, column) = (cursor.line, cursor.column);
        let kind = match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cursor.bump();
                continue;
            }
            b'/' if cursor.peek_at(1) == Some(b'/') => {
                while let Some(c) = cursor.peek() {
                    if c == b'\n' {
                        break;
                    }
                    cursor.bump();
                }
                TokenKind::LineComment
            }
            b'/' if cursor.peek_at(1) == Some(b'*') => {
                cursor.bump();
                cursor.bump();
                let mut depth = 1usize;
                while depth > 0 {
                    match (cursor.peek(), cursor.peek_at(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            cursor.bump();
                            cursor.bump();
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            cursor.bump();
                            cursor.bump();
                        }
                        (Some(_), _) => {
                            cursor.bump();
                        }
                        (None, _) => break,
                    }
                }
                TokenKind::BlockComment
            }
            b'r' | b'b' | b'c' if starts_prefixed_string(&mut cursor) => TokenKind::Literal,
            b'"' => {
                cursor.bump();
                consume_quoted(&mut cursor, b'"');
                TokenKind::Literal
            }
            b'\'' => lex_quote(&mut cursor),
            b if is_ident_start(b) => {
                // `r#ident` raw identifiers: swallow the `r#` prefix.
                if b == b'r' && cursor.peek_at(1) == Some(b'#') {
                    if let Some(after) = cursor.peek_at(2) {
                        if is_ident_start(after) {
                            cursor.bump();
                            cursor.bump();
                        }
                    }
                }
                while let Some(c) = cursor.peek() {
                    if !is_ident_continue(c) {
                        break;
                    }
                    cursor.bump();
                }
                TokenKind::Ident
            }
            b if b.is_ascii_digit() => {
                // Numbers: consume digits, `_`, suffix letters, `.` when
                // followed by a digit (so `1.0` is one token but
                // `tuple.0` keeps its dot), and `e±` exponents.
                while let Some(c) = cursor.peek() {
                    let decimal_point =
                        c == b'.' && cursor.peek_at(1).map(|d| d.is_ascii_digit()) == Some(true);
                    let exponent_sign = (c == b'+' || c == b'-')
                        && matches!(
                            cursor.bytes.get(cursor.pos.wrapping_sub(1)),
                            Some(b'e' | b'E')
                        );
                    if c.is_ascii_alphanumeric() || c == b'_' || decimal_point || exponent_sign {
                        cursor.bump();
                    } else {
                        break;
                    }
                }
                TokenKind::Literal
            }
            _ => {
                cursor.bump();
                TokenKind::Punct
            }
        };
        // Raw/byte strings already consumed their text inside the match
        // guard helper, which leaves `start..cursor.pos` as the span.
        let text = source[start..cursor.pos].to_string();
        tokens.push(Token {
            kind,
            text,
            line,
            column,
        });
    }
    tokens
}

/// `'…` is either a lifetime (`'a`, `'static`, `'_`) or a char literal
/// (`'x'`, `'\n'`, `'\''`). Disambiguate by looking for the closing
/// quote after one (possibly escaped) character.
fn lex_quote(cursor: &mut Cursor) -> TokenKind {
    cursor.bump(); // the opening '
    match cursor.peek() {
        Some(b'\\') => {
            // Escape sequence: definitely a char literal. The old
            // scanner handed off to `consume_quoted` *after* eating the
            // backslash, so `'\''` ended at the escaped quote and the
            // real closing quote leaked into the stream (and `'\\'`
            // swallowed code up to the next apostrophe). Consume the
            // escape payload explicitly instead.
            cursor.bump(); // the backslash
            consume_char_escape_and_close(cursor);
            TokenKind::Literal
        }
        Some(c) if is_ident_start(c) => {
            // `'a'` is a char; `'a` (no closing quote) is a lifetime.
            let mut len = 0;
            while let Some(c) = cursor.peek() {
                if !is_ident_continue(c) {
                    break;
                }
                cursor.bump();
                len += 1;
            }
            if cursor.peek() == Some(b'\'') && len == 1 {
                cursor.bump();
                TokenKind::Literal
            } else if cursor.peek() == Some(b'\'') && len > 1 {
                // `'abc'` is not valid Rust; treat as literal and move on.
                cursor.bump();
                TokenKind::Literal
            } else {
                TokenKind::Lifetime
            }
        }
        Some(_) => {
            // `'+'` style: one non-ident char then the closing quote.
            cursor.bump();
            if cursor.peek() == Some(b'\'') {
                cursor.bump();
            }
            TokenKind::Literal
        }
        None => TokenKind::Punct,
    }
}

/// The cursor sits on the first byte of a char-literal escape payload
/// (the backslash is already consumed). Consume the payload — one byte
/// for `\n`-style escapes, the hex digits of `\x7f`, the braced group
/// of `\u{…}` — and then the closing quote if present.
fn consume_char_escape_and_close(cursor: &mut Cursor) {
    match cursor.bump() {
        Some(b'x') => {
            // Up to two hex digits.
            for _ in 0..2 {
                if cursor.peek().is_some_and(|c| c.is_ascii_hexdigit()) {
                    cursor.bump();
                }
            }
        }
        Some(b'u') if cursor.peek() == Some(b'{') => {
            while let Some(c) = cursor.bump() {
                if c == b'}' {
                    break;
                }
            }
        }
        // `\n`, `\'`, `\\`, … — the single escaped byte is consumed.
        _ => {}
    }
    if cursor.peek() == Some(b'\'') {
        cursor.bump();
    }
}

/// Consume a quoted run up to an unescaped `close` byte (which is also
/// consumed). The opening delimiter must already be consumed.
fn consume_quoted(cursor: &mut Cursor, close: u8) {
    while let Some(c) = cursor.peek() {
        if c == b'\\' {
            cursor.bump();
            cursor.bump();
            continue;
        }
        cursor.bump();
        if c == close {
            return;
        }
    }
}

/// If the cursor sits on a `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'`,
/// or `c"…"` literal, consume it entirely and return true. Otherwise
/// consume nothing and return false (the caller lexes an identifier).
fn starts_prefixed_string(cursor: &mut Cursor) -> bool {
    let b0 = cursor.peek();
    let mut offset = 1;
    // Optional second prefix byte: `br"…"` and `cr"…"` raw variants.
    if matches!(b0, Some(b'b' | b'c')) && cursor.peek_at(1) == Some(b'r') {
        offset = 2;
    }
    let raw = b0 == Some(b'r') || offset == 2;
    // Count `#`s of a raw string.
    let mut hashes = 0;
    while raw && cursor.peek_at(offset + hashes) == Some(b'#') {
        hashes += 1;
    }
    match cursor.peek_at(offset + hashes) {
        Some(b'"') => {}
        Some(b'\'') if b0 == Some(b'b') && offset == 1 && hashes == 0 => {
            // b'…' byte char literal.
            cursor.bump(); // b
            cursor.bump(); // '
            if cursor.peek() == Some(b'\\') {
                cursor.bump(); // the backslash
                consume_char_escape_and_close(cursor);
            } else {
                cursor.bump();
                if cursor.peek() == Some(b'\'') {
                    cursor.bump();
                }
            }
            return true;
        }
        _ => {
            // `r#ident` raw identifiers must stay identifiers.
            return false;
        }
    }
    // Consume prefix, hashes, and the opening quote.
    for _ in 0..(offset + hashes + 1) {
        cursor.bump();
    }
    if hashes == 0 {
        if raw {
            // Raw string: no escapes; scan to the bare closing quote.
            while let Some(c) = cursor.bump() {
                if c == b'"' {
                    break;
                }
            }
        } else {
            consume_quoted(cursor, b'"');
        }
    } else {
        // Scan for `"` followed by `hashes` `#`s.
        'outer: while let Some(c) = cursor.bump() {
            if c == b'"' {
                for i in 0..hashes {
                    if cursor.peek_at(i) != Some(b'#') {
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    cursor.bump();
                }
                break;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        tokenize(src)
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_puncts_and_numbers() {
        let toks = kinds("let x = buf[0] + 1.5e-3;");
        assert!(toks.contains(&(TokenKind::Ident, "buf".into())));
        assert!(toks.contains(&(TokenKind::Punct, "[".into())));
        assert!(toks.contains(&(TokenKind::Literal, "1.5e-3".into())));
    }

    #[test]
    fn panics_inside_strings_are_literals() {
        let toks = kinds(r##"let s = "panic!(\"no\")"; let r = r#"unwrap()"#;"##);
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "panic"));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "unwrap"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds(r###"let s = r#"has "quotes" and unwrap()"#; x.unwrap()"###);
        let unwraps: Vec<_> = toks
            .iter()
            .filter(|(k, t)| *k == TokenKind::Ident && t == "unwrap")
            .collect();
        assert_eq!(unwraps.len(), 1);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Lifetime && t == "'a"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Literal && t == "'x'"));
    }

    #[test]
    fn escaped_char_literals() {
        let toks = kinds(r"let q = '\''; let n = '\n'; x.unwrap()");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "unwrap"));
    }

    #[test]
    fn comments_keep_their_text_and_lines() {
        let toks = tokenize("let a = 1; // lint: allow(no-panic) because\n/* block */ let b;");
        let line_comment = toks.iter().find(|t| t.kind == TokenKind::LineComment);
        let comment = line_comment.map(|t| t.text.as_str());
        assert_eq!(comment, Some("// lint: allow(no-panic) because"));
        assert_eq!(line_comment.map(|t| t.line), Some(1));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::BlockComment && t.line == 2));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner */ still comment */ ident");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1], (TokenKind::Ident, "ident".into()));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let toks = kinds(r#"let b = b"panic!"; let c = b'\n'; let d = b'x'; done"#);
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "panic"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "done"));
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let toks = kinds("let r#type = 1; r#fn();");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "r#type"));
    }

    #[test]
    fn columns_are_byte_accurate() {
        let toks = tokenize("abc.unwrap()");
        let unwrap = toks.iter().find(|t| t.is_ident("unwrap")).expect("token");
        assert_eq!((unwrap.line, unwrap.column), (1, 5));
    }

    /// Regression: `'\''` used to end at the escaped quote, leaking the
    /// real closing quote as a stray token that swallowed following
    /// code; `'\\'` ran to the next apostrophe anywhere in the file.
    #[test]
    fn escaped_quote_and_backslash_char_literals_end_exactly() {
        let toks = tokenize(r"let q = '\''; let b = '\\'; x.unwrap()");
        let lits: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lits, vec![r"'\''", r"'\\'"]);
        let unwrap = toks.iter().find(|t| t.is_ident("unwrap")).expect("unwrap");
        assert_eq!((unwrap.line, unwrap.column), (1, 31));
    }

    /// Regression: hex and unicode escapes in char / byte-char literals
    /// must consume their full payload, not just one byte.
    #[test]
    fn hex_and_unicode_char_escapes() {
        let toks = tokenize(r"let a = '\x7f'; let b = '\u{1F600}'; let c = b'\xFF'; done()");
        let lits: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lits, vec![r"'\x7f'", r"'\u{1F600}'", r"b'\xFF'"]);
        let done = toks.iter().find(|t| t.is_ident("done")).expect("done");
        assert_eq!((done.line, done.column), (1, 55));
    }

    /// A multi-line raw string is one literal and the line/column of the
    /// token after it is exact (positions feed `path:line:col`
    /// diagnostics, so drift here mislocates every later finding).
    #[test]
    fn multiline_raw_string_keeps_positions_exact() {
        let src = "let s = r#\"line one\n  panic!(\"inside\")\nlast\"#;\nafter.unwrap()";
        let toks = tokenize(src);
        assert!(
            !toks.iter().any(|t| t.is_ident("panic")),
            "panic! inside a raw string must stay literal"
        );
        let after = toks.iter().find(|t| t.is_ident("after")).expect("after");
        assert_eq!((after.line, after.column), (4, 1));
        let unwrap = toks.iter().find(|t| t.is_ident("unwrap")).expect("unwrap");
        assert_eq!((unwrap.line, unwrap.column), (4, 7));
    }

    /// Raw strings whose body contains a quote followed by *fewer*
    /// hashes than the delimiter must keep scanning.
    #[test]
    fn raw_string_with_inner_quote_hash_runs() {
        let src = r####"let s = r##"inner "# quote"##; tail()"####;
        let toks = tokenize(src);
        let lit = toks
            .iter()
            .find(|t| t.kind == TokenKind::Literal)
            .expect("literal");
        assert_eq!(lit.text, r####"r##"inner "# quote"##"####);
        let tail = toks.iter().find(|t| t.is_ident("tail")).expect("tail");
        assert_eq!((tail.line, tail.column), (1, 32));
    }

    /// `cr#"…"#` C-string raw literals (Rust 1.77) lex as one literal
    /// instead of `cr` + stray punctuation.
    #[test]
    fn c_string_raw_literals() {
        let toks = tokenize(r###"let s = cr#"unwrap()"#; done()"###);
        assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
        assert!(toks.iter().any(|t| t.is_ident("done")));
    }

    /// Nested block comments spanning lines: the token after the
    /// comment carries the exact post-comment position.
    #[test]
    fn nested_multiline_block_comment_positions() {
        let src = "/* outer\n /* inner\n  */ still outer\n*/  after.unwrap()";
        let toks = tokenize(src);
        let comment = toks.first().expect("comment token");
        assert_eq!(comment.kind, TokenKind::BlockComment);
        assert_eq!((comment.line, comment.column), (1, 1));
        let after = toks.iter().find(|t| t.is_ident("after")).expect("after");
        assert_eq!((after.line, after.column), (4, 5));
    }

    /// An unterminated nested block comment degrades to one trailing
    /// comment token instead of panicking or looping.
    #[test]
    fn unterminated_nested_block_comment_degrades() {
        let toks = tokenize("ident /* outer /* inner */ never closed");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].kind, TokenKind::Ident);
        assert_eq!(toks[1].kind, TokenKind::BlockComment);
    }
}
