//! The SQL lexer: turns an input string into a stream of [`Token`]s.
//!
//! The lexer walks the input's bytes and its tokens borrow from the input:
//! an identifier or a string literal is a slice of it, a keyword is the
//! entry of [`KEYWORDS`](crate::token::KEYWORDS) it spells, and a number is
//! parsed from its slice.  Characters are classified with
//! `char::is_whitespace`, `is_alphabetic` and `is_alphanumeric`, an ASCII
//! byte without decoding it.  Offsets are byte offsets.

use crate::error::{ParseError, ParseResult};
use crate::token::{keyword, Token, TokenKind};

/// A streaming lexer over a SQL string.
#[derive(Debug)]
pub struct Lexer<'a> {
    input: &'a str,
    /// Byte offset of the next unread character.
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Create a lexer over the input.
    pub fn new(input: &'a str) -> Self {
        Lexer { input, pos: 0 }
    }

    /// Lex the whole input into a vector of tokens, terminated by
    /// [`TokenKind::Eof`].
    pub fn tokenize(input: &'a str) -> ParseResult<Vec<Token<'a>>> {
        let mut lexer = Lexer::new(input);
        // Logged SQL runs about one token per three to four bytes.
        let mut out = Vec::with_capacity(input.len() / 3 + 1);
        loop {
            let tok = lexer.next_token()?;
            let eof = tok.kind == TokenKind::Eof;
            out.push(tok);
            if eof {
                return Ok(out);
            }
        }
    }

    /// The character at `pos`, if any.
    fn peek(&self) -> Option<char> {
        self.input[self.pos..].chars().next()
    }

    /// Advance `pos` past the characters `accepts`; an ASCII byte is tested
    /// without decoding.
    fn skip(&mut self, accepts: impl Fn(char) -> bool) {
        while let Some(&b) = self.input.as_bytes().get(self.pos) {
            let width = if b.is_ascii() {
                usize::from(accepts(char::from(b)))
            } else {
                self.peek()
                    .filter(|&c| accepts(c))
                    .map_or(0, char::len_utf8)
            };
            if width == 0 {
                return;
            }
            self.pos += width;
        }
    }

    /// Produce the next token.
    pub fn next_token(&mut self) -> ParseResult<Token<'a>> {
        self.skip(char::is_whitespace);
        let offset = self.pos;
        let Some(c) = self.peek() else {
            return Ok(Token {
                kind: TokenKind::Eof,
                offset,
            });
        };
        let (kind, width) = match c {
            ',' => (TokenKind::Comma, 1),
            '.' => (TokenKind::Dot, 1),
            '(' => (TokenKind::LParen, 1),
            ')' => (TokenKind::RParen, 1),
            '*' => (TokenKind::Star, 1),
            ';' => (TokenKind::Semicolon, 1),
            '=' => (TokenKind::Eq, 1),
            '!' => match self.byte(1) {
                Some(b'=') => (TokenKind::NotEq, 2),
                _ => return Err(ParseError::new("expected '=' after '!'", offset)),
            },
            '<' => match self.byte(1) {
                Some(b'=') => (TokenKind::LtEq, 2),
                Some(b'>') => (TokenKind::NotEq, 2),
                _ => (TokenKind::Lt, 1),
            },
            '>' => match self.byte(1) {
                Some(b'=') => (TokenKind::GtEq, 2),
                _ => (TokenKind::Gt, 1),
            },
            // Curly quotes (the paper's text uses them in its SQL listings)
            // open and close literals as `'` does.
            '\'' | '"' | '\u{2018}' | '\u{2019}' => return self.string(c),
            c if c.is_ascii_digit() => return self.number(),
            // Placeholder identifiers (`?val`, `?op`) appear only in obscured
            // fragment text, but accepting them makes the lexer reusable for
            // fragment round-trips.
            '?' => {
                self.pos += 1;
                return Ok(self.word(offset));
            }
            c if c.is_alphabetic() || c == '_' => return Ok(self.word(offset)),
            other => {
                return Err(ParseError::new(
                    format!("unexpected character '{other}'"),
                    offset,
                ))
            }
        };
        self.pos += width;
        Ok(Token { kind, offset })
    }

    /// The byte `ahead` bytes past `pos`, if any.
    fn byte(&self, ahead: usize) -> Option<u8> {
        self.input.as_bytes().get(self.pos + ahead).copied()
    }

    /// A string literal whose opening quote `open` is at `pos`.  `"` closes
    /// only on `"`; every other quote closes on `'` or a curly quote.
    fn string(&mut self, open: char) -> ParseResult<Token<'a>> {
        let offset = self.pos;
        let body = offset + open.len_utf8();
        let closes = |c: char| match open {
            '"' => c == '"',
            _ => matches!(c, '\'' | '\u{2018}' | '\u{2019}'),
        };
        let Some((len, close)) = self.input[body..].char_indices().find(|&(_, c)| closes(c)) else {
            return Err(ParseError::new("unterminated string literal", offset));
        };
        self.pos = body + len + close.len_utf8();
        Ok(Token {
            kind: TokenKind::StringLit(&self.input[body..body + len]),
            offset,
        })
    }

    /// A number at `pos`: ASCII digits, with a `.` wherever a digit follows.
    fn number(&mut self) -> ParseResult<Token<'a>> {
        let offset = self.pos;
        while let Some(b) = self.byte(0) {
            let digit_follows = self.byte(1).is_some_and(|d| d.is_ascii_digit());
            if !(b.is_ascii_digit() || (b == b'.' && digit_follows)) {
                break;
            }
            self.pos += 1;
        }
        let text = &self.input[offset..self.pos];
        let value = text
            .parse()
            .map_err(|_| ParseError::new(format!("invalid number '{text}'"), offset))?;
        Ok(Token {
            kind: TokenKind::NumberLit(value),
            offset,
        })
    }

    /// The word from `offset` to the end of the alphanumeric and `_` run at
    /// `pos`: a keyword or an identifier.
    fn word(&mut self, offset: usize) -> Token<'a> {
        self.skip(|c| c.is_alphanumeric() || c == '_');
        let word = &self.input[offset..self.pos];
        let kind = match keyword(word) {
            Some(k) => TokenKind::Keyword(k),
            None => TokenKind::Ident(word),
        };
        Token { kind, offset }
    }

    /// The original input string.
    pub fn input(&self) -> &str {
        self.input
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind<'_>> {
        Lexer::tokenize(sql)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_simple_select() {
        let ks = kinds("SELECT p.title FROM publication p");
        assert_eq!(
            ks,
            vec![
                TokenKind::Keyword("SELECT"),
                TokenKind::Ident("p"),
                TokenKind::Dot,
                TokenKind::Ident("title"),
                TokenKind::Keyword("FROM"),
                TokenKind::Ident("publication"),
                TokenKind::Ident("p"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_operators() {
        let ks = kinds("a >= 5 AND b <> 3 AND c != 2 AND d <= 1");
        assert!(ks.contains(&TokenKind::GtEq));
        assert!(ks.contains(&TokenKind::LtEq));
        assert_eq!(ks.iter().filter(|k| **k == TokenKind::NotEq).count(), 2);
    }

    #[test]
    fn lexes_string_literals() {
        let ks = kinds("name = 'Databases'");
        assert!(ks.contains(&TokenKind::StringLit("Databases")));
        let ks = kinds("name = \"Databases\"");
        assert!(ks.contains(&TokenKind::StringLit("Databases")));
    }

    #[test]
    fn lexes_curly_quotes() {
        let ks = kinds("d.name = \u{2018}Databases\u{2019}");
        assert!(ks.contains(&TokenKind::StringLit("Databases")));
    }

    #[test]
    fn lexes_numbers() {
        let ks = kinds("year > 2000 AND rating >= 4.5");
        assert!(ks.contains(&TokenKind::NumberLit(2000.0)));
        assert!(ks.contains(&TokenKind::NumberLit(4.5)));
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let ks = kinds("select x from t");
        assert_eq!(ks[0], TokenKind::Keyword("SELECT"));
        assert_eq!(ks[2], TokenKind::Keyword("FROM"));
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(Lexer::tokenize("name = 'oops").is_err());
    }

    #[test]
    fn reports_offsets() {
        let toks = Lexer::tokenize("SELECT x").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 7);
    }

    #[test]
    fn offsets_and_payloads_are_byte_slices() {
        let sql = "\u{2018}caf\u{e9}\u{2019}\u{a0}\u{17f}um \u{e9}t\u{663}";
        let toks = Lexer::tokenize(sql).unwrap();
        let offsets: Vec<usize> = toks.iter().map(|t| t.offset).collect();
        assert_eq!(offsets, [0, 13, 18, 23]);
        assert_eq!(toks[0].kind, TokenKind::StringLit("caf\u{e9}"));
        assert_eq!(toks[1].kind, TokenKind::Keyword("SUM"));
        assert_eq!(toks[2].kind, TokenKind::Ident("\u{e9}t\u{663}"));
        assert_eq!(toks[3].kind, TokenKind::Eof);
        let err = Lexer::tokenize("\u{e9} \u{663}").unwrap_err();
        assert_eq!(
            (err.message.as_str(), err.offset),
            ("unexpected character '\u{663}'", 3)
        );
    }
}
