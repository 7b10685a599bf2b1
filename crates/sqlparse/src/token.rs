//! Lexical tokens of the SQL subset.

use std::fmt;

/// The kind of a SQL token.  Text payloads borrow from the lexed input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind<'a> {
    /// A SQL keyword (`SELECT`, `FROM`, ...): the upper-case entry of
    /// [`KEYWORDS`].
    Keyword(&'static str),
    /// An identifier (relation, attribute or alias name), stored as written
    /// but compared case-insensitively by the parser.
    Ident(&'a str),
    /// A quoted string literal, with quotes removed.
    StringLit(&'a str),
    /// A numeric literal.
    NumberLit(f64),
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `!=` or `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `;`
    Semicolon,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Keyword(k) => write!(f, "{k}"),
            TokenKind::Ident(i) => write!(f, "{i}"),
            TokenKind::StringLit(s) => write!(f, "'{s}'"),
            TokenKind::NumberLit(n) => write!(f, "{n}"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Dot => write!(f, "."),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Eq => write!(f, "="),
            TokenKind::NotEq => write!(f, "!="),
            TokenKind::Lt => write!(f, "<"),
            TokenKind::LtEq => write!(f, "<="),
            TokenKind::Gt => write!(f, ">"),
            TokenKind::GtEq => write!(f, ">="),
            TokenKind::Semicolon => write!(f, ";"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token together with its byte offset in the input (for error messages).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'a> {
    /// The token kind and payload.
    pub kind: TokenKind<'a>,
    /// Byte offset of the first character of the token in the input string.
    pub offset: usize,
}

/// The reserved words recognised as keywords by the lexer.
pub const KEYWORDS: &[&str] = &[
    "SELECT", "DISTINCT", "FROM", "WHERE", "AND", "OR", "NOT", "GROUP", "BY", "HAVING", "ORDER",
    "ASC", "DESC", "LIMIT", "COUNT", "SUM", "AVG", "MIN", "MAX", "LIKE", "IN", "BETWEEN", "IS",
    "NULL", "AS",
];

/// For each length, one bit per letter that starts a keyword of that
/// length, so that most identifiers skip the scan of [`KEYWORDS`].  Every
/// keyword is upper-case ASCII and at most 8 bytes long (a longer one fails
/// to compile here).
const STARTS: [u32; 9] = {
    let mut starts = [0; 9];
    let mut i = 0;
    while i < KEYWORDS.len() {
        let k = KEYWORDS[i].as_bytes();
        starts[k.len()] |= 1 << (k[0] - b'A');
        i += 1;
    }
    starts
};

/// The entry of [`KEYWORDS`] that `word` upper-cases to, if any.  An ASCII
/// word is compared ignoring ASCII case; any other goes through
/// `to_uppercase`, under which `ſelect` is `SELECT`.
pub(crate) fn keyword(word: &str) -> Option<&'static str> {
    if word.is_ascii() {
        let letter = word.bytes().next()?.to_ascii_uppercase().wrapping_sub(b'A');
        let starts = STARTS.get(word.len()).copied().unwrap_or(0);
        if letter >= 26 || starts & (1 << letter) == 0 {
            return None;
        }
        KEYWORDS
            .iter()
            .find(|k| k.eq_ignore_ascii_case(word))
            .copied()
    } else {
        let upper = word.to_uppercase();
        KEYWORDS.iter().find(|k| **k == upper).copied()
    }
}

/// True when `word` (any case) is a reserved keyword.
pub fn is_keyword(word: &str) -> bool {
    keyword(word).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_detection_is_case_insensitive() {
        assert!(is_keyword("select"));
        assert!(is_keyword("SELECT"));
        assert!(is_keyword("Between"));
        assert!(!is_keyword("publication"));
    }

    #[test]
    fn token_display_round_trips_symbols() {
        assert_eq!(TokenKind::LtEq.to_string(), "<=");
        assert_eq!(TokenKind::StringLit("TKDE").to_string(), "'TKDE'");
    }

    #[test]
    fn keyword_returns_the_table_entry_in_any_case() {
        for &k in KEYWORDS {
            assert_eq!(keyword(k), Some(k));
            assert_eq!(keyword(&k.to_lowercase()), Some(k));
        }
        for word in ["", "_", "?x", "a", "name", "SELECTS", "Sel", "ORDERS", "x1"] {
            assert_eq!(keyword(word), None, "{word}");
        }
        // `ſ` (long s) upper-cases to `S` and `ı` (dotless i) to `I`.
        assert_eq!(keyword("ſelect"), Some("SELECT"));
        assert_eq!(keyword("lımıt"), Some("LIMIT"));
        assert_eq!(keyword("sélect"), None);
    }
}
