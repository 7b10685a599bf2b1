//! The lexer and parser as they were before the lexer borrowed its tokens
//! from the input (a `Vec<char>` copy of the input, upper-cased keyword
//! `String`s, every consumed or peeked token cloned, offsets counted in
//! `char`s): the reference the lexer and parser are checked against.

use crate::ast::*;
use crate::error::{ParseError, ParseResult};
use crate::token::KEYWORDS;
use std::fmt;

/// The kind of a SQL token.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// A SQL keyword (`SELECT`, `FROM`, ...), stored upper-cased.
    Keyword(String),
    /// An identifier (relation, attribute or alias name), stored as written
    /// but compared case-insensitively by the parser.
    Ident(String),
    /// A quoted string literal, with quotes removed.
    StringLit(String),
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

impl fmt::Display for TokenKind {
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

/// A token together with its offset in the input, counted in `char`s.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// Byte offset of the first character of the token in the input string.
    pub offset: usize,
}

/// True when `word` (any case) is a reserved keyword.
pub fn is_keyword(word: &str) -> bool {
    let upper = word.to_uppercase();
    KEYWORDS.iter().any(|k| *k == upper)
}

/// A streaming lexer over a SQL string.
#[derive(Debug)]
pub struct Lexer {
    chars: Vec<char>,
    pos: usize,
}

impl Lexer {
    /// Create a lexer over the input.
    pub fn new(input: &str) -> Self {
        Lexer {
            chars: input.chars().collect(),
            pos: 0,
        }
    }

    /// Lex the whole input into a vector of tokens, terminated by
    /// [`TokenKind::Eof`].
    pub fn tokenize(input: &str) -> ParseResult<Vec<Token>> {
        let mut lexer = Lexer::new(input);
        let mut out = Vec::new();
        loop {
            let tok = lexer.next_token()?;
            let eof = tok.kind == TokenKind::Eof;
            out.push(tok);
            if eof {
                return Ok(out);
            }
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.pos += 1;
        }
    }

    /// Produce the next token.
    pub fn next_token(&mut self) -> ParseResult<Token> {
        self.skip_whitespace();
        let offset = self.pos;
        let Some(c) = self.peek() else {
            return Ok(Token {
                kind: TokenKind::Eof,
                offset,
            });
        };
        let kind = match c {
            ',' => {
                self.bump();
                TokenKind::Comma
            }
            '.' => {
                self.bump();
                TokenKind::Dot
            }
            '(' => {
                self.bump();
                TokenKind::LParen
            }
            ')' => {
                self.bump();
                TokenKind::RParen
            }
            '*' => {
                self.bump();
                TokenKind::Star
            }
            ';' => {
                self.bump();
                TokenKind::Semicolon
            }
            '=' => {
                self.bump();
                TokenKind::Eq
            }
            '!' => {
                self.bump();
                if self.peek() == Some('=') {
                    self.bump();
                    TokenKind::NotEq
                } else {
                    return Err(ParseError::new("expected '=' after '!'", offset));
                }
            }
            '<' => {
                self.bump();
                match self.peek() {
                    Some('=') => {
                        self.bump();
                        TokenKind::LtEq
                    }
                    Some('>') => {
                        self.bump();
                        TokenKind::NotEq
                    }
                    _ => TokenKind::Lt,
                }
            }
            '>' => {
                self.bump();
                if self.peek() == Some('=') {
                    self.bump();
                    TokenKind::GtEq
                } else {
                    TokenKind::Gt
                }
            }
            '\'' | '"' | '\u{2018}' | '\u{2019}' => {
                // Accept both straight and curly quotes (the paper's text uses
                // curly quotes in its SQL listings).
                let quote = if c == '"' { '"' } else { '\'' };
                self.bump();
                let mut s = String::new();
                loop {
                    match self.bump() {
                        Some(q)
                            if q == quote
                                || (quote == '\'' && (q == '\u{2019}' || q == '\u{2018}')) =>
                        {
                            break
                        }
                        Some(ch) => s.push(ch),
                        None => return Err(ParseError::new("unterminated string literal", offset)),
                    }
                }
                TokenKind::StringLit(s)
            }
            c if c.is_ascii_digit() => {
                let mut s = String::new();
                while let Some(ch) = self.peek() {
                    if ch.is_ascii_digit()
                        || (ch == '.' && self.peek2().is_some_and(|d| d.is_ascii_digit()))
                    {
                        s.push(ch);
                        self.bump();
                    } else {
                        break;
                    }
                }
                let value: f64 = s
                    .parse()
                    .map_err(|_| ParseError::new(format!("invalid number '{s}'"), offset))?;
                TokenKind::NumberLit(value)
            }
            c if c.is_alphabetic() || c == '_' || c == '?' => {
                let mut s = String::new();
                if c == '?' {
                    // placeholder identifiers (?val, ?op) appear only in
                    // obscured fragment text, but accepting them makes the
                    // lexer reusable for fragment round-trips.
                    s.push(c);
                    self.bump();
                }
                while let Some(ch) = self.peek() {
                    if ch.is_alphanumeric() || ch == '_' {
                        s.push(ch);
                        self.bump();
                    } else {
                        break;
                    }
                }
                if s.is_empty() {
                    return Err(ParseError::new(
                        format!("unexpected character '{c}'"),
                        offset,
                    ));
                }
                if is_keyword(&s) {
                    TokenKind::Keyword(s.to_uppercase())
                } else {
                    TokenKind::Ident(s)
                }
            }
            other => {
                return Err(ParseError::new(
                    format!("unexpected character '{other}'"),
                    offset,
                ))
            }
        };
        Ok(Token { kind, offset })
    }
}

/// The aggregate a name (any case) stands for, if any.
fn aggregate_named(name: &str) -> Option<Aggregate> {
    match name.to_uppercase().as_str() {
        "COUNT" => Some(Aggregate::Count),
        "SUM" => Some(Aggregate::Sum),
        "AVG" => Some(Aggregate::Avg),
        "MIN" => Some(Aggregate::Min),
        "MAX" => Some(Aggregate::Max),
        _ => None,
    }
}

/// Parse a single SQL query.
pub(super) fn parse_query(sql: &str) -> ParseResult<Query> {
    let tokens = Lexer::tokenize(sql)?;
    let mut parser = Parser::new(tokens);
    let query = parser.parse_query()?;
    parser.expect_end()?;
    Ok(query)
}

/// The recursive-descent parser over a token stream.
#[derive(Debug)]
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    /// Create a parser over a token stream (must be terminated by `Eof`).
    pub fn new(tokens: Vec<Token>) -> Self {
        Parser { tokens, pos: 0 }
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos.min(self.tokens.len() - 1)].offset
    }

    fn bump(&mut self) -> TokenKind {
        let kind = self.tokens[self.pos.min(self.tokens.len() - 1)]
            .kind
            .clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        kind
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), TokenKind::Keyword(k) if k == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> ParseResult<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(ParseError::new(
                format!("expected keyword {kw}, found {}", self.peek()),
                self.offset(),
            ))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> ParseResult<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(ParseError::new(
                format!("expected {kind}, found {}", self.peek()),
                self.offset(),
            ))
        }
    }

    fn parse_ident(&mut self) -> ParseResult<String> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(ParseError::new(
                format!("expected identifier, found {other}"),
                self.offset(),
            )),
        }
    }

    /// Verify the whole input was consumed (allowing a trailing semicolon).
    pub fn expect_end(&mut self) -> ParseResult<()> {
        self.eat(&TokenKind::Semicolon);
        if *self.peek() == TokenKind::Eof {
            Ok(())
        } else {
            Err(ParseError::new(
                format!("unexpected trailing input: {}", self.peek()),
                self.offset(),
            ))
        }
    }

    /// Parse a complete `SELECT` query.
    pub fn parse_query(&mut self) -> ParseResult<Query> {
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");
        let select = self.parse_select_list()?;
        let from = if self.eat_keyword("FROM") {
            self.parse_from_list()?
        } else {
            Vec::new()
        };
        let predicates = if self.eat_keyword("WHERE") {
            self.parse_predicate_list()?
        } else {
            Vec::new()
        };
        let group_by = if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            self.parse_column_list()?
        } else {
            Vec::new()
        };
        let having = if self.eat_keyword("HAVING") {
            self.parse_predicate_list()?
        } else {
            Vec::new()
        };
        let order_by = if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            self.parse_order_by_list()?
        } else {
            Vec::new()
        };
        let limit = if self.eat_keyword("LIMIT") {
            match self.bump() {
                TokenKind::NumberLit(n) if n >= 0.0 && n.fract() == 0.0 => Some(n as u64),
                other => {
                    return Err(ParseError::new(
                        format!("expected integer LIMIT, found {other}"),
                        self.offset(),
                    ))
                }
            }
        } else {
            None
        };
        Ok(Query {
            distinct,
            select,
            from,
            predicates,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn parse_select_list(&mut self) -> ParseResult<Vec<SelectItem>> {
        let mut items = Vec::new();
        loop {
            if self.eat(&TokenKind::Star) {
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.parse_expr()?;
                // optional alias: `expr AS name` or bare identifier alias.
                if self.eat_keyword("AS") {
                    let _ = self.parse_ident()?;
                }
                items.push(SelectItem::Expr(expr));
            }
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn parse_from_list(&mut self) -> ParseResult<Vec<TableRef>> {
        let mut tables = Vec::new();
        loop {
            let table = self.parse_ident()?;
            // An alias follows either an explicit `AS` or directly as a
            // bare identifier.
            let alias = if self.eat_keyword("AS") || matches!(self.peek(), TokenKind::Ident(_)) {
                Some(self.parse_ident()?)
            } else {
                None
            };
            tables.push(TableRef { table, alias });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(tables)
    }

    fn parse_column_list(&mut self) -> ParseResult<Vec<ColumnRef>> {
        let mut cols = Vec::new();
        loop {
            cols.push(self.parse_column_ref()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(cols)
    }

    fn parse_order_by_list(&mut self) -> ParseResult<Vec<OrderBy>> {
        let mut keys = Vec::new();
        loop {
            let expr = self.parse_expr()?;
            let dir = if self.eat_keyword("DESC") {
                OrderDir::Desc
            } else {
                self.eat_keyword("ASC");
                OrderDir::Asc
            };
            keys.push(OrderBy { expr, dir });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(keys)
    }

    fn parse_column_ref(&mut self) -> ParseResult<ColumnRef> {
        let first = self.parse_ident()?;
        if self.eat(&TokenKind::Dot) {
            let column = self.parse_ident()?;
            Ok(ColumnRef {
                qualifier: Some(first),
                column,
            })
        } else {
            Ok(ColumnRef {
                qualifier: None,
                column: first,
            })
        }
    }

    /// Parse a scalar expression: aggregate call, column reference or literal.
    fn parse_expr(&mut self) -> ParseResult<Expr> {
        match self.peek().clone() {
            TokenKind::Keyword(kw) if aggregate_named(&kw).is_some() => {
                let func = aggregate_named(&kw).expect("checked above");
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let distinct = self.eat_keyword("DISTINCT");
                let arg = if self.eat(&TokenKind::Star) {
                    None
                } else {
                    Some(self.parse_column_ref()?)
                };
                self.expect(&TokenKind::RParen)?;
                Ok(Expr::Aggregate {
                    func,
                    distinct,
                    arg,
                })
            }
            TokenKind::NumberLit(n) => {
                self.bump();
                Ok(Expr::Literal(Literal::Number(n)))
            }
            TokenKind::StringLit(s) => {
                self.bump();
                Ok(Expr::Literal(Literal::String(s)))
            }
            TokenKind::Keyword(kw) if kw == "NULL" => {
                self.bump();
                Ok(Expr::Literal(Literal::Null))
            }
            TokenKind::Ident(_) => Ok(Expr::Column(self.parse_column_ref()?)),
            other => Err(ParseError::new(
                format!("expected expression, found {other}"),
                self.offset(),
            )),
        }
    }

    fn parse_predicate_list(&mut self) -> ParseResult<Vec<Predicate>> {
        let mut predicates = Vec::new();
        loop {
            predicates.push(self.parse_predicate()?);
            if !self.eat_keyword("AND") {
                break;
            }
        }
        Ok(predicates)
    }

    fn parse_predicate(&mut self) -> ParseResult<Predicate> {
        let left = self.parse_expr()?;
        // IS [NOT] NULL
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            let col = match left {
                Expr::Column(c) => c,
                other => {
                    return Err(ParseError::new(
                        format!("IS NULL requires a column, found {other}"),
                        self.offset(),
                    ))
                }
            };
            return Ok(Predicate::IsNull { col, negated });
        }
        // [NOT] IN / BETWEEN / LIKE
        let negated = self.eat_keyword("NOT");
        if self.eat_keyword("IN") {
            let col = match left {
                Expr::Column(c) => c,
                other => {
                    return Err(ParseError::new(
                        format!("IN requires a column, found {other}"),
                        self.offset(),
                    ))
                }
            };
            self.expect(&TokenKind::LParen)?;
            let mut values = Vec::new();
            loop {
                match self.bump() {
                    TokenKind::NumberLit(n) => values.push(Literal::Number(n)),
                    TokenKind::StringLit(s) => values.push(Literal::String(s)),
                    other => {
                        return Err(ParseError::new(
                            format!("expected literal in IN list, found {other}"),
                            self.offset(),
                        ))
                    }
                }
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
            return Ok(Predicate::In {
                col,
                values,
                negated,
            });
        }
        if self.eat_keyword("BETWEEN") {
            let col = match left {
                Expr::Column(c) => c,
                other => {
                    return Err(ParseError::new(
                        format!("BETWEEN requires a column, found {other}"),
                        self.offset(),
                    ))
                }
            };
            let low = self.parse_literal()?;
            self.expect_keyword("AND")?;
            let high = self.parse_literal()?;
            return Ok(Predicate::Between { col, low, high });
        }
        if negated {
            return Err(ParseError::new(
                "NOT is only supported before IN / BETWEEN".to_string(),
                self.offset(),
            ));
        }
        let op = match self.bump() {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::NotEq => BinOp::NotEq,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::LtEq => BinOp::LtEq,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::GtEq => BinOp::GtEq,
            TokenKind::Keyword(kw) if kw == "LIKE" => BinOp::Like,
            other => {
                return Err(ParseError::new(
                    format!("expected comparison operator, found {other}"),
                    self.offset(),
                ))
            }
        };
        let right = self.parse_expr()?;
        Ok(Predicate::Compare { left, op, right })
    }

    fn parse_literal(&mut self) -> ParseResult<Literal> {
        match self.bump() {
            TokenKind::NumberLit(n) => Ok(Literal::Number(n)),
            TokenKind::StringLit(s) => Ok(Literal::String(s)),
            TokenKind::Keyword(kw) if kw == "NULL" => Ok(Literal::Null),
            other => Err(ParseError::new(
                format!("expected literal, found {other}"),
                self.offset(),
            )),
        }
    }
}
