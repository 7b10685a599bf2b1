//! Recursive-descent parser for the SQL subset.
//!
//! The parser reads the lexer's tokens by index, and the only text it copies
//! out of them is what the AST owns: identifiers and string literals.

use crate::ast::*;
use crate::error::{ParseError, ParseResult};
use crate::lexer::Lexer;
use crate::token::{Token, TokenKind};

/// Parse a single SQL query.
///
/// ```
/// use sqlparse::parse_query;
/// let q = parse_query("SELECT p.title FROM publication p WHERE p.year > 2000").unwrap();
/// assert_eq!(q.from.len(), 1);
/// assert_eq!(q.predicates.len(), 1);
/// ```
pub fn parse_query(sql: &str) -> ParseResult<Query> {
    let tokens = Lexer::tokenize(sql)?;
    let mut parser = Parser::new(tokens);
    let query = parser.parse_query()?;
    parser.expect_end()?;
    Ok(query)
}

/// The recursive-descent parser over a token stream.
#[derive(Debug)]
pub struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

/// The aggregate a token names, if any.
fn aggregate(token: TokenKind<'_>) -> Option<Aggregate> {
    let TokenKind::Keyword(keyword) = token else {
        return None;
    };
    [
        Aggregate::Count,
        Aggregate::Sum,
        Aggregate::Avg,
        Aggregate::Min,
        Aggregate::Max,
    ]
    .into_iter()
    .find(|a| a.name() == keyword)
}

impl<'a> Parser<'a> {
    /// Create a parser over a token stream (must be terminated by `Eof`).
    pub fn new(tokens: Vec<Token<'a>>) -> Self {
        Parser { tokens, pos: 0 }
    }

    /// The current token; once the input is consumed, the `Eof` token.
    fn peek(&self) -> TokenKind<'a> {
        self.tokens[self.pos].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    /// Consume the current token and return it; `Eof` stays current.
    fn bump(&mut self) -> TokenKind<'a> {
        let kind = self.peek();
        if self.pos + 1 < self.tokens.len() {
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

    fn eat(&mut self, kind: TokenKind<'_>) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind<'_>) -> ParseResult<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(ParseError::new(
                format!("expected {kind}, found {}", self.peek()),
                self.offset(),
            ))
        }
    }

    fn parse_ident(&mut self) -> ParseResult<&'a str> {
        match self.peek() {
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
        self.eat(TokenKind::Semicolon);
        if self.peek() == TokenKind::Eof {
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
            if self.eat(TokenKind::Star) {
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.parse_expr()?;
                // An optional `AS name`, which the AST does not keep.
                if self.eat_keyword("AS") {
                    self.parse_ident()?;
                }
                items.push(SelectItem::Expr(expr));
            }
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn parse_from_list(&mut self) -> ParseResult<Vec<TableRef>> {
        let mut tables = Vec::new();
        loop {
            let table = self.parse_ident()?.to_owned();
            // An alias follows either an explicit `AS` or directly as a
            // bare identifier.
            let alias = if self.eat_keyword("AS") || matches!(self.peek(), TokenKind::Ident(_)) {
                Some(self.parse_ident()?.to_owned())
            } else {
                None
            };
            tables.push(TableRef { table, alias });
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        Ok(tables)
    }

    fn parse_column_list(&mut self) -> ParseResult<Vec<ColumnRef>> {
        let mut cols = Vec::new();
        loop {
            cols.push(self.parse_column_ref()?);
            if !self.eat(TokenKind::Comma) {
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
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        Ok(keys)
    }

    fn parse_column_ref(&mut self) -> ParseResult<ColumnRef> {
        let first = self.parse_ident()?;
        if self.eat(TokenKind::Dot) {
            Ok(ColumnRef::qualified(first, self.parse_ident()?))
        } else {
            Ok(ColumnRef::new(first))
        }
    }

    /// Parse a scalar expression: aggregate call, column reference or literal.
    fn parse_expr(&mut self) -> ParseResult<Expr> {
        let token = self.peek();
        if let Some(func) = aggregate(token) {
            self.bump();
            self.expect(TokenKind::LParen)?;
            let distinct = self.eat_keyword("DISTINCT");
            let arg = if self.eat(TokenKind::Star) {
                None
            } else {
                Some(self.parse_column_ref()?)
            };
            self.expect(TokenKind::RParen)?;
            return Ok(Expr::Aggregate {
                func,
                distinct,
                arg,
            });
        }
        let literal = match token {
            TokenKind::Ident(_) => return Ok(Expr::Column(self.parse_column_ref()?)),
            TokenKind::NumberLit(n) => Literal::Number(n),
            TokenKind::StringLit(s) => Literal::String(s.to_owned()),
            TokenKind::Keyword("NULL") => Literal::Null,
            other => {
                return Err(ParseError::new(
                    format!("expected expression, found {other}"),
                    self.offset(),
                ))
            }
        };
        self.bump();
        Ok(Expr::Literal(literal))
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

    /// The column of a predicate that must test one; `what` names the
    /// predicate in the error.
    fn column_operand(&self, left: Expr, what: &str) -> ParseResult<ColumnRef> {
        match left {
            Expr::Column(c) => Ok(c),
            other => Err(ParseError::new(
                format!("{what} requires a column, found {other}"),
                self.offset(),
            )),
        }
    }

    fn parse_predicate(&mut self) -> ParseResult<Predicate> {
        let left = self.parse_expr()?;
        // IS [NOT] NULL
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            let col = self.column_operand(left, "IS NULL")?;
            return Ok(Predicate::IsNull { col, negated });
        }
        // [NOT] IN / BETWEEN / LIKE
        let negated = self.eat_keyword("NOT");
        if self.eat_keyword("IN") {
            let col = self.column_operand(left, "IN")?;
            self.expect(TokenKind::LParen)?;
            let mut values = Vec::new();
            loop {
                match self.bump() {
                    TokenKind::NumberLit(n) => values.push(Literal::Number(n)),
                    TokenKind::StringLit(s) => values.push(Literal::String(s.to_owned())),
                    other => {
                        return Err(ParseError::new(
                            format!("expected literal in IN list, found {other}"),
                            self.offset(),
                        ))
                    }
                }
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen)?;
            return Ok(Predicate::In {
                col,
                values,
                negated,
            });
        }
        if self.eat_keyword("BETWEEN") {
            let col = self.column_operand(left, "BETWEEN")?;
            let low = self.parse_literal()?;
            self.expect_keyword("AND")?;
            let high = self.parse_literal()?;
            return Ok(Predicate::Between { col, low, high });
        }
        if negated {
            return Err(ParseError::new(
                "NOT is only supported before IN / BETWEEN",
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
            TokenKind::Keyword("LIKE") => BinOp::Like,
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
            TokenKind::StringLit(s) => Ok(Literal::String(s.to_owned())),
            TokenKind::Keyword("NULL") => Ok(Literal::Null),
            other => Err(ParseError::new(
                format!("expected literal, found {other}"),
                self.offset(),
            )),
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::TestRng;

    #[test]
    fn parses_example_1_query() {
        let sql = "SELECT p.title \
                   FROM publication p, publication_keyword pk, keyword k, domain_keyword dk, domain d \
                   WHERE d.name = 'Databases' \
                   AND p.pid = pk.pid AND k.kid = pk.kid \
                   AND dk.kid = k.kid AND dk.did = d.did";
        let q = parse_query(sql).unwrap();
        assert_eq!(q.from.len(), 5);
        assert_eq!(q.predicates.len(), 5);
        assert_eq!(q.join_conditions().count(), 4);
        assert_eq!(q.filter_predicates().count(), 1);
    }

    #[test]
    fn parses_self_join_example_7() {
        let sql = "SELECT p.title \
                   FROM author a1, author a2, publication p, writes w1, writes w2 \
                   WHERE a1.name = 'John' AND a2.name = 'Jane' \
                   AND a1.aid = w1.aid AND a2.aid = w2.aid \
                   AND p.pid = w1.pid AND p.pid = w2.pid";
        let q = parse_query(sql).unwrap();
        assert_eq!(q.from.len(), 5);
        let authors: Vec<_> = q.from.iter().filter(|t| t.table == "author").collect();
        assert_eq!(authors.len(), 2);
        assert_eq!(q.join_conditions().count(), 4);
    }

    #[test]
    fn parses_aggregates_group_by_having_order_limit() {
        let sql = "SELECT a.name, COUNT(DISTINCT p.pid) FROM author a, writes w, publication p \
                   WHERE a.aid = w.aid AND w.pid = p.pid \
                   GROUP BY a.name HAVING COUNT(p.pid) > 5 \
                   ORDER BY COUNT(p.pid) DESC LIMIT 10";
        let q = parse_query(sql).unwrap();
        assert_eq!(q.select.len(), 2);
        assert_eq!(q.group_by.len(), 1);
        assert_eq!(q.having.len(), 1);
        assert_eq!(q.order_by.len(), 1);
        assert_eq!(q.order_by[0].dir, OrderDir::Desc);
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn parses_between_in_like_null() {
        let sql = "SELECT b.name FROM business b \
                   WHERE b.stars BETWEEN 3 AND 5 AND b.state IN ('AZ', 'NV') \
                   AND b.name LIKE 'Taco' AND b.city IS NOT NULL";
        let q = parse_query(sql).unwrap();
        assert_eq!(q.predicates.len(), 4);
        assert!(matches!(q.predicates[0], Predicate::Between { .. }));
        assert!(matches!(q.predicates[1], Predicate::In { .. }));
        assert!(matches!(
            q.predicates[2],
            Predicate::Compare {
                op: BinOp::Like,
                ..
            }
        ));
        assert!(matches!(
            q.predicates[3],
            Predicate::IsNull { negated: true, .. }
        ));
    }

    #[test]
    fn parses_distinct_and_wildcard() {
        let q = parse_query("SELECT DISTINCT * FROM movie").unwrap();
        assert!(q.distinct);
        assert_eq!(q.select, vec![SelectItem::Wildcard]);
        assert_eq!(q.from, vec![TableRef::new("movie")]);
    }

    #[test]
    fn parses_as_alias_and_trailing_semicolon() {
        let q = parse_query("SELECT p.title AS t FROM publication AS p;").unwrap();
        assert_eq!(q.from[0].alias.as_deref(), Some("p"));
    }

    #[test]
    fn roundtrip_display_parse() {
        let sql = "SELECT p.title FROM journal j, publication p \
                   WHERE j.name = 'TKDE' AND p.year > 1995 AND j.jid = p.jid";
        let q = parse_query(sql).unwrap();
        let reparsed = parse_query(&q.to_string()).unwrap();
        assert_eq!(q, reparsed);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_query("SELECT FROM WHERE").is_err());
        assert!(parse_query("FROM publication").is_err());
        assert!(parse_query("SELECT a b c").is_err());
        assert!(parse_query("SELECT x FROM t WHERE").is_err());
        assert!(parse_query("SELECT x FROM t WHERE a = 1 extra junk").is_err());
    }

    #[test]
    fn rejects_unsupported_not() {
        assert!(parse_query("SELECT x FROM t WHERE NOT a = 1").is_err());
    }

    #[test]
    fn error_offsets_point_at_problem() {
        let err = parse_query("SELECT x FROM t WHERE a == 1").unwrap_err();
        assert!(err.offset >= 24, "offset was {}", err.offset);
    }

    #[test]
    fn error_offsets_are_byte_offsets() {
        // Each curly quote is three bytes long, so the trailing `==` starts
        // at character 48 but at byte 52.
        let sql = "SELECT d.name FROM d WHERE d.name = \u{2018}Databases\u{2019} ==";
        let err = parse_query(sql).unwrap_err();
        assert_eq!(err.message, "unexpected trailing input: =");
        assert_eq!(err.offset, 52);
        assert_eq!(&sql[err.offset..], "==");
    }

    /// `parse_query` against the reference on one input: equal ASTs, or
    /// errors with equal messages at the same place (the reference counts
    /// `char`s, `parse_query` bytes).
    fn assert_matches_reference(sql: &str) {
        match (parse_query(sql), reference::parse_query(sql)) {
            (Ok(query), Ok(expected)) => assert_eq!(query, expected, "{sql:?}"),
            (Err(err), Err(expected)) => {
                assert_eq!(err.message, expected.message, "{sql:?}");
                let byte = sql
                    .char_indices()
                    .nth(expected.offset)
                    .map_or(sql.len(), |(i, _)| i);
                assert_eq!(err.offset, byte, "{sql:?}: {err}");
            }
            (got, expected) => panic!("{sql:?}: {got:?}, reference {expected:?}"),
        }
    }

    /// Every gold query of the benchmarks, its canonical form, and every
    /// entry of each benchmark log scaled 10x.  The benchmark crates link
    /// their own copy of this crate, so the queries cross over as SQL text.
    #[test]
    fn parser_matches_reference_on_benchmark_sql() {
        let (mut gold, mut scaled) = (0, 0);
        for dataset in datasets::Dataset::all() {
            for case in &dataset.cases {
                let sql = case.gold_sql.to_string();
                assert_matches_reference(&sql);
                let query = parse_query(&sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
                assert_matches_reference(&crate::canonicalize(&query).to_string());
                gold += 1;
            }
            for query in datasets::scale_log(&dataset.full_log(), 10, 1).queries() {
                assert_matches_reference(&query.to_string());
                scaled += 1;
            }
        }
        assert_eq!(gold, 449);
        assert_eq!(scaled, 10 * gold);
    }

    /// `sql` with a few random edits: letter cases flipped, a word deleted
    /// or duplicated, and maybe the tail cut off.
    fn mutate(sql: &str, rng: &mut TestRng) -> String {
        let mut words: Vec<String> = sql.split(' ').map(str::to_owned).collect();
        for _ in 0..=rng.below(3) {
            let i = rng.below(words.len());
            match rng.below(3) {
                0 => {
                    words[i] = words[i]
                        .chars()
                        .map(|c| {
                            if rng.bool() {
                                c.to_ascii_uppercase()
                            } else {
                                c.to_ascii_lowercase()
                            }
                        })
                        .collect()
                }
                1 if words.len() > 1 => {
                    words.remove(i);
                }
                _ => {
                    let word = words[i].clone();
                    words.insert(i, word);
                }
            }
        }
        let mut sql = words.join(" ");
        if rng.bool() {
            let cut = rng.below(sql.len() + 1);
            let cut = (0..=cut)
                .rev()
                .find(|&i| sql.is_char_boundary(i))
                .unwrap_or(0);
            sql.truncate(cut);
        }
        sql
    }

    /// The pieces random inputs are made of: keywords in several cases, also
    /// spelled with `ſ` (long s) and `ı` (dotless i), which upper-case to
    /// ASCII; identifiers, non-ASCII letters and digits; every quote, also
    /// unterminated; operators and numbers the lexer rejects; and ASCII and
    /// non-ASCII whitespace.
    const PIECES: &[&str] = &[
        "SELECT",
        "select",
        "\u{17f}elect",
        "DISTINCT",
        "FROM",
        "from",
        "WHERE",
        "AND",
        "aNd",
        "OR",
        "NOT",
        "IS",
        "NULL",
        "IN",
        "BETWEEN",
        "LIKE",
        "l\u{131}ke",
        "GROUP",
        "BY",
        "HAVING",
        "ORDER",
        "ASC",
        "DESC",
        "LIMIT",
        "l\u{131}m\u{131}t",
        "AS",
        "COUNT",
        "count",
        "SUM",
        "AVG",
        "MIN",
        "MAX",
        "p",
        "t",
        "title",
        "p.title",
        "a_1",
        "_x",
        "\u{e9}",
        "\u{17f}",
        "\u{131}",
        "x\u{663}",
        "\u{663}",
        "stra\u{df}e",
        "\u{212a}",
        "?",
        "?val",
        "(",
        ")",
        ",",
        ".",
        "*",
        ";",
        "=",
        "!=",
        "!",
        "<",
        "<=",
        "<>",
        ">",
        ">=",
        "'",
        "\"",
        "\u{2018}",
        "\u{2019}",
        "'TKDE'",
        "\"x\"",
        "\u{2018}Databases\u{2019}",
        "'it\u{2019}s",
        "0",
        "7",
        "4.5",
        "1.2.3",
        "12.",
        "2000",
        " ",
        "  ",
        "\t",
        "\r\n",
        "\u{b}",
        "\u{a0}",
        "\u{2003}",
    ];

    /// A random string of up to 24 pieces, most followed by a space; half of
    /// them start with `SELECT`.
    fn arbitrary(rng: &mut TestRng) -> String {
        let mut text = String::from(if rng.bool() { "SELECT " } else { "" });
        for _ in 0..rng.below(25) {
            text.push_str(PIECES[rng.below(PIECES.len())]);
            if rng.below(3) > 0 {
                text.push(' ');
            }
        }
        text
    }

    proptest::proptest! {
        /// Rendered random queries, random edits of them, and arbitrary
        /// strings over ASCII and non-ASCII pieces of SQL.
        #[test]
        fn parser_matches_reference_on_random_input(
            query in proptest::prop_oneof![
                crate::common::query_strategy(),
                crate::canon::tests::bound_queries(),
            ],
            seed in proptest::prelude::any::<u64>(),
        ) {
            let sql = query.to_string();
            assert_matches_reference(&sql);
            let mut rng = TestRng::from_seed(seed);
            for _ in 0..16 {
                assert_matches_reference(&mutate(&sql, &mut rng));
                assert_matches_reference(&arbitrary(&mut rng));
            }
        }
    }
}
