//! Property-based tests for the SQL parser: printing then re-parsing an AST
//! must reproduce the AST, and canonicalization must be stable.

mod common;

use common::query_strategy;
use proptest::prelude::*;
use sqlparse::token::is_keyword;
use sqlparse::{
    canonicalize, parse_query, Aggregate, BinOp, ColumnRef, Expr, Literal, Predicate, Query,
    SelectItem, TableRef,
};

proptest! {
    /// Rendering an AST to SQL and parsing it back yields the same AST.
    #[test]
    fn print_parse_roundtrip(q in query_strategy()) {
        let sql = q.to_string();
        let reparsed = parse_query(&sql)
            .unwrap_or_else(|e| panic!("failed to reparse `{sql}`: {e}"));
        prop_assert_eq!(q, reparsed);
    }

    /// Canonicalization is idempotent.
    #[test]
    fn canonicalization_idempotent(q in query_strategy()) {
        let once = canonicalize(&q);
        let twice = canonicalize(&once);
        prop_assert_eq!(once, twice);
    }

    /// A canonicalized query still parses (it is valid SQL).
    #[test]
    fn canonical_form_is_valid_sql(q in query_strategy()) {
        let canon = canonicalize(&q);
        let sql = canon.to_string();
        prop_assert!(parse_query(&sql).is_ok(), "canonical SQL did not parse: {}", sql);
    }

    /// The lexer never panics on arbitrary input.
    #[test]
    fn lexer_never_panics(input in ".{0,200}") {
        let _ = sqlparse::Lexer::tokenize(&input);
    }

    /// The parser never panics on arbitrary input, ASCII or not, also past
    /// a valid start.
    #[test]
    fn parser_never_panics(
        start in prop_oneof![Just(""), Just("SELECT "), Just("SELECT t.a FROM t WHERE ")],
        input in "[ -~\u{a0}\u{e9}\u{17f}\u{131}\u{663}\u{2018}\u{2019}]{0,200}",
    ) {
        let _ = parse_query(&format!("{start}{input}"));
    }
}
