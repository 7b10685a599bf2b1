//! A SQL lexer, parser and canonicalizer for the Templar query-log subset.
//!
//! Templar consumes SQL twice: once when it **mines the query log** (every
//! logged query is parsed and decomposed into query fragments, Section IV of
//! the paper) and once when the evaluation harness **compares the SQL
//! produced by an NLIDB against the gold translation** (Section VII).  Both
//! uses require a real parser; no suitable offline Rust SQL parser was
//! available, so this crate implements one from scratch for the SQL subset
//! that appears in the MAS / Yelp / IMDB benchmarks:
//!
//! * `SELECT [DISTINCT] <items>` with column references, `*`, and the
//!   aggregates `COUNT` / `SUM` / `AVG` / `MIN` / `MAX` (including
//!   `COUNT(DISTINCT x)` and `COUNT(*)`),
//! * `FROM` lists with table aliases (including self-joins via repeated
//!   relations with distinct aliases),
//! * `WHERE` conjunctions of comparison predicates, `LIKE`, `IN`,
//!   `BETWEEN`, and FK-PK join conditions,
//! * `GROUP BY`, `HAVING`, `ORDER BY ... [ASC|DESC]`, `LIMIT`.
//!
//! The [`canon`] module normalises alias names and predicate order so that
//! two semantically identical queries render to the same canonical string —
//! this is what the evaluation harness uses for the *full query* (FQ)
//! accuracy metric.

pub mod ast;
pub mod canon;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod token;

pub use ast::{
    Aggregate, BinOp, ColumnRef, Expr, Literal, OrderBy, OrderDir, Predicate, Query, SelectItem,
    TableRef,
};
pub use canon::canonicalize;
pub use error::{ParseError, ParseResult};
pub use lexer::Lexer;
pub use parser::parse_query;
pub use token::{Token, TokenKind};

/// The random query strategies of `tests/properties.rs`, shared with the
/// unit tests; they name the AST and `is_keyword` through `super`.
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;
#[cfg(test)]
use token::is_keyword;
