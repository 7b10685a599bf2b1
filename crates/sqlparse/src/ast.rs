//! The abstract syntax tree for the SQL subset.
//!
//! The AST is deliberately flat: a query is a `SELECT` list, a `FROM` list, a
//! conjunction of `WHERE` predicates, optional `GROUP BY` / `HAVING` /
//! `ORDER BY` / `LIMIT`.  This matches the space of queries produced by the
//! benchmark NLIDBs (the paper removes the handful of benchmark queries with
//! correlated subqueries, Section VII-A.4) and makes fragment extraction
//! (Section IV) straightforward.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A reference to a relation in the `FROM` clause, with an optional alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TableRef {
    /// The relation name.
    pub table: String,
    /// The alias used to refer to the relation elsewhere in the query.
    pub alias: Option<String>,
}

impl TableRef {
    /// A table reference without an alias.
    pub fn new(table: impl Into<String>) -> Self {
        TableRef {
            table: table.into(),
            alias: None,
        }
    }

    /// A table reference with an alias.
    pub fn aliased(table: impl Into<String>, alias: impl Into<String>) -> Self {
        TableRef {
            table: table.into(),
            alias: Some(alias.into()),
        }
    }

    /// The name other clauses use to refer to this relation: the alias if
    /// present, otherwise the relation name itself.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.alias {
            Some(a) => write!(f, "{} {}", self.table, a),
            None => write!(f, "{}", self.table),
        }
    }
}

/// A (possibly qualified) column reference such as `p.title` or `year`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ColumnRef {
    /// The table alias or relation name qualifying the column, if any.
    pub qualifier: Option<String>,
    /// The column (attribute) name.
    pub column: String,
}

impl ColumnRef {
    /// An unqualified column reference.
    pub fn new(column: impl Into<String>) -> Self {
        ColumnRef {
            qualifier: None,
            column: column.into(),
        }
    }

    /// A qualified column reference (`qualifier.column`).
    pub fn qualified(qualifier: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            qualifier: Some(qualifier.into()),
            column: column.into(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{}.{}", q, self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// An aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Aggregate {
    /// `COUNT`
    Count,
    /// `SUM`
    Sum,
    /// `AVG`
    Avg,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
}

impl Aggregate {
    /// The SQL name of the aggregate.
    pub fn name(self) -> &'static str {
        match self {
            Aggregate::Count => "COUNT",
            Aggregate::Sum => "SUM",
            Aggregate::Avg => "AVG",
            Aggregate::Min => "MIN",
            Aggregate::Max => "MAX",
        }
    }
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A scalar expression usable in `SELECT`, `ORDER BY` and `HAVING`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A plain column reference.
    Column(ColumnRef),
    /// An aggregate application; `arg = None` means `COUNT(*)`.
    Aggregate {
        /// The aggregate function.
        func: Aggregate,
        /// Whether `DISTINCT` was specified inside the aggregate.
        distinct: bool,
        /// The aggregated column; `None` for `COUNT(*)`.
        arg: Option<ColumnRef>,
    },
    /// A literal value.
    Literal(Literal),
}

impl Expr {
    /// The column referenced by this expression, if any.
    pub fn column(&self) -> Option<&ColumnRef> {
        match self {
            Expr::Column(c) => Some(c),
            Expr::Aggregate { arg, .. } => arg.as_ref(),
            Expr::Literal(_) => None,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Aggregate {
                func,
                distinct,
                arg,
            } => {
                write!(f, "{func}(")?;
                if *distinct {
                    f.write_str("DISTINCT ")?;
                }
                match arg {
                    Some(c) => write!(f, "{c})"),
                    None => f.write_str("*)"),
                }
            }
            Expr::Literal(l) => write!(f, "{l}"),
        }
    }
}

/// A literal value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Literal {
    /// A numeric literal.
    Number(f64),
    /// A string literal.
    String(String),
    /// `NULL`
    Null,
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Literal::String(s) => write!(f, "'{s}'"),
            Literal::Null => write!(f, "NULL"),
        }
    }
}

/// A binary comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `LIKE`
    Like,
}

impl BinOp {
    /// The SQL rendering of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Eq => "=",
            BinOp::NotEq => "!=",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::Like => "LIKE",
        }
    }

    /// Parse an operator from a natural-language comparison word, used by the
    /// keyword-metadata layer ("after" -> `>`, "before" -> `<`, ...).
    pub fn from_word(word: &str) -> Option<Self> {
        match word.to_lowercase().as_str() {
            "after" | "more" | "above" | "over" | "greater" | "later" => Some(BinOp::Gt),
            "before" | "less" | "below" | "under" | "fewer" | "earlier" => Some(BinOp::Lt),
            "exactly" | "equal" | "in" => Some(BinOp::Eq),
            "least" | "atleast" => Some(BinOp::GtEq),
            "most" | "atmost" => Some(BinOp::LtEq),
            _ => None,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// A single predicate in the `WHERE` (or `HAVING`) conjunction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    /// `left op right` where `right` is a literal or another column (the
    /// latter form expresses FK-PK join conditions).
    Compare {
        /// Left-hand side expression (a column, or an aggregate in `HAVING`).
        left: Expr,
        /// The comparison operator.
        op: BinOp,
        /// Right-hand side expression.
        right: Expr,
    },
    /// `col IN (v1, v2, ...)` (or `NOT IN`).
    In {
        /// The tested column.
        col: ColumnRef,
        /// The literal list.
        values: Vec<Literal>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `col BETWEEN low AND high`.
    Between {
        /// The tested column.
        col: ColumnRef,
        /// Lower bound (inclusive).
        low: Literal,
        /// Upper bound (inclusive).
        high: Literal,
    },
    /// `col IS [NOT] NULL`.
    IsNull {
        /// The tested column.
        col: ColumnRef,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
}

impl Predicate {
    /// True when the predicate is a join condition: a column-to-column
    /// equality comparison.
    pub fn is_join_condition(&self) -> bool {
        matches!(
            self,
            Predicate::Compare {
                left: Expr::Column(_),
                op: BinOp::Eq,
                right: Expr::Column(_),
            }
        )
    }

    /// The columns mentioned by the predicate.
    pub fn columns(&self) -> Vec<&ColumnRef> {
        match self {
            Predicate::Compare { left, right, .. } => {
                let mut cols = Vec::new();
                if let Some(c) = left.column() {
                    cols.push(c);
                }
                if let Some(c) = right.column() {
                    cols.push(c);
                }
                cols
            }
            Predicate::In { col, .. }
            | Predicate::Between { col, .. }
            | Predicate::IsNull { col, .. } => vec![col],
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Compare { left, op, right } => write!(f, "{left} {op} {right}"),
            Predicate::In {
                col,
                values,
                negated,
            } => {
                let not = if *negated { "NOT " } else { "" };
                write!(f, "{col} {not}IN (")?;
                write_separated(f, values, ", ")?;
                f.write_str(")")
            }
            Predicate::Between { col, low, high } => {
                write!(f, "{col} BETWEEN {low} AND {high}")
            }
            Predicate::IsNull { col, negated } => {
                if *negated {
                    write!(f, "{col} IS NOT NULL")
                } else {
                    write!(f, "{col} IS NULL")
                }
            }
        }
    }
}

/// An item in the `SELECT` list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// A scalar expression (column or aggregate).
    Expr(Expr),
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => write!(f, "*"),
            SelectItem::Expr(e) => write!(f, "{e}"),
        }
    }
}

/// Sort direction of an `ORDER BY` key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OrderDir {
    /// Ascending (the SQL default).
    Asc,
    /// Descending.
    Desc,
}

impl fmt::Display for OrderDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrderDir::Asc => write!(f, "ASC"),
            OrderDir::Desc => write!(f, "DESC"),
        }
    }
}

/// An `ORDER BY` key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrderBy {
    /// The sort expression.
    pub expr: Expr,
    /// The sort direction.
    pub dir: OrderDir,
}

impl fmt::Display for OrderBy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.expr, self.dir)
    }
}

/// A parsed SQL query.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Query {
    /// Whether `SELECT DISTINCT` was specified.
    pub distinct: bool,
    /// The `SELECT` list.
    pub select: Vec<SelectItem>,
    /// The `FROM` list.
    pub from: Vec<TableRef>,
    /// The conjunction of `WHERE` predicates (both filter and join conditions).
    pub predicates: Vec<Predicate>,
    /// The `GROUP BY` columns.
    pub group_by: Vec<ColumnRef>,
    /// The conjunction of `HAVING` predicates.
    pub having: Vec<Predicate>,
    /// The `ORDER BY` keys.
    pub order_by: Vec<OrderBy>,
    /// The `LIMIT`, if any.
    pub limit: Option<u64>,
}

impl Query {
    /// A new empty query (useful as a builder starting point in tests).
    pub fn new() -> Self {
        Query::default()
    }

    /// The filter (non-join) predicates of the `WHERE` clause.
    pub fn filter_predicates(&self) -> impl Iterator<Item = &Predicate> {
        self.predicates.iter().filter(|p| !p.is_join_condition())
    }

    /// The join conditions of the `WHERE` clause.
    pub fn join_conditions(&self) -> impl Iterator<Item = &Predicate> {
        self.predicates.iter().filter(|p| p.is_join_condition())
    }

    /// Resolve a column qualifier (alias or table name) to the underlying
    /// relation name, if it is bound in the `FROM` clause.
    pub fn resolve_qualifier(&self, qualifier: &str) -> Option<&str> {
        self.from
            .iter()
            .find(|t| t.binding().eq_ignore_ascii_case(qualifier))
            .map(|t| t.table.as_str())
            .or_else(|| {
                self.from
                    .iter()
                    .find(|t| t.table.eq_ignore_ascii_case(qualifier))
                    .map(|t| t.table.as_str())
            })
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.distinct {
            "SELECT DISTINCT "
        } else {
            "SELECT "
        })?;
        write_separated(f, &self.select, ", ")?;
        if !self.from.is_empty() {
            f.write_str(" FROM ")?;
            write_separated(f, &self.from, ", ")?;
        }
        if !self.predicates.is_empty() {
            f.write_str(" WHERE ")?;
            write_separated(f, &self.predicates, " AND ")?;
        }
        if !self.group_by.is_empty() {
            f.write_str(" GROUP BY ")?;
            write_separated(f, &self.group_by, ", ")?;
        }
        if !self.having.is_empty() {
            f.write_str(" HAVING ")?;
            write_separated(f, &self.having, " AND ")?;
        }
        if !self.order_by.is_empty() {
            f.write_str(" ORDER BY ")?;
            write_separated(f, &self.order_by, ", ")?;
        }
        if let Some(limit) = self.limit {
            write!(f, " LIMIT {limit}")?;
        }
        Ok(())
    }
}

/// Write `items` separated by `separator`, each straight into the formatter.
fn write_separated<T: fmt::Display>(
    f: &mut fmt::Formatter<'_>,
    items: &[T],
    separator: &str,
) -> fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(separator)?;
        }
        write!(f, "{item}")?;
    }
    Ok(())
}

/// The renderers as they were before they wrote into the formatter (a
/// `String` per item, lists joined from a `Vec`): the reference the
/// `Display` impls of `Query`, `Expr` and `Predicate` are checked against.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn query(q: &Query) -> String {
        let mut out = String::from("SELECT ");
        if q.distinct {
            out.push_str("DISTINCT ");
        }
        let items: Vec<String> = q
            .select
            .iter()
            .map(|s| match s {
                SelectItem::Wildcard => "*".to_string(),
                SelectItem::Expr(e) => expr(e),
            })
            .collect();
        out.push_str(&items.join(", "));
        if !q.from.is_empty() {
            let tables: Vec<String> = q.from.iter().map(|t| t.to_string()).collect();
            out.push_str(&format!(" FROM {}", tables.join(", ")));
        }
        if !q.predicates.is_empty() {
            let preds: Vec<String> = q.predicates.iter().map(predicate).collect();
            out.push_str(&format!(" WHERE {}", preds.join(" AND ")));
        }
        if !q.group_by.is_empty() {
            let cols: Vec<String> = q.group_by.iter().map(|c| c.to_string()).collect();
            out.push_str(&format!(" GROUP BY {}", cols.join(", ")));
        }
        if !q.having.is_empty() {
            let preds: Vec<String> = q.having.iter().map(predicate).collect();
            out.push_str(&format!(" HAVING {}", preds.join(" AND ")));
        }
        if !q.order_by.is_empty() {
            let keys: Vec<String> = q
                .order_by
                .iter()
                .map(|o| format!("{} {}", expr(&o.expr), o.dir))
                .collect();
            out.push_str(&format!(" ORDER BY {}", keys.join(", ")));
        }
        if let Some(limit) = q.limit {
            out.push_str(&format!(" LIMIT {limit}"));
        }
        out
    }

    fn expr(e: &Expr) -> String {
        match e {
            Expr::Column(c) => c.to_string(),
            Expr::Aggregate {
                func,
                distinct,
                arg,
            } => {
                let inner = match arg {
                    Some(c) => c.to_string(),
                    None => "*".to_string(),
                };
                if *distinct {
                    format!("{func}(DISTINCT {inner})")
                } else {
                    format!("{func}({inner})")
                }
            }
            Expr::Literal(l) => l.to_string(),
        }
    }

    fn predicate(p: &Predicate) -> String {
        match p {
            Predicate::Compare { left, op, right } => {
                format!("{} {op} {}", expr(left), expr(right))
            }
            Predicate::In {
                col,
                values,
                negated,
            } => {
                let vals: Vec<String> = values.iter().map(|v| v.to_string()).collect();
                if *negated {
                    format!("{col} NOT IN ({})", vals.join(", "))
                } else {
                    format!("{col} IN ({})", vals.join(", "))
                }
            }
            Predicate::Between { col, low, high } => format!("{col} BETWEEN {low} AND {high}"),
            Predicate::IsNull { col, negated } => {
                if *negated {
                    format!("{col} IS NOT NULL")
                } else {
                    format!("{col} IS NULL")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_query() -> Query {
        Query {
            distinct: false,
            select: vec![SelectItem::Expr(Expr::Column(ColumnRef::qualified(
                "p", "title",
            )))],
            from: vec![
                TableRef::aliased("publication", "p"),
                TableRef::aliased("journal", "j"),
            ],
            predicates: vec![
                Predicate::Compare {
                    left: Expr::Column(ColumnRef::qualified("j", "name")),
                    op: BinOp::Eq,
                    right: Expr::Literal(Literal::String("TKDE".into())),
                },
                Predicate::Compare {
                    left: Expr::Column(ColumnRef::qualified("p", "year")),
                    op: BinOp::Gt,
                    right: Expr::Literal(Literal::Number(1995.0)),
                },
                Predicate::Compare {
                    left: Expr::Column(ColumnRef::qualified("j", "jid")),
                    op: BinOp::Eq,
                    right: Expr::Column(ColumnRef::qualified("p", "jid")),
                },
            ],
            ..Query::default()
        }
    }

    #[test]
    fn renders_example_5() {
        let q = example_query();
        assert_eq!(
            q.to_string(),
            "SELECT p.title FROM publication p, journal j \
             WHERE j.name = 'TKDE' AND p.year > 1995 AND j.jid = p.jid"
        );
    }

    #[test]
    fn distinguishes_join_conditions() {
        let q = example_query();
        assert_eq!(q.join_conditions().count(), 1);
        assert_eq!(q.filter_predicates().count(), 2);
    }

    #[test]
    fn resolves_qualifiers() {
        let q = example_query();
        assert_eq!(q.resolve_qualifier("p"), Some("publication"));
        assert_eq!(q.resolve_qualifier("journal"), Some("journal"));
        assert_eq!(q.resolve_qualifier("x"), None);
    }

    #[test]
    fn renders_aggregates_and_literals() {
        let agg = Expr::Aggregate {
            func: Aggregate::Count,
            distinct: true,
            arg: Some(ColumnRef::qualified("p", "pid")),
        };
        assert_eq!(agg.to_string(), "COUNT(DISTINCT p.pid)");
        let star = Expr::Aggregate {
            func: Aggregate::Count,
            distinct: false,
            arg: None,
        };
        assert_eq!(star.to_string(), "COUNT(*)");
        assert_eq!(Literal::Number(2000.0).to_string(), "2000");
        assert_eq!(Literal::Number(4.5).to_string(), "4.5");
    }

    #[test]
    fn binop_from_natural_language_words() {
        assert_eq!(BinOp::from_word("after"), Some(BinOp::Gt));
        assert_eq!(BinOp::from_word("Before"), Some(BinOp::Lt));
        assert_eq!(BinOp::from_word("banana"), None);
    }

    /// The one-pass renderer against the reference, byte for byte, on every
    /// gold query of the benchmarks (which cross over as SQL text: the
    /// benchmark crates link their own copy of this crate).
    #[test]
    fn renderer_matches_reference_on_gold_queries() {
        let mut gold = 0;
        for dataset in datasets::Dataset::all() {
            for case in &dataset.cases {
                let sql = case.gold_sql.to_string();
                let q = crate::parse_query(&sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
                assert_eq!(q.to_string(), reference::query(&q));
                gold += 1;
            }
        }
        assert_eq!(gold, 449);
    }

    proptest::proptest! {
        /// The one-pass renderer against the reference, byte for byte, on
        /// random queries.
        #[test]
        fn renderer_matches_reference_on_random_queries(q in crate::common::query_strategy()) {
            proptest::prop_assert_eq!(q.to_string(), reference::query(&q));
        }
    }

    #[test]
    fn renders_between_in_and_null_predicates() {
        let between = Predicate::Between {
            col: ColumnRef::new("year"),
            low: Literal::Number(1995.0),
            high: Literal::Number(2005.0),
        };
        assert_eq!(between.to_string(), "year BETWEEN 1995 AND 2005");
        let inp = Predicate::In {
            col: ColumnRef::new("state"),
            values: vec![Literal::String("AZ".into()), Literal::String("NV".into())],
            negated: false,
        };
        assert_eq!(inp.to_string(), "state IN ('AZ', 'NV')");
        let not_in = Predicate::In {
            col: ColumnRef::new("state"),
            values: vec![Literal::Number(1.0), Literal::Null],
            negated: true,
        };
        assert_eq!(not_in.to_string(), "state NOT IN (1, NULL)");
        let isnull = Predicate::IsNull {
            col: ColumnRef::new("year"),
            negated: true,
        };
        assert_eq!(isnull.to_string(), "year IS NOT NULL");
    }
}
