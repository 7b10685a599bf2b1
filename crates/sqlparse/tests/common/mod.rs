//! Random query strategies, shared by `tests/properties.rs` and the
//! canonicalizer's unit tests (which include this file by path, so it names
//! the AST through `super`).

use super::{
    is_keyword, Aggregate, BinOp, ColumnRef, Expr, Literal, Predicate, Query, SelectItem, TableRef,
};
use proptest::prelude::*;

fn ident_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}".prop_filter("not a keyword", |s| !is_keyword(s))
}

fn literal_strategy() -> impl Strategy<Value = Literal> {
    prop_oneof![
        (0i64..100_000).prop_map(|n| Literal::Number(n as f64)),
        "[A-Za-z][A-Za-z0-9 ]{0,10}".prop_map(Literal::String),
    ]
}

fn column_strategy() -> impl Strategy<Value = ColumnRef> {
    (ident_strategy(), ident_strategy(), any::<bool>()).prop_map(|(q, c, qualified)| {
        if qualified {
            ColumnRef::qualified(q, c)
        } else {
            ColumnRef::new(c)
        }
    })
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    prop_oneof![
        column_strategy().prop_map(Expr::Column),
        (
            prop_oneof![
                Just(Aggregate::Count),
                Just(Aggregate::Sum),
                Just(Aggregate::Avg),
                Just(Aggregate::Min),
                Just(Aggregate::Max)
            ],
            any::<bool>(),
            proptest::option::of(column_strategy())
        )
            .prop_map(|(func, distinct, arg)| Expr::Aggregate {
                func,
                // COUNT(DISTINCT *) is not valid SQL in our subset
                distinct: distinct && arg.is_some(),
                arg,
            }),
    ]
}

fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    let op = prop_oneof![
        Just(BinOp::Eq),
        Just(BinOp::NotEq),
        Just(BinOp::Lt),
        Just(BinOp::LtEq),
        Just(BinOp::Gt),
        Just(BinOp::GtEq),
    ];
    prop_oneof![
        (column_strategy(), op, literal_strategy()).prop_map(|(c, op, l)| Predicate::Compare {
            left: Expr::Column(c),
            op,
            right: Expr::Literal(l),
        }),
        (column_strategy(), column_strategy()).prop_map(|(a, b)| Predicate::Compare {
            left: Expr::Column(a),
            op: BinOp::Eq,
            right: Expr::Column(b),
        }),
        (column_strategy(), literal_strategy(), literal_strategy()).prop_map(|(c, lo, hi)| {
            Predicate::Between {
                col: c,
                low: lo,
                high: hi,
            }
        }),
        (
            column_strategy(),
            proptest::collection::vec(literal_strategy(), 1..4),
            any::<bool>()
        )
            .prop_map(|(c, values, negated)| Predicate::In {
                col: c,
                values,
                negated,
            }),
        (column_strategy(), any::<bool>())
            .prop_map(|(c, negated)| Predicate::IsNull { col: c, negated }),
    ]
}

fn table_strategy() -> impl Strategy<Value = TableRef> {
    (ident_strategy(), proptest::option::of(ident_strategy()))
        .prop_map(|(t, a)| TableRef { table: t, alias: a })
}

pub fn query_strategy() -> impl Strategy<Value = Query> {
    (
        any::<bool>(),
        proptest::collection::vec(
            prop_oneof![
                Just(SelectItem::Wildcard),
                expr_strategy().prop_map(SelectItem::Expr)
            ],
            1..4,
        ),
        proptest::collection::vec(table_strategy(), 1..4),
        proptest::collection::vec(predicate_strategy(), 0..5),
        proptest::collection::vec(column_strategy(), 0..3),
        proptest::option::of(0u64..1000),
    )
        .prop_map(
            |(distinct, select, from, predicates, group_by, limit)| Query {
                distinct,
                select,
                from,
                predicates,
                group_by,
                having: Vec::new(),
                order_by: Vec::new(),
                limit,
            },
        )
}
