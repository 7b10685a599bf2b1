//! SQL construction from a keyword-mapping configuration and a join path.
//!
//! Constructing the final SQL query is the host NLIDB's responsibility
//! (Section III-E of the paper): Templar returns ranked configurations and
//! join paths, and the NLIDB assembles `SELECT` / `FROM` / `WHERE` /
//! `GROUP BY` from them.  Both Pipeline and NaLIR share this implementation.

use schemagraph::{JoinGraph, JoinPath};
use sqlparse::{BinOp, ColumnRef, Expr, Literal, Predicate, Query, SelectItem, TableRef};
use templar_core::{Configuration, JoinInference, MappedElement};

/// Assemble the final SQL query for a configuration and one of its inferred
/// join paths.
///
/// Returns `None` when an element of the configuration references a relation
/// that the join path does not cover (which would produce invalid SQL).
pub fn construct_query(
    config: &Configuration,
    inference: &JoinInference,
    path: &JoinPath,
) -> Option<Query> {
    let graph = &inference.graph;
    // Relation instance `i` of the path (its nodes, sorted by node id) is
    // aliased `t<i + 1>`.
    let alias = |i: usize| format!("t{}", i + 1);
    let mut query = Query::new();
    // FROM: every relation instance of the join path.
    for (i, &node) in path.nodes.iter().enumerate() {
        query.from.push(TableRef::aliased(
            graph.node(node).relation.clone(),
            alias(i),
        ));
    }
    // SELECT, WHERE and GROUP BY from the mapped elements.
    for (idx, mapping) in config.mappings.iter().enumerate() {
        let relation = mapping.element.relation();
        let attr = match &mapping.element {
            MappedElement::Relation(_) => {
                instance(graph, path, relation, 0)?;
                continue;
            }
            MappedElement::Attribute { attr, .. } | MappedElement::Predicate { attr, .. } => attr,
        };
        // Repeated references to the same attribute are spread over
        // successive instances of its relation (self-joins, Example 7).
        let occurrence = config.mappings[..idx]
            .iter()
            .filter(|earlier| match &earlier.element {
                MappedElement::Attribute { attr: other, .. }
                | MappedElement::Predicate { attr: other, .. } => {
                    same_name(&other.relation, relation)
                        && same_name(&other.attribute, &attr.attribute)
                }
                MappedElement::Relation(_) => false,
            })
            .count();
        let col = ColumnRef::qualified(
            alias(instance(graph, path, relation, occurrence)?),
            attr.attribute.clone(),
        );
        match &mapping.element {
            MappedElement::Relation(_) => {}
            MappedElement::Attribute {
                aggregates,
                group_by,
                ..
            } => {
                if *group_by {
                    query.group_by.push(col.clone());
                }
                let expr = match aggregates.first() {
                    Some(&func) => Expr::Aggregate {
                        func,
                        distinct: false,
                        arg: Some(col),
                    },
                    None => Expr::Column(col),
                };
                query.select.push(SelectItem::Expr(expr));
            }
            MappedElement::Predicate { op, value, .. } => {
                query.predicates.push(Predicate::Compare {
                    left: Expr::Column(col),
                    op: *op,
                    right: Expr::Literal(value.clone()),
                });
            }
        }
    }
    if query.select.is_empty() {
        // A configuration with no projection keyword still needs a SELECT
        // list; project everything from the first terminal relation.
        query.select.push(SelectItem::Wildcard);
    }
    // Join conditions from the join path.
    let position = |node| path.nodes.iter().position(|&n| n == node);
    for cond in path.join_conditions(graph) {
        query.predicates.push(Predicate::Compare {
            left: Expr::Column(ColumnRef::qualified(
                alias(position(cond.fk_node)?),
                cond.fk_attr,
            )),
            op: BinOp::Eq,
            right: Expr::Column(ColumnRef::qualified(
                alias(position(cond.pk_node)?),
                cond.pk_attr,
            )),
        });
    }
    Some(query)
}

/// The position in `path.nodes` of the `k`-th instance of `relation` (by
/// node id, the order `JoinPath` keeps its nodes in), or of its last
/// instance when it has fewer; `None` when the path does not cover it.
fn instance(graph: &JoinGraph, path: &JoinPath, relation: &str, k: usize) -> Option<usize> {
    path.nodes
        .iter()
        .enumerate()
        .filter(|&(_, &node)| same_name(&graph.node(node).relation, relation))
        .take(k + 1)
        .last()
        .map(|(i, _)| i)
}

/// Name equality after lower-casing, without allocating for ASCII.
fn same_name(a: &str, b: &str) -> bool {
    if a.is_ascii() && b.is_ascii() {
        a.eq_ignore_ascii_case(b)
    } else {
        a.to_lowercase() == b.to_lowercase()
    }
}

/// Literal helper used by tests in this module and downstream crates.
pub fn string_literal(s: &str) -> Literal {
    Literal::String(s.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::{AttributeRef, DataType, Schema};
    use sqlparse::{canon, parse_query, Aggregate, BinOp};
    use templar_core::{
        infer_joins, BagItem, Keyword, MappedElement, MappingCandidate, TemplarConfig,
    };

    fn academic_schema() -> Schema {
        Schema::builder("academic")
            .relation(
                "author",
                &[("aid", DataType::Integer), ("name", DataType::Text)],
                Some("aid"),
            )
            .relation(
                "writes",
                &[("aid", DataType::Integer), ("pid", DataType::Integer)],
                None,
            )
            .relation(
                "publication",
                &[
                    ("pid", DataType::Integer),
                    ("title", DataType::Text),
                    ("year", DataType::Integer),
                    ("jid", DataType::Integer),
                ],
                Some("pid"),
            )
            .relation(
                "journal",
                &[("jid", DataType::Integer), ("name", DataType::Text)],
                Some("jid"),
            )
            .foreign_key("writes", "aid", "author", "aid")
            .foreign_key("writes", "pid", "publication", "pid")
            .foreign_key("publication", "jid", "journal", "jid")
            .build()
    }

    fn mapping(element: MappedElement) -> MappingCandidate {
        MappingCandidate {
            keyword: Keyword::new("k"),
            element,
            score: 1.0,
        }
    }

    fn config_of(elements: Vec<MappedElement>) -> Configuration {
        Configuration {
            mappings: elements.into_iter().map(mapping).collect(),
            sigma_score: 1.0,
            qfg_score: 1.0,
            log_popularity: 1.0,
            dice_cooccurrence: 0.0,
            qfg_pairs: 0,
            lambda: 1.0,
            score: 1.0,
        }
    }

    fn bag_of(config: &Configuration) -> Vec<BagItem> {
        config
            .mappings
            .iter()
            .map(|m| match &m.element {
                MappedElement::Relation(r) => BagItem::Relation(r.clone()),
                MappedElement::Attribute { attr, .. } | MappedElement::Predicate { attr, .. } => {
                    BagItem::Attribute(attr.clone())
                }
            })
            .collect()
    }

    fn build(config: &Configuration) -> Query {
        let schema = academic_schema();
        let tconfig = TemplarConfig::default().with_log_joins(false);
        let inference = infer_joins(&schema, None, &tconfig, &bag_of(config)).unwrap();
        let best = inference.best().unwrap().path.clone();
        construct_query(config, &inference, &best).unwrap()
    }

    #[test]
    fn constructs_example_4_query() {
        // papers -> publication.title, after 2000 -> publication.year > 2000.
        let config = config_of(vec![
            MappedElement::Attribute {
                attr: AttributeRef::new("publication", "title"),
                aggregates: vec![],
                group_by: false,
            },
            MappedElement::Predicate {
                attr: AttributeRef::new("publication", "year"),
                op: BinOp::Gt,
                value: Literal::Number(2000.0),
            },
        ]);
        let q = build(&config);
        let gold = parse_query("SELECT title FROM publication WHERE year > 2000").unwrap();
        assert!(canon::equivalent(&q, &gold), "constructed: {q}");
    }

    #[test]
    fn constructs_join_query_across_two_relations() {
        let config = config_of(vec![
            MappedElement::Attribute {
                attr: AttributeRef::new("journal", "name"),
                aggregates: vec![],
                group_by: false,
            },
            MappedElement::Predicate {
                attr: AttributeRef::new("publication", "year"),
                op: BinOp::Gt,
                value: Literal::Number(2000.0),
            },
        ]);
        let q = build(&config);
        let gold = parse_query(
            "SELECT j.name FROM journal j, publication p WHERE p.year > 2000 AND p.jid = j.jid",
        )
        .unwrap();
        assert!(canon::equivalent(&q, &gold), "constructed: {q}");
    }

    #[test]
    fn constructs_self_join_for_example_7() {
        let config = config_of(vec![
            MappedElement::Attribute {
                attr: AttributeRef::new("publication", "title"),
                aggregates: vec![],
                group_by: false,
            },
            MappedElement::Predicate {
                attr: AttributeRef::new("author", "name"),
                op: BinOp::Eq,
                value: string_literal("John"),
            },
            MappedElement::Predicate {
                attr: AttributeRef::new("author", "name"),
                op: BinOp::Eq,
                value: string_literal("Jane"),
            },
        ]);
        let q = build(&config);
        let gold = parse_query(
            "SELECT p.title FROM author a1, author a2, publication p, writes w1, writes w2 \
             WHERE a1.name = 'John' AND a2.name = 'Jane' \
             AND a1.aid = w1.aid AND a2.aid = w2.aid AND p.pid = w1.pid AND p.pid = w2.pid",
        )
        .unwrap();
        assert!(canon::equivalent(&q, &gold), "constructed: {q}");
    }

    #[test]
    fn constructs_aggregate_with_group_by() {
        let config = config_of(vec![
            MappedElement::Attribute {
                attr: AttributeRef::new("author", "name"),
                aggregates: vec![],
                group_by: true,
            },
            MappedElement::Attribute {
                attr: AttributeRef::new("publication", "pid"),
                aggregates: vec![Aggregate::Count],
                group_by: false,
            },
        ]);
        let q = build(&config);
        let gold = parse_query(
            "SELECT a.name, COUNT(p.pid) FROM author a, writes w, publication p \
             WHERE a.aid = w.aid AND w.pid = p.pid GROUP BY a.name",
        )
        .unwrap();
        assert!(canon::equivalent(&q, &gold), "constructed: {q}");
    }

    #[test]
    fn configuration_without_projection_selects_wildcard() {
        let config = config_of(vec![MappedElement::Predicate {
            attr: AttributeRef::new("journal", "name"),
            op: BinOp::Eq,
            value: string_literal("TKDE"),
        }]);
        let q = build(&config);
        assert!(q.select.contains(&SelectItem::Wildcard));
        assert_eq!(q.from.len(), 1);
    }

    #[test]
    fn element_outside_the_join_path_fails_construction() {
        let schema = academic_schema();
        let tconfig = TemplarConfig::default().with_log_joins(false);
        // Join path over publication only...
        let pub_bag = vec![BagItem::Attribute(AttributeRef::new(
            "publication",
            "title",
        ))];
        let inference = infer_joins(&schema, None, &tconfig, &pub_bag).unwrap();
        let best = inference.best().unwrap().path.clone();
        // ...but the configuration references journal.name.
        let config = config_of(vec![MappedElement::Attribute {
            attr: AttributeRef::new("journal", "name"),
            aggregates: vec![],
            group_by: false,
        }]);
        assert!(construct_query(&config, &inference, &best).is_none());
    }
}
