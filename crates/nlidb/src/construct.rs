//! SQL construction from a keyword-mapping configuration and a join path.
//!
//! Constructing the final SQL query is the host NLIDB's responsibility
//! (Section III-E of the paper): Templar returns ranked configurations and
//! join paths, and the NLIDB assembles `SELECT` / `FROM` / `WHERE` /
//! `GROUP BY` from them.  Both Pipeline and NaLIR share this implementation.

use schemagraph::{JoinPath, NodeId};
use sqlparse::{ColumnRef, Expr, Literal, Predicate, Query, SelectItem, TableRef};
use std::collections::{BTreeMap, HashMap};
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
    // Relation instances used by the join path, grouped per relation and
    // ordered by node id so that alias assignment is deterministic.
    let mut instances: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
    for &node in &path.nodes {
        instances
            .entry(graph.node(node).relation.to_lowercase())
            .or_default()
            .push(node);
    }
    for nodes in instances.values_mut() {
        nodes.sort_unstable();
    }
    // Deterministic aliases: relation name initial(s) plus a positional index.
    let aliases: HashMap<NodeId, String> = path
        .nodes
        .iter()
        .enumerate()
        .map(|(i, &node)| (node, format!("t{}", i + 1)))
        .collect();

    // Assign each mapped element to a relation instance.  Repeated references
    // to the same attribute are spread over successive instances (self-joins,
    // Example 7); everything else uses the first instance of its relation.
    let mut attr_seen: HashMap<(String, String), usize> = HashMap::new();
    let mut assignments: Vec<(usize, NodeId)> = Vec::new();
    for (idx, mapping) in config.mappings.iter().enumerate() {
        let rel = mapping.element.relation().to_lowercase();
        let nodes = instances.get(&rel)?;
        let node = match &mapping.element {
            MappedElement::Relation(_) => nodes[0],
            MappedElement::Attribute { attr, .. } | MappedElement::Predicate { attr, .. } => {
                let key = (rel.clone(), attr.attribute.to_lowercase());
                let occurrence = attr_seen.entry(key).or_insert(0);
                let node = nodes[(*occurrence).min(nodes.len() - 1)];
                *occurrence += 1;
                node
            }
        };
        assignments.push((idx, node));
    }

    let mut query = Query::new();
    // FROM: every relation instance of the join path.
    for &node in &path.nodes {
        query.from.push(TableRef::aliased(
            graph.node(node).relation.clone(),
            aliases[&node].clone(),
        ));
    }
    // SELECT, WHERE and GROUP BY from the mapped elements.
    for (idx, node) in &assignments {
        let alias = aliases[node].clone();
        match &config.mappings[*idx].element {
            MappedElement::Relation(_) => {}
            MappedElement::Attribute {
                attr,
                aggregates,
                group_by,
            } => {
                let col = ColumnRef::qualified(alias.clone(), attr.attribute.clone());
                let expr = match aggregates.first() {
                    Some(func) => Expr::Aggregate {
                        func: *func,
                        distinct: false,
                        arg: Some(col.clone()),
                    },
                    None => Expr::Column(col.clone()),
                };
                query.select.push(SelectItem::Expr(expr));
                if *group_by {
                    query.group_by.push(col);
                }
            }
            MappedElement::Predicate { attr, op, value } => {
                query.predicates.push(Predicate::Compare {
                    left: Expr::Column(ColumnRef::qualified(alias, attr.attribute.clone())),
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
    for cond in path.join_conditions(graph) {
        query.predicates.push(Predicate::Compare {
            left: Expr::Column(ColumnRef::qualified(
                aliases[&cond.fk_node].clone(),
                cond.fk_attr.clone(),
            )),
            op: sqlparse::BinOp::Eq,
            right: Expr::Column(ColumnRef::qualified(
                aliases[&cond.pk_node].clone(),
                cond.pk_attr.clone(),
            )),
        });
    }
    Some(query)
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
