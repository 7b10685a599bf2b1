//! Join path inference (`INFERJOINS`, Section VI).
//!
//! Given the bag of relations and attributes known to be part of the SQL
//! translation, the join path generator finds ranked join paths (Steiner
//! trees over the join graph) connecting them.  Edge weights are either the
//! default unit weights (baseline behaviour: minimum-length join paths) or
//! the log-driven weights `w_L(r1, r2) = 1 − Dice(r1, r2)` computed from the
//! Query Fragment Graph.  Duplicate attribute references trigger the
//! join-graph fork of Algorithm 4 so that self-joins are produced.

use crate::config::TemplarConfig;
use crate::error::JoinInferenceError;
use crate::qfg::{FragmentId, QueryFragmentGraph};
use relational::{AttributeRef, Schema};
use schemagraph::{steiner::k_best_join_paths, JoinGraph, JoinPath};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// One element of the bag `B_D` handed to `INFERJOINS`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BagItem {
    /// A relation known to appear in the query.
    Relation(String),
    /// An attribute known to appear in the query (its parent relation is
    /// added to the relation bag).
    Attribute(AttributeRef),
}

impl BagItem {
    /// The relation this item contributes to the relation bag `B_R`.
    pub fn relation(&self) -> &str {
        match self {
            BagItem::Relation(r) => r,
            BagItem::Attribute(a) => &a.relation,
        }
    }
}

/// A join path together with its score.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredJoinPath {
    /// The join path.
    pub path: JoinPath,
    /// Its score (`Score_j`), larger is better.
    pub score: f64,
}

/// The result of join path inference: the (possibly forked) join graph the
/// paths refer to, plus the ranked paths.
#[derive(Debug, Clone)]
pub struct JoinInference {
    /// The join graph (including any forked relation instances).
    pub graph: JoinGraph,
    /// Ranked join paths, best first.
    pub paths: Vec<ScoredJoinPath>,
    /// Whether edge weights came from query-log evidence (`w_L = 1 − Dice`)
    /// rather than unit schema distances.  Carried so explanations can tell a
    /// wire client which weighting produced each path's `total_weight`.
    pub used_log_weights: bool,
}

impl JoinInference {
    /// The best join path, if any was found.
    pub fn best(&self) -> Option<&ScoredJoinPath> {
        self.paths.first()
    }
}

/// Compute the number of instances of each relation required by the bag:
/// one by default, more when the same attribute (or the relation itself) is
/// referenced multiple times (Section VI-C).
pub fn relation_instance_counts(bag: &[BagItem]) -> BTreeMap<String, usize> {
    let mut attr_counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut relation_counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut result: BTreeMap<String, usize> = BTreeMap::new();
    for item in bag {
        let rel = item.relation().to_lowercase();
        result.entry(rel.clone()).or_insert(1);
        match item {
            BagItem::Attribute(a) => {
                let key = (rel.clone(), a.attribute.to_lowercase());
                let c = attr_counts.entry(key).or_insert(0);
                *c += 1;
                let entry = result.entry(rel).or_insert(1);
                *entry = (*entry).max(*c);
            }
            BagItem::Relation(_) => {
                let c = relation_counts.entry(rel.clone()).or_insert(0);
                *c += 1;
            }
        }
    }
    // Multiple explicit relation mentions beyond the implied single instance
    // are rare; honour them only when no attribute evidence exists.
    for (rel, count) in relation_counts {
        let entry = result.entry(rel).or_insert(1);
        if *entry == 1 && count > 1 {
            *entry = count;
        }
    }
    result
}

/// `INFERJOINS`: compute ranked join paths for a bag of relations and
/// attributes.
///
/// Fails with a typed [`JoinInferenceError`] when the bag is empty, names an
/// unknown relation, or its relations cannot be connected in the schema
/// graph.
pub fn infer_joins(
    schema: &Schema,
    qfg: Option<&QueryFragmentGraph>,
    config: &TemplarConfig,
    bag: &[BagItem],
) -> Result<JoinInference, JoinInferenceError> {
    if bag.is_empty() {
        return Err(JoinInferenceError::EmptyBag);
    }
    // 1. Build the join graph at unit weights and, with log joins on,
    //    re-weight its edges.  Relation fragments are resolved to interned
    //    ids once per request, so each edge weight costs two map lookups and
    //    one columnar Dice read — no fragment construction.
    let mut graph = JoinGraph::from_schema(schema);
    let used_log_weights = config.use_log_joins && qfg.is_some();
    if let (true, Some(qfg)) = (config.use_log_joins, qfg) {
        let relation_ids =
            resolve_relation_ids(qfg, graph.nodes().iter().map(|node| node.relation.as_str()));
        graph.set_weights(|a, b| log_weight(qfg, &relation_ids, a, b));
    }
    // 2. Fork the join graph for duplicate references.
    let counts = relation_instance_counts(bag);
    let mut terminals = Vec::new();
    for (relation, instances) in &counts {
        let original = graph
            .node_of(relation)
            .ok_or_else(|| JoinInferenceError::UnknownRelation(relation.clone()))?;
        terminals.push(original);
        for _ in 1..*instances {
            let clone = graph
                .fork(relation)
                .ok_or_else(|| JoinInferenceError::UnknownRelation(relation.clone()))?;
            terminals.push(clone);
        }
    }
    // 3. Enumerate candidate join paths.
    let paths = k_best_join_paths(&graph, &terminals, config.join_candidates.max(1));
    if paths.is_empty() {
        return Err(JoinInferenceError::Disconnected);
    }
    let mut scored: Vec<ScoredJoinPath> = paths
        .into_iter()
        .map(|path| ScoredJoinPath {
            score: path.score(),
            path,
        })
        .collect();
    scored.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.path.edges.len().cmp(&b.path.edges.len()))
    });
    Ok(JoinInference {
        graph,
        paths: scored,
        used_log_weights,
    })
}

/// Resolve each relation name to the id of its `FROM` fragment, once, so
/// per-edge weight evaluation is two map lookups and one columnar Dice read.
fn resolve_relation_ids<'a>(
    qfg: &QueryFragmentGraph,
    relations: impl Iterator<Item = &'a str>,
) -> HashMap<String, Option<FragmentId>> {
    relations
        .map(|relation| {
            let lower = relation.to_lowercase();
            let id = qfg.lookup_relation(&lower);
            (lower, id)
        })
        .collect()
}

/// The log-driven weight `w_L(a, b) = 1 − Dice(a, b)` of one relation pair
/// (Section VI-A.2), over pre-resolved ids.
fn log_weight(
    qfg: &QueryFragmentGraph,
    relation_ids: &HashMap<String, Option<FragmentId>>,
    a: &str,
    b: &str,
) -> f64 {
    let (Some(Some(x)), Some(Some(y))) = (
        relation_ids.get(&a.to_lowercase()),
        relation_ids.get(&b.to_lowercase()),
    ) else {
        // A relation the log never mentions has Dice 0 with everything:
        // w_L = 1 − 0.
        return 1.0;
    };
    (1.0 - qfg.dice_by_id(*x, *y)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Obscurity;
    use crate::qfg::QueryLog;
    use relational::{DataType, Schema};

    /// The Figure 1 fragment relevant to Examples 2/3/6: publication can
    /// reach domain through conference (short) or through keyword (long).
    fn mas_mini_schema() -> Schema {
        Schema::builder("mas_mini")
            .relation(
                "publication",
                &[
                    ("pid", DataType::Integer),
                    ("title", DataType::Text),
                    ("cid", DataType::Integer),
                ],
                Some("pid"),
            )
            .relation(
                "conference",
                &[("cid", DataType::Integer), ("name", DataType::Text)],
                Some("cid"),
            )
            .relation(
                "domain_conference",
                &[("cid", DataType::Integer), ("did", DataType::Integer)],
                None,
            )
            .relation(
                "domain",
                &[("did", DataType::Integer), ("name", DataType::Text)],
                Some("did"),
            )
            .relation(
                "publication_keyword",
                &[("pid", DataType::Integer), ("kid", DataType::Integer)],
                None,
            )
            .relation(
                "keyword",
                &[("kid", DataType::Integer), ("keyword", DataType::Text)],
                Some("kid"),
            )
            .relation(
                "domain_keyword",
                &[("kid", DataType::Integer), ("did", DataType::Integer)],
                None,
            )
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
            .foreign_key("publication", "cid", "conference", "cid")
            .foreign_key("domain_conference", "cid", "conference", "cid")
            .foreign_key("domain_conference", "did", "domain", "did")
            .foreign_key("publication_keyword", "pid", "publication", "pid")
            .foreign_key("publication_keyword", "kid", "keyword", "kid")
            .foreign_key("domain_keyword", "kid", "keyword", "kid")
            .foreign_key("domain_keyword", "did", "domain", "did")
            .foreign_key("writes", "aid", "author", "aid")
            .foreign_key("writes", "pid", "publication", "pid")
            .build()
    }

    /// A query log in which the publication–keyword–domain path is common.
    fn keyword_heavy_log() -> QueryLog {
        let mut sql = Vec::new();
        for _ in 0..20 {
            sql.push(
                "SELECT p.title FROM publication p, publication_keyword pk, keyword k, domain_keyword dk, domain d \
                 WHERE d.name = 'Databases' AND p.pid = pk.pid AND k.kid = pk.kid AND dk.kid = k.kid AND dk.did = d.did"
                    .to_string(),
            );
        }
        for _ in 0..2 {
            sql.push(
                "SELECT p.title FROM publication p, conference c WHERE p.cid = c.cid".to_string(),
            );
        }
        QueryLog::from_sql(sql.iter().map(String::as_str)).0
    }

    fn bag_pub_domain() -> Vec<BagItem> {
        vec![
            BagItem::Attribute(AttributeRef::new("publication", "title")),
            BagItem::Attribute(AttributeRef::new("domain", "name")),
        ]
    }

    #[test]
    fn default_weights_yield_shortest_path_through_conference() {
        // Example 2: without log information the minimum-length path through
        // conference is chosen, which is not the user's intent.
        let schema = mas_mini_schema();
        let config = TemplarConfig::default().with_log_joins(false);
        let inference = infer_joins(&schema, None, &config, &bag_pub_domain()).unwrap();
        let best = inference.best().unwrap();
        let names = best.path.relation_names(&inference.graph);
        assert!(
            names.contains(&"conference".to_string()),
            "path was {names:?}"
        );
    }

    #[test]
    fn log_weights_yield_the_keyword_path_of_example_3() {
        let schema = mas_mini_schema();
        let qfg = QueryFragmentGraph::build(&keyword_heavy_log(), Obscurity::NoConstOp);
        let config = TemplarConfig::default();
        let inference = infer_joins(&schema, Some(&qfg), &config, &bag_pub_domain()).unwrap();
        let best = inference.best().unwrap();
        let names = best.path.relation_names(&inference.graph);
        assert!(names.contains(&"keyword".to_string()), "path was {names:?}");
        assert!(
            !names.contains(&"conference".to_string()),
            "path was {names:?}"
        );
    }

    #[test]
    fn duplicate_attribute_references_create_a_self_join() {
        // Example 7: author.name twice plus publication.title.
        let schema = mas_mini_schema();
        let config = TemplarConfig::default().with_log_joins(false);
        let bag = vec![
            BagItem::Attribute(AttributeRef::new("author", "name")),
            BagItem::Attribute(AttributeRef::new("author", "name")),
            BagItem::Attribute(AttributeRef::new("publication", "title")),
        ];
        let inference = infer_joins(&schema, None, &config, &bag).unwrap();
        let best = inference.best().unwrap();
        let names = best.path.relation_names(&inference.graph);
        assert_eq!(
            names,
            vec!["author", "author", "publication", "writes", "writes"],
            "expected a self-join plan"
        );
        assert!(best.path.is_valid_tree(&inference.graph));
    }

    #[test]
    fn distinct_attributes_of_one_relation_do_not_fork() {
        let bag = vec![
            BagItem::Attribute(AttributeRef::new("publication", "title")),
            BagItem::Attribute(AttributeRef::new("publication", "year")),
        ];
        let counts = relation_instance_counts(&bag);
        assert_eq!(counts["publication"], 1);
    }

    #[test]
    fn duplicate_attribute_counts_raise_instance_counts() {
        let bag = vec![
            BagItem::Attribute(AttributeRef::new("author", "name")),
            BagItem::Attribute(AttributeRef::new("author", "name")),
            BagItem::Attribute(AttributeRef::new("author", "aid")),
        ];
        let counts = relation_instance_counts(&bag);
        assert_eq!(counts["author"], 2);
    }

    #[test]
    fn single_relation_bag_yields_trivial_path() {
        let schema = mas_mini_schema();
        let config = TemplarConfig::default();
        let bag = vec![BagItem::Attribute(AttributeRef::new(
            "publication",
            "title",
        ))];
        let inference = infer_joins(&schema, None, &config, &bag).unwrap();
        assert!(inference.best().unwrap().path.is_empty());
        assert_eq!(inference.best().unwrap().score, 1.0);
    }

    #[test]
    fn empty_bag_or_unknown_relation_yields_typed_errors() {
        let schema = mas_mini_schema();
        let config = TemplarConfig::default();
        assert_eq!(
            infer_joins(&schema, None, &config, &[]).unwrap_err(),
            JoinInferenceError::EmptyBag
        );
        let bag = vec![BagItem::Relation("not_a_table".into())];
        assert_eq!(
            infer_joins(&schema, None, &config, &bag).unwrap_err(),
            JoinInferenceError::UnknownRelation("not_a_table".into())
        );
    }

    #[test]
    fn ranked_paths_are_sorted_by_score() {
        let schema = mas_mini_schema();
        let config = TemplarConfig::default().with_log_joins(false);
        let inference = infer_joins(&schema, None, &config, &bag_pub_domain()).unwrap();
        assert!(inference.paths.len() >= 2);
        for w in inference.paths.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn log_weights_are_one_minus_dice() {
        let qfg = QueryFragmentGraph::build(&keyword_heavy_log(), Obscurity::NoConstOp);
        let config = TemplarConfig::default();
        let inference =
            infer_joins(&mas_mini_schema(), Some(&qfg), &config, &bag_pub_domain()).unwrap();
        assert!(inference.used_log_weights);
        let graph = &inference.graph;
        let weight = |fk_side: &str, pk_side: &str| {
            graph
                .edges()
                .iter()
                .find(|e| {
                    graph.node(e.fk_node).relation == fk_side
                        && graph.node(e.pk_node).relation == pk_side
                })
                .unwrap()
                .weight
        };
        let dice = qfg.relation_dice("publication", "publication_keyword");
        assert!(dice > 0.0);
        let w = weight("publication_keyword", "publication");
        assert!((w - (1.0 - dice)).abs() < 1e-12);
        // A pair never co-occurring in the log keeps weight 1.
        assert_eq!(weight("writes", "author"), 1.0);
    }
}
