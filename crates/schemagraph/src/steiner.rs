//! The Kou–Markowsky–Berman Steiner tree approximation \[21\].
//!
//! Join path inference is modelled as a Steiner tree problem (Section VI-A of
//! the paper): find a minimum-weight tree in the join graph spanning all
//! terminal relations.  KMB gives a 2(1 − 1/ℓ)-approximation and is the
//! algorithm the paper cites; it proceeds by
//!
//! 1. building the metric closure over the terminals (all-pairs shortest
//!    paths),
//! 2. taking a minimum spanning tree of that closure,
//! 3. expanding every closure edge back into its underlying shortest path,
//! 4. taking a minimum spanning tree of the expanded subgraph, and
//! 5. pruning non-terminal leaves.
//!
//! All tie-breaking is deterministic (by node / edge index) so experiments
//! are reproducible.

use crate::joingraph::{JoinGraph, NodeId};
use crate::joinpath::JoinPath;
use std::collections::{BTreeMap, BTreeSet};

/// Compute an (approximately) minimum-weight join path spanning `terminals`.
///
/// Returns `None` when the terminals cannot all be connected (disconnected
/// join graph) or when `terminals` is empty.
pub fn steiner_tree(graph: &JoinGraph, terminals: &[NodeId]) -> Option<JoinPath> {
    steiner_tree_excluding(graph, terminals, &BTreeSet::new())
}

/// [`steiner_tree`], ignoring the edges whose indices appear in `excluded`.
/// Used to enumerate alternative join paths.
pub fn steiner_tree_excluding(
    graph: &JoinGraph,
    terminals: &[NodeId],
    excluded: &BTreeSet<usize>,
) -> Option<JoinPath> {
    let mut terms: Vec<NodeId> = terminals.to_vec();
    terms.sort_unstable();
    terms.dedup();
    if terms.is_empty() {
        return None;
    }
    if terms.len() == 1 {
        return Some(JoinPath::single(terms[0]));
    }

    // Step 1: shortest paths between every pair of terminals.
    let mut pair_paths: BTreeMap<(NodeId, NodeId), (f64, Vec<usize>)> = BTreeMap::new();
    for (i, &a) in terms.iter().enumerate() {
        for &b in terms.iter().skip(i + 1) {
            let (cost, path) = graph.shortest_path(a, b, excluded)?;
            pair_paths.insert((a, b), (cost, path));
        }
    }

    // Step 2: MST over the terminal metric closure (Prim, deterministic).
    let mut in_tree: BTreeSet<NodeId> = BTreeSet::new();
    in_tree.insert(terms[0]);
    let mut closure_edges: Vec<(NodeId, NodeId)> = Vec::new();
    while in_tree.len() < terms.len() {
        let mut best: Option<(f64, NodeId, NodeId)> = None;
        for &a in &in_tree {
            for &b in &terms {
                if in_tree.contains(&b) {
                    continue;
                }
                let key = if a < b { (a, b) } else { (b, a) };
                let cost = pair_paths[&key].0;
                let candidate = (cost, a, b);
                if best.map(|bst| candidate < bst).unwrap_or(true) {
                    best = Some(candidate);
                }
            }
        }
        let (_, a, b) = best?;
        closure_edges.push(if a < b { (a, b) } else { (b, a) });
        in_tree.insert(a);
        in_tree.insert(b);
    }

    // Step 3: expand closure edges into the underlying graph edges.
    let mut sub_edges: BTreeSet<usize> = BTreeSet::new();
    for (a, b) in &closure_edges {
        for &ei in &pair_paths[&(*a, *b)].1 {
            sub_edges.insert(ei);
        }
    }

    // Step 4: MST of the expanded subgraph (Kruskal with union-find).
    let mut nodes: BTreeSet<NodeId> = terms.iter().copied().collect();
    for &ei in &sub_edges {
        let e = &graph.edges()[ei];
        nodes.insert(e.fk_node);
        nodes.insert(e.pk_node);
    }
    let mut sorted_edges: Vec<usize> = sub_edges.iter().copied().collect();
    sorted_edges.sort_by(|&a, &b| {
        graph.edges()[a]
            .weight
            .partial_cmp(&graph.edges()[b].weight)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut parent: BTreeMap<NodeId, NodeId> = nodes.iter().map(|&n| (n, n)).collect();
    fn find(parent: &mut BTreeMap<NodeId, NodeId>, x: NodeId) -> NodeId {
        let p = parent[&x];
        if p == x {
            x
        } else {
            let root = find(parent, p);
            parent.insert(x, root);
            root
        }
    }
    let mut mst_edges: Vec<usize> = Vec::new();
    for ei in sorted_edges {
        let e = &graph.edges()[ei];
        let (ra, rb) = (find(&mut parent, e.fk_node), find(&mut parent, e.pk_node));
        if ra != rb {
            parent.insert(ra, rb);
            mst_edges.push(ei);
        }
    }

    // Step 5: prune non-terminal leaves repeatedly.
    let term_set: BTreeSet<NodeId> = terms.iter().copied().collect();
    loop {
        let mut degree: BTreeMap<NodeId, usize> = BTreeMap::new();
        for &ei in &mst_edges {
            let e = &graph.edges()[ei];
            *degree.entry(e.fk_node).or_insert(0) += 1;
            *degree.entry(e.pk_node).or_insert(0) += 1;
        }
        let before = mst_edges.len();
        mst_edges.retain(|&ei| {
            let e = &graph.edges()[ei];
            let fk_prunable = degree[&e.fk_node] == 1 && !term_set.contains(&e.fk_node);
            let pk_prunable = degree[&e.pk_node] == 1 && !term_set.contains(&e.pk_node);
            !(fk_prunable || pk_prunable)
        });
        if mst_edges.len() == before {
            break;
        }
    }

    // Assemble the result.
    let mut final_nodes: BTreeSet<NodeId> = term_set.clone();
    let mut total = 0.0;
    for &ei in &mst_edges {
        let e = &graph.edges()[ei];
        final_nodes.insert(e.fk_node);
        final_nodes.insert(e.pk_node);
        total += e.weight;
    }
    let path = JoinPath {
        nodes: final_nodes.into_iter().collect(),
        edges: mst_edges,
        terminals: terms,
        total_weight: total,
    };
    if path.is_valid_tree(graph) {
        Some(path)
    } else {
        None
    }
}

/// Enumerate up to `k` distinct join paths spanning `terminals`, best first.
///
/// The first entry is the KMB tree; alternatives are produced by excluding
/// each edge of already-found trees and re-solving, a standard "spur"
/// strategy that is sufficient to surface the shortest-but-wrong and the
/// longer-but-common paths the experiments compare.
pub fn k_best_join_paths(graph: &JoinGraph, terminals: &[NodeId], k: usize) -> Vec<JoinPath> {
    let mut results: Vec<JoinPath> = Vec::new();
    let Some(best) = steiner_tree(graph, terminals) else {
        return results;
    };
    let mut frontier: Vec<BTreeSet<usize>> = vec![BTreeSet::new()];
    results.push(best);
    let mut seen_edge_sets: BTreeSet<Vec<usize>> = results
        .iter()
        .map(|p| {
            let mut e = p.edges.clone();
            e.sort_unstable();
            e
        })
        .collect();
    let mut round = 0;
    while results.len() < k && round < results.len() {
        let base = results[round].clone();
        let base_exclusions = frontier.get(round).cloned().unwrap_or_default();
        for &ei in &base.edges {
            let mut excl = base_exclusions.clone();
            excl.insert(ei);
            if let Some(alt) = steiner_tree_excluding(graph, terminals, &excl) {
                let mut key = alt.edges.clone();
                key.sort_unstable();
                if seen_edge_sets.insert(key) {
                    results.push(alt);
                    frontier.push(excl);
                    if results.len() >= k {
                        break;
                    }
                }
            }
        }
        round += 1;
    }
    results.sort_by(|a, b| {
        b.score()
            .partial_cmp(&a.score())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.edges.len().cmp(&b.edges.len()))
    });
    results.truncate(k);
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::{DataType, Schema};

    /// A miniature version of the MAS schema from Figure 1: publication can
    /// reach domain either through conference (2 hops) or through
    /// keyword (3 hops via publication_keyword, keyword, domain_keyword).
    fn mas_like_schema() -> Schema {
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
            .foreign_key("publication", "cid", "conference", "cid")
            .foreign_key("domain_conference", "cid", "conference", "cid")
            .foreign_key("domain_conference", "did", "domain", "did")
            .foreign_key("publication_keyword", "pid", "publication", "pid")
            .foreign_key("publication_keyword", "kid", "keyword", "kid")
            .foreign_key("domain_keyword", "kid", "keyword", "kid")
            .foreign_key("domain_keyword", "did", "domain", "did")
            .build()
    }

    fn graph() -> JoinGraph {
        JoinGraph::from_schema(&mas_like_schema())
    }

    #[test]
    fn single_terminal_yields_trivial_path() {
        let g = graph();
        let p = steiner_tree(&g, &[g.node_of("publication").unwrap()]).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.nodes.len(), 1);
    }

    #[test]
    fn empty_terminals_yield_none() {
        let g = graph();
        assert!(steiner_tree(&g, &[]).is_none());
    }

    #[test]
    fn default_weights_pick_the_shortest_path() {
        // With unit weights, publication -> domain goes through conference
        // (3 edges) rather than through keyword (4 edges): exactly the
        // unintended behaviour of Example 2 in the paper.
        let g = graph();
        let terminals = [
            g.node_of("publication").unwrap(),
            g.node_of("domain").unwrap(),
        ];
        let p = steiner_tree(&g, &terminals).unwrap();
        let names = p.relation_names(&g);
        assert!(
            names.contains(&"conference".to_string()),
            "path was {names:?}"
        );
        assert!(!names.contains(&"keyword".to_string()));
        assert_eq!(p.edges.len(), 3);
        assert!(p.is_valid_tree(&g));
    }

    #[test]
    fn log_weights_can_prefer_the_longer_keyword_path() {
        // Lowering the weights along the keyword path (as the query log does
        // in Example 3) makes the 4-edge path cheaper than the 3-edge one.
        let mut g = graph();
        g.set_weights(|a, b| {
            let keyword_path = ["publication_keyword", "domain_keyword"];
            if keyword_path.contains(&a) || keyword_path.contains(&b) {
                0.1
            } else {
                1.0
            }
        });
        let terminals = [
            g.node_of("publication").unwrap(),
            g.node_of("domain").unwrap(),
        ];
        let p = steiner_tree(&g, &terminals).unwrap();
        let names = p.relation_names(&g);
        assert!(names.contains(&"keyword".to_string()), "path was {names:?}");
        assert!(!names.contains(&"conference".to_string()));
        assert!(p.is_valid_tree(&g));
    }

    #[test]
    fn three_terminals_form_a_tree() {
        let g = graph();
        let terminals = [
            g.node_of("publication").unwrap(),
            g.node_of("domain").unwrap(),
            g.node_of("keyword").unwrap(),
        ];
        let p = steiner_tree(&g, &terminals).unwrap();
        assert!(p.is_valid_tree(&g));
        for t in terminals {
            assert!(p.nodes.contains(&t));
        }
    }

    #[test]
    fn k_best_returns_distinct_paths_in_score_order() {
        let g = graph();
        let terminals = [
            g.node_of("publication").unwrap(),
            g.node_of("domain").unwrap(),
        ];
        let paths = k_best_join_paths(&g, &terminals, 3);
        assert!(paths.len() >= 2, "expected at least two alternative paths");
        for w in paths.windows(2) {
            assert!(w[0].score() >= w[1].score());
        }
        // All paths are valid trees spanning the terminals.
        for p in &paths {
            assert!(p.is_valid_tree(&g));
        }
        // The best path and the runner-up differ.
        assert_ne!(paths[0].edges, paths[1].edges);
    }

    #[test]
    fn disconnected_terminals_return_none() {
        let schema = Schema::builder("disc")
            .relation("a", &[("id", DataType::Integer)], Some("id"))
            .relation("b", &[("id", DataType::Integer)], Some("id"))
            .build();
        let g = JoinGraph::from_schema(&schema);
        let t = [g.node_of("a").unwrap(), g.node_of("b").unwrap()];
        assert!(steiner_tree(&g, &t).is_none());
        assert!(k_best_join_paths(&g, &t, 3).is_empty());
    }

    #[test]
    fn steiner_on_forked_graph_spans_both_instances() {
        // Example 7: two author instances plus publication.
        let schema = Schema::builder("selfjoin")
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
                &[("pid", DataType::Integer), ("title", DataType::Text)],
                Some("pid"),
            )
            .foreign_key("writes", "aid", "author", "aid")
            .foreign_key("writes", "pid", "publication", "pid")
            .build();
        let mut g = JoinGraph::from_schema(&schema);
        let author2 = g.fork("author").unwrap();
        let terminals = [
            g.node_of("author").unwrap(),
            author2,
            g.node_of("publication").unwrap(),
        ];
        let p = steiner_tree(&g, &terminals).unwrap();
        assert!(p.is_valid_tree(&g));
        let names = p.relation_names(&g);
        assert_eq!(
            names,
            vec!["author", "author", "publication", "writes", "writes"]
        );
    }
}
