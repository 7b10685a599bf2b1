//! Join paths (Definition 2) and their scoring.

use crate::joingraph::{JoinGraph, NodeId};
use std::collections::BTreeSet;

/// The similarity-oriented join-path score used everywhere a path is ranked
/// or explained: 1 for a single-relation path, otherwise
/// `1 / (1 + Σw/√|E| + 0.1·|E|)` — the paper's cost-like `Σw / |E|²` turned
/// into a larger-is-better value in `(0, 1]`.  The one definition shared by
/// [`JoinPath::score`] and the wire-facing explanation recomputation, so
/// tuning it can never silently desynchronise the two.
pub fn join_path_score(total_weight: f64, edges: usize) -> f64 {
    if edges == 0 {
        return 1.0;
    }
    let e = edges as f64;
    1.0 / (1.0 + total_weight / e.sqrt() + 0.1 * e)
}

/// A join condition between two relation instances, ready to be rendered as
/// `left.attr = right.attr` in a WHERE clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinCondition {
    /// The relation instance on the foreign-key side.
    pub fk_node: NodeId,
    /// The foreign-key attribute.
    pub fk_attr: String,
    /// The relation instance on the primary-key side.
    pub pk_node: NodeId,
    /// The primary-key attribute.
    pub pk_attr: String,
}

/// A join path: a tree of relation instances spanning a set of terminals
/// (Definition 2 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPath {
    /// The relation instances in the tree (sorted, deduplicated).
    pub nodes: Vec<NodeId>,
    /// Indices of the join-graph edges forming the tree.
    pub edges: Vec<usize>,
    /// The terminal nodes the tree was required to span.
    pub terminals: Vec<NodeId>,
    /// Total weight of the tree's edges.
    pub total_weight: f64,
}

impl JoinPath {
    /// A trivial join path over a single relation instance (no joins).
    pub fn single(node: NodeId) -> Self {
        JoinPath {
            nodes: vec![node],
            edges: Vec::new(),
            terminals: vec![node],
            total_weight: 0.0,
        }
    }

    /// The paper's join path score: `Score_j = (Σ w) / |E_j|²`, normalised to
    /// 1 for a single-relation path (no join edges).
    ///
    /// Lower total weight and fewer edges both increase the score ranking
    /// position (the paper divides by `|E_j|²` precisely to prefer simpler
    /// paths); since the score is used for ranking candidates and combined
    /// with keyword-mapping scores, we return `1 / (1 + Σw)` scaled by the
    /// size normalisation so the value stays in `(0, 1]` and *larger is
    /// better*, matching how every other score in the system is oriented.
    pub fn score(&self) -> f64 {
        join_path_score(self.total_weight, self.edges.len())
    }

    /// Number of join edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when the path involves a single relation instance.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The join conditions of the path.
    pub fn join_conditions(&self, graph: &JoinGraph) -> Vec<JoinCondition> {
        self.edges
            .iter()
            .map(|&ei| {
                let e = &graph.edges()[ei];
                JoinCondition {
                    fk_node: e.fk_node,
                    fk_attr: e.fk.from_attribute.clone(),
                    pk_node: e.pk_node,
                    pk_attr: e.fk.to_attribute.clone(),
                }
            })
            .collect()
    }

    /// The relation names (with multiplicity) used by the path, sorted.
    pub fn relation_names(&self, graph: &JoinGraph) -> Vec<String> {
        let mut names: Vec<String> = self
            .nodes
            .iter()
            .map(|&n| graph.node(n).relation.clone())
            .collect();
        names.sort();
        names
    }

    /// Check structural validity: the edge set is acyclic, connected, covers
    /// exactly `nodes`, and spans every terminal.  Used by tests and debug
    /// assertions.
    pub fn is_valid_tree(&self, graph: &JoinGraph) -> bool {
        let node_set: BTreeSet<NodeId> = self.nodes.iter().copied().collect();
        if !self.terminals.iter().all(|t| node_set.contains(t)) {
            return false;
        }
        // A tree over n nodes has n-1 edges.
        if self.nodes.len() != self.edges.len() + 1 {
            return false;
        }
        // Connectivity check via union-find.
        let mut parent: Vec<usize> = (0..graph.nodes().len()).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for &ei in &self.edges {
            let e = &graph.edges()[ei];
            if !node_set.contains(&e.fk_node) || !node_set.contains(&e.pk_node) {
                return false;
            }
            let (a, b) = (find(&mut parent, e.fk_node), find(&mut parent, e.pk_node));
            if a == b {
                return false; // cycle
            }
            parent[a] = b;
        }
        let Some(&first) = self.nodes.first() else {
            return false;
        };
        let root = find(&mut parent, first);
        self.nodes.iter().all(|&n| find(&mut parent, n) == root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::{DataType, Schema};

    fn chain_graph() -> JoinGraph {
        let schema = Schema::builder("chain")
            .relation("a", &[("id", DataType::Integer)], Some("id"))
            .relation(
                "b",
                &[("id", DataType::Integer), ("aid", DataType::Integer)],
                Some("id"),
            )
            .relation(
                "c",
                &[("id", DataType::Integer), ("bid", DataType::Integer)],
                Some("id"),
            )
            .foreign_key("b", "aid", "a", "id")
            .foreign_key("c", "bid", "b", "id")
            .build();
        JoinGraph::from_schema(&schema)
    }

    fn chain_path(_g: &JoinGraph) -> JoinPath {
        JoinPath {
            nodes: vec![0, 1, 2],
            edges: vec![0, 1],
            terminals: vec![0, 2],
            total_weight: 2.0,
        }
    }

    #[test]
    fn single_relation_path_scores_one() {
        let p = JoinPath::single(3);
        assert_eq!(p.score(), 1.0);
        assert!(p.is_empty());
    }

    #[test]
    fn join_conditions_follow_fk_orientation() {
        let g = chain_graph();
        let p = chain_path(&g);
        let conds = p.join_conditions(&g);
        assert_eq!(conds.len(), 2);
        assert_eq!(conds[0].fk_attr, "aid");
        assert_eq!(conds[0].pk_attr, "id");
    }

    #[test]
    fn raw_cost_matches_paper_formula() {
        // The paper's cost Σw / |E|² is ranked larger-is-better as
        // 1 / (1 + Σw/√|E| + 0.1·|E|): 2 unit edges score 1 / (1.2 + √2).
        let g = chain_graph();
        let p = chain_path(&g);
        assert!((p.score() - 1.0 / (1.2 + 2f64.sqrt())).abs() < 1e-12);
    }

    #[test]
    fn shorter_paths_score_higher() {
        let long = JoinPath {
            nodes: vec![0, 1, 2, 3, 4],
            edges: vec![0, 1, 2, 3],
            terminals: vec![0, 4],
            total_weight: 4.0,
        };
        let short = JoinPath {
            nodes: vec![0, 1],
            edges: vec![0],
            terminals: vec![0, 1],
            total_weight: 1.0,
        };
        assert!(short.score() > long.score());
    }

    #[test]
    fn lower_weight_scores_higher_at_equal_length() {
        let heavy = JoinPath {
            nodes: vec![0, 1, 2],
            edges: vec![0, 1],
            terminals: vec![0, 2],
            total_weight: 2.0,
        };
        let light = JoinPath {
            nodes: vec![0, 1, 2],
            edges: vec![0, 1],
            terminals: vec![0, 2],
            total_weight: 0.4,
        };
        assert!(light.score() > heavy.score());
    }

    #[test]
    fn validity_detects_bad_trees() {
        let g = chain_graph();
        let good = chain_path(&g);
        assert!(good.is_valid_tree(&g));
        let missing_terminal = JoinPath {
            nodes: vec![0, 1],
            edges: vec![0],
            terminals: vec![0, 2],
            total_weight: 1.0,
        };
        assert!(!missing_terminal.is_valid_tree(&g));
        let wrong_edge_count = JoinPath {
            nodes: vec![0, 1, 2],
            edges: vec![0],
            terminals: vec![0],
            total_weight: 1.0,
        };
        assert!(!wrong_edge_count.is_valid_tree(&g));
    }
}
