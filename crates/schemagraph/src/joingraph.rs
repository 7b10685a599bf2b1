//! The join graph: the FK-PK graph of Definition 1 over relation instances.
//!
//! Join path inference works over *instances* of relations rather than
//! relations themselves, because a query may reference the same relation
//! twice (self-joins, Example 7 of the paper).  [`JoinGraph::fork`]
//! implements Algorithm 4: it clones a relation instance together with the
//! sub-graph reachable against the FK direction, stopping (and connecting
//! back to the original graph) when a forward FK-PK edge is reached.

use relational::{ForeignKey, Schema};
use std::collections::{BTreeMap, BTreeSet};

/// Identifier of a node (relation instance) in the join graph.
pub type NodeId = usize;

/// A relation instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinNode {
    /// The relation name.
    pub relation: String,
    /// Instance number: 0 for the relation's own node, 1.. for clones
    /// created by forking.
    pub instance: usize,
}

/// An edge between two relation instances, annotated with the FK that
/// induces it.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinEdge {
    /// The node on the foreign-key side of the edge.
    pub fk_node: NodeId,
    /// The node on the primary-key side of the edge.
    pub pk_node: NodeId,
    /// The foreign key inducing the edge.
    pub fk: ForeignKey,
    /// The edge weight (default 1, lowered by log-driven weighting).
    pub weight: f64,
}

impl JoinEdge {
    /// The node at the other end of the edge.
    pub fn other(&self, node: NodeId) -> NodeId {
        if node == self.fk_node {
            self.pk_node
        } else {
            self.fk_node
        }
    }

    /// True when the edge is incident to the node.
    pub fn touches(&self, node: NodeId) -> bool {
        self.fk_node == node || self.pk_node == node
    }
}

/// The join graph.
#[derive(Debug, Clone)]
pub struct JoinGraph {
    nodes: Vec<JoinNode>,
    edges: Vec<JoinEdge>,
    /// Per-node incident edge indices, maintained on every edge insertion so
    /// the Dijkstra relaxations inside path enumeration read a slice instead
    /// of scanning the full edge list per node.
    adjacency: Vec<Vec<usize>>,
}

impl JoinGraph {
    /// Build the join graph of a schema: one node per relation, one edge per
    /// FK-PK relationship, every edge at the paper's default weight of 1.
    /// Join inference either keeps those weights or replaces them with
    /// log-driven ones via [`JoinGraph::set_weights`].
    pub fn from_schema(schema: &Schema) -> Self {
        let mut nodes = Vec::new();
        let mut index: BTreeMap<String, NodeId> = BTreeMap::new();
        for rel in &schema.relations {
            index.insert(rel.name.to_lowercase(), nodes.len());
            nodes.push(JoinNode {
                relation: rel.name.clone(),
                instance: 0,
            });
        }
        let mut result = JoinGraph {
            adjacency: vec![Vec::new(); nodes.len()],
            nodes,
            edges: Vec::new(),
        };
        for fk in &schema.foreign_keys {
            let (Some(&from), Some(&to)) = (
                index.get(&fk.from_relation.to_lowercase()),
                index.get(&fk.to_relation.to_lowercase()),
            ) else {
                continue;
            };
            result.push_edge(JoinEdge {
                fk_node: from,
                pk_node: to,
                fk: fk.clone(),
                weight: 1.0,
            });
        }
        result
    }

    /// Append an edge, keeping the incident-edge index in sync.
    fn push_edge(&mut self, edge: JoinEdge) {
        let id = self.edges.len();
        self.adjacency[edge.fk_node].push(id);
        if edge.pk_node != edge.fk_node {
            self.adjacency[edge.pk_node].push(id);
        }
        self.edges.push(edge);
    }

    /// All nodes.
    pub fn nodes(&self) -> &[JoinNode] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[JoinEdge] {
        &self.edges
    }

    /// The node for the original (instance 0) occurrence of a relation.
    pub fn node_of(&self, relation: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.relation.eq_ignore_ascii_case(relation) && n.instance == 0)
    }

    /// All instances (original + clones) of a relation, in creation order.
    pub fn instances_of(&self, relation: &str) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.relation.eq_ignore_ascii_case(relation))
            .map(|(i, _)| i)
            .collect()
    }

    /// The node data for an id.
    pub fn node(&self, id: NodeId) -> &JoinNode {
        &self.nodes[id]
    }

    /// Edges incident to a node, in insertion (id) order.  A slice into the
    /// maintained adjacency index — no per-call scan or allocation.
    pub fn incident_edges(&self, node: NodeId) -> &[usize] {
        &self.adjacency[node]
    }

    /// Re-assign edge weights with a per-relation-pair weight function.
    pub fn set_weights<F>(&mut self, weight: F)
    where
        F: Fn(&str, &str) -> f64,
    {
        // Collect first to avoid borrowing issues with self.nodes inside the loop.
        let pairs: Vec<(String, String)> = self
            .edges
            .iter()
            .map(|e| {
                (
                    self.nodes[e.fk_node].relation.clone(),
                    self.nodes[e.pk_node].relation.clone(),
                )
            })
            .collect();
        for (edge, (a, b)) in self.edges.iter_mut().zip(pairs) {
            edge.weight = weight(&a, &b).clamp(0.0, 1.0);
        }
    }

    /// Dijkstra shortest path between two nodes, skipping the edges whose
    /// indices appear in `excluded` (the Steiner search excludes edges to
    /// enumerate alternative join paths).  Returns the edge indices of the
    /// path, or `None` when the nodes are disconnected.  Ties are broken
    /// deterministically by node id.
    pub fn shortest_path(
        &self,
        from: NodeId,
        to: NodeId,
        excluded: &BTreeSet<usize>,
    ) -> Option<(f64, Vec<usize>)> {
        if from == to {
            return Some((0.0, Vec::new()));
        }
        let n = self.nodes.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev_edge: Vec<Option<usize>> = vec![None; n];
        let mut visited = vec![false; n];
        dist[from] = 0.0;
        for _ in 0..n {
            // pick the unvisited node with minimal distance (deterministic).
            let mut current = None;
            let mut best = f64::INFINITY;
            for (i, &d) in dist.iter().enumerate() {
                if !visited[i] && d < best {
                    best = d;
                    current = Some(i);
                }
            }
            let Some(u) = current else { break };
            if u == to {
                break;
            }
            visited[u] = true;
            for &ei in self.incident_edges(u) {
                if excluded.contains(&ei) {
                    continue;
                }
                let e = &self.edges[ei];
                let v = e.other(u);
                // Use a small per-hop epsilon so that among equal-weight
                // alternatives, paths with fewer edges win.
                let cand = dist[u] + e.weight.max(1e-6);
                if cand + 1e-12 < dist[v] {
                    dist[v] = cand;
                    prev_edge[v] = Some(ei);
                }
            }
        }
        if dist[to].is_infinite() {
            return None;
        }
        // Reconstruct.
        let mut path = Vec::new();
        let mut cur = to;
        while cur != from {
            let ei = prev_edge[cur]?;
            path.push(ei);
            cur = self.edges[ei].other(cur);
        }
        path.reverse();
        Some((dist[to], path))
    }

    /// Fork the graph for a duplicated terminal relation (Algorithm 4).
    ///
    /// A clone of `relation` is added; the traversal follows edges *against*
    /// the FK direction (relations whose foreign keys reference the cloned
    /// relation are cloned too, recursively), and stops at edges followed
    /// *along* the FK direction, which are attached from the clone to the
    /// original target node.  Returns the id of the new clone of `relation`.
    pub fn fork(&mut self, relation: &str) -> Option<NodeId> {
        let original = self.node_of(relation)?;
        let mut visited: BTreeSet<NodeId> = BTreeSet::new();
        // stack of (original node, its clone)
        let mut stack: Vec<(NodeId, NodeId)> = Vec::new();
        let root_clone = self.clone_node(original);
        stack.push((original, root_clone));
        while let Some((old, new)) = stack.pop() {
            visited.insert(old);
            // The incident list is snapshotted because the loop body appends
            // edges (which would otherwise alias the adjacency index).
            let incident: Vec<usize> = self.incident_edges(old).to_vec();
            for ei in incident {
                let edge = self.edges[ei].clone();
                let conn = edge.other(old);
                // Ignore edges to clones created during this fork.
                if conn >= self.nodes.len() || self.nodes[conn].instance != 0 {
                    continue;
                }
                if visited.contains(&conn) {
                    continue;
                }
                if edge.fk_node == old {
                    // Forward FK-PK edge (old holds the foreign key): attach
                    // the clone to the original target and stop traversal.
                    self.push_edge(JoinEdge {
                        fk_node: new,
                        pk_node: conn,
                        fk: edge.fk.clone(),
                        weight: edge.weight,
                    });
                } else {
                    // Edge against the FK direction: clone the neighbour and
                    // keep traversing.
                    let cloned = self.clone_node(conn);
                    self.push_edge(JoinEdge {
                        fk_node: cloned,
                        pk_node: new,
                        fk: edge.fk.clone(),
                        weight: edge.weight,
                    });
                    stack.push((conn, cloned));
                }
            }
        }
        Some(root_clone)
    }

    fn clone_node(&mut self, node: NodeId) -> NodeId {
        let relation = self.nodes[node].relation.clone();
        let instance = self.nodes.iter().filter(|n| n.relation == relation).count();
        let id = self.nodes.len();
        self.nodes.push(JoinNode { relation, instance });
        self.adjacency.push(Vec::new());
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::DataType;

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

    fn graph() -> JoinGraph {
        JoinGraph::from_schema(&academic_schema())
    }

    #[test]
    fn builds_one_node_per_relation_and_edge_per_fk() {
        let g = graph();
        assert_eq!(g.nodes().len(), 4);
        assert_eq!(g.edges().len(), 3);
        assert!(g.edges().iter().all(|e| e.weight == 1.0), "unit weights");
    }

    #[test]
    fn shortest_path_counts_hops_with_unit_weights() {
        let g = graph();
        let author = g.node_of("author").unwrap();
        let journal = g.node_of("journal").unwrap();
        let (cost, path) = g.shortest_path(author, journal, &BTreeSet::new()).unwrap();
        assert_eq!(path.len(), 3); // author - writes - publication - journal
        assert!((cost - 3.0).abs() < 1e-3);
    }

    #[test]
    fn shortest_path_to_self_is_empty() {
        let g = graph();
        let a = g.node_of("author").unwrap();
        assert_eq!(g.shortest_path(a, a, &BTreeSet::new()).unwrap().1.len(), 0);
    }

    /// A triangle: `a` reaches `c` directly or through `b`.
    fn triangle() -> JoinGraph {
        let schema = Schema::builder("tri")
            .relation(
                "a",
                &[
                    ("id", DataType::Integer),
                    ("bid", DataType::Integer),
                    ("cid", DataType::Integer),
                ],
                Some("id"),
            )
            .relation(
                "b",
                &[("id", DataType::Integer), ("cid", DataType::Integer)],
                Some("id"),
            )
            .relation("c", &[("id", DataType::Integer)], Some("id"))
            .foreign_key("a", "bid", "b", "id")
            .foreign_key("a", "cid", "c", "id")
            .foreign_key("b", "cid", "c", "id")
            .build();
        let mut g = JoinGraph::from_schema(&schema);
        // direct edge a-c is expensive; a-b and b-c are cheap
        g.set_weights(|x, y| if (x, y) == ("a", "c") { 0.9 } else { 0.1 });
        g
    }

    #[test]
    fn shortest_path_prefers_lower_weights() {
        let g = triangle();
        let a = g.node_of("a").unwrap();
        let c = g.node_of("c").unwrap();
        let (_, path) = g.shortest_path(a, c, &BTreeSet::new()).unwrap();
        assert_eq!(path.len(), 2, "should detour through b");
    }

    #[test]
    fn shortest_path_skips_excluded_edges() {
        let g = triangle();
        let a = g.node_of("a").unwrap();
        let c = g.node_of("c").unwrap();
        let (_, detour) = g.shortest_path(a, c, &BTreeSet::new()).unwrap();
        let excluded: BTreeSet<usize> = detour[..1].iter().copied().collect();
        let (cost, path) = g.shortest_path(a, c, &excluded).unwrap();
        assert_eq!(path.len(), 1, "only the direct edge is left");
        assert!((cost - 0.9).abs() < 1e-9);
        let all: BTreeSet<usize> = (0..g.edges().len()).collect();
        assert!(g.shortest_path(a, c, &all).is_none());
    }

    #[test]
    fn fork_clones_author_and_writes_but_not_publication() {
        // Figure 4 of the paper: forking `author` clones `author` and
        // `writes`, and attaches the cloned `writes` to the original
        // `publication`.
        let mut g = graph();
        let clone = g.fork("author").unwrap();
        assert_eq!(g.node(clone).relation, "author");
        assert_eq!(g.node(clone).instance, 1);
        assert_eq!(g.instances_of("author").len(), 2);
        assert_eq!(g.instances_of("writes").len(), 2);
        assert_eq!(g.instances_of("publication").len(), 1);
        assert_eq!(g.instances_of("journal").len(), 1);
        // The cloned writes connects to the original publication.
        let writes_clone = g.instances_of("writes")[1];
        let publication = g.node_of("publication").unwrap();
        let connects = g
            .incident_edges(writes_clone)
            .iter()
            .any(|&ei| g.edges()[ei].touches(publication));
        assert!(connects);
    }

    #[test]
    fn fork_twice_creates_three_instances() {
        let mut g = graph();
        g.fork("author").unwrap();
        g.fork("author").unwrap();
        assert_eq!(g.instances_of("author").len(), 3);
        assert_eq!(g.instances_of("writes").len(), 3);
        assert_eq!(g.instances_of("publication").len(), 1);
    }

    #[test]
    fn set_weights_applies_to_all_edges() {
        let mut g = graph();
        g.set_weights(|a, b| {
            if a == "publication" || b == "publication" {
                0.2
            } else {
                1.0
            }
        });
        for e in g.edges() {
            let rels = [
                g.node(e.fk_node).relation.as_str(),
                g.node(e.pk_node).relation.as_str(),
            ];
            if rels.contains(&"publication") {
                assert!((e.weight - 0.2).abs() < 1e-9);
            } else {
                assert!((e.weight - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn adjacency_index_stays_consistent_across_forks() {
        let mut g = graph();
        g.fork("author").unwrap();
        g.fork("publication").unwrap();
        for node in 0..g.nodes().len() {
            let scanned: Vec<usize> = g
                .edges()
                .iter()
                .enumerate()
                .filter(|(_, e)| e.touches(node))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(
                g.incident_edges(node),
                scanned.as_slice(),
                "adjacency of node {node} diverged from an edge scan"
            );
        }
    }

    #[test]
    fn disconnected_nodes_have_no_path() {
        let schema = Schema::builder("disc")
            .relation("a", &[("id", DataType::Integer)], Some("id"))
            .relation("b", &[("id", DataType::Integer)], Some("id"))
            .build();
        let g = JoinGraph::from_schema(&schema);
        let a = g.node_of("a").unwrap();
        let b = g.node_of("b").unwrap();
        assert!(g.shortest_path(a, b, &BTreeSet::new()).is_none());
    }
}
