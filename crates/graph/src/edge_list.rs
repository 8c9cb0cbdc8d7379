//! The indexed edge-list graph representation used by all switching chains.
//!
//! Edge switching needs exactly two views of the graph (Sec. 5.2/5.3 of the
//! paper): an indexed array of edges `E[1..m]` (to select switch sources
//! uniformly at random) and a set of packed edge identifiers (to answer
//! existence queries and to apply insertions/deletions in expected constant
//! time).  [`EdgeListGraph`] stores the former and can hand out or rebuild the
//! latter; keeping the two synchronised is the responsibility of the chain
//! implementations, which is exercised heavily by the test suites.

use crate::degree::DegreeSequence;
use crate::edge::{Edge, Node, PackedEdge};
use std::collections::HashSet;

/// Error conditions when constructing a simple graph from raw edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge references a node `>= n`.
    NodeOutOfRange {
        /// The offending edge.
        edge: Edge,
        /// The number of nodes of the graph.
        nodes: usize,
    },
    /// The edge list contains a self-loop.
    SelfLoop(Edge),
    /// The edge list contains a duplicate edge.
    MultiEdge(Edge),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { edge, nodes } => {
                write!(f, "edge {edge} references a node outside [0, {nodes})")
            }
            GraphError::SelfLoop(e) => write!(f, "self-loop at node {}", e.u()),
            GraphError::MultiEdge(e) => write!(f, "duplicate edge {e}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A simple undirected graph stored as an indexed edge list.
///
/// Invariants (checked by [`EdgeListGraph::new`] and preserved by every
/// switching algorithm in the workspace):
///
/// * all endpoints are `< num_nodes`,
/// * no edge is a self-loop,
/// * no edge appears twice (in either orientation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeListGraph {
    num_nodes: usize,
    edges: Vec<Edge>,
}

impl EdgeListGraph {
    /// Build a graph after validating simplicity.
    pub fn new(num_nodes: usize, edges: Vec<Edge>) -> Result<Self, GraphError> {
        let graph = Self { num_nodes, edges };
        graph.validate()?;
        Ok(graph)
    }

    /// Build a graph without validating invariants.
    ///
    /// Intended for generators that construct provably simple edge sets and
    /// for the switching algorithms, which preserve simplicity by
    /// construction.  Debug builds still verify the invariants.
    pub fn from_edges_unchecked(num_nodes: usize, edges: Vec<Edge>) -> Self {
        let g = Self { num_nodes, edges };
        debug_assert!(g.validate().is_ok(), "from_edges_unchecked received a non-simple graph");
        g
    }

    /// Build a graph from raw `(u, v)` pairs, dropping loops and duplicates.
    ///
    /// This mirrors the clean-up the paper applies to the NetRep graphs:
    /// directed edges become undirected, self-loops and multi-edges are
    /// removed.
    pub fn from_pairs_dedup(
        num_nodes: usize,
        pairs: impl IntoIterator<Item = (Node, Node)>,
    ) -> Self {
        let mut seen: HashSet<PackedEdge> = HashSet::new();
        let mut edges = Vec::new();
        for (a, b) in pairs {
            if a == b || a as usize >= num_nodes || b as usize >= num_nodes {
                continue;
            }
            let e = Edge::new(a, b);
            if seen.insert(e.pack()) {
                edges.push(e);
            }
        }
        Self { num_nodes, edges }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Graph density `m / C(n, 2)`.
    pub fn density(&self) -> f64 {
        if self.num_nodes < 2 {
            return 0.0;
        }
        let possible = self.num_nodes as f64 * (self.num_nodes as f64 - 1.0) / 2.0;
        self.edges.len() as f64 / possible
    }

    /// The `i`-th edge (`E[i]` in the paper's notation, zero-based here).
    #[inline]
    pub fn edge(&self, i: usize) -> Edge {
        self.edges[i]
    }

    /// All edges as a slice.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Mutable access to the edge array; used by switching algorithms to
    /// rewire edges in place.  Callers are responsible for preserving the
    /// simplicity invariant.
    #[inline]
    pub fn edges_mut(&mut self) -> &mut [Edge] {
        &mut self.edges
    }

    /// Consume the graph and return its edge vector.
    pub fn into_edges(self) -> Vec<Edge> {
        self.edges
    }

    /// Compute the degree of every node.
    pub fn degrees(&self) -> DegreeSequence {
        let mut deg = vec![0u32; self.num_nodes];
        for e in &self.edges {
            deg[e.u() as usize] += 1;
            deg[e.v() as usize] += 1;
        }
        DegreeSequence::new(deg)
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> u32 {
        self.degrees().max_degree()
    }

    /// Average degree `2m / n`.
    pub fn average_degree(&self) -> f64 {
        if self.num_nodes == 0 {
            0.0
        } else {
            2.0 * self.edges.len() as f64 / self.num_nodes as f64
        }
    }

    /// Packed identifiers of all edges (useful to initialise hash sets).
    pub fn packed_edges(&self) -> Vec<PackedEdge> {
        self.edges.iter().map(|e| e.pack()).collect()
    }

    /// A `HashSet` of packed edges (convenience for tests and baselines).
    pub fn edge_set(&self) -> HashSet<PackedEdge> {
        self.edges.iter().map(|e| e.pack()).collect()
    }

    /// Whether the graph contains edge `{u, v}` (linear scan; use the hash
    /// sets from `gesmc-concurrent` for performant queries).
    pub fn has_edge_slow(&self, u: Node, v: Node) -> bool {
        let e = Edge::new(u, v);
        self.edges.contains(&e)
    }

    /// Verify the simplicity invariants; returns the first violation in slot
    /// order.
    ///
    /// One pass checks node ranges and loops, and sorting the packed edges
    /// finds duplicates; only a graph that fails either is scanned again, in
    /// slot order, for its first violation.
    pub fn validate(&self) -> Result<(), GraphError> {
        let simple = self.edges.iter().all(|e| (e.v() as usize) < self.num_nodes && !e.is_loop())
            && self.canonical_edges().windows(2).all(|pair| pair[0] != pair[1]);
        if simple {
            return Ok(());
        }
        let mut seen: HashSet<PackedEdge> = HashSet::with_capacity(self.edges.len() * 2);
        for &e in &self.edges {
            if e.v() as usize >= self.num_nodes {
                return Err(GraphError::NodeOutOfRange { edge: e, nodes: self.num_nodes });
            }
            if e.is_loop() {
                return Err(GraphError::SelfLoop(e));
            }
            if !seen.insert(e.pack()) {
                return Err(GraphError::MultiEdge(e));
            }
        }
        Ok(())
    }

    /// Whether two graphs have identical degree sequences (the invariant every
    /// switching chain must preserve).
    pub fn same_degrees(&self, other: &EdgeListGraph) -> bool {
        self.num_nodes == other.num_nodes && self.degrees() == other.degrees()
    }

    /// Canonical sorted list of packed edges; two graphs are equal as
    /// unlabelled edge sets iff their canonical forms agree.
    pub fn canonical_edges(&self) -> Vec<PackedEdge> {
        let mut p = self.packed_edges();
        p.sort_unstable();
        p
    }

    /// A 64-bit content fingerprint: FNV-1a over the node count and the
    /// canonical (sorted, packed) edge set.
    ///
    /// Two graphs fingerprint equal iff they are the same labelled graph,
    /// regardless of edge-slot order — the property cache keys and
    /// deduplication need.  (The `gesmc-serve` warm cache keys *generated*
    /// graphs by their canonical generator spec instead, so the generator
    /// never has to run just to compute a key; this method is the
    /// fingerprint to use when the graph itself is in hand.)  Stable across
    /// runs and builds; not cryptographic.
    pub fn fingerprint(&self) -> u64 {
        let mut hasher = gesmc_randx::Fnv1a64::new();
        hasher.write_u64(self.num_nodes as u64);
        for packed in self.canonical_edges() {
            hasher.write_u64(packed);
        }
        hasher.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> EdgeListGraph {
        EdgeListGraph::new(4, vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = path_graph();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edge(1), Edge::new(1, 2));
        assert_eq!(g.degrees().degrees(), &[1, 2, 2, 1]);
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_degree() - 1.5).abs() < 1e-12);
        assert!((g.density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn new_rejects_loops_multi_edges_and_out_of_range() {
        assert_eq!(
            EdgeListGraph::new(3, vec![Edge::new(1, 1)]),
            Err(GraphError::SelfLoop(Edge::new(1, 1)))
        );
        assert_eq!(
            EdgeListGraph::new(3, vec![Edge::new(0, 1), Edge::new(1, 0)]),
            Err(GraphError::MultiEdge(Edge::new(0, 1)))
        );
        assert!(matches!(
            EdgeListGraph::new(3, vec![Edge::new(0, 3)]),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn validate_reports_the_first_violation_in_slot_order() {
        // Each list breaks two rules; the violation at the lower slot wins,
        // whichever check would find the other one first.
        let (a, b, c) = (Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3));
        let cases = [
            (vec![a, b, a, Edge::new(0, 9)], GraphError::MultiEdge(a)),
            (
                vec![a, Edge::new(0, 9), b, a],
                GraphError::NodeOutOfRange { edge: Edge::new(0, 9), nodes: 4 },
            ),
            (vec![b, c, c, Edge::new(2, 2)], GraphError::MultiEdge(c)),
            (vec![b, Edge::new(2, 2), c, c], GraphError::SelfLoop(Edge::new(2, 2))),
            (vec![c, a, b, a, c], GraphError::MultiEdge(a)),
        ];
        for (edges, first) in cases {
            let graph = EdgeListGraph { num_nodes: 4, edges: edges.clone() };
            assert_eq!(graph.validate(), Err(first), "{edges:?}");
        }
    }

    #[test]
    fn from_pairs_dedup_cleans_input() {
        let g = EdgeListGraph::from_pairs_dedup(
            4,
            vec![(0, 1), (1, 0), (2, 2), (1, 2), (3, 7), (1, 2)],
        );
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge_slow(0, 1));
        assert!(g.has_edge_slow(1, 2));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn canonical_edges_are_label_order_independent() {
        let g1 = EdgeListGraph::new(3, vec![Edge::new(0, 1), Edge::new(1, 2)]).unwrap();
        let g2 = EdgeListGraph::new(3, vec![Edge::new(2, 1), Edge::new(1, 0)]).unwrap();
        assert_eq!(g1.canonical_edges(), g2.canonical_edges());
    }

    #[test]
    fn same_degrees_detects_mismatch() {
        let g1 = path_graph();
        let g2 =
            EdgeListGraph::new(4, vec![Edge::new(0, 1), Edge::new(2, 3), Edge::new(0, 2)]).unwrap();
        assert!(!g1.same_degrees(&g2));
        assert!(g1.same_degrees(&g1.clone()));
    }

    #[test]
    fn fingerprint_is_order_independent_and_content_sensitive() {
        let g1 = EdgeListGraph::new(3, vec![Edge::new(0, 1), Edge::new(1, 2)]).unwrap();
        let g2 = EdgeListGraph::new(3, vec![Edge::new(2, 1), Edge::new(1, 0)]).unwrap();
        assert_eq!(g1.fingerprint(), g2.fingerprint(), "slot order must not matter");

        let different_edge = EdgeListGraph::new(3, vec![Edge::new(0, 1), Edge::new(0, 2)]).unwrap();
        assert_ne!(g1.fingerprint(), different_edge.fingerprint());
        // Same edge set over more nodes (isolated node added) is a different
        // labelled graph.
        let more_nodes = EdgeListGraph::new(4, vec![Edge::new(0, 1), Edge::new(1, 2)]).unwrap();
        assert_ne!(g1.fingerprint(), more_nodes.fingerprint());
        // Stable across clones/runs.
        assert_eq!(g1.fingerprint(), g1.clone().fingerprint());
    }

    #[test]
    fn empty_graph() {
        let g = EdgeListGraph::new(0, vec![]).unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.density(), 0.0);
        assert_eq!(g.average_degree(), 0.0);
    }
}
