//! The shared, indexed edge array `E[1..m]` used by the parallel chains.
//!
//! `ParallelSuperstep` guarantees that the switches of one superstep have no
//! source dependencies, i.e. no two switches share an edge index.  Each switch
//! therefore has exclusive logical ownership of its two slots `E[i]`, `E[j]`,
//! and the only synchronisation required is that writes become visible to the
//! next superstep.  Storing the packed edges in `AtomicU64` cells expresses
//! exactly that contract in safe Rust; all accesses use relaxed ordering and
//! the rayon join points provide the necessary happens-before edges between
//! supersteps.

use crate::prefetch::prefetch_read;
use gesmc_graph::{Edge, EdgeListGraph};
use std::sync::atomic::{AtomicU64, Ordering};

/// An indexed edge array whose slots can be read and rewired concurrently.
#[derive(Debug)]
pub struct AtomicEdgeList {
    num_nodes: usize,
    slots: Vec<AtomicU64>,
}

impl AtomicEdgeList {
    /// Build from an edge-list graph.
    pub fn from_graph(graph: &EdgeListGraph) -> Self {
        let slots = graph.edges().iter().map(|e| AtomicU64::new(e.pack())).collect();
        Self { num_nodes: graph.num_nodes(), slots }
    }

    /// Number of edges `m`.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the edge list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Read `E[i]`.
    #[inline]
    pub fn get(&self, i: usize) -> Edge {
        Edge::unpack(self.slots[i].load(Ordering::Relaxed))
    }

    /// Hint the CPU to fetch the cache line of `E[i]` (Sec. 5.4); changes
    /// nothing.
    #[inline]
    pub fn prefetch(&self, i: usize) {
        prefetch_read(&self.slots, i);
    }

    /// Rewire `E[i] ← e`.
    #[inline]
    pub fn set(&self, i: usize, e: Edge) {
        self.slots[i].store(e.pack(), Ordering::Relaxed);
    }

    /// Snapshot the current edge array into a plain vector.
    pub fn snapshot_edges(&self) -> Vec<Edge> {
        self.slots.iter().map(|s| Edge::unpack(s.load(Ordering::Relaxed))).collect()
    }

    /// Convert back into an [`EdgeListGraph`].
    ///
    /// The switching algorithms preserve simplicity, so the unchecked
    /// constructor is appropriate; debug builds re-validate.
    pub fn to_graph(&self) -> EdgeListGraph {
        EdgeListGraph::from_edges_unchecked(self.num_nodes, self.snapshot_edges())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    fn sample_graph() -> EdgeListGraph {
        EdgeListGraph::new(
            5,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3), Edge::new(3, 4)],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip() {
        let g = sample_graph();
        let list = AtomicEdgeList::from_graph(&g);
        assert_eq!(list.len(), 4);
        assert_eq!(list.num_nodes(), 5);
        assert_eq!(list.get(2), Edge::new(2, 3));
        assert_eq!(list.to_graph().canonical_edges(), g.canonical_edges());
    }

    #[test]
    fn set_rewires_slot() {
        let g = sample_graph();
        let list = AtomicEdgeList::from_graph(&g);
        list.set(0, Edge::new(0, 4));
        assert_eq!(list.get(0), Edge::new(0, 4));
        assert_eq!(list.get(1), Edge::new(1, 2));
    }

    #[test]
    fn concurrent_disjoint_writes() {
        // Simulate a superstep: every slot is rewired by a different task.
        let n = 10_000usize;
        let edges: Vec<Edge> = (0..n).map(|i| Edge::new(i as u32, (i + 1) as u32)).collect();
        let g = EdgeListGraph::from_edges_unchecked(n + 1, edges);
        let list = AtomicEdgeList::from_graph(&g);
        (0..n).into_par_iter().for_each(|i| {
            let e = list.get(i);
            list.set(i, Edge::new(e.u(), e.v())); // identity rewire
            list.set(i, Edge::new(0, (i + 1) as u32));
        });
        for i in 0..n {
            assert_eq!(list.get(i), Edge::new(0, (i + 1) as u32));
        }
    }

    #[test]
    fn prefetch_has_no_semantic_effect() {
        let list = AtomicEdgeList::from_graph(&sample_graph());
        for i in 0..6 {
            list.prefetch(i); // 4 and 5 are out of range: ignored
        }
        assert_eq!(list.to_graph().canonical_edges(), sample_graph().canonical_edges());
    }

    #[test]
    fn empty_list() {
        let g = EdgeListGraph::new(3, vec![]).unwrap();
        let list = AtomicEdgeList::from_graph(&g);
        assert!(list.is_empty());
        assert_eq!(list.to_graph().num_edges(), 0);
    }
}
