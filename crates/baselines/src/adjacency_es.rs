//! Adjacency-list based sequential ES-MC baselines.
//!
//! These deliberately reproduce the data-structure trade-off of the existing
//! implementations the paper benchmarks against (Fig. 4): the chain logic is
//! identical to `SeqES`, but edge existence queries and rewirings go through
//! adjacency structures instead of a hash set, which costs `O(deg)` (unsorted
//! scan) or `O(log deg)` plus `O(deg)` shifting (sorted vectors) per
//! operation.  On graphs with high-degree nodes this is the dominating cost,
//! which is exactly the effect the runtime table demonstrates.

use gesmc_core::{
    switch_targets, ChainSnapshot, EdgeSwitching, SnapshotError, SuperstepStats, SwitchRequest,
    SwitchingConfig,
};
use gesmc_graph::{Edge, EdgeListGraph, Node};
use gesmc_randx::bounded::UniformIndex;
use gesmc_randx::{rng_from_seed, Rng, RngState};
use std::time::Instant;

/// NetworKit-style ES-MC baseline: unsorted adjacency lists with linear-scan
/// existence queries.
pub type AdjacencyListES = AdjacencyES<false>;

/// Gengraph-style ES-MC baseline: sorted adjacency vectors with binary-search
/// existence queries and ordered insertion/removal.
pub type SortedAdjacencyES = AdjacencyES<true>;

/// ES-MC on an edge array plus adjacency structures: the two baselines differ
/// only in whether the neighbourhood vectors are kept sorted (`SORTED`).
pub struct AdjacencyES<const SORTED: bool> {
    num_nodes: usize,
    edges: Vec<Edge>,
    neighbors: Vec<Vec<Node>>,
    rng: Rng,
    supersteps_done: u64,
    config: SwitchingConfig,
}

impl<const SORTED: bool> AdjacencyES<SORTED> {
    /// Create a baseline chain randomising `graph`.
    pub fn new(graph: EdgeListGraph, config: SwitchingConfig) -> Self {
        let num_nodes = graph.num_nodes();
        let edges = graph.into_edges();
        Self {
            num_nodes,
            neighbors: Self::adjacency(num_nodes, &edges),
            edges,
            rng: rng_from_seed(config.seed),
            supersteps_done: 0,
            config,
        }
    }

    fn adjacency(num_nodes: usize, edges: &[Edge]) -> Vec<Vec<Node>> {
        let mut neighbors: Vec<Vec<Node>> = vec![Vec::new(); num_nodes];
        for e in edges {
            neighbors[e.u() as usize].push(e.v());
            neighbors[e.v() as usize].push(e.u());
        }
        if SORTED {
            for list in &mut neighbors {
                list.sort_unstable();
            }
        }
        neighbors
    }

    fn has_edge(&self, u: Node, v: Node) -> bool {
        let (a, b) = if self.neighbors[u as usize].len() <= self.neighbors[v as usize].len() {
            (u, v)
        } else {
            (v, u)
        };
        let list = &self.neighbors[a as usize];
        if SORTED {
            list.binary_search(&b).is_ok()
        } else {
            list.contains(&b)
        }
    }

    fn remove_half_edge(&mut self, from: Node, to: Node) {
        let list = &mut self.neighbors[from as usize];
        if SORTED {
            if let Ok(pos) = list.binary_search(&to) {
                list.remove(pos);
            }
        } else if let Some(pos) = list.iter().position(|&x| x == to) {
            list.swap_remove(pos);
        }
    }

    fn insert_half_edge(&mut self, from: Node, to: Node) {
        let list = &mut self.neighbors[from as usize];
        if SORTED {
            let pos = list.partition_point(|&x| x < to);
            list.insert(pos, to);
        } else {
            list.push(to);
        }
    }

    /// Apply one explicit switch request (testing hook); returns whether it
    /// was legal.
    pub fn apply(&mut self, request: SwitchRequest) -> bool {
        let e1 = self.edges[request.i];
        let e2 = self.edges[request.j];
        let (e3, e4) = switch_targets(e1, e2, request.g);
        if e3.is_loop() || e4.is_loop() {
            return false;
        }
        if self.has_edge(e3.u(), e3.v()) || self.has_edge(e4.u(), e4.v()) {
            return false;
        }
        for e in [e1, e2] {
            self.remove_half_edge(e.u(), e.v());
            self.remove_half_edge(e.v(), e.u());
        }
        for e in [e3, e4] {
            self.insert_half_edge(e.u(), e.v());
            self.insert_half_edge(e.v(), e.u());
        }
        self.edges[request.i] = e3;
        self.edges[request.j] = e4;
        true
    }

    fn run_switches(&mut self, count: usize) -> usize {
        let m = self.edges.len();
        if m < 2 {
            return 0;
        }
        let sampler = UniformIndex::new(m as u64);
        let mut applied = 0usize;
        for _ in 0..count {
            let request = SwitchRequest::sample(&sampler, &mut self.rng);
            applied += self.apply(request) as usize;
        }
        applied
    }
}

impl<const SORTED: bool> EdgeSwitching for AdjacencyES<SORTED> {
    fn name(&self) -> &'static str {
        if SORTED {
            "SortedAdjacencyES"
        } else {
            "AdjacencyListES"
        }
    }

    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn num_edges(&self) -> usize {
        self.edges.len()
    }

    fn graph(&self) -> EdgeListGraph {
        EdgeListGraph::from_edges_unchecked(self.num_nodes, self.edges.clone())
    }

    fn for_each_edge(&self, visit: &mut dyn FnMut(Edge)) {
        self.edges.iter().for_each(|&edge| visit(edge));
    }

    fn superstep(&mut self) -> SuperstepStats {
        let start = Instant::now();
        let requested = self.edges.len() / 2;
        let legal = self.run_switches(requested);
        self.supersteps_done += 1;
        SuperstepStats::one_round(requested, legal, start.elapsed())
    }

    /// The trajectory depends on the edge array (switch requests index into
    /// it) and the PRNG stream; the adjacency vectors are an index over the
    /// edge array whose *internal order* never influences a decision
    /// (membership scans and binary searches only), so a resume rebuilds
    /// them from the captured edges.
    fn snapshot(&self) -> Option<ChainSnapshot> {
        let rng = RngState::capture(&self.rng);
        Some(ChainSnapshot::new(self, rng, 0, self.supersteps_done, self.config))
    }

    fn restore(&mut self, snapshot: &ChainSnapshot) -> Result<(), SnapshotError> {
        snapshot.check(self)?;
        self.rng = snapshot.rng.restore();
        self.supersteps_done = snapshot.supersteps_done;
        self.config = snapshot.config();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesmc_core::SeqES;
    use gesmc_graph::gen::gnp;

    fn test_graph(seed: u64) -> EdgeListGraph {
        let mut rng = rng_from_seed(seed);
        gnp(&mut rng, 100, 0.08)
    }

    #[test]
    fn both_baselines_preserve_degrees_and_simplicity() {
        for sorted in [false, true] {
            let graph = test_graph(1);
            let degrees = graph.degrees();
            let mut chain: Box<dyn EdgeSwitching> = if sorted {
                Box::new(SortedAdjacencyES::new(graph, SwitchingConfig::with_seed(2)))
            } else {
                Box::new(AdjacencyListES::new(graph, SwitchingConfig::with_seed(2)))
            };
            chain.run_supersteps(5);
            let result = chain.graph();
            assert_eq!(result.degrees(), degrees, "sorted = {sorted}");
            assert!(result.validate().is_ok());
        }
    }

    #[test]
    fn matches_hash_set_implementation_on_identical_requests() {
        // The adjacency-list baseline and SeqES implement the same Markov
        // chain; with identical explicit requests they must produce identical
        // graphs.
        let graph = test_graph(3);
        let m = graph.num_edges();
        let mut reference = SeqES::new(graph.clone(), SwitchingConfig::with_seed(0));
        let mut baseline = AdjacencyListES::new(graph, SwitchingConfig::with_seed(0));
        let mut rng = rng_from_seed(44);
        for _ in 0..5 * m {
            let i = rand::Rng::gen_range(&mut rng, 0..m);
            let mut j = rand::Rng::gen_range(&mut rng, 0..m);
            while j == i {
                j = rand::Rng::gen_range(&mut rng, 0..m);
            }
            let g: bool = rand::Rng::gen(&mut rng);
            let request = SwitchRequest::new(i, j, g);
            assert_eq!(reference.apply(request), baseline.apply(request));
        }
        assert_eq!(reference.graph().canonical_edges(), baseline.graph().canonical_edges());
    }

    #[test]
    fn randomises_the_graph() {
        let graph = test_graph(5);
        let before = graph.canonical_edges();
        let mut chain = SortedAdjacencyES::new(graph, SwitchingConfig::with_seed(6));
        let stats = chain.run_supersteps(3);
        assert!(stats.total_legal() > 0);
        assert_ne!(chain.graph().canonical_edges(), before);
    }

    #[test]
    fn tiny_graphs_do_not_panic() {
        let graph = EdgeListGraph::new(2, vec![Edge::new(0, 1)]).unwrap();
        let mut chain = AdjacencyListES::new(graph, SwitchingConfig::with_seed(7));
        assert_eq!(chain.superstep().legal, 0);
    }

    #[test]
    fn resume_is_bit_identical_for_both_variants() {
        fn check(make: impl Fn(EdgeListGraph) -> Box<dyn EdgeSwitching>) {
            let graph = test_graph(11);
            let mut uninterrupted = make(graph.clone());
            uninterrupted.run_supersteps(7);

            let mut interrupted = make(graph);
            interrupted.run_supersteps(3);
            let snap = interrupted.snapshot().unwrap();
            assert_eq!(snap.supersteps_done, 3);

            let mut resumed = make(interrupted.graph());
            resumed.restore(&snap).unwrap();
            resumed.run_supersteps(4);
            assert_eq!(resumed.graph().canonical_edges(), uninterrupted.graph().canonical_edges());
        }
        check(|g| Box::new(AdjacencyListES::new(g, SwitchingConfig::with_seed(13))));
        check(|g| Box::new(SortedAdjacencyES::new(g, SwitchingConfig::with_seed(13))));
    }

    #[test]
    fn restore_rejects_the_sibling_variant() {
        // The two variants answer to distinct algorithm names; a snapshot of
        // one must not restore into the other.
        let sorted = SortedAdjacencyES::new(test_graph(1), SwitchingConfig::with_seed(1));
        let snap = sorted.snapshot().unwrap();
        let mut unsorted = AdjacencyListES::new(test_graph(1), SwitchingConfig::with_seed(1));
        assert!(matches!(
            unsorted.restore(&snap),
            Err(gesmc_core::SnapshotError::AlgorithmMismatch { .. })
        ));
    }
}
