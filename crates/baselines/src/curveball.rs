//! Global Curveball trades (related work of the paper, refs. \[42\]/\[46\]).
//!
//! One *global trade* partitions the nodes into random pairs; for each pair
//! `(a, b)` the neighbours exclusive to `a` and exclusive to `b` (excluding
//! `a`/`b` themselves) are pooled and redistributed uniformly at random while
//! keeping each node's degree.  Global Curveball preserves degrees and
//! simplicity just like edge switching but mixes entire neighbourhoods per
//! step; the paper discusses it as the main alternative randomisation scheme
//! (its mixing time relative to ES-MC on undirected graphs is an open
//! question, which is why it is included here as a baseline rather than a
//! contribution).

use gesmc_core::{ChainSnapshot, EdgeSwitching, SnapshotError, SuperstepStats, SwitchingConfig};
use gesmc_graph::{Edge, EdgeListGraph, Node};
use gesmc_randx::permutation::{random_permutation, shuffle_in_place};
use gesmc_randx::{rng_from_seed, Rng, RngState};
use std::collections::HashSet;
use std::time::Instant;

/// Sequential Global Curveball chain.
pub struct GlobalCurveball {
    num_nodes: usize,
    /// Sorted adjacency sets (HashSet per node keeps trade updates simple).
    neighbors: Vec<HashSet<Node>>,
    rng: Rng,
    supersteps_done: u64,
    config: SwitchingConfig,
}

impl GlobalCurveball {
    /// Create a chain randomising `graph`.
    pub fn new(graph: EdgeListGraph, config: SwitchingConfig) -> Self {
        let num_nodes = graph.num_nodes();
        Self {
            num_nodes,
            neighbors: Self::adjacency(num_nodes, graph.edges()),
            rng: rng_from_seed(config.seed),
            supersteps_done: 0,
            config,
        }
    }

    fn adjacency(num_nodes: usize, edges: &[Edge]) -> Vec<HashSet<Node>> {
        let mut neighbors: Vec<HashSet<Node>> = vec![HashSet::new(); num_nodes];
        for e in edges {
            neighbors[e.u() as usize].insert(e.v());
            neighbors[e.v() as usize].insert(e.u());
        }
        neighbors
    }

    /// Perform a single trade between nodes `a` and `b`.
    fn trade(&mut self, a: Node, b: Node) {
        if a == b {
            return;
        }
        let a_idx = a as usize;
        let b_idx = b as usize;
        let adjacent = self.neighbors[a_idx].contains(&b);

        // Disjoint neighbours (excluding each other).  The hash-set iteration
        // order is instance-specific, so sort both lists to keep the chain
        // reproducible for a fixed seed.
        let mut only_a: Vec<Node> = self.neighbors[a_idx]
            .iter()
            .copied()
            .filter(|&x| x != b && !self.neighbors[b_idx].contains(&x))
            .collect();
        let mut only_b: Vec<Node> = self.neighbors[b_idx]
            .iter()
            .copied()
            .filter(|&x| x != a && !self.neighbors[a_idx].contains(&x))
            .collect();
        only_a.sort_unstable();
        only_b.sort_unstable();
        if only_a.is_empty() && only_b.is_empty() {
            return;
        }

        // Pool and redistribute, keeping the per-node counts.
        let keep_a = only_a.len();
        let mut pool: Vec<Node> = only_a.iter().chain(only_b.iter()).copied().collect();
        shuffle_in_place(&mut self.rng, &mut pool);
        let (new_a, new_b) = pool.split_at(keep_a);

        // Remove the old exclusive neighbours.
        for &x in &only_a {
            self.neighbors[a_idx].remove(&x);
            self.neighbors[x as usize].remove(&a);
        }
        for &x in &only_b {
            self.neighbors[b_idx].remove(&x);
            self.neighbors[x as usize].remove(&b);
        }
        // Insert the redistributed ones.
        for &x in new_a {
            self.neighbors[a_idx].insert(x);
            self.neighbors[x as usize].insert(a);
        }
        for &x in new_b {
            self.neighbors[b_idx].insert(x);
            self.neighbors[x as usize].insert(b);
        }
        debug_assert_eq!(adjacent, self.neighbors[a_idx].contains(&b));
    }

    /// Perform one global trade: a random perfect matching of the nodes, one
    /// trade per pair.
    pub fn global_trade(&mut self) {
        let n = self.num_nodes;
        if n < 2 {
            return;
        }
        let perm = random_permutation(&mut self.rng, n);
        for pair in perm.chunks_exact(2) {
            self.trade(pair[0] as Node, pair[1] as Node);
        }
    }

    /// Total number of edges (recomputed from the adjacency sets).
    fn edge_count(&self) -> usize {
        self.neighbors.iter().map(|s| s.len()).sum::<usize>() / 2
    }

    /// The edge set in canonical order (by `u`, then `v`): a function of the
    /// adjacency sets alone, never of the instance-specific hash-set
    /// iteration order.
    fn sorted_edges(&self) -> Vec<Edge> {
        let mut edges = Vec::with_capacity(self.edge_count());
        for (u, nbrs) in self.neighbors.iter().enumerate() {
            let u = u as Node;
            let mut out: Vec<Node> = nbrs.iter().copied().filter(|&v| u < v).collect();
            out.sort_unstable();
            edges.extend(out.into_iter().map(|v| Edge::new(u, v)));
        }
        edges
    }
}

impl EdgeSwitching for GlobalCurveball {
    fn name(&self) -> &'static str {
        "GlobalCurveball"
    }

    fn num_edges(&self) -> usize {
        self.edge_count()
    }

    fn graph(&self) -> EdgeListGraph {
        EdgeListGraph::from_edges_unchecked(self.num_nodes, self.sorted_edges())
    }

    fn superstep(&mut self) -> SuperstepStats {
        let start = Instant::now();
        let requested = self.num_nodes / 2;
        self.global_trade();
        self.supersteps_done += 1;
        SuperstepStats {
            requested,
            legal: requested,
            illegal: 0,
            rounds: 1,
            round_durations: vec![start.elapsed()],
            duration: start.elapsed(),
        }
    }

    /// The chain's trajectory is a function of the adjacency *sets* and the
    /// PRNG stream alone (each trade sorts the exclusive-neighbour lists
    /// before shuffling), so the snapshot stores the canonical edge set — the
    /// instance-specific hash-set iteration order need not be captured.
    fn snapshot(&self) -> Option<ChainSnapshot> {
        Some(ChainSnapshot {
            algorithm: self.name().to_string(),
            num_nodes: self.num_nodes,
            edges: self.sorted_edges(),
            rng: RngState::capture(&self.rng),
            aux_seed_state: 0,
            supersteps_done: self.supersteps_done,
            seed: self.config.seed,
            loop_probability: self.config.loop_probability,
            prefetch: self.config.prefetch,
        })
    }

    fn restore(&mut self, snapshot: &ChainSnapshot) -> Result<(), SnapshotError> {
        snapshot.check_algorithm(self.name())?;
        snapshot.validate()?;
        self.num_nodes = snapshot.num_nodes;
        self.neighbors = Self::adjacency(snapshot.num_nodes, &snapshot.edges);
        self.rng = snapshot.rng.restore();
        self.supersteps_done = snapshot.supersteps_done;
        self.config = snapshot.config();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesmc_graph::gen::gnp;

    fn test_graph(seed: u64) -> EdgeListGraph {
        let mut rng = rng_from_seed(seed);
        gnp(&mut rng, 120, 0.07)
    }

    #[test]
    fn preserves_degrees_and_simplicity() {
        let graph = test_graph(1);
        let degrees = graph.degrees();
        let mut chain = GlobalCurveball::new(graph, SwitchingConfig::with_seed(2));
        chain.run_supersteps(10);
        let result = chain.graph();
        assert_eq!(result.degrees(), degrees);
        assert!(result.validate().is_ok());
    }

    #[test]
    fn randomises_the_graph() {
        let graph = test_graph(3);
        let before = graph.canonical_edges();
        let mut chain = GlobalCurveball::new(graph, SwitchingConfig::with_seed(4));
        chain.run_supersteps(5);
        assert_ne!(chain.graph().canonical_edges(), before);
    }

    #[test]
    fn single_trade_preserves_adjacency_between_partners() {
        // Star centre trades with a leaf: the edge between them must survive.
        let graph = EdgeListGraph::new(
            5,
            vec![Edge::new(0, 1), Edge::new(0, 2), Edge::new(0, 3), Edge::new(0, 4)],
        )
        .unwrap();
        let degrees = graph.degrees();
        let mut chain = GlobalCurveball::new(graph, SwitchingConfig::with_seed(5));
        chain.trade(0, 1);
        let result = chain.graph();
        assert_eq!(result.degrees(), degrees);
        assert!(result.has_edge_slow(0, 1));
    }

    #[test]
    fn tiny_graphs_do_not_panic() {
        let graph = EdgeListGraph::new(1, vec![]).unwrap();
        let mut chain = GlobalCurveball::new(graph, SwitchingConfig::with_seed(6));
        chain.superstep();
        assert_eq!(chain.graph().num_edges(), 0);
    }

    #[test]
    fn resume_is_bit_identical() {
        let graph = test_graph(8);
        let mut uninterrupted = GlobalCurveball::new(graph.clone(), SwitchingConfig::with_seed(9));
        uninterrupted.run_supersteps(7);

        let mut interrupted = GlobalCurveball::new(graph, SwitchingConfig::with_seed(9));
        interrupted.run_supersteps(3);
        let snap = interrupted.snapshot().unwrap();
        assert_eq!(snap.supersteps_done, 3);

        // Restore into a chain built from an unrelated placeholder graph, as
        // the engine's resume path does.
        let mut resumed = GlobalCurveball::new(test_graph(99), SwitchingConfig::with_seed(1));
        resumed.restore(&snap).unwrap();
        resumed.run_supersteps(4);
        assert_eq!(resumed.graph().canonical_edges(), uninterrupted.graph().canonical_edges());
    }

    #[test]
    fn equal_seeds_give_identical_edge_lists() {
        // Each chain has its own randomly keyed hash sets, so only an
        // ordering independent of them makes the sample bytes repeat.
        let run = || {
            let mut chain = GlobalCurveball::new(test_graph(4), SwitchingConfig::with_seed(4));
            chain.run_supersteps(5);
            chain.graph().edges().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn snapshot_is_deterministic_and_restore_rejects_foreign_algorithms() {
        let chain = GlobalCurveball::new(test_graph(2), SwitchingConfig::with_seed(3));
        // The hash-set iteration order must not leak into the snapshot bytes.
        assert_eq!(chain.snapshot(), chain.snapshot());

        let mut other = GlobalCurveball::new(test_graph(2), SwitchingConfig::with_seed(3));
        let mut foreign = chain.snapshot().unwrap();
        foreign.algorithm = "SeqES".to_string();
        assert!(matches!(
            other.restore(&foreign),
            Err(gesmc_core::SnapshotError::AlgorithmMismatch { .. })
        ));
    }
}
