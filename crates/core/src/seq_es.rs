//! `SeqES` — the fast sequential implementation of ES-MC (Def. 1, Sec. 5).
//!
//! The graph is kept twice: as an indexed edge array (to pick switch sources
//! uniformly at random) and as a hash set of packed edges (to answer the
//! existence queries of the legality test and to apply rewirings).  This is
//! exactly the design of the paper's `SeqES`: sampling from an auxiliary edge
//! array combined with a low-load-factor hash set was measured there to beat
//! sampling from the hash set directly.
//!
//! The chain holds the same edge array and [`ConcurrentEdgeSet`] as
//! [`ParES`](crate::ParES), draws its switches from the same stream, and
//! applies them with the in-order kernel [`sequential_superstep`] that
//! `ParES` runs at one thread, so the two chains agree byte for byte at
//! every seed.  It draws the switches of a superstep in chunks of 1024, so
//! its request buffer stays in cache and adds no memory per edge.  When
//! [`SwitchingConfig::prefetch`] is enabled, the kernel prefetches the
//! hash-set buckets of the next few switches before it decides them
//! (Sec. 5.4).  The edge set keeps node ids below 2^28; `seq-es-ext` samples
//! the same chain on larger graphs.

use crate::chain::{EdgeSwitching, SwitchingConfig};
use crate::snapshot::{ChainSnapshot, SnapshotError};
use crate::stats::SuperstepStats;
use crate::superstep::sequential_superstep;
use crate::switch::SwitchRequest;
use gesmc_concurrent::{AtomicEdgeList, ConcurrentEdgeSet};
use gesmc_graph::EdgeListGraph;
use gesmc_randx::bounded::UniformIndex;
use gesmc_randx::{rng_from_seed, Rng, RngState};
use std::time::Instant;

/// Switches drawn at a time before the kernel applies them: a multiple of
/// its prefetch window, and 24 KiB of requests.
const REQUEST_CHUNK: usize = 1024;

/// Sequential ES-MC chain.
pub struct SeqES {
    edges: AtomicEdgeList,
    set: ConcurrentEdgeSet,
    rng: Rng,
    supersteps_done: u64,
    config: SwitchingConfig,
}

impl SeqES {
    /// Create a chain randomising `graph`.
    ///
    /// # Panics
    /// If `graph` has more nodes than [`ConcurrentEdgeSet::MAX_NODES`].
    pub fn new(graph: EdgeListGraph, config: SwitchingConfig) -> Self {
        Self {
            set: ConcurrentEdgeSet::for_graph(&graph),
            edges: AtomicEdgeList::from_graph(&graph),
            rng: rng_from_seed(config.seed),
            supersteps_done: 0,
            config,
        }
    }

    /// Apply one explicit switch request (Def. 1); returns whether it was
    /// legal.
    pub fn apply(&mut self, request: SwitchRequest) -> bool {
        sequential_superstep(&self.edges, &mut self.set, &[request], false).legal == 1
    }

    /// Perform `count` uniformly random switches; returns the number applied.
    pub fn run_switches(&mut self, count: usize) -> usize {
        let m = self.edges.len();
        if m < 2 {
            return 0;
        }
        let sampler = UniformIndex::new(m as u64);
        let mut chunk = Vec::with_capacity(count.min(REQUEST_CHUNK));
        let mut applied = 0;
        for first in (0..count).step_by(REQUEST_CHUNK) {
            chunk.clear();
            let len = REQUEST_CHUNK.min(count - first);
            chunk.extend((0..len).map(|_| SwitchRequest::sample(&sampler, &mut self.rng)));
            applied +=
                sequential_superstep(&self.edges, &mut self.set, &chunk, self.config.prefetch)
                    .legal;
        }
        applied
    }
}

impl EdgeSwitching for SeqES {
    fn name(&self) -> &'static str {
        "SeqES"
    }

    fn num_edges(&self) -> usize {
        self.edges.len()
    }

    fn graph(&self) -> EdgeListGraph {
        self.edges.to_graph()
    }

    fn superstep(&mut self) -> SuperstepStats {
        let start = Instant::now();
        let requested = self.edges.len() / 2;
        let legal = self.run_switches(requested);
        self.supersteps_done += 1;
        SuperstepStats {
            requested,
            legal,
            illegal: requested - legal,
            rounds: 1,
            round_durations: vec![start.elapsed()],
            duration: start.elapsed(),
        }
    }

    fn snapshot(&self) -> Option<ChainSnapshot> {
        Some(ChainSnapshot {
            algorithm: self.name().to_string(),
            num_nodes: self.edges.num_nodes(),
            edges: self.edges.snapshot_edges(),
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
        let graph = snapshot.graph()?;
        self.set = ConcurrentEdgeSet::for_graph(&graph);
        self.edges = AtomicEdgeList::from_graph(&graph);
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
    use gesmc_graph::Edge;

    fn test_graph(seed: u64) -> EdgeListGraph {
        let mut rng = rng_from_seed(seed);
        gnp(&mut rng, 100, 0.08)
    }

    #[test]
    fn preserves_degrees_and_simplicity() {
        let graph = test_graph(1);
        let degrees = graph.degrees();
        let mut chain = SeqES::new(graph, SwitchingConfig::with_seed(2));
        chain.run_supersteps(5);
        let result = chain.graph();
        assert_eq!(result.degrees(), degrees);
        assert!(result.validate().is_ok());
    }

    #[test]
    fn actually_changes_the_graph() {
        let graph = test_graph(3);
        let before = graph.canonical_edges();
        let mut chain = SeqES::new(graph, SwitchingConfig::with_seed(4));
        chain.run_supersteps(3);
        assert_ne!(chain.graph().canonical_edges(), before);
    }

    #[test]
    fn prefetch_and_plain_variants_agree() {
        // With the same seed, pipelined and non-pipelined execution must visit
        // the same chain states (the pipeline only reorders memory accesses).
        let graph = test_graph(5);
        let mut with_pf = SeqES::new(graph.clone(), SwitchingConfig::with_seed(6).prefetch(true));
        let mut without_pf = SeqES::new(graph, SwitchingConfig::with_seed(6).prefetch(false));
        with_pf.run_switches(500);
        without_pf.run_switches(500);
        assert_eq!(with_pf.graph().canonical_edges(), without_pf.graph().canonical_edges());
    }

    #[test]
    fn rejects_switches_that_would_create_loops_or_duplicates() {
        // Triangle: every switch is rejected, graph must stay identical.
        let graph =
            EdgeListGraph::new(3, vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)]).unwrap();
        let before = graph.canonical_edges();
        let mut chain = SeqES::new(graph, SwitchingConfig::with_seed(7));
        let stats = chain.run_supersteps(10);
        assert_eq!(stats.total_legal(), 0);
        assert_eq!(chain.graph().canonical_edges(), before);
    }

    #[test]
    fn explicit_request_application() {
        // Two disjoint edges can always be switched.
        let graph = EdgeListGraph::new(4, vec![Edge::new(0, 1), Edge::new(2, 3)]).unwrap();
        let mut chain = SeqES::new(graph, SwitchingConfig::with_seed(8));
        assert!(chain.apply(SwitchRequest::new(0, 1, false)));
        let result = chain.graph();
        assert!(result.has_edge_slow(0, 2));
        assert!(result.has_edge_slow(1, 3));
        // Re-applying the same request now produces the original edges again.
        assert!(chain.apply(SwitchRequest::new(0, 1, false)));
        assert!(chain.graph().has_edge_slow(0, 1));
    }

    #[test]
    fn tiny_graphs_do_not_panic() {
        for edges in [vec![], vec![Edge::new(0, 1)]] {
            let graph = EdgeListGraph::new(2, edges).unwrap();
            let mut chain = SeqES::new(graph, SwitchingConfig::with_seed(9));
            let stats = chain.superstep();
            assert_eq!(stats.legal, 0);
        }
    }
}
