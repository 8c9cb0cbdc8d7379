//! `ParGlobalES` (Algorithm 3): the exact shared-memory parallel G-ES-MC.
//!
//! Because a global switch contains no source dependencies by construction —
//! every edge index occurs at most once in the permutation prefix — the whole
//! algorithm is a loop that draws a random global switch and hands it to
//! [`parallel_superstep`](crate::superstep::parallel_superstep), together with
//! the one [`DependencyTable`] the chain reuses for every superstep.  At one
//! rayon thread it runs the global switch in order with
//! [`sequential_superstep`](crate::superstep::sequential_superstep) instead,
//! writing its own edge set through exclusive access, whose erases leave no
//! tombstones, and prefetching as the chain's [`SwitchingConfig::prefetch`]
//! flag says (see [`crate::superstep`]).  The chain is *exact* on both
//! paths: given the same permutation and trial count, the resulting graph is
//! identical to executing the switches sequentially (this is asserted by the
//! integration tests against [`crate::SeqGlobalES`]).

use crate::chain::{EdgeSwitching, SwitchingConfig};
use crate::seq_global::SeqGlobalES;
use crate::snapshot::{ChainSnapshot, SnapshotError};
use crate::stats::SuperstepStats;
use crate::superstep::execute_superstep;
use gesmc_concurrent::{AtomicEdgeList, ConcurrentEdgeSet, DependencyTable};
use gesmc_graph::EdgeListGraph;
use gesmc_randx::permutation::parallel_permutation;
use gesmc_randx::{rng_from_seed, sample_binomial, Rng, RngState, SeedSequence};

/// Exact parallel G-ES-MC chain.
pub struct ParGlobalES {
    edges: AtomicEdgeList,
    edge_set: ConcurrentEdgeSet,
    table: DependencyTable,
    rng: Rng,
    seeds: SeedSequence,
    supersteps_done: u64,
    config: SwitchingConfig,
}

impl ParGlobalES {
    /// Create a chain randomising `graph`.
    ///
    /// The concurrent edge set is sized for the (constant) number of edges of
    /// the graph plus the tombstones of a few Algorithm 1 supersteps; it is
    /// rebuilt between supersteps when they have left too many.  In-order
    /// supersteps leave none.
    ///
    /// # Panics
    /// If `graph` has more nodes than [`ConcurrentEdgeSet::MAX_NODES`].
    pub fn new(graph: EdgeListGraph, config: SwitchingConfig) -> Self {
        let edge_set = ConcurrentEdgeSet::for_graph(&graph);
        let edges = AtomicEdgeList::from_graph(&graph);
        Self {
            edges,
            edge_set,
            table: DependencyTable::default(),
            rng: rng_from_seed(config.seed),
            seeds: SeedSequence::new(config.seed ^ 0x9E37_79B9_7F4A_7C15),
            supersteps_done: 0,
            config,
        }
    }

    /// Execute one global switch and report its statistics.
    pub fn global_switch(&mut self) -> SuperstepStats {
        let m = self.edges.len();
        if m < 2 {
            return SuperstepStats::default();
        }

        // Draw the global switch Γ = (π, ℓ).
        let perm_seed = self.seeds.child(self.supersteps_done);
        self.supersteps_done += 1;
        let perm = parallel_permutation(perm_seed, m);
        let ell = sample_binomial(&mut self.rng, (m / 2) as u64, 1.0 - self.config.loop_probability)
            as usize;
        let switches = SeqGlobalES::switches_from_permutation(&perm, ell);

        let prefetch = self.config.prefetch;
        let stats = execute_superstep(
            &mut self.table,
            &self.edges,
            &mut self.edge_set,
            &switches,
            prefetch,
        );

        if self.edge_set.needs_rebuild() {
            self.edge_set.rebuild();
        }
        stats
    }
}

impl EdgeSwitching for ParGlobalES {
    fn name(&self) -> &'static str {
        "ParGlobalES"
    }

    fn num_edges(&self) -> usize {
        self.edges.len()
    }

    fn graph(&self) -> EdgeListGraph {
        self.edges.to_graph()
    }

    fn superstep(&mut self) -> SuperstepStats {
        self.global_switch()
    }

    fn snapshot(&self) -> Option<ChainSnapshot> {
        Some(ChainSnapshot {
            algorithm: self.name().to_string(),
            num_nodes: self.edges.num_nodes(),
            edges: self.edges.snapshot_edges(),
            rng: RngState::capture(&self.rng),
            aux_seed_state: self.seeds.raw_state(),
            supersteps_done: self.supersteps_done,
            seed: self.config.seed,
            loop_probability: self.config.loop_probability,
            prefetch: self.config.prefetch,
        })
    }

    fn restore(&mut self, snapshot: &ChainSnapshot) -> Result<(), SnapshotError> {
        snapshot.check_algorithm(self.name())?;
        let graph = snapshot.graph()?;
        self.edge_set = ConcurrentEdgeSet::for_graph(&graph);
        self.edges = AtomicEdgeList::from_graph(&graph);
        self.rng = snapshot.rng.restore();
        self.seeds = SeedSequence::from_raw_state(snapshot.aux_seed_state);
        self.supersteps_done = snapshot.supersteps_done;
        self.config = snapshot.config();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesmc_graph::gen::{gnp, havel_hakimi, powerlaw_degree_sequence, PowerlawConfig};

    fn gnp_graph(seed: u64, n: usize, p: f64) -> EdgeListGraph {
        let mut rng = rng_from_seed(seed);
        gnp(&mut rng, n, p)
    }

    #[test]
    fn preserves_degrees_and_simplicity() {
        let graph = gnp_graph(1, 200, 0.05);
        let degrees = graph.degrees();
        let mut chain = ParGlobalES::new(graph, SwitchingConfig::with_seed(2));
        chain.run_supersteps(6);
        let result = chain.graph();
        assert_eq!(result.degrees(), degrees);
        assert!(result.validate().is_ok());
    }

    #[test]
    fn randomises_power_law_graphs() {
        let mut rng = rng_from_seed(3);
        let seq = powerlaw_degree_sequence(&mut rng, &PowerlawConfig::paper(256, 2.2));
        let graph = havel_hakimi(&seq).unwrap();
        let before = graph.canonical_edges();
        let mut chain = ParGlobalES::new(graph, SwitchingConfig::with_seed(4));
        let stats = chain.run_supersteps(8);
        let result = chain.graph();
        assert_eq!(result.degrees().sorted_desc(), seq.sorted_desc());
        assert!(result.validate().is_ok());
        assert_ne!(result.canonical_edges(), before);
        assert!(stats.total_legal() > 0);
        // Theorem 3 / Fig. 9: rounds stay in the single digits.
        assert!(stats.max_rounds() <= 12, "max rounds {}", stats.max_rounds());
    }

    #[test]
    fn repeated_supersteps_keep_edge_set_consistent() {
        // Run enough supersteps to force at least one rebuild of the edge set.
        // Only Algorithm 1 leaves tombstones, and it runs at two threads.
        let graph = gnp_graph(5, 150, 0.08);
        let m = graph.num_edges();
        let mut chain = ParGlobalES::new(graph, SwitchingConfig::with_seed(6));
        let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        pool.install(|| chain.run_supersteps(20));
        let result = chain.graph();
        assert_eq!(result.num_edges(), m);
        assert!(result.validate().is_ok());
        // The edge set must agree exactly with the edge array.
        let mut from_set: Vec<u64> = chain.edge_set.iter().map(|e| e.pack()).collect();
        from_set.sort_unstable();
        assert_eq!(from_set, result.canonical_edges());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let graph = gnp_graph(7, 120, 0.06);
        let mut a = ParGlobalES::new(graph.clone(), SwitchingConfig::with_seed(99));
        let mut b = ParGlobalES::new(graph, SwitchingConfig::with_seed(99));
        a.run_supersteps(4);
        b.run_supersteps(4);
        assert_eq!(a.graph().canonical_edges(), b.graph().canonical_edges());
    }

    #[test]
    fn tiny_graph_is_a_noop() {
        let graph = EdgeListGraph::new(2, vec![gesmc_graph::Edge::new(0, 1)]).unwrap();
        let mut chain = ParGlobalES::new(graph.clone(), SwitchingConfig::with_seed(8));
        let stats = chain.superstep();
        assert_eq!(stats.requested, 0);
        assert_eq!(chain.graph().canonical_edges(), graph.canonical_edges());
    }
}
