//! `SeqGlobalES` — the sequential implementation of G-ES-MC (Def. 3).
//!
//! One step of the chain (a *global switch*) draws a uniformly random
//! permutation `π` of the edge indices and a number of trials
//! `ℓ ~ Binom(⌊m/2⌋, 1 − P_L)`, then executes the edge switches
//! `σ_k = (π(2k−1), π(2k), g_k)` with `g_k = 1_{π(2k−1) < π(2k)}` strictly in
//! sequence.  Because `π` is a uniform permutation the direction bits are
//! unbiased and independent, and every edge participates in at most one
//! switch, which is exactly what removes the source dependencies exploited by
//! the parallel algorithm.
//!
//! The chain holds the same edge array and [`ConcurrentEdgeSet`] as
//! [`ParGlobalES`](crate::ParGlobalES) and hands each global switch to the
//! in-order kernel [`sequential_superstep`] that `ParGlobalES` runs at one
//! thread.  The two chains draw `π` differently, so they agree byte for byte
//! only when they replay the same `(π, ℓ)`.  The edge set keeps node ids
//! below 2^28.

use crate::chain::{EdgeSwitching, SwitchingConfig};
use crate::snapshot::{ChainSnapshot, SnapshotError};
use crate::stats::SuperstepStats;
use crate::superstep::sequential_superstep;
use crate::switch::SwitchRequest;
use gesmc_concurrent::{AtomicEdgeList, ConcurrentEdgeSet};
use gesmc_graph::EdgeListGraph;
use gesmc_randx::permutation::random_permutation;
use gesmc_randx::{rng_from_seed, sample_binomial, Rng, RngState};
use std::time::Instant;

/// Sequential G-ES-MC chain.
pub struct SeqGlobalES {
    edges: AtomicEdgeList,
    set: ConcurrentEdgeSet,
    rng: Rng,
    supersteps_done: u64,
    config: SwitchingConfig,
}

impl SeqGlobalES {
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

    /// Build the switch sequence of one global switch from a permutation and
    /// the number of executed switches `ℓ`.
    ///
    /// Exposed so that the exactness tests can replay the very same global
    /// switch on the parallel implementation.
    pub fn switches_from_permutation(perm: &[u64], ell: usize) -> Vec<SwitchRequest> {
        (0..ell)
            .map(|k| {
                let a = perm[2 * k] as usize;
                let b = perm[2 * k + 1] as usize;
                SwitchRequest::new(a, b, a < b)
            })
            .collect()
    }

    /// Apply one explicit switch (Def. 1 legality rules); returns whether it
    /// was legal.
    pub fn apply(&mut self, request: SwitchRequest) -> bool {
        sequential_superstep(&self.edges, &mut self.set, &[request], false).legal == 1
    }

    /// Execute one global switch; returns `(requested, legal)`.
    pub fn global_switch(&mut self) -> (usize, usize) {
        let m = self.edges.len();
        if m < 2 {
            return (0, 0);
        }
        let perm = random_permutation(&mut self.rng, m);
        let ell = sample_binomial(&mut self.rng, (m / 2) as u64, 1.0 - self.config.loop_probability)
            as usize;
        let switches = Self::switches_from_permutation(&perm, ell);
        let legal = sequential_superstep(&self.edges, &mut self.set, &switches, false).legal;
        (switches.len(), legal)
    }
}

impl EdgeSwitching for SeqGlobalES {
    fn name(&self) -> &'static str {
        "SeqGlobalES"
    }

    fn num_edges(&self) -> usize {
        self.edges.len()
    }

    fn graph(&self) -> EdgeListGraph {
        self.edges.to_graph()
    }

    fn superstep(&mut self) -> SuperstepStats {
        let start = Instant::now();
        let (requested, legal) = self.global_switch();
        self.supersteps_done += 1;
        SuperstepStats {
            requested,
            legal,
            illegal: requested - legal,
            rounds: 1,
            round_durations: vec![start.elapsed()],
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
        gnp(&mut rng, 120, 0.07)
    }

    #[test]
    fn preserves_degrees_and_simplicity() {
        let graph = test_graph(1);
        let degrees = graph.degrees();
        let mut chain = SeqGlobalES::new(graph, SwitchingConfig::with_seed(2));
        chain.run_supersteps(5);
        let result = chain.graph();
        assert_eq!(result.degrees(), degrees);
        assert!(result.validate().is_ok());
    }

    #[test]
    fn each_edge_index_used_at_most_once_per_global_switch() {
        let perm: Vec<u64> = vec![4, 1, 0, 3, 2, 5];
        let switches = SeqGlobalES::switches_from_permutation(&perm, 3);
        let mut seen = std::collections::HashSet::new();
        for s in &switches {
            assert!(seen.insert(s.i));
            assert!(seen.insert(s.j));
        }
        // Direction bits follow g_k = 1 iff first index < second index.
        assert_eq!(switches[0], SwitchRequest::new(4, 1, false));
        assert_eq!(switches[1], SwitchRequest::new(0, 3, true));
        assert_eq!(switches[2], SwitchRequest::new(2, 5, true));
    }

    #[test]
    fn loop_probability_one_half_reduces_executed_switches() {
        let graph = test_graph(3);
        let m = graph.num_edges();
        let mut chain =
            SeqGlobalES::new(graph, SwitchingConfig::with_seed(4).loop_probability(0.5));
        let stats = chain.run_supersteps(20);
        let mean_requested = stats.total_requested() as f64 / 20.0;
        // E[ℓ] = (m/2) * 0.5.
        let expected = (m / 2) as f64 * 0.5;
        assert!(
            (mean_requested - expected).abs() < 0.25 * expected,
            "mean {mean_requested} vs expected {expected}"
        );
    }

    #[test]
    fn randomises_the_graph() {
        let graph = test_graph(5);
        let before = graph.canonical_edges();
        let mut chain = SeqGlobalES::new(graph, SwitchingConfig::with_seed(6));
        chain.run_supersteps(3);
        assert_ne!(chain.graph().canonical_edges(), before);
    }

    #[test]
    fn tiny_graphs_do_not_panic() {
        let graph = EdgeListGraph::new(2, vec![Edge::new(0, 1)]).unwrap();
        let mut chain = SeqGlobalES::new(graph, SwitchingConfig::with_seed(7));
        let stats = chain.superstep();
        assert_eq!(stats.requested, 0);
    }
}
