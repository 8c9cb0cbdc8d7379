//! `NaiveParES` (Sec. 5.1): the inexact lock-per-edge parallel baseline.
//!
//! Every processing unit performs switches independently; the only
//! synchronisation is that an edge must be *ticketed* before it is erased or
//! inserted — by locking an existing edge or by inserting-and-locking a new
//! one, both implemented with compare-and-swap on the concurrent edge set.
//! A switch that fails to acquire all four tickets rolls back and counts as
//! rejected.
//!
//! The algorithm performs every switch that is legal *after* this implicit
//! synchronisation but ignores the dependencies between switches, so — unlike
//! [`ParES`](crate::ParES) and [`ParGlobalES`](crate::ParGlobalES) — it does
//! **not** faithfully implement ES-MC: the distribution of the produced graphs
//! may deviate from the sequential chain.  It exists purely as the performance
//! baseline of the paper's Fig. 4/5 comparison.

use crate::chain::{EdgeSwitching, SwitchingConfig};
use crate::snapshot::{ChainSnapshot, SnapshotError};
use crate::stats::SuperstepStats;
use crate::switch::{switch_targets, SwitchRequest};
use gesmc_concurrent::{AtomicEdgeList, ConcurrentEdgeSet, LockOutcome};
use gesmc_graph::EdgeListGraph;
use gesmc_randx::bounded::UniformIndex;
use gesmc_randx::{RngState, SeedSequence};
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Inexact lock-per-edge parallel ES-MC baseline.
pub struct NaiveParES {
    edges: AtomicEdgeList,
    edge_set: ConcurrentEdgeSet,
    seeds: SeedSequence,
    supersteps_done: u64,
    config: SwitchingConfig,
}

impl NaiveParES {
    /// Create a chain randomising `graph`.
    ///
    /// # Panics
    /// If `graph` has more nodes than [`ConcurrentEdgeSet::MAX_NODES`].
    pub fn new(graph: EdgeListGraph, config: SwitchingConfig) -> Self {
        let edge_set = ConcurrentEdgeSet::for_graph(&graph);
        let edges = AtomicEdgeList::from_graph(&graph);
        Self { edges, edge_set, seeds: SeedSequence::new(config.seed), supersteps_done: 0, config }
    }

    /// Attempt `count` switches distributed over all rayon worker threads;
    /// returns the number of switches that were applied.
    pub fn run_switches(&mut self, count: usize) -> usize {
        let m = self.edges.len();
        if m < 2 {
            return 0;
        }
        let sampler = UniformIndex::new(m as u64);
        let applied = AtomicUsize::new(0);
        let chunk = 256usize;
        let epoch = self.supersteps_done;
        self.supersteps_done += 1;
        let num_chunks = count.div_ceil(chunk);

        (0..num_chunks).into_par_iter().for_each(|c| {
            // One deterministic RNG stream per chunk; the interleaving of
            // switches across threads is *not* deterministic, which is exactly
            // the inexactness of this baseline.
            let mut rng = self.seeds.child_rng(epoch.wrapping_mul(1_000_003) ^ c as u64);
            let owner = (rayon::current_thread_index().unwrap_or(0) % 254 + 1) as u8;
            let in_this_chunk = chunk.min(count - c * chunk);
            let mut local_applied = 0usize;
            for _ in 0..in_this_chunk {
                let request = SwitchRequest::sample(&sampler, &mut rng);
                local_applied += self.attempt_switch(request, owner) as usize;
            }
            applied.fetch_add(local_applied, Ordering::Relaxed);
        });
        applied.load(Ordering::Relaxed)
    }

    /// Attempt a single switch with ticket acquisition; returns whether it was
    /// applied.
    fn attempt_switch(&self, SwitchRequest { i, j, g }: SwitchRequest, owner: u8) -> bool {
        let e1 = self.edges.get(i);
        let e2 = self.edges.get(j);
        let (e3, e4) = switch_targets(e1, e2, g);
        if e3.is_loop() || e4.is_loop() {
            return false;
        }
        // Acquire tickets in order: lock both source edges, then
        // insert-and-lock both target edges; the first `locked` sources and
        // `inserted` targets hold tickets.  Roll back on any failure.
        let sources = [e1, e2];
        let targets = [e3, e4];
        let acquired = |outcome| matches!(outcome, LockOutcome::Acquired);
        let locked = sources
            .iter()
            .take_while(|&&source| acquired(self.edge_set.try_lock_existing(source, owner)))
            .count();
        let inserted = if locked == sources.len() {
            targets
                .iter()
                .take_while(|&&target| acquired(self.edge_set.try_insert_and_lock(target, owner)))
                .count()
        } else {
            0
        };

        if inserted < targets.len() {
            for &target in &targets[..inserted] {
                self.edge_set.erase_locked(target, owner);
            }
            for &source in &sources[..locked] {
                self.edge_set.unlock(source, owner);
            }
            return false;
        }

        // Commit: remove the sources, publish the targets, rewire the slots.
        for &source in &sources {
            self.edge_set.erase_locked(source, owner);
        }
        for &target in &targets {
            self.edge_set.unlock(target, owner);
        }
        self.edges.set(i, e3);
        self.edges.set(j, e4);
        true
    }

    /// Access the underlying edge set (rebuild hook for long runs).
    pub fn maybe_rebuild(&mut self) {
        if self.edge_set.needs_rebuild() {
            self.edge_set.rebuild();
        }
    }
}

impl EdgeSwitching for NaiveParES {
    fn name(&self) -> &'static str {
        "NaiveParES"
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
        self.maybe_rebuild();
        SuperstepStats {
            requested,
            legal,
            illegal: requested - legal,
            rounds: 1,
            round_durations: vec![start.elapsed()],
            duration: start.elapsed(),
        }
    }

    /// Capture the chain state — **with a caveat the other chains do not
    /// have**: the interleaving of switches across threads is inherently
    /// racy (that is what makes this baseline inexact, Sec. 5.1), so a
    /// restored run is bit-identical to the uninterrupted one **only under a
    /// single-threaded rayon pool**.  With more than one thread the resumed
    /// run is a valid continuation but not a reproduction; `gesmc resume`
    /// prints a warning in that case.
    fn snapshot(&self) -> Option<ChainSnapshot> {
        // The per-chunk RNG streams are derived statelessly from
        // (seeds, supersteps_done), so those two values pin down all future
        // randomness.
        Some(ChainSnapshot {
            algorithm: self.name().to_string(),
            num_nodes: self.edges.num_nodes(),
            edges: self.edges.snapshot_edges(),
            rng: RngState::default(),
            aux_seed_state: self.seeds.raw_state(),
            supersteps_done: self.supersteps_done,
            seed: self.config.seed,
            loop_probability: self.config.loop_probability,
            prefetch: self.config.prefetch,
        })
    }

    /// Restore a [`NaiveParES::snapshot`] capture.  The same caveat applies:
    /// continuation is deterministic only when the ambient rayon pool has a
    /// single thread; otherwise the racy switch interleaving makes every
    /// resumed trajectory distinct (though still degree-preserving).
    fn restore(&mut self, snapshot: &ChainSnapshot) -> Result<(), SnapshotError> {
        snapshot.check_algorithm(self.name())?;
        let graph = snapshot.graph()?;
        self.edge_set = ConcurrentEdgeSet::for_graph(&graph);
        self.edges = AtomicEdgeList::from_graph(&graph);
        self.seeds = SeedSequence::from_raw_state(snapshot.aux_seed_state);
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
    use gesmc_randx::rng_from_seed;

    fn gnp_graph(seed: u64, n: usize, p: f64) -> EdgeListGraph {
        let mut rng = rng_from_seed(seed);
        gnp(&mut rng, n, p)
    }

    #[test]
    fn preserves_degrees_and_simplicity() {
        let graph = gnp_graph(1, 200, 0.05);
        let degrees = graph.degrees();
        let mut chain = NaiveParES::new(graph, SwitchingConfig::with_seed(2));
        chain.run_supersteps(6);
        let result = chain.graph();
        assert_eq!(result.degrees(), degrees);
        assert!(result.validate().is_ok());
    }

    #[test]
    fn edge_set_and_edge_array_stay_consistent() {
        let graph = gnp_graph(3, 150, 0.07);
        let mut chain = NaiveParES::new(graph, SwitchingConfig::with_seed(4));
        chain.run_supersteps(10);
        let result = chain.graph();
        let mut from_set: Vec<u64> = chain.edge_set.iter().map(|e| e.pack()).collect();
        from_set.sort_unstable();
        assert_eq!(from_set, result.canonical_edges());
    }

    #[test]
    fn randomises_the_graph() {
        let graph = gnp_graph(5, 150, 0.07);
        let before = graph.canonical_edges();
        let mut chain = NaiveParES::new(graph, SwitchingConfig::with_seed(6));
        let stats = chain.run_supersteps(4);
        assert!(stats.total_legal() > 0);
        assert_ne!(chain.graph().canonical_edges(), before);
    }

    #[test]
    fn all_switches_rejected_on_complete_graph() {
        // In a complete graph every target edge already exists.
        let mut rng = rng_from_seed(7);
        let graph = gnp(&mut rng, 12, 1.0);
        let before = graph.canonical_edges();
        let mut chain = NaiveParES::new(graph, SwitchingConfig::with_seed(8));
        let stats = chain.run_supersteps(3);
        assert_eq!(stats.total_legal(), 0);
        assert_eq!(chain.graph().canonical_edges(), before);
    }

    #[test]
    fn tiny_graph_is_a_noop() {
        let graph = EdgeListGraph::new(2, vec![Edge::new(0, 1)]).unwrap();
        let mut chain = NaiveParES::new(graph.clone(), SwitchingConfig::with_seed(9));
        let stats = chain.superstep();
        assert_eq!(stats.legal, 0);
        assert_eq!(chain.graph().canonical_edges(), graph.canonical_edges());
    }
}
