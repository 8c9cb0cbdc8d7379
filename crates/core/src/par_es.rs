//! `ParES` (Algorithm 2): the exact shared-memory parallel ES-MC.
//!
//! The requested number of uniformly random switches is sampled up front into
//! an array `R`.  The algorithm then repeatedly extracts the longest prefix of
//! the remaining switches that contains **no source dependencies**, i.e. in
//! which no edge index occurs twice, and executes that prefix with
//! [`parallel_superstep`](crate::superstep::parallel_superstep), through the
//! one [`DependencyTable`] the chain reuses for every superstep.  At one
//! rayon thread the chain runs each prefix in order with
//! [`sequential_superstep`](crate::superstep::sequential_superstep) instead,
//! writing its own edge set through exclusive access; both paths leave the
//! same bytes (see [`crate::superstep`]).  The prefixes, and with them the
//! per-prefix statistics, are the same on both paths.  Only Algorithm 1
//! leaves tombstones in the edge set, so only that path ever makes the chain
//! rebuild it between prefixes.
//!
//! The prefix is found by one sequential scan over `R` against a dense array
//! of `u32` *epoch stamps*, one per edge slot, that the chain owns.  Each
//! prefix gets a fresh epoch; a switch whose two slots do not carry the
//! current epoch stamps them with it and joins the prefix, and the first
//! switch that finds a stamped slot ends the prefix and starts the next one
//! under a new epoch.  That costs two loads and two stores per switch, and
//! no clearing: stamps of older epochs simply never match.  Only when the
//! epoch counter wraps are the stamps reset.
//!
//! Because each superstep boundary is placed *before* the first switch that
//! shares an edge index with an earlier unprocessed switch, executing the
//! supersteps in order is equivalent to executing `R` strictly sequentially,
//! making `ParES` an exact parallelisation of ES-MC.  The expected superstep
//! size is `Θ(√m)` (birthday bound), which the paper identifies as the
//! scalability limit of this approach and the motivation for G-ES-MC.

use crate::chain::{EdgeSwitching, SwitchingConfig};
use crate::snapshot::{ChainSnapshot, SnapshotError};
use crate::stats::SuperstepStats;
use crate::superstep::execute_superstep;
use crate::switch::SwitchRequest;
use gesmc_concurrent::{AtomicEdgeList, ConcurrentEdgeSet, DependencyTable};
use gesmc_graph::EdgeListGraph;
use gesmc_randx::bounded::UniformIndex;
use gesmc_randx::{rng_from_seed, Rng, RngState};

/// Exact parallel ES-MC chain.
pub struct ParES {
    edges: AtomicEdgeList,
    edge_set: ConcurrentEdgeSet,
    table: DependencyTable,
    /// Per edge slot, the epoch of the prefix that last used it (sized on
    /// first use).
    stamps: Vec<u32>,
    /// Epoch of the prefix being scanned; 0 is never used, so fresh stamps
    /// match no epoch.
    epoch: u32,
    rng: Rng,
    supersteps_done: u64,
    config: SwitchingConfig,
}

impl ParES {
    /// Create a chain randomising `graph`.
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
            stamps: Vec::new(),
            epoch: 0,
            rng: rng_from_seed(config.seed),
            supersteps_done: 0,
            config,
        }
    }

    /// Sample `count` uniformly random switch requests (the array `R` of
    /// Algorithm 2).
    pub fn sample_requests(&mut self, count: usize) -> Vec<SwitchRequest> {
        let m = self.edges.len();
        if m < 2 {
            return Vec::new();
        }
        let sampler = UniformIndex::new(m as u64);
        (0..count).map(|_| SwitchRequest::sample(&sampler, &mut self.rng)).collect()
    }

    /// Execute an explicit sequence of switch requests exactly (i.e. with the
    /// same outcome as executing them in order), splitting it into source
    /// dependency-free supersteps.  Returns one [`SuperstepStats`] per
    /// superstep.
    pub fn run_requests(&mut self, requests: &[SwitchRequest]) -> Vec<SuperstepStats> {
        // Slots added here carry stamp 0, which matches no epoch.
        self.stamps.resize(self.edges.len(), 0);
        let mut all_stats = Vec::new();
        let mut rest = requests;
        while !rest.is_empty() {
            let (superstep, after) = rest.split_at(self.dependency_free_prefix(rest));
            let stats =
                execute_superstep(&mut self.table, &self.edges, &mut self.edge_set, superstep);
            all_stats.push(stats);
            if self.edge_set.needs_rebuild() {
                self.edge_set.rebuild();
            }
            rest = after;
        }
        all_stats
    }

    /// Length of the longest prefix of `requests` in which no edge index
    /// occurs twice (at least 1 for a non-empty list).
    fn dependency_free_prefix(&mut self, requests: &[SwitchRequest]) -> usize {
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        for (k, request) in requests.iter().enumerate() {
            if self.stamps[request.i] == epoch || self.stamps[request.j] == epoch {
                return k;
            }
            self.stamps[request.i] = epoch;
            self.stamps[request.j] = epoch;
        }
        requests.len()
    }

    /// Perform `count` uniformly random switches exactly; returns the
    /// per-superstep statistics.
    pub fn run_switches(&mut self, count: usize) -> Vec<SuperstepStats> {
        let requests = self.sample_requests(count);
        self.run_requests(&requests)
    }
}

impl EdgeSwitching for ParES {
    fn name(&self) -> &'static str {
        "ParES"
    }

    fn num_edges(&self) -> usize {
        self.edges.len()
    }

    fn graph(&self) -> EdgeListGraph {
        self.edges.to_graph()
    }

    fn superstep(&mut self) -> SuperstepStats {
        // One ES-MC superstep = ⌊m/2⌋ uniformly random switches (Sec. 6.1).
        let requested = self.edges.len() / 2;
        let parts = self.run_switches(requested);
        let legal = parts.iter().map(|p| p.legal).sum();
        let rounds = parts.iter().map(|p| p.rounds).sum();
        let round_durations = parts.into_iter().flat_map(|p| p.round_durations).collect();
        self.supersteps_done += 1;
        SuperstepStats { requested, legal, illegal: requested - legal, rounds, round_durations }
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
        self.edge_set = ConcurrentEdgeSet::for_graph(&graph);
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
    use crate::seq_es::SeqES;
    use gesmc_graph::gen::gnp;

    fn gnp_graph(seed: u64, n: usize, p: f64) -> EdgeListGraph {
        let mut rng = rng_from_seed(seed);
        gnp(&mut rng, n, p)
    }

    /// Oracle: run the same requests strictly sequentially with SeqES.
    fn sequential_oracle(graph: &EdgeListGraph, requests: &[SwitchRequest]) -> EdgeListGraph {
        let mut chain = SeqES::new(graph.clone(), SwitchingConfig::with_seed(0));
        for &r in requests {
            chain.apply(r);
        }
        chain.graph()
    }

    #[test]
    fn matches_sequential_es_on_explicit_requests() {
        let mut rng = rng_from_seed(11);
        for trial in 0..10 {
            let graph = gnp(&mut rng, 80, 0.1);
            let m = graph.num_edges();
            if m < 4 {
                continue;
            }
            let mut par = ParES::new(graph.clone(), SwitchingConfig::with_seed(trial));
            let requests = par.sample_requests(3 * m);
            par.run_requests(&requests);
            let oracle = sequential_oracle(&graph, &requests);
            assert_eq!(
                par.graph().canonical_edges(),
                oracle.canonical_edges(),
                "trial {trial} diverged from the sequential execution"
            );
        }
    }

    #[test]
    fn preserves_degrees_and_simplicity() {
        let graph = gnp_graph(13, 150, 0.06);
        let degrees = graph.degrees();
        let mut chain = ParES::new(graph, SwitchingConfig::with_seed(14));
        chain.run_supersteps(4);
        let result = chain.graph();
        assert_eq!(result.degrees(), degrees);
        assert!(result.validate().is_ok());
    }

    /// Requests whose longest dependency-free prefixes are 3, 3, 3 and 1
    /// switches long: the first two boundaries fall on a repeated first
    /// index, the last on a repeated second index.
    fn hand_made_requests() -> Vec<SwitchRequest> {
        [(0, 1), (2, 3), (4, 5), (1, 6), (0, 2), (7, 8), (8, 9), (6, 3), (5, 4), (7, 3)]
            .into_iter()
            .enumerate()
            .map(|(k, (i, j))| SwitchRequest::new(i, j, k % 2 == 0))
            .collect()
    }

    /// Superstep sizes that cut `requests` into longest prefixes without a
    /// repeated edge index (the paper's definition, computed naively).
    fn longest_prefix_sizes(requests: &[SwitchRequest]) -> Vec<usize> {
        let mut sizes = Vec::new();
        let mut used = std::collections::HashSet::new();
        for r in requests {
            if used.contains(&r.i) || used.contains(&r.j) || sizes.is_empty() {
                sizes.push(0);
                used.clear();
            }
            used.extend([r.i, r.j]);
            *sizes.last_mut().unwrap() += 1;
        }
        sizes
    }

    /// Prefix lengths the chain's scan reports while consuming `requests`.
    fn scanned_prefix_sizes(par: &mut ParES, mut requests: &[SwitchRequest]) -> Vec<usize> {
        let mut sizes = Vec::new();
        while !requests.is_empty() {
            let len = par.dependency_free_prefix(requests);
            assert!(len > 0, "empty prefix after {sizes:?}");
            sizes.push(len);
            requests = &requests[len..];
        }
        sizes
    }

    #[test]
    fn supersteps_are_the_longest_dependency_free_prefixes() {
        let graph = gnp_graph(15, 40, 0.2);
        let requests = hand_made_requests();
        assert_eq!(longest_prefix_sizes(&requests), [3, 3, 3, 1]);
        let mut par = ParES::new(graph.clone(), SwitchingConfig::with_seed(16));
        let stats = par.run_requests(&requests);
        assert_eq!(stats.iter().map(|s| s.requested).collect::<Vec<_>>(), [3, 3, 3, 1]);
        assert_eq!(
            par.graph().edges(),
            sequential_oracle(&graph, &requests).edges(),
            "supersteps must replay the requests in order"
        );

        // Random request lists on a small graph collide often.
        for seed in 0..5 {
            let requests = par.sample_requests(200);
            let expected = longest_prefix_sizes(&requests);
            assert!(expected.len() > 5, "seed {seed}: too few boundaries to test");
            let stats = par.run_requests(&requests);
            assert_eq!(stats.iter().map(|s| s.requested).collect::<Vec<_>>(), expected);
        }
    }

    #[test]
    fn epoch_wrap_resets_the_stamps() {
        let requests = hand_made_requests();
        let mut par = ParES::new(gnp_graph(15, 40, 0.2), SwitchingConfig::with_seed(16));
        // One epoch before the wrap, with every slot last used in epoch 1,
        // long ago: the epochs after the wrap must not see those stamps.
        par.epoch = u32::MAX - 1;
        par.stamps = vec![1; par.edges.len()];
        assert_eq!(scanned_prefix_sizes(&mut par, &requests), [3, 3, 3, 1]);
        assert_eq!(par.epoch, 3, "epochs u32::MAX, then 1, 2, 3 after the wrap");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let graph = gnp_graph(17, 90, 0.08);
        let mut a = ParES::new(graph.clone(), SwitchingConfig::with_seed(5));
        let mut b = ParES::new(graph, SwitchingConfig::with_seed(5));
        a.run_supersteps(3);
        b.run_supersteps(3);
        assert_eq!(a.graph().canonical_edges(), b.graph().canonical_edges());
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let graph = EdgeListGraph::new(3, vec![]).unwrap();
        let mut chain = ParES::new(graph, SwitchingConfig::with_seed(18));
        let stats = chain.superstep();
        assert_eq!(stats.requested, 0);
    }
}
