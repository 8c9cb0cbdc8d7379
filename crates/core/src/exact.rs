//! The four exact chains — [`SeqES`], [`ParES`], [`SeqGlobalES`] and
//! [`ParGlobalES`] — as one type, [`ExactChain`], whose two parameters are
//! the two choices that tell them apart.
//!
//! * **The draw** (`GLOBAL`).  An ES-MC superstep (Def. 1) is `⌊m/2⌋`
//!   uniformly random switch requests `(i, j, g)` drawn from the chain's
//!   stream, so `SeqES` and `ParES` agree byte for byte at every seed.  A
//!   G-ES-MC superstep is one *global switch* (Def. 3): a uniformly random
//!   permutation `π` of the edge indices and a number of trials
//!   `ℓ ~ Binom(⌊m/2⌋, 1 − P_L)`, whose switches
//!   `σ_k = (π(2k−1), π(2k), g_k)` with `g_k = 1_{π(2k−1) < π(2k)}` run in
//!   sequence.  Because `π` is uniform the direction bits are unbiased and
//!   independent, and every edge takes part in at most one switch, which
//!   removes the source dependencies.  `SeqGlobalES` draws `π` by
//!   Fisher–Yates on the chain's stream and `ParGlobalES` with the
//!   thread-count-independent [`parallel_permutation`] from a seed of its own
//!   per superstep, so the two agree only when they replay the same
//!   `(π, ℓ)`.
//! * **The path** (`PARALLEL`).  The twins run every superstep in order, and
//!   so do the parallel chains at one rayon thread, where Algorithm 1's
//!   machinery buys nothing.  At two or more threads the parallel chains run
//!   [`parallel_superstep`] (Algorithm 1) with the one [`DependencyTable`]
//!   the chain reuses: `ParGlobalES` on the whole global switch
//!   (Algorithm 3), `ParES` on the longest prefixes of its `⌊m/2⌋` requests
//!   in which no edge index occurs twice (Algorithm 2).  Algorithm 1 is
//!   exact, so both paths leave the same bytes.
//!
//! Each chain keeps its graph twice: as an indexed edge array, from which
//! switch sources are drawn, and as a low-load [`ConcurrentEdgeSet`] that
//! answers the legality test's existence queries — the paper's `SeqES`
//! design (Sec. 5), which measured faster than drawing from the hash set.
//! In order, a superstep draws its switches 1024 at a time into one reused
//! buffer and hands each chunk to the in-order kernel (see
//! [`crate::superstep`]), which is software-pipelined when
//! [`SwitchingConfig::prefetch`] is on (Sec. 5.4).  The edge set keeps node
//! ids below 2^28; `seq-es-ext` samples the ES-MC chain on larger graphs.

use crate::chain::{EdgeSwitching, SwitchingConfig};
use crate::snapshot::{ChainSnapshot, SnapshotError};
use crate::stats::SuperstepStats;
use crate::superstep::{parallel_superstep, sequential_superstep, switches_in_order};
use crate::switch::SwitchRequest;
use gesmc_concurrent::{AtomicEdgeList, ConcurrentEdgeSet, DependencyTable};
use gesmc_graph::{Edge, EdgeListGraph};
use gesmc_randx::bounded::UniformIndex;
use gesmc_randx::permutation::{parallel_permutation, random_permutation};
use gesmc_randx::{rng_from_seed, sample_binomial, Rng, RngState, SeedSequence};

/// Sequential ES-MC (Def. 1, Sec. 5).
pub type SeqES = ExactChain<false, false>;
/// Exact parallel ES-MC (Algorithm 2).
pub type ParES = ExactChain<false, true>;
/// Sequential G-ES-MC (Def. 3).
pub type SeqGlobalES = ExactChain<true, false>;
/// Exact parallel G-ES-MC (Algorithm 3), the paper's main contribution.
pub type ParGlobalES = ExactChain<true, true>;

/// An exact switching chain: ES-MC (`GLOBAL = false`) or G-ES-MC
/// (`GLOBAL = true`), run in order (`PARALLEL = false`) or, at two or more
/// rayon threads, with Algorithm 1 (`PARALLEL = true`).
pub struct ExactChain<const GLOBAL: bool, const PARALLEL: bool> {
    edges: AtomicEdgeList,
    edge_set: ConcurrentEdgeSet,
    table: DependencyTable,
    /// Per edge slot, the epoch of the prefix that last used it (sized by the
    /// first [`run_requests`](Self::run_requests)).
    stamps: Vec<u32>,
    /// Epoch of the prefix being scanned; 0 is never used, so fresh stamps
    /// match no epoch.
    epoch: u32,
    rng: Rng,
    /// Seeds of `ParGlobalES`'s permutations, one per superstep; no other
    /// chain draws from it, and only its snapshots record it.
    seeds: SeedSequence,
    supersteps_done: u64,
    config: SwitchingConfig,
}

impl<const GLOBAL: bool, const PARALLEL: bool> ExactChain<GLOBAL, PARALLEL> {
    /// Create a chain randomising `graph`.
    ///
    /// The edge set ([`ConcurrentEdgeSet::for_graph`]) is at most 1/32 full
    /// on graphs of up to 4096 edges, which keeps the in-order kernel's
    /// probes short, and at most 1/4 full on any graph, which leaves room for
    /// the tombstones of a few Algorithm 1 supersteps.  It is rebuilt after a
    /// superstep that left too many; in-order supersteps leave none.
    ///
    /// # Panics
    /// If `graph` has more nodes than [`ConcurrentEdgeSet::MAX_NODES`].
    pub fn new(graph: EdgeListGraph, config: SwitchingConfig) -> Self {
        Self {
            edge_set: ConcurrentEdgeSet::for_graph(&graph),
            edges: AtomicEdgeList::from_graph(&graph),
            table: DependencyTable::default(),
            stamps: Vec::new(),
            epoch: 0,
            rng: rng_from_seed(config.seed),
            seeds: SeedSequence::new(config.seed ^ 0x9E37_79B9_7F4A_7C15),
            supersteps_done: 0,
            config,
        }
    }

    /// Apply one explicit switch request (Def. 1) in order; returns whether
    /// it was legal.
    pub fn apply(&mut self, request: SwitchRequest) -> bool {
        sequential_superstep(&self.edges, &mut self.edge_set, &[request], false).legal == 1
    }

    /// Draw `count` uniformly random ES-MC switch requests from the chain's
    /// stream (the array `R` of Algorithm 2); none with fewer than two edges.
    pub fn sample_requests(&mut self, count: usize) -> Vec<SwitchRequest> {
        let m = self.edges.len();
        if m < 2 {
            return Vec::new();
        }
        let sampler = UniformIndex::new(m as u64);
        (0..count).map(|_| SwitchRequest::sample(&sampler, &mut self.rng)).collect()
    }

    /// Execute an explicit sequence of switch requests exactly (with the
    /// outcome of executing them in order), cut into its longest
    /// source-dependency free prefixes, each run in order or, by a parallel
    /// chain at two or more threads, with Algorithm 1.  Returns one
    /// [`SuperstepStats`] per prefix.
    ///
    /// Because each prefix ends *before* the first switch that shares an
    /// edge index with an earlier switch of the prefix, executing the
    /// prefixes in order equals executing the requests strictly in sequence.
    /// Their expected length is `Θ(√m)` (birthday bound), which the paper
    /// names as the scalability limit of ES-MC and the motivation for
    /// G-ES-MC.
    pub fn run_requests(&mut self, requests: &[SwitchRequest]) -> Vec<SuperstepStats> {
        // Slots added here carry stamp 0, which matches no epoch.
        self.stamps.resize(self.edges.len(), 0);
        let mut all_stats = Vec::new();
        let mut rest = requests;
        while !rest.is_empty() {
            let (prefix, after) = rest.split_at(self.dependency_free_prefix(rest));
            all_stats.push(self.run_batch(prefix));
            rest = after;
        }
        all_stats
    }

    /// The switch sequence of the global switch `(perm, ell)`.
    ///
    /// Exposed so that tests can replay the very same global switch on
    /// Algorithm 1 and in order.
    pub fn switches_from_permutation(perm: &[u64], ell: usize) -> Vec<SwitchRequest> {
        (0..ell).map(|k| permutation_switch(perm, k)).collect()
    }

    /// Whether this chain runs its batches in order: always for the twins,
    /// and at one rayon thread for the parallel chains, where Algorithm 1's
    /// machinery (registration, decision rounds, two apply passes,
    /// compare-and-swap writes) buys nothing.
    fn in_order() -> bool {
        !PARALLEL || rayon::current_num_threads() <= 1
    }

    /// Run a batch without source dependencies on the chain's path, and
    /// rebuild the edge set if Algorithm 1 left it too many tombstones.
    fn run_batch(&mut self, switches: &[SwitchRequest]) -> SuperstepStats {
        if Self::in_order() {
            let prefetch = self.config.prefetch;
            return sequential_superstep(&self.edges, &mut self.edge_set, switches, prefetch);
        }
        let stats = parallel_superstep(&mut self.table, &self.edges, &self.edge_set, switches);
        if self.edge_set.needs_rebuild() {
            self.edge_set.rebuild();
        }
        stats
    }

    /// Length of the longest prefix of `requests` in which no edge index
    /// occurs twice (at least 1 for a non-empty list).
    ///
    /// One sequential scan against the per-slot epoch stamps: each prefix
    /// gets a fresh epoch; a switch whose two slots do not carry it stamps
    /// them and joins the prefix, and the first switch that finds a stamped
    /// slot ends it.  That costs two loads and two stores per switch, and no
    /// clearing, since stamps of older epochs never match; only when the
    /// epoch counter wraps are the stamps reset.
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
}

/// Switch `k` (from 0) of a global switch over `perm`: the slots
/// `π(2k), π(2k + 1)`, and the direction bit `π(2k) < π(2k + 1)`.
fn permutation_switch(perm: &[u64], k: usize) -> SwitchRequest {
    let (a, b) = (perm[2 * k] as usize, perm[2 * k + 1] as usize);
    SwitchRequest::new(a, b, a < b)
}

impl<const GLOBAL: bool, const PARALLEL: bool> EdgeSwitching for ExactChain<GLOBAL, PARALLEL> {
    fn name(&self) -> &'static str {
        match (GLOBAL, PARALLEL) {
            (false, false) => "SeqES",
            (false, true) => "ParES",
            (true, false) => "SeqGlobalES",
            (true, true) => "ParGlobalES",
        }
    }

    fn num_nodes(&self) -> usize {
        self.edges.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.edges.len()
    }

    fn graph(&self) -> EdgeListGraph {
        self.edges.to_graph()
    }

    /// Reads the slots in place.
    fn for_each_edge(&self, visit: &mut dyn FnMut(Edge)) {
        (0..self.edges.len()).for_each(|i| visit(self.edges.get(i)));
    }

    /// One global switch, or `⌊m/2⌋` ES-MC switches (Sec. 6.1).  With fewer
    /// than two edges nothing is drawn and the superstep is empty, but it is
    /// counted.  An in-order superstep reports one round, which covers
    /// drawing the switches but not `(π, ℓ)`.
    fn superstep(&mut self) -> SuperstepStats {
        let t = self.supersteps_done;
        self.supersteps_done += 1;
        let m = self.edges.len();
        if m < 2 {
            return SuperstepStats::default();
        }
        let prefetch = self.config.prefetch;
        if GLOBAL {
            let perm = if PARALLEL {
                parallel_permutation(self.seeds.child(t), m)
            } else {
                random_permutation(&mut self.rng, m)
            };
            let keep = 1.0 - self.config.loop_probability;
            let ell = sample_binomial(&mut self.rng, (m / 2) as u64, keep) as usize;
            if Self::in_order() {
                let draw = |k| permutation_switch(&perm, k);
                return switches_in_order(&self.edges, &mut self.edge_set, ell, prefetch, draw);
            }
            return self.run_batch(&Self::switches_from_permutation(&perm, ell));
        }
        let requested = m / 2;
        if Self::in_order() {
            let (sampler, rng) = (UniformIndex::new(m as u64), &mut self.rng);
            let draw = |_| SwitchRequest::sample(&sampler, rng);
            return switches_in_order(&self.edges, &mut self.edge_set, requested, prefetch, draw);
        }
        let requests = self.sample_requests(requested);
        let parts = self.run_requests(&requests);
        let legal = parts.iter().map(|p| p.legal).sum();
        let rounds = parts.iter().map(|p| p.rounds).sum();
        let round_durations = parts.into_iter().flat_map(|p| p.round_durations).collect();
        SuperstepStats { requested, legal, rounds, round_durations }
    }

    fn snapshot(&self) -> Option<ChainSnapshot> {
        let aux_seed_state = if GLOBAL && PARALLEL { self.seeds.raw_state() } else { 0 };
        let rng = RngState::capture(&self.rng);
        Some(ChainSnapshot::new(self, rng, aux_seed_state, self.supersteps_done, self.config))
    }

    fn restore(&mut self, snapshot: &ChainSnapshot) -> Result<(), SnapshotError> {
        snapshot.check(self)?;
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
    use gesmc_graph::Edge;

    fn gnp_graph(seed: u64, n: usize, p: f64) -> EdgeListGraph {
        let mut rng = rng_from_seed(seed);
        gnp(&mut rng, n, p)
    }

    type Build = fn(EdgeListGraph, SwitchingConfig) -> Box<dyn EdgeSwitching + Send>;

    fn boxed<const GLOBAL: bool, const PARALLEL: bool>(
        graph: EdgeListGraph,
        config: SwitchingConfig,
    ) -> Box<dyn EdgeSwitching + Send> {
        Box::new(ExactChain::<GLOBAL, PARALLEL>::new(graph, config))
    }

    /// `SeqES`, `ParES`, `SeqGlobalES` and `ParGlobalES`.
    const CHAINS: [Build; 4] =
        [boxed::<false, false>, boxed::<false, true>, boxed::<true, false>, boxed::<true, true>];

    fn on_threads<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(op)
    }

    #[test]
    fn preserves_degrees_and_simplicity() {
        // (graph seed, nodes, edge probability, chain seed, supersteps), in
        // the order of CHAINS.
        let cases = [
            (1, 100, 0.08, 2, 5),
            (13, 150, 0.06, 14, 4),
            (1, 120, 0.07, 2, 5),
            (1, 200, 0.05, 2, 6),
        ];
        for (build, (graph_seed, n, p, seed, supersteps)) in CHAINS.into_iter().zip(cases) {
            let graph = gnp_graph(graph_seed, n, p);
            let degrees = graph.degrees();
            let mut chain = build(graph, SwitchingConfig::with_seed(seed));
            chain.run_supersteps(supersteps);
            let result = chain.graph();
            assert_eq!(result.degrees(), degrees, "{}", chain.name());
            assert!(result.validate().is_ok(), "{}", chain.name());
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        for (graph_seed, n, p, seed, supersteps) in [(17, 90, 0.08, 5, 3), (7, 120, 0.06, 99, 4)] {
            let graph = gnp_graph(graph_seed, n, p);
            for build in CHAINS {
                let mut a = build(graph.clone(), SwitchingConfig::with_seed(seed));
                let mut b = build(graph.clone(), SwitchingConfig::with_seed(seed));
                a.run_supersteps(supersteps);
                b.run_supersteps(supersteps);
                assert_eq!(
                    a.graph().canonical_edges(),
                    b.graph().canonical_edges(),
                    "{}",
                    a.name()
                );
            }
        }
    }

    #[test]
    fn tiny_graphs_do_not_panic() {
        // Fewer than two edges: every chain reports an empty superstep,
        // leaves the graph as it was, and counts the superstep.
        for (n, edges) in [(2, vec![]), (2, vec![Edge::new(0, 1)]), (3, vec![])] {
            let graph = EdgeListGraph::new(n, edges).unwrap();
            for build in CHAINS {
                for threads in [1, 2] {
                    let mut chain = build(graph.clone(), SwitchingConfig::with_seed(9));
                    let stats = on_threads(threads, || chain.superstep());
                    let name = chain.name();
                    assert_eq!((stats.requested, stats.legal, stats.rounds), (0, 0, 0), "{name}");
                    assert_eq!(chain.graph().canonical_edges(), graph.canonical_edges(), "{name}");
                    assert_eq!(chain.snapshot().unwrap().supersteps_done, 1, "{name}");
                }
            }
        }
    }

    #[test]
    fn randomises_the_graph() {
        for (graph_seed, n, p, seed) in [(3, 100, 0.08, 4), (5, 120, 0.07, 6)] {
            let graph = gnp_graph(graph_seed, n, p);
            let before = graph.canonical_edges();
            for build in CHAINS {
                let mut chain = build(graph.clone(), SwitchingConfig::with_seed(seed));
                chain.run_supersteps(3);
                assert_ne!(chain.graph().canonical_edges(), before, "{}", chain.name());
            }
        }
    }

    #[test]
    fn prefetch_and_plain_variants_agree() {
        // With the same seed, pipelined and non-pipelined execution must visit
        // the same chain states (the pipeline only reorders memory accesses).
        // About 40k edges make an edge set large enough to pipeline, and one
        // thread runs every chain in order.
        let graph = gnp_graph(5, 5000, 0.0032);
        let buckets = ConcurrentEdgeSet::for_graph(&graph).capacity();
        assert!(buckets >= crate::superstep::PREFETCH_MIN_BUCKETS);
        for build in CHAINS {
            let mut with_pf = build(graph.clone(), SwitchingConfig::with_seed(6).prefetch(true));
            let mut without_pf =
                build(graph.clone(), SwitchingConfig::with_seed(6).prefetch(false));
            for step in 0..2 {
                let (on, off) = on_threads(1, || (with_pf.superstep(), without_pf.superstep()));
                let name = with_pf.name();
                assert_eq!(on.legal, off.legal, "{name}, superstep {step}");
                assert_eq!(with_pf.graph().edges(), without_pf.graph().edges(), "{name}, {step}");
            }
        }
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
    fn one_thread_supersteps_run_as_seq_es_without_prefixes() {
        // About 2200 edges: a superstep draws its switches in two chunks.
        let graph = gnp_graph(19, 300, 0.05);
        let mut seq = SeqES::new(graph.clone(), SwitchingConfig::with_seed(20));
        let mut par = ParES::new(graph, SwitchingConfig::with_seed(20));
        for step in 0..3 {
            let expected = seq.superstep();
            let stats = on_threads(1, || par.superstep());
            assert_eq!((stats.requested, stats.legal), (expected.requested, expected.legal));
            assert_eq!((stats.rounds, stats.round_durations.len()), (1, 1), "step {step}");
            assert_eq!(par.graph().edges(), seq.graph().edges(), "step {step}");
        }
        assert_eq!(par.snapshot().unwrap().rng, seq.snapshot().unwrap().rng);
        assert!(par.stamps.is_empty(), "only run_requests allocates the stamps");
        // At two threads the chain cuts prefixes, on the same stream.
        let expected = seq.superstep();
        let stats = on_threads(2, || par.superstep());
        assert_eq!(stats.legal, expected.legal);
        assert!(stats.rounds > 1, "{} rounds", stats.rounds);
        assert_eq!(par.graph().edges(), seq.graph().edges());
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
        let graph = gnp_graph(3, 120, 0.07);
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
        // Only Algorithm 1 leaves tombstones, and it runs at two threads:
        // each legal switch erases two edges into tombstones and inserts two
        // into empty buckets.  Run until, without a rebuild, the set would
        // be more than half full, so the chain must have rebuilt it.
        let graph = gnp_graph(5, 150, 0.08);
        let m = graph.num_edges();
        let mut chain = ParGlobalES::new(graph, SwitchingConfig::with_seed(6));
        let capacity = chain.edge_set.capacity();
        let mut used = m;
        let filled = on_threads(2, || {
            (1..=200).find(|step| {
                used += 2 * chain.superstep().legal;
                assert!(!chain.edge_set.needs_rebuild(), "superstep {step} skipped a rebuild");
                2 * used > capacity
            })
        });
        assert!(filled.is_some(), "200 supersteps left {used} of {capacity} buckets used");
        let result = chain.graph();
        assert_eq!(result.num_edges(), m);
        assert!(result.validate().is_ok());
        // The edge set must agree exactly with the edge array.
        let mut from_set: Vec<u64> = chain.edge_set.iter().map(|e| e.pack()).collect();
        from_set.sort_unstable();
        assert_eq!(from_set, result.canonical_edges());
    }
}
