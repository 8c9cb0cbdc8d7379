//! Integration tests: the parallel chains are *exact*, i.e. given the same
//! switch sequence they produce bitwise the same graph as a sequential
//! execution, and G-ES-MC supersteps executed in parallel match the
//! sequential G-ES-MC implementation replaying the identical global switch.
//! At one thread the chains run their supersteps in order instead of with
//! Algorithm 1; the two paths must agree byte for byte, also when they
//! alternate on one edge set.

use gesmc::chains::superstep::{parallel_superstep, run_superstep_on_graph, sequential_superstep};
use gesmc::chains::SeqGlobalES;
use gesmc::chains::SwitchRequest;
use gesmc::concurrent::{AtomicEdgeList, ConcurrentEdgeSet, DependencyTable};
use gesmc::prelude::*;
use gesmc::randx::permutation::random_permutation;
use gesmc::randx::{rng_from_seed, sample_binomial};
use std::collections::HashSet;

/// Run `op` on a rayon pool of `threads` threads.
fn on_threads<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(op)
}

/// Replay one explicit global switch on both implementations and compare.
#[test]
fn parallel_global_switch_equals_sequential_execution() {
    let mut rng = rng_from_seed(1);
    for trial in 0..8u64 {
        let graph = gesmc::datasets::syn_pld_graph(trial, 300, 2.2);
        let m = graph.num_edges();
        let perm = random_permutation(&mut rng, m);
        let ell = sample_binomial(&mut rng, (m / 2) as u64, 0.99) as usize;
        let switches = SeqGlobalES::switches_from_permutation(&perm, ell);

        // Sequential reference.
        let mut seq = SeqGlobalES::new(graph.clone(), SwitchingConfig::with_seed(0));
        let mut legal_seq = 0usize;
        for &s in &switches {
            legal_seq += seq.apply(s) as usize;
        }

        // Parallel superstep.
        let (par_graph, stats) = run_superstep_on_graph(&graph, &switches);

        assert_eq!(
            par_graph.canonical_edges(),
            seq.graph().canonical_edges(),
            "trial {trial}: parallel superstep diverged from sequential execution"
        );
        assert_eq!(stats.legal, legal_seq, "trial {trial}: legality counts diverged");
        // The indexed edge arrays must agree as well (bitwise exactness).
        assert_eq!(par_graph.edges(), seq.graph().edges(), "trial {trial}: edge arrays differ");
    }
}

/// One dependency table serves a chain's whole life: replay consecutive
/// global switches of growing and shrinking length `ℓ` through the same
/// table, across rebuilds of the edge set, and compare the edge array with a
/// sequential replay after every superstep.
#[test]
fn one_dependency_table_replays_consecutive_global_switches() {
    let graph = gesmc::datasets::syn_pld_graph(3, 400, 2.2);
    let m = graph.num_edges();
    let edges = AtomicEdgeList::from_graph(&graph);
    let mut edge_set = ConcurrentEdgeSet::from_edges(graph.edges().iter(), 2 * m);
    let mut table = DependencyTable::default();
    let mut seq = SeqGlobalES::new(graph, SwitchingConfig::with_seed(0));
    let mut rng = rng_from_seed(2);
    let mut rebuilds = 0;
    for (step, percent) in [10usize, 100, 3, 60, 100, 1, 35, 100, 20, 80].into_iter().enumerate() {
        let perm = random_permutation(&mut rng, m);
        let switches = SeqGlobalES::switches_from_permutation(&perm, m / 2 * percent / 100);
        let stats = parallel_superstep(&mut table, &edges, &edge_set, &switches);
        let legal_seq: usize = switches.iter().map(|&s| seq.apply(s) as usize).sum();
        assert_eq!(stats.legal, legal_seq, "superstep {step}: legality counts diverged");
        assert_eq!(
            edges.snapshot_edges(),
            seq.graph().edges(),
            "superstep {step}: edge arrays differ"
        );
        if edge_set.needs_rebuild() {
            edge_set.rebuild();
            rebuilds += 1;
        }
    }
    assert!(rebuilds >= 1, "the replay must span a rebuild of the edge set");
}

/// ParES run on an explicit request list equals SeqES applying the same list.
#[test]
fn par_es_equals_seq_es_on_request_lists() {
    for trial in 0..5u64 {
        let graph = gesmc::datasets::syn_gnp_graph(trial, 150, 900);
        let m = graph.num_edges();
        let mut par = ParES::new(graph.clone(), SwitchingConfig::with_seed(trial));
        let requests = par.sample_requests(4 * m);

        par.run_requests(&requests);

        let mut seq = SeqES::new(graph.clone(), SwitchingConfig::with_seed(0));
        for &r in &requests {
            seq.apply(r);
        }

        assert_eq!(
            par.graph().canonical_edges(),
            seq.graph().canonical_edges(),
            "trial {trial}: ParES diverged from sequential ES-MC"
        );
        assert_eq!(par.graph().edges(), seq.graph().edges(), "trial {trial}: edge arrays differ");
    }
}

/// ParGlobalES and a sequential replay of its own supersteps agree superstep
/// by superstep: the parallel chain's graph after each superstep is a valid
/// simple graph with unchanged degrees, and its per-superstep legality counts
/// are consistent.
#[test]
fn par_global_es_superstep_statistics_are_consistent() {
    let graph = gesmc::datasets::syn_pld_graph(9, 500, 2.3);
    let mut chain = ParGlobalES::new(graph.clone(), SwitchingConfig::with_seed(9));
    let stats = chain.run_supersteps(6);
    for s in &stats.supersteps {
        assert_eq!(s.legal + s.illegal(), s.requested);
        assert!(s.rounds >= 1);
        assert_eq!(s.round_durations.len(), s.rounds);
    }
    assert_eq!(chain.graph().degrees(), graph.degrees());
}

/// Handcrafted dependency chains spanning several switches resolve exactly as
/// a sequential execution would.
#[test]
fn dependency_chains_resolve_in_sequential_order() {
    use gesmc::graph::Edge;
    // Edges laid out so that switch k+1 re-creates an edge switch k removes.
    let graph = EdgeListGraph::new(
        10,
        vec![
            Edge::new(0, 1), // 0
            Edge::new(2, 3), // 1
            Edge::new(0, 4), // 2
            Edge::new(1, 5), // 3
            Edge::new(0, 6), // 4
            Edge::new(1, 7), // 5
        ],
    )
    .unwrap();
    // Switch 0: (0,1) g=0: {0,1},{2,3} -> {0,2},{1,3}   (frees {0,1})
    // Switch 1: (2,3) g=0: {0,4},{1,5} -> {0,1},{4,5}   (re-creates {0,1}, frees {0,4},{1,5})
    // Switch 2: (4,5) g=0: {0,6},{1,7} -> {0,1},{6,7}   (blocked: {0,1} now exists again)
    let switches = vec![
        SwitchRequest::new(0, 1, false),
        SwitchRequest::new(2, 3, false),
        SwitchRequest::new(4, 5, false),
    ];
    let (par_graph, stats) = run_superstep_on_graph(&graph, &switches);

    let mut seq = SeqGlobalES::new(graph.clone(), SwitchingConfig::with_seed(0));
    let legal_seq: usize = switches.iter().map(|&s| seq.apply(s) as usize).sum();

    assert_eq!(par_graph.canonical_edges(), seq.graph().canonical_edges());
    assert_eq!(stats.legal, legal_seq);
    assert_eq!(stats.legal, 2, "switch 2 must be rejected");
    assert!(par_graph.has_edge_slow(0, 1));
    assert!(par_graph.has_edge_slow(4, 5));
    assert!(par_graph.has_edge_slow(0, 6), "sources of the rejected switch remain");
}

/// A superstep path: the in-order kernel, or Algorithm 1.
#[derive(Clone, Copy)]
enum Path {
    InOrder { prefetch: bool },
    Algorithm1,
}

/// The chain state a superstep path drives: an edge array, its edge set and
/// a dependency table.
struct Lane {
    edges: AtomicEdgeList,
    edge_set: ConcurrentEdgeSet,
    table: DependencyTable,
}

impl Lane {
    fn new(graph: &EdgeListGraph) -> Self {
        Self {
            edges: AtomicEdgeList::from_graph(graph),
            edge_set: ConcurrentEdgeSet::from_edges(graph.edges().iter(), 2 * graph.num_edges()),
            table: DependencyTable::default(),
        }
    }

    /// Run `batch` in order (with or without prefetching) or with Algorithm
    /// 1, then rebuild the edge set if it asks for it; returns the legal
    /// count and whether it rebuilt.
    fn run(&mut self, path: Path, batch: &[SwitchRequest]) -> (usize, bool) {
        let stats = if let Path::InOrder { prefetch } = path {
            sequential_superstep(&self.edges, &mut self.edge_set, batch, prefetch)
        } else {
            parallel_superstep(&mut self.table, &self.edges, &self.edge_set, batch)
        };
        let rebuild = self.edge_set.needs_rebuild();
        if rebuild {
            self.edge_set.rebuild();
        }
        (stats.legal, rebuild)
    }

    fn sorted_edge_set(&self) -> Vec<Edge> {
        let mut edges: Vec<Edge> = self.edge_set.iter().collect();
        edges.sort();
        edges
    }
}

/// `requests` cut into its longest prefixes without a repeated edge index:
/// the supersteps of Algorithm 2.
fn dependency_free_prefixes(requests: &[SwitchRequest]) -> Vec<&[SwitchRequest]> {
    let mut prefixes = Vec::new();
    let mut used = HashSet::new();
    let mut start = 0;
    for (k, r) in requests.iter().enumerate() {
        if used.contains(&r.i) || used.contains(&r.j) {
            prefixes.push(&requests[start..k]);
            used.clear();
            start = k;
        }
        used.extend([r.i, r.j]);
    }
    prefixes.push(&requests[start..]);
    prefixes
}

/// Global-switch batches and `ParES` prefixes run through three lanes: one
/// in order with prefetching, one with Algorithm 1, and one that alternates
/// between Algorithm 1 and the in-order path without prefetching on its
/// single table and edge set.  After every batch all three, and a sequential
/// Def. 1 replay, hold the same edge array, legal count and edge set, at 1,
/// 2 and 8 threads.  The in-order lane's erases leave no tombstones, so it
/// never needs a rebuild; the other two lanes run across at least one.
#[test]
fn in_order_and_parallel_supersteps_agree_and_alternate_on_one_edge_set() {
    let graph = gesmc::datasets::syn_pld_graph(4, 400, 2.2);
    let m = graph.num_edges();
    let mut rng = rng_from_seed(5);
    let mut requests = ParES::new(graph.clone(), SwitchingConfig::with_seed(6));
    let mut batches: Vec<Vec<SwitchRequest>> = Vec::new();
    for percent in [100usize, 7, 60, 100, 30, 100] {
        let perm = random_permutation(&mut rng, m);
        batches.push(SeqGlobalES::switches_from_permutation(&perm, m / 2 * percent / 100));
        let list = requests.sample_requests(m / 2);
        batches.extend(dependency_free_prefixes(&list).into_iter().map(<[_]>::to_vec));
    }
    for threads in [1, 2, 8] {
        on_threads(threads, || {
            let mut in_order = Lane::new(&graph);
            let mut parallel = Lane::new(&graph);
            let mut alternating = Lane::new(&graph);
            let mut seq = SeqGlobalES::new(graph.clone(), SwitchingConfig::with_seed(0));
            let (mut parallel_rebuilds, mut mixed_rebuilds) = (0, 0);
            for (b, batch) in batches.iter().enumerate() {
                let at = format!("{threads} threads, batch {b}");
                let legal_seq: usize = batch.iter().map(|&s| seq.apply(s) as usize).sum();
                let (legal, rebuilt) = in_order.run(Path::InOrder { prefetch: true }, batch);
                assert_eq!(legal, legal_seq, "{at}: in-order legal count");
                assert!(!rebuilt, "{at}: the in-order lane asked for a rebuild");
                let (parallel_legal, rebuilt) = parallel.run(Path::Algorithm1, batch);
                assert_eq!(parallel_legal, legal, "{at}: parallel legal count");
                parallel_rebuilds += rebuilt as usize;
                let path =
                    if b % 2 == 0 { Path::InOrder { prefetch: false } } else { Path::Algorithm1 };
                let (mixed_legal, rebuilt) = alternating.run(path, batch);
                assert_eq!(mixed_legal, legal, "{at}: mixed legal count");
                mixed_rebuilds += rebuilt as usize;
                if b == batches.len() / 2 && mixed_rebuilds == 0 {
                    // Half of its batches leave no tombstones, so the mixed
                    // lane may never ask for a rebuild; force one.
                    alternating.edge_set.rebuild();
                    mixed_rebuilds += 1;
                }

                let array = in_order.edges.snapshot_edges();
                assert_eq!(array, seq.graph().edges(), "{at}: in-order edge array");
                assert_eq!(parallel.edges.snapshot_edges(), array, "{at}: parallel edge array");
                assert_eq!(alternating.edges.snapshot_edges(), array, "{at}: mixed edge array");
                let set = in_order.sorted_edge_set();
                let mut canonical = array.clone();
                canonical.sort();
                assert_eq!(set, canonical, "{at}: in-order edge set");
                assert_eq!(parallel.sorted_edge_set(), set, "{at}: parallel edge set");
                assert_eq!(alternating.sorted_edge_set(), set, "{at}: mixed edge set");
            }
            assert!(parallel_rebuilds >= 1, "{threads} threads: the parallel lane never rebuilt");
            assert!(mixed_rebuilds >= 1, "{threads} threads: the mixed lane never rebuilt");
        });
    }
}

/// `ParES` and `ParGlobalES` leave the same edge array after every superstep
/// whether one thread runs it in order or 2 or 8 threads run Algorithm 1,
/// and `SeqES`, which draws the same stream as `ParES`, leaves that array
/// too.
#[test]
fn parallel_chains_are_independent_of_the_thread_count() {
    type Build = fn(EdgeListGraph, SwitchingConfig) -> Box<dyn EdgeSwitching + Send>;
    let par_es: Build = |g, c| Box::new(ParES::new(g, c));
    let seq_es: Build = |g, c| Box::new(SeqES::new(g, c));
    let par_global_es: Build = |g, c| Box::new(ParGlobalES::new(g, c));
    let lanes: [&[(usize, Build)]; 2] = [
        &[(1, par_es), (2, par_es), (8, par_es), (1, seq_es)],
        &[(1, par_global_es), (2, par_global_es), (8, par_global_es)],
    ];
    let graph = gesmc::datasets::syn_pld_graph(7, 600, 2.2);
    for lanes in lanes {
        let mut chains: Vec<(usize, Box<dyn EdgeSwitching + Send>)> = lanes
            .iter()
            .map(|&(threads, build)| (threads, build(graph.clone(), SwitchingConfig::with_seed(8))))
            .collect();
        for step in 0..6 {
            let arrays: Vec<Vec<Edge>> = chains
                .iter_mut()
                .map(|(threads, chain)| {
                    on_threads(*threads, || {
                        chain.superstep();
                        chain.graph().edges().to_vec()
                    })
                })
                .collect();
            let name = chains[0].1.name();
            assert_ne!(arrays[0], graph.edges(), "{name}: superstep {step} must switch edges");
            for ((threads, chain), array) in chains.iter().zip(&arrays).skip(1) {
                let lane = format!("{} at {threads} threads", chain.name());
                assert_eq!(array, &arrays[0], "superstep {step}: {lane} vs {name} at 1 thread");
            }
        }
    }
}

/// The FNV-1a of `chain`'s edge array in slot order, as `GESMCEL1` records.
fn edge_array_fingerprint(chain: &dyn EdgeSwitching) -> u64 {
    let mut bytes = Vec::with_capacity(8 * chain.num_edges());
    chain.for_each_edge(&mut |e| bytes.extend_from_slice(&e.to_le_bytes()));
    gesmc::randx::fnv1a_64(&bytes)
}

/// The four exact chains leave pinned bytes: after 6 supersteps (seed 5),
/// the FNV-1a of the edge array in slot order, and every superstep's legal
/// count.  The edge set of the 40k-edge G(n, m) graph has 2^18 buckets, on
/// which the in-order kernel is staged and prefetches; those of the 20k-edge
/// G(n, m) graph (2^17 buckets) and of the power-law graph (2^15) are not.
/// At two or more threads the parallel chains must reach the same values
/// through Algorithm 1.
#[test]
fn exact_chains_leave_pinned_bytes() {
    use gesmc::datasets::{syn_gnp_graph, syn_pld_graph};
    let graphs = [
        ("gnp 20k", syn_gnp_graph(1, 2500, 20000), 1 << 17),
        ("gnp 40k", syn_gnp_graph(1, 5000, 40000), 1 << 18),
        ("pld", syn_pld_graph(5, 700, 2.5), 1 << 15),
    ];
    let expected: [(&str, &str, u64, [usize; 6]); 12] = [
        ("gnp 20k", "seq-es", 0x70e7_d598_50ed_2bbf, [9874, 9887, 9877, 9880, 9869, 9899]),
        ("gnp 20k", "par-es", 0x70e7_d598_50ed_2bbf, [9874, 9887, 9877, 9880, 9869, 9899]),
        ("gnp 20k", "seq-global-es", 0xcaad_7e95_7e12_d237, [9758, 9793, 9774, 9800, 9811, 9756]),
        ("gnp 20k", "par-global-es", 0x22a9_1c9c_7c5d_32c7, [9778, 9778, 9793, 9769, 9784, 9771]),
        ("gnp 40k", "seq-es", 0xb100_a633_eebb_faaf, [19812, 19789, 19774, 19805, 19796, 19787]),
        ("gnp 40k", "par-es", 0xb100_a633_eebb_faaf, [19812, 19789, 19774, 19805, 19796, 19787]),
        (
            "gnp 40k",
            "seq-global-es",
            0x3442_2fdf_a4c4_9737,
            [19601, 19624, 19601, 19612, 19607, 19582],
        ),
        (
            "gnp 40k",
            "par-global-es",
            0x804d_0e5f_13f6_d3c3,
            [19601, 19609, 19617, 19602, 19604, 19598],
        ),
        ("pld", "seq-es", 0xcd2a_379e_db25_49ac, [305, 312, 308, 324, 324, 313]),
        ("pld", "par-es", 0xcd2a_379e_db25_49ac, [305, 312, 308, 324, 324, 313]),
        ("pld", "seq-global-es", 0x9b4d_d8a3_c07d_e14c, [305, 313, 312, 311, 313, 312]),
        ("pld", "par-global-es", 0xb730_2673_2fe7_e560, [318, 317, 318, 308, 312, 306]),
    ];
    for (name, graph, buckets) in &graphs {
        assert_eq!(ConcurrentEdgeSet::for_graph(graph).capacity(), *buckets, "{name}");
    }
    let registry = default_registry();
    for (graph_name, algo, fingerprint, legal) in expected {
        let graph = &graphs.iter().find(|(name, ..)| *name == graph_name).unwrap().1;
        let mut chain = registry.build(&ChainSpec::new(algo), graph.clone(), 5).unwrap();
        let counts: Vec<usize> = (0..6).map(|_| chain.superstep().legal).collect();
        let got = edge_array_fingerprint(chain.as_ref());
        assert_eq!((got, counts.as_slice()), (fingerprint, &legal[..]), "{algo} on {graph_name}");
    }
}
