//! Integration tests: the parallel chains are *exact*, i.e. given the same
//! switch sequence they produce bitwise the same graph as a sequential
//! execution, and G-ES-MC supersteps executed in parallel match the
//! sequential G-ES-MC implementation replaying the identical global switch.

use gesmc::chains::seq_global::SeqGlobalES;
use gesmc::chains::superstep::{parallel_superstep, run_superstep_on_graph};
use gesmc::chains::SwitchRequest;
use gesmc::concurrent::{AtomicEdgeList, ConcurrentEdgeSet, DependencyTable};
use gesmc::prelude::*;
use gesmc::randx::permutation::random_permutation;
use gesmc::randx::{rng_from_seed, sample_binomial};

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
        assert_eq!(s.legal + s.illegal, s.requested);
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
