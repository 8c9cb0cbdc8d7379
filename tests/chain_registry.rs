//! The open algorithm API, end to end through the umbrella crate: the
//! `ChainSpec` grammar round-trips, the default registry is complete (every
//! registered chain builds, runs, preserves degrees, and checkpoints), and
//! registry errors are readable.

use gesmc::prelude::*;
use gesmc_graph::gen::gnp;
use gesmc_randx::rng_from_seed;

#[test]
fn default_registry_covers_core_chains_and_baselines() {
    let names = default_registry().names();
    assert!(names.len() >= 7, "expected at least 7 chains, got {names:?}");
    for name in [
        "seq-es",
        "seq-global-es",
        "par-es",
        "par-global-es",
        "naive-par-es",
        "global-curveball",
        "adjacency-es",
        "sorted-adjacency-es",
    ] {
        assert!(names.contains(&name), "{name} missing from {names:?}");
    }
}

/// Every registered chain builds from its plain name, runs a superstep,
/// preserves the degree sequence, honours its capability flags, and resolves
/// by every advertised spelling.
#[test]
fn every_registered_chain_builds_runs_and_preserves_degrees() {
    let registry = default_registry();
    for info in registry.infos() {
        let graph = gnp(&mut rng_from_seed(5), 90, 0.07);
        let degrees = graph.degrees();
        let spec = ChainSpec::new(info.name);
        let mut chain = registry.build(&spec, graph, 3).unwrap_or_else(|e| {
            panic!("{}: {e}", info.name);
        });
        assert_eq!(chain.name(), info.chain_name, "{}", info.name);
        let stats = chain.superstep();
        assert!(stats.requested > 0, "{}: superstep did nothing", info.name);
        let result = chain.graph();
        assert_eq!(result.degrees(), degrees, "{}: degrees violated", info.name);
        assert!(result.validate().is_ok(), "{}: graph not simple", info.name);
        // The static snapshot capability flag must match the chain's actual
        // behaviour, so `gesmc algorithms` can never lie about it.
        assert_eq!(chain.snapshot().is_some(), info.snapshot, "{}", info.name);
        // Every spelling resolves back to the same chain.
        for spelling in [info.name, info.chain_name].iter().chain(info.aliases.iter()) {
            assert_eq!(registry.resolve(spelling).unwrap().name, info.name, "{spelling}");
        }
    }
}

#[test]
fn spec_strings_round_trip_for_every_registered_chain() {
    for info in default_registry().infos() {
        let plain = ChainSpec::parse(info.name).unwrap();
        assert_eq!(ChainSpec::parse(&plain.to_string()).unwrap(), plain);
        let with_params =
            ChainSpec::parse(&format!("{}?pl=0.125&prefetch=off", info.name)).unwrap();
        assert_eq!(ChainSpec::parse(&with_params.to_string()).unwrap(), with_params);
        assert!(default_registry().validate(&with_params).is_ok(), "{}", info.name);
        // The JSON object form is equivalent to the string form.
        assert_eq!(ChainSpec::from_json(&with_params.to_json()).unwrap(), with_params);
    }
}

#[test]
fn unknown_names_and_bad_params_error_readably() {
    let registry = default_registry();
    match registry.resolve("quantum-es") {
        Err(ChainError::UnknownChain { name, known }) => {
            assert_eq!(name, "quantum-es");
            assert!(known.len() >= 7);
        }
        other => panic!("expected UnknownChain, got {other:?}"),
    }
    assert!(matches!(
        registry.validate(&ChainSpec::parse("par-global-es?warp=9").unwrap()),
        Err(ChainError::UnknownParam { .. })
    ));
    assert!(matches!(
        registry.validate(&ChainSpec::parse("par-global-es?pl=2").unwrap()),
        Err(ChainError::BadParam { .. })
    ));
    // The grammar itself rejects malformed specs without panicking.
    assert!(matches!(ChainSpec::parse("par-global-es?pl"), Err(ChainError::Grammar(_))));
}

/// Chain parameters flow through a whole job: two jobs differing only in
/// `prefetch` / `pl` still agree on the chain trajectory where the paper says
/// they must (prefetch only reorders memory accesses).
#[test]
fn per_job_prefetch_is_plumbed_to_the_chain() {
    let graph = gnp(&mut rng_from_seed(9), 80, 0.08);
    let run = |spec_text: &str| {
        let spec = JobSpec::new(
            "p",
            GraphSource::InMemory(graph.clone()),
            ChainSpec::parse(spec_text).unwrap(),
        )
        .supersteps(4)
        .seed(2);
        let sink = MemorySink::new();
        let store = sink.store();
        let mut sink = sink;
        run_job(default_registry(), &spec, &mut sink, None, &JobControl::new(), None).unwrap();
        let last = store.lock().unwrap().last().unwrap().1.clone();
        last.canonical_edges()
    };
    // seq-es with and without prefetch visit identical chain states.
    assert_eq!(run("seq-es"), run("seq-es?prefetch=off"));
    // A different P_L genuinely changes a G-ES-MC trajectory.
    assert_ne!(run("seq-global-es?pl=0.001"), run("seq-global-es?pl=0.9"));
}

/// The core chains keep their edges in a set with 28-bit node ids and
/// refuse larger graphs; `seq-es-ext` packs node ids into 32 bits and runs
/// the same chain on them.
#[test]
fn seq_es_ext_runs_graphs_beyond_the_edge_set_node_limit() {
    // {0, 2^28 + 5} and {1, 5} would share one 56-bit edge-set key.
    let far = (1 << 28) + 5;
    let pairs = [(0, far), (1, 5), (2, 3), (4, 6), (7, 8), (9, 10), (11, 12), (13, 14)];
    let edges = pairs.iter().map(|&(u, v)| Edge::new(u, v)).collect();
    let graph = EdgeListGraph::new(far as usize + 1, edges).unwrap();
    let registry = default_registry();
    let refused = registry.build(&ChainSpec::new("seq-es"), graph.clone(), 1).map(|_| ());
    match refused {
        Err(ChainError::UnsupportedGraph { message, .. }) => {
            assert!(message.contains("seq-es-ext"), "{message}")
        }
        other => panic!("seq-es: expected UnsupportedGraph, got {other:?}"),
    }
    let endpoints = |g: &EdgeListGraph| {
        let mut nodes: Vec<u32> = g.edges().iter().flat_map(|e| [e.u(), e.v()]).collect();
        nodes.sort_unstable();
        nodes
    };
    let mut chain = registry.build(&ChainSpec::new("seq-es-ext"), graph.clone(), 1).unwrap();
    assert!(chain.run_supersteps(4).total_legal() > 0);
    assert_eq!(endpoints(&chain.graph()), endpoints(&graph));
    assert!(chain.graph().validate().is_ok());
}
