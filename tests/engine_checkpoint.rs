//! Checkpoint/resume determinism: a chain checkpointed at superstep `t` and
//! resumed must match the uninterrupted chain's edge set *exactly* at every
//! superstep `T > t`, for every chain in the default registry — the five core
//! chains and the baselines (Global Curveball, both adjacency-list ES
//! variants) alike.
//!
//! The checkpoint round-trips through the binary format
//! (`Checkpoint::to_bytes` → `from_bytes`) on every case, so the property
//! also pins the on-disk encoding.

use gesmc::prelude::*;
use gesmc_engine::Checkpoint;
use gesmc_graph::gen::gnp;
use gesmc_randx::rng_from_seed;
use proptest::prelude::*;

/// Build `name` through the default registry with an explicit config (the
/// path the engine's resume uses).
fn build(
    name: &str,
    graph: EdgeListGraph,
    config: SwitchingConfig,
) -> Box<dyn EdgeSwitching + Send> {
    default_registry().build_with_config(&ChainSpec::new(name), graph, config).unwrap()
}

/// Thread counts of a resume test: the uninterrupted and the checkpointed
/// runs use the first, the resumed run the second; `None` keeps the ambient
/// pool.
type Threads = (Option<usize>, Option<usize>);

/// Both runs in the ambient pool.
const AMBIENT: Threads = (None, None);

/// The exact parallel chains also capture at 2 threads, where they run
/// Algorithm 1, and resume at 1, where they run their supersteps in order,
/// and the reverse.
const PARALLEL_CHAIN_THREADS: [Threads; 3] = [AMBIENT, (Some(2), Some(1)), (Some(1), Some(2))];

/// Run `op` on a rayon pool of `threads` threads, or in the ambient pool.
fn on_threads<R: Send>(threads: Option<usize>, op: impl FnOnce() -> R + Send) -> R {
    match threads {
        None => op(),
        Some(n) => rayon::ThreadPoolBuilder::new().num_threads(n).build().unwrap().install(op),
    }
}

/// Run `total` supersteps on `graph` uninterrupted; independently run `cut`,
/// checkpoint through the binary format, resume into a fresh chain, and run
/// the rest.  Returns (uninterrupted, resumed) canonical edge sets.
fn uninterrupted_vs_resumed(
    algorithm: &str,
    graph: EdgeListGraph,
    chain_seed: u64,
    cut: usize,
    total: usize,
    (capture_threads, resume_threads): Threads,
) -> (Vec<u64>, Vec<u64>) {
    let config = SwitchingConfig::with_seed(chain_seed);

    let (uninterrupted, interrupted) = on_threads(capture_threads, || {
        let mut uninterrupted = build(algorithm, graph.clone(), config);
        uninterrupted.run_supersteps(total);
        let mut interrupted = build(algorithm, graph, config);
        interrupted.run_supersteps(cut);
        (uninterrupted, interrupted)
    });
    let checkpoint = Checkpoint::capture(
        "prop",
        interrupted.as_ref(),
        &ChainSpec::new(algorithm),
        total as u64,
        0,
        0,
    )
    .unwrap();
    let roundtripped = Checkpoint::from_bytes(&checkpoint.to_bytes()).unwrap();
    assert_eq!(roundtripped, checkpoint, "binary format must round-trip losslessly");

    // Resume exactly as the engine does: build from the checkpoint's graph
    // and the chain name recorded in its header, then restore the counters.
    let snapshot = &roundtripped.snapshot;
    let mut resumed =
        build(roundtripped.chain_name(), roundtripped.graph().unwrap(), snapshot.config());
    resumed.restore(snapshot).unwrap();
    assert_eq!(snapshot.supersteps_done, cut as u64, "{algorithm}: checkpointed superstep");
    on_threads(resume_threads, || resumed.run_supersteps(total - cut));

    (uninterrupted.graph().canonical_edges(), resumed.graph().canonical_edges())
}

fn assert_bit_identical_resume(
    algorithm: &str,
    seed: u64,
    cut: usize,
    extra: usize,
    threads: Threads,
) {
    let total = cut + extra;
    let graph = gnp(&mut rng_from_seed(seed ^ 0xABCD), 60, 0.09);
    let (full, resumed) = uninterrupted_vs_resumed(algorithm, graph, seed, cut, total, threads);
    assert_eq!(
        full, resumed,
        "{algorithm}: resume from superstep {cut} diverged by superstep {total} (seed {seed}, \
         threads {threads:?})",
    );
}

proptest! {
    #[test]
    fn seq_es_checkpoint_resume_is_exact(seed in any::<u64>(), cut in 1usize..5, extra in 1usize..5) {
        assert_bit_identical_resume("seq-es", seed, cut, extra, AMBIENT);
    }

    #[test]
    fn seq_global_es_checkpoint_resume_is_exact(seed in any::<u64>(), cut in 1usize..5, extra in 1usize..5) {
        assert_bit_identical_resume("seq-global-es", seed, cut, extra, AMBIENT);
    }

    #[test]
    fn par_es_checkpoint_resume_is_exact(seed in any::<u64>(), cut in 1usize..4, extra in 1usize..4) {
        for threads in PARALLEL_CHAIN_THREADS {
            assert_bit_identical_resume("par-es", seed, cut, extra, threads);
        }
    }

    #[test]
    fn par_global_es_checkpoint_resume_is_exact(seed in any::<u64>(), cut in 1usize..4, extra in 1usize..4) {
        for threads in PARALLEL_CHAIN_THREADS {
            assert_bit_identical_resume("par-global-es", seed, cut, extra, threads);
        }
    }

    #[test]
    fn naive_par_es_checkpoint_resume_is_exact_single_threaded(seed in any::<u64>(), cut in 1usize..4, extra in 1usize..4) {
        // The inexact baseline's cross-thread interleaving is racy by design
        // (Sec. 5.1); its trajectory is only a function of the checkpoint
        // state under a single-threaded pool.
        let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        pool.install(|| assert_bit_identical_resume("naive-par-es", seed, cut, extra, AMBIENT));
    }

    #[test]
    fn global_curveball_checkpoint_resume_is_exact(seed in any::<u64>(), cut in 1usize..5, extra in 1usize..5) {
        assert_bit_identical_resume("global-curveball", seed, cut, extra, AMBIENT);
    }

    #[test]
    fn adjacency_es_checkpoint_resume_is_exact(seed in any::<u64>(), cut in 1usize..5, extra in 1usize..5) {
        assert_bit_identical_resume("adjacency-es", seed, cut, extra, AMBIENT);
    }

    #[test]
    fn sorted_adjacency_es_checkpoint_resume_is_exact(seed in any::<u64>(), cut in 1usize..5, extra in 1usize..5) {
        assert_bit_identical_resume("sorted-adjacency-es", seed, cut, extra, AMBIENT);
    }
}

/// On a graph with fewer than two edges no chain draws a switch, but every
/// chain still counts its supersteps, so a checkpoint records the superstep
/// it was taken at and the resumed run neither repeats nor skips any.
#[test]
fn tiny_graphs_resume_at_the_checkpointed_superstep() {
    let graphs = [
        EdgeListGraph::new(3, vec![]).unwrap(),
        EdgeListGraph::new(3, vec![gesmc_graph::Edge::new(0, 1)]).unwrap(),
    ];
    for info in default_registry().infos().filter(|info| info.snapshot) {
        let threads: &[Threads] = if info.name == "naive-par-es" {
            &[(Some(1), Some(1))]
        } else if info.exact && info.parallel {
            &PARALLEL_CHAIN_THREADS
        } else {
            &[AMBIENT]
        };
        for graph in &graphs {
            for &threads in threads {
                let (full, resumed) =
                    uninterrupted_vs_resumed(info.name, graph.clone(), 5, 2, 4, threads);
                assert_eq!(
                    full,
                    resumed,
                    "{} on {} edges, threads {threads:?}",
                    info.name,
                    graph.num_edges()
                );
            }
        }
    }
}

/// The checkpoint captured at `t` must also agree with the uninterrupted
/// chain observed *at* `t` (not only at the final superstep).
#[test]
fn checkpoint_state_matches_uninterrupted_prefix() {
    for info in default_registry().infos() {
        let graph = gnp(&mut rng_from_seed(7), 60, 0.09);
        let config = SwitchingConfig::with_seed(11);

        let mut reference = build(info.name, graph.clone(), config);
        reference.run_supersteps(4);

        let mut checkpointed = build(info.name, graph, config);
        // Interleave snapshots between supersteps: capturing must not
        // disturb the chain.
        for _ in 0..4 {
            checkpointed.superstep();
            let _ = checkpointed.snapshot().unwrap();
        }
        assert_eq!(
            checkpointed.graph().canonical_edges(),
            reference.graph().canonical_edges(),
            "{}: snapshot capture disturbed the chain",
            info.name
        );
    }
}

/// Resuming twice from the same checkpoint yields the same result (restores
/// do not consume or mutate the snapshot).
#[test]
fn resume_is_repeatable() {
    let graph = gnp(&mut rng_from_seed(21), 60, 0.09);
    let mut chain = build("par-global-es", graph, SwitchingConfig::with_seed(3));
    chain.run_supersteps(3);
    let checkpoint =
        Checkpoint::capture("twice", chain.as_ref(), &ChainSpec::new("par-global-es"), 8, 0, 0)
            .unwrap();

    let run = |ckpt: &Checkpoint| {
        let snapshot = &ckpt.snapshot;
        let mut resumed = build(ckpt.chain_name(), ckpt.graph().unwrap(), snapshot.config());
        resumed.restore(snapshot).unwrap();
        resumed.run_supersteps(5);
        resumed.graph().canonical_edges()
    };
    assert_eq!(run(&checkpoint), run(&checkpoint));
}

/// A snapshot carries no edges, so the chain it is restored into must hold
/// the captured graph: for every chain that can be checkpointed, `restore`
/// refuses a snapshot of another algorithm and one of a graph with another
/// node count, and accepts its own.
#[test]
fn restore_refuses_foreign_algorithms_and_node_counts() {
    use gesmc::chains::SnapshotError;
    let graph = gnp(&mut rng_from_seed(5), 40, 0.1);
    let larger = EdgeListGraph::new(41, graph.edges().to_vec()).unwrap();
    let config = SwitchingConfig::with_seed(3);
    let capable: Vec<_> = default_registry().infos().filter(|info| info.snapshot).collect();
    for info in &capable {
        let mut chain = build(info.name, graph.clone(), config);
        for other in capable.iter().filter(|other| other.chain_name != info.chain_name) {
            let foreign = build(other.name, graph.clone(), config).snapshot().unwrap();
            let refused = chain.restore(&foreign);
            assert!(
                matches!(refused, Err(SnapshotError::AlgorithmMismatch { .. })),
                "{} restored a {} snapshot: {refused:?}",
                info.name,
                other.name
            );
        }
        let resized = build(info.name, larger.clone(), config).snapshot().unwrap();
        assert_eq!(
            chain.restore(&resized),
            Err(SnapshotError::NodeCountMismatch { expected: 40, found: 41 }),
            "{}",
            info.name
        );
        let own = chain.snapshot().unwrap();
        assert_eq!(chain.restore(&own), Ok(()), "{}", info.name);
    }
}

/// The golden `GESMCKP1` file of chain `name` under `crates/engine/testdata/`.
fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/engine/testdata")
        .join(format!("{name}.ckpt"))
}

/// The job each golden file checkpoints: chain `name` (seed 7) on G(45, 0.1)
/// (seed 1, 110 edges) for 5 supersteps on one rayon thread, keeping only the
/// final sample.
fn golden_job(name: &str) -> JobSpec {
    let graph = gnp(&mut rng_from_seed(1), 45, 0.1);
    JobSpec::new(name, GraphSource::InMemory(graph), ChainSpec::new(name))
        .supersteps(5)
        .thinning(0)
        .seed(7)
        .threads(1)
}

/// Run `spec` (resuming from `resume` when given) and return its final
/// sample's edges in slot order.
fn final_edges(spec: &JobSpec, resume: Option<&Checkpoint>) -> Vec<gesmc_graph::Edge> {
    let mut sink = MemorySink::new();
    let samples = sink.store();
    run_job(default_registry(), spec, &mut sink, resume, &JobControl::new(), None).unwrap();
    let samples = samples.lock().unwrap();
    samples.last().expect("a final sample").1.edges().to_vec()
}

/// Checkpoints written by the engine before chain snapshots stopped carrying
/// the edges are kept as golden files, one per registered chain, each taken
/// at superstep 3 of its [`golden_job`].  The same runs must write the same
/// bytes today (through the engine and through `Checkpoint::capture`), and
/// each file, with or without its chain-spec tail, must resume to the
/// uninterrupted run's final sample.
#[test]
fn golden_checkpoints_are_byte_identical_and_resume_exactly() {
    let dir = std::env::temp_dir().join("gesmc-golden-checkpoints");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for info in default_registry().infos() {
        let spec = golden_job(info.name);
        let full = final_edges(&spec.clone().checkpoint(3, &dir), None);
        let written = std::fs::read(dir.join(format!("{}.ckpt", info.name))).unwrap();
        let golden = std::fs::read(golden_path(info.name))
            .unwrap_or_else(|e| panic!("{}: {e}", golden_path(info.name).display()));
        assert!(
            written == golden,
            "{}: the engine's checkpoint differs from the golden file",
            info.name
        );

        let chain = on_threads(Some(1), || {
            let graph = spec.source.load().unwrap();
            let mut chain = default_registry().build(&spec.algorithm, graph, spec.seed).unwrap();
            chain.run_supersteps(3);
            chain
        });
        let captured =
            Checkpoint::capture(info.name, chain.as_ref(), &spec.algorithm, 5, 0, 0).unwrap();
        assert!(
            captured.to_bytes() == golden,
            "{}: capture differs from the golden file",
            info.name
        );

        let checkpoint = Checkpoint::read_from_file(golden_path(info.name)).unwrap();
        assert_eq!(checkpoint.snapshot.supersteps_done, 3, "{}", info.name);
        assert_eq!(final_edges(&spec, Some(&checkpoint)), full, "{}: resumed run", info.name);
        let mut legacy = checkpoint.clone();
        legacy.algorithm_spec = None;
        let legacy = Checkpoint::from_bytes(&legacy.to_bytes()).unwrap();
        assert_eq!(
            final_edges(&spec, Some(&legacy)),
            full,
            "{}: resumed without a spec",
            info.name
        );
        if default_registry().store_factory(info.name).is_some() {
            let source = GraphSource::OutOfCore {
                path: golden_path(info.name),
                scratch: dir.join("resume.scratch.el"),
                memory_budget: 4096,
            };
            let out_of_core = JobSpec { source, ..spec };
            assert_eq!(final_edges(&out_of_core, None), full, "{}: resumed out of core", info.name);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
