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

/// Run `total` supersteps uninterrupted; independently run `cut`, checkpoint
/// through the binary format, resume into a fresh chain, and run the rest.
/// Returns (uninterrupted, resumed) canonical edge sets.
fn uninterrupted_vs_resumed(
    algorithm: &str,
    graph_seed: u64,
    chain_seed: u64,
    cut: usize,
    total: usize,
    (capture_threads, resume_threads): Threads,
) -> (Vec<u64>, Vec<u64>) {
    let graph = gnp(&mut rng_from_seed(graph_seed), 60, 0.09);
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
    // and the chain name recorded in its header, then restore the full state.
    let snapshot = &roundtripped.snapshot;
    let mut resumed =
        build(roundtripped.chain_name(), snapshot.graph().unwrap(), snapshot.config());
    resumed.restore(snapshot).unwrap();
    assert_eq!(snapshot.supersteps_done, cut as u64);
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
    let (full, resumed) =
        uninterrupted_vs_resumed(algorithm, seed ^ 0xABCD, seed, cut, total, threads);
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
        let mut resumed = build(ckpt.chain_name(), snapshot.graph().unwrap(), snapshot.config());
        resumed.restore(snapshot).unwrap();
        resumed.run_supersteps(5);
        resumed.graph().canonical_edges()
    };
    assert_eq!(run(&checkpoint), run(&checkpoint));
}
