//! Chain state snapshots: the foundation of checkpoint/resume.
//!
//! A [`ChainSnapshot`] captures the counters a switching chain needs, beside
//! its edge array, to continue *bit-identically* to an uninterrupted run: the
//! raw PRNG stream state, the auxiliary seed-derivation state of the parallel
//! chains, the superstep counter, and the [`SwitchingConfig`].  The edge
//! array itself, in slot order, is read through
//! [`EdgeSwitching::for_each_edge`]; a resume builds the chain from those
//! edges and then [`restore`](EdgeSwitching::restore)s the snapshot.
//!
//! Snapshots are plain in-memory values; the binary on-disk format lives in
//! `gesmc-engine` (`gesmc_engine::Checkpoint`), which stores a snapshot
//! together with the edges and job-level metadata.

use crate::chain::{EdgeSwitching, SwitchingConfig};
use gesmc_randx::RngState;

/// Errors raised by [`EdgeSwitching::restore`].
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The snapshot was taken from a different algorithm.
    AlgorithmMismatch {
        /// Name of the chain being restored into.
        expected: String,
        /// Algorithm recorded in the snapshot.
        found: String,
    },
    /// The snapshot was taken of a graph with another number of nodes than
    /// the chain's.
    NodeCountMismatch {
        /// Node count of the chain being restored into.
        expected: usize,
        /// Node count recorded in the snapshot.
        found: usize,
    },
    /// The chain implementation does not support snapshots.
    Unsupported(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::AlgorithmMismatch { expected, found } => {
                write!(f, "snapshot of algorithm {found:?} cannot restore a {expected:?} chain")
            }
            SnapshotError::NodeCountMismatch { expected, found } => {
                write!(f, "snapshot of a {found}-node graph cannot restore a {expected}-node chain")
            }
            SnapshotError::Unsupported(name) => {
                write!(f, "algorithm {name:?} does not support snapshot/restore")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A resumable capture of a switching chain's counters (the edges travel
/// beside it).
#[derive(Debug, Clone, PartialEq)]
pub struct ChainSnapshot {
    /// Name of the algorithm the snapshot was taken from (must match the
    /// chain it is restored into).
    pub algorithm: String,
    /// Number of nodes `n` of the graph.
    pub num_nodes: usize,
    /// Raw state of the chain's main PRNG; the empty marker
    /// ([`RngState::is_empty`]) for chains that do not own one.
    pub rng: RngState,
    /// Raw state of the chain's [`gesmc_randx::SeedSequence`] (per-superstep
    /// seed derivation in the parallel chains); `0` if unused.
    pub aux_seed_state: u64,
    /// Number of supersteps executed so far.
    pub supersteps_done: u64,
    /// [`SwitchingConfig::seed`] the chain was created with.
    pub seed: u64,
    /// [`SwitchingConfig::loop_probability`] of the chain.
    pub loop_probability: f64,
    /// [`SwitchingConfig::prefetch`] of the chain.
    pub prefetch: bool,
}

impl ChainSnapshot {
    /// The snapshot of `chain` (its name and node count) with the given
    /// counters.
    pub fn new(
        chain: &dyn EdgeSwitching,
        rng: RngState,
        aux_seed_state: u64,
        supersteps_done: u64,
        config: SwitchingConfig,
    ) -> Self {
        Self {
            algorithm: chain.name().to_string(),
            num_nodes: chain.num_nodes(),
            rng,
            aux_seed_state,
            supersteps_done,
            seed: config.seed,
            loop_probability: config.loop_probability,
            prefetch: config.prefetch,
        }
    }

    /// Reconstruct the [`SwitchingConfig`] recorded in the snapshot.
    pub fn config(&self) -> SwitchingConfig {
        SwitchingConfig {
            seed: self.seed,
            loop_probability: self.loop_probability,
            prefetch: self.prefetch,
        }
    }

    /// The guard every [`EdgeSwitching::restore`] starts with (also available
    /// to chains implemented outside this crate, e.g. the baselines): the
    /// snapshot must come from `chain`'s algorithm and have its node count.
    pub fn check(&self, chain: &dyn EdgeSwitching) -> Result<(), SnapshotError> {
        if self.algorithm != chain.name() {
            return Err(SnapshotError::AlgorithmMismatch {
                expected: chain.name().to_string(),
                found: self.algorithm.clone(),
            });
        }
        if self.num_nodes != chain.num_nodes() {
            return Err(SnapshotError::NodeCountMismatch {
                expected: chain.num_nodes(),
                found: self.num_nodes,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeqES;
    use gesmc_graph::{Edge, EdgeListGraph};

    fn sample_snapshot() -> ChainSnapshot {
        ChainSnapshot {
            algorithm: "SeqES".to_string(),
            num_nodes: 4,
            rng: RngState::default(),
            aux_seed_state: 0,
            supersteps_done: 7,
            seed: 42,
            loop_probability: 0.01,
            prefetch: true,
        }
    }

    #[test]
    fn config_reconstruction() {
        let snap = sample_snapshot();
        let cfg = snap.config();
        assert_eq!(cfg.seed, 42);
        assert!((cfg.loop_probability - 0.01).abs() < 1e-12);
        assert!(cfg.prefetch);
    }

    #[test]
    fn algorithm_and_node_count_guard() {
        let graph = EdgeListGraph::new(4, vec![Edge::new(0, 1), Edge::new(2, 3)]).unwrap();
        let chain = SeqES::new(graph, SwitchingConfig::with_seed(1));
        let mut snap = sample_snapshot();
        assert!(snap.check(&chain).is_ok());
        snap.num_nodes = 5;
        let err = snap.check(&chain).unwrap_err();
        assert_eq!(err, SnapshotError::NodeCountMismatch { expected: 4, found: 5 });
        snap.algorithm = "ParES".to_string();
        let err = snap.check(&chain).unwrap_err();
        assert!(matches!(err, SnapshotError::AlgorithmMismatch { .. }));
        assert!(err.to_string().contains("ParES"));
    }
}

#[cfg(test)]
mod chain_roundtrip_tests {
    use crate::chain::{EdgeSwitching, SwitchingConfig};
    use crate::{NaiveParES, ParES, ParGlobalES, SeqES, SeqGlobalES};
    use gesmc_graph::gen::gnp;
    use gesmc_graph::EdgeListGraph;
    use gesmc_randx::rng_from_seed;

    fn test_graph(seed: u64) -> EdgeListGraph {
        let mut rng = rng_from_seed(seed);
        gnp(&mut rng, 90, 0.08)
    }

    /// Run `total` supersteps uninterrupted; run `cut` supersteps, snapshot,
    /// restore into a *fresh* chain built from the captured graph, run the
    /// remaining supersteps there.  Both must land on the identical edge set.
    fn assert_resume_bit_identical<C, F>(make: F, cut: usize, total: usize)
    where
        C: EdgeSwitching,
        F: Fn(EdgeListGraph) -> C,
    {
        let graph = test_graph(17);
        let mut uninterrupted = make(graph.clone());
        uninterrupted.run_supersteps(total);

        let mut interrupted = make(graph.clone());
        interrupted.run_supersteps(cut);
        let snap = interrupted.snapshot().expect("core chains must support snapshots");
        assert_eq!(snap.supersteps_done, cut as u64);

        // Build from the captured graph and restore, as the resume path of
        // the engine does.
        let mut resumed = make(interrupted.graph());
        resumed.restore(&snap).expect("restore must succeed");
        assert_eq!(resumed.graph().canonical_edges(), interrupted.graph().canonical_edges());
        resumed.run_supersteps(total - cut);

        assert_eq!(
            resumed.graph().canonical_edges(),
            uninterrupted.graph().canonical_edges(),
            "{} resumed run diverged from the uninterrupted run",
            resumed.name()
        );
    }

    #[test]
    fn seq_es_resumes_bit_identically() {
        assert_resume_bit_identical(|g| SeqES::new(g, SwitchingConfig::with_seed(5)), 3, 9);
    }

    #[test]
    fn seq_global_es_resumes_bit_identically() {
        assert_resume_bit_identical(|g| SeqGlobalES::new(g, SwitchingConfig::with_seed(5)), 3, 9);
    }

    #[test]
    fn par_es_resumes_bit_identically() {
        assert_resume_bit_identical(|g| ParES::new(g, SwitchingConfig::with_seed(5)), 3, 9);
    }

    #[test]
    fn par_global_es_resumes_bit_identically() {
        assert_resume_bit_identical(|g| ParGlobalES::new(g, SwitchingConfig::with_seed(5)), 3, 9);
    }

    #[test]
    fn naive_par_es_resumes_bit_identically_single_threaded() {
        // The inexact baseline's switch interleaving is racy across threads;
        // only under a single-threaded pool is its trajectory a function of
        // its snapshot state.
        let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        pool.install(|| {
            assert_resume_bit_identical(
                |g| NaiveParES::new(g, SwitchingConfig::with_seed(5)),
                3,
                9,
            );
        });
    }

    #[test]
    fn restore_rejects_foreign_snapshots() {
        let graph = test_graph(1);
        let seq = SeqES::new(graph.clone(), SwitchingConfig::with_seed(2));
        let snap = seq.snapshot().unwrap();
        let mut global = SeqGlobalES::new(graph, SwitchingConfig::with_seed(2));
        assert!(matches!(
            global.restore(&snap),
            Err(crate::SnapshotError::AlgorithmMismatch { .. })
        ));
    }

    #[test]
    fn restore_carries_the_config() {
        let graph = test_graph(3);
        let chain =
            SeqGlobalES::new(graph.clone(), SwitchingConfig::with_seed(7).loop_probability(0.3));
        let snap = chain.snapshot().unwrap();
        let mut other = SeqGlobalES::new(graph, SwitchingConfig::with_seed(1));
        other.restore(&snap).unwrap();
        let roundtrip = other.snapshot().unwrap();
        assert_eq!(roundtrip.seed, 7);
        assert!((roundtrip.loop_probability - 0.3).abs() < 1e-12);
    }
}
