//! The common interface of all switching chains and their configuration.

use crate::snapshot::{ChainSnapshot, SnapshotError};
use crate::stats::{ChainStats, SuperstepStats};
use gesmc_graph::EdgeListGraph;

/// Configuration shared by every chain implementation.
#[derive(Debug, Clone, Copy)]
pub struct SwitchingConfig {
    /// Seed of the pseudo-random stream driving the chain.
    pub seed: u64,
    /// Per-switch rejection probability `P_L` of the G-ES-MC (Def. 3).
    ///
    /// Each of the `⌊m/2⌋` switches of a global switch is executed with
    /// probability `1 − P_L`; a small positive value guarantees aperiodicity.
    /// Ignored by the ES-MC family.
    pub loop_probability: f64,
    /// Software-pipeline the in-order kernel (Sec. 5.4): stage each switch a
    /// fixed distance ahead and prefetch its edge-array slots and hash-set
    /// buckets, on edge sets large enough for that to pay.  The four exact
    /// chains ([`SeqES`](crate::SeqES), [`SeqGlobalES`](crate::SeqGlobalES),
    /// and [`ParES`](crate::ParES) and [`ParGlobalES`](crate::ParGlobalES) at
    /// one thread) use it; it changes no byte.  Every other chain ignores it.
    pub prefetch: bool,
}

impl SwitchingConfig {
    /// Default configuration with the given seed (`P_L = 0.01`, prefetching
    /// enabled).
    pub fn with_seed(seed: u64) -> Self {
        Self { seed, loop_probability: 0.01, prefetch: true }
    }

    /// Builder-style override of `P_L`.
    ///
    /// # Panics
    ///
    /// If `p` is outside `[0, 1)`.  This is the programmer-facing builder;
    /// user input should go through [`ChainSpec`](crate::ChainSpec), whose
    /// validation reports errors instead of panicking.
    pub fn loop_probability(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "P_L must lie in [0, 1)");
        self.loop_probability = p;
        self
    }

    /// Builder-style override of the prefetch flag.
    pub fn prefetch(mut self, enabled: bool) -> Self {
        self.prefetch = enabled;
        self
    }
}

impl Default for SwitchingConfig {
    fn default() -> Self {
        Self::with_seed(0)
    }
}

/// Common interface of every switching chain.
///
/// A *superstep* is the unit used throughout the paper's evaluation:
/// `⌊m/2⌋` uniformly random edge switches for ES-MC style chains and one
/// global switch for G-ES-MC style chains, so that one superstep of either
/// family attempts a comparable amount of work.
pub trait EdgeSwitching {
    /// Human-readable name of the algorithm (used by the benchmark tables).
    fn name(&self) -> &'static str;

    /// Number of edges `m` of the graph being randomised.
    fn num_edges(&self) -> usize;

    /// Snapshot of the current graph.
    fn graph(&self) -> EdgeListGraph;

    /// Perform one superstep and report its statistics.
    fn superstep(&mut self) -> SuperstepStats;

    /// Perform `count` supersteps and aggregate the statistics.
    fn run_supersteps(&mut self, count: usize) -> ChainStats {
        let mut stats = ChainStats::default();
        for _ in 0..count {
            stats.push(self.superstep());
        }
        stats
    }

    /// Capture the complete chain state for checkpoint/resume.
    ///
    /// Restoring the returned snapshot (into a chain of the same algorithm)
    /// and continuing yields a run *bit-identical* to never having been
    /// interrupted.  Returns `None` for implementations that do not support
    /// snapshots; all five chains of `gesmc-core` and all three
    /// `gesmc-baselines` chains do (a chain's
    /// [`ChainInfo::snapshot`](crate::ChainInfo::snapshot) capability flag
    /// records it).
    ///
    /// **Exception**: the inexact [`NaiveParES`](crate::NaiveParES) baseline
    /// interleaves switches racily across threads, so its resumes are
    /// bit-identical only under a single-threaded rayon pool (see its
    /// `snapshot` documentation).
    fn snapshot(&self) -> Option<ChainSnapshot> {
        None
    }

    /// Replace this chain's state with `snapshot`, continuing its run.
    ///
    /// The snapshot must come from the same algorithm
    /// ([`SnapshotError::AlgorithmMismatch`] otherwise); the graph it carries
    /// fully replaces the current one, so the chain being restored into may
    /// have been constructed from any placeholder graph.
    fn restore(&mut self, snapshot: &ChainSnapshot) -> Result<(), SnapshotError> {
        let _ = snapshot;
        Err(SnapshotError::Unsupported(self.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders() {
        let cfg = SwitchingConfig::with_seed(9).loop_probability(0.25).prefetch(false);
        assert_eq!(cfg.seed, 9);
        assert!((cfg.loop_probability - 0.25).abs() < 1e-12);
        assert!(!cfg.prefetch);
        let def = SwitchingConfig::default();
        assert!((def.loop_probability - 0.01).abs() < 1e-12);
        assert!(def.prefetch);
    }

    #[test]
    #[should_panic]
    fn invalid_loop_probability_panics() {
        let _ = SwitchingConfig::with_seed(0).loop_probability(1.0);
    }
}
