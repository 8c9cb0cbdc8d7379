//! The common interface of all switching chains and their configuration.

use crate::snapshot::{ChainSnapshot, SnapshotError};
use crate::stats::{ChainStats, SuperstepStats};
use gesmc_graph::{Edge, EdgeListGraph, StoreIoStats};

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
    /// buckets, on edge sets large enough for that to pay.  Every in-order
    /// superstep of the four exact chains ([`ExactChain`](crate::ExactChain):
    /// always for [`SeqES`](crate::SeqES) and
    /// [`SeqGlobalES`](crate::SeqGlobalES), at one thread for
    /// [`ParES`](crate::ParES) and [`ParGlobalES`](crate::ParGlobalES)) uses
    /// it; it changes no byte.  Every other chain ignores it.
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
///
/// A chain's state is its edge array, which [`for_each_edge`] reads in slot
/// order, and the counters a [`ChainSnapshot`] records: the PRNG stream, the
/// superstep count and the configuration.  The edges may live on the heap or
/// in an external [`EdgeStore`](gesmc_graph::EdgeStore) (`seq-es-ext` runs
/// out of core); [`flush`] and [`io_stats`] serve the latter.  A checkpoint
/// (`gesmc_engine::Checkpoint`) stores both parts, and a resume builds the
/// chain from the captured edges, exactly as a fresh run builds it from its
/// input, then [`restore`]s the counters.
///
/// [`for_each_edge`]: Self::for_each_edge
/// [`flush`]: Self::flush
/// [`io_stats`]: Self::io_stats
/// [`restore`]: Self::restore
pub trait EdgeSwitching {
    /// Human-readable name of the algorithm (used by the benchmark tables).
    fn name(&self) -> &'static str;

    /// Number of nodes `n` of the graph being randomised.
    fn num_nodes(&self) -> usize;

    /// Number of edges `m` of the graph being randomised.
    fn num_edges(&self) -> usize;

    /// The current graph, materialised.
    fn graph(&self) -> EdgeListGraph;

    /// Visit the current edges in slot order (chains sample slot indices, so
    /// the order is part of the state).  Defaults to reading
    /// [`graph`](Self::graph); chains that can read their edge array in place
    /// override it, so streaming a sample or a checkpoint copies nothing.
    fn for_each_edge(&self, visit: &mut dyn FnMut(Edge)) {
        self.graph().edges().iter().for_each(|&edge| visit(edge));
    }

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

    /// Capture the chain's counters for checkpoint/resume; the edges are
    /// captured apart from them, through [`for_each_edge`](Self::for_each_edge).
    ///
    /// A chain built from those edges and [`restore`](Self::restore)d with the
    /// returned snapshot continues *bit-identically* to never having been
    /// interrupted.  Returns `None` for implementations that do not support
    /// snapshots; every registered chain does (a chain's
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

    /// Continue the run `snapshot` was taken of, on a chain built from the
    /// edges captured with it.
    ///
    /// Checks that the snapshot comes from this algorithm
    /// ([`SnapshotError::AlgorithmMismatch`]) and has this chain's node count
    /// ([`SnapshotError::NodeCountMismatch`]), then sets the PRNG stream, the
    /// auxiliary seed state, the superstep counter and the configuration.
    /// The edges are left as they are.
    fn restore(&mut self, snapshot: &ChainSnapshot) -> Result<(), SnapshotError> {
        let _ = snapshot;
        Err(SnapshotError::Unsupported(self.name()))
    }

    /// Write edges buffered in memory to the chain's backing storage; a no-op
    /// for chains that keep their edges on the heap.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    /// Cumulative I/O counters of the chain's edge storage (all zero for heap
    /// chains); used to annotate trace spans with chunk traffic.
    fn io_stats(&self) -> StoreIoStats {
        StoreIoStats::default()
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
