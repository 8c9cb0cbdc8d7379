//! `StoreSwitching` — the extra surface an out-of-core-capable chain exposes.
//!
//! A chain built over an [`EdgeStore`](gesmc_graph::EdgeStore) can run on
//! graphs that never fit in RAM, so the in-memory convenience methods of
//! [`EdgeSwitching`] (`graph()`, `snapshot()` with a full edge vector) are the
//! wrong interface for it.  The engine's one job loop (`run_job`, for an
//! out-of-core job) instead streams samples straight from the store
//! ([`StoreSwitching::stream_edges`]) and checkpoints metadata and edge
//! payload separately ([`StoreSwitching::snapshot_meta`] /
//! [`StoreSwitching::restore_meta`]).
//!
//! The invariant tying the two interfaces together: **the storage backend
//! never changes the sample bytes**.  A `StoreSwitching` chain over an
//! external store must visit exactly the chain states of the same chain over
//! the in-memory store at the same seed (property-tested in the workspace's
//! `exmem_equivalence` suite).

use crate::chain::EdgeSwitching;
use crate::snapshot::{ChainSnapshot, SnapshotError};
use gesmc_graph::Edge;

/// An [`EdgeSwitching`] chain that runs over a pluggable
/// [`EdgeStore`](gesmc_graph::EdgeStore) and supports streaming access to its
/// state, for out-of-core execution.
pub trait StoreSwitching: EdgeSwitching {
    /// Number of nodes `n` (cheap; does not materialize the graph).
    fn store_num_nodes(&self) -> usize;

    /// Visit the current edge array in slot order without materializing it.
    ///
    /// Includes buffered writes that have not been flushed to the backing
    /// storage yet.
    fn stream_edges(&mut self, visit: &mut dyn FnMut(Edge));

    /// Capture the chain state *without* the edge payload: the returned
    /// snapshot's `edges` vector is empty and its `num_nodes`/counters/RNG
    /// words are authoritative.  The edge payload is streamed separately via
    /// [`StoreSwitching::stream_edges`].
    fn snapshot_meta(&self) -> ChainSnapshot;

    /// Restore the chain bookkeeping (RNG state, superstep counter,
    /// configuration) from a metadata snapshot, keeping the current store
    /// contents — the resume path loads the edge payload into the store
    /// before building the chain.
    ///
    /// The snapshot's `num_nodes` and the store's node count must agree;
    /// its (empty) edge vector is ignored.
    fn restore_meta(&mut self, snapshot: &ChainSnapshot) -> Result<(), SnapshotError>;

    /// Flush buffered dirty state to the backing storage.
    fn flush_store(&mut self) -> std::io::Result<()>;

    /// Cumulative backend I/O counters (defaults to all-zero for stores
    /// without real I/O); used to annotate trace spans with chunk traffic.
    fn store_io_stats(&self) -> gesmc_graph::StoreIoStats {
        gesmc_graph::StoreIoStats::default()
    }
}
