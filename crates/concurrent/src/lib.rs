//! Concurrent data structures for exact parallel edge switching.
//!
//! Section 5 of the paper describes the data-structure layer that makes the
//! chains fast and the parallel ones exact:
//!
//! * the one **edge hash set** of every exact chain, with open addressing,
//!   power-of-two capacity, a low maximum load factor, and an 8-bit lock
//!   field per bucket manipulated with compare-and-swap
//!   ([`edge_set::ConcurrentEdgeSet`]).  Algorithm 1 and `NaiveParES` write
//!   it atomically; the in-order kernel of the sequential chains, and of the
//!   parallel ones at one thread, writes it through exclusive access with
//!   plain stores.  That kernel hashes each edge once into an
//!   [`edge_set::EdgeProbe`], prefetches the probe's home bucket, and
//!   queries and writes the set with the same probe some switches later, in
//!   one [`ConcurrentEdgeSet::switch_mut`] per switch,
//! * the **dependency table** of `ParallelSuperstep` (Algorithm 1): a
//!   reusable, lock-free map from each packed edge to the one switch erasing
//!   it and the list of switches inserting it, plus one three-state
//!   (undecided / legal / illegal) cell per switch
//!   ([`dep_table::DependencyTable`]).  The parallel pass that registers a
//!   superstep's switches publishes the inserter lists when it joins; the
//!   decision rounds read them only after that join,
//! * an **atomic edge array** so that switches owning disjoint indices can
//!   rewire `E[i]`/`E[j]` from different threads without locks
//!   ([`atomic_edge_list::AtomicEdgeList`]), whose slots the in-order kernel
//!   prefetches ahead of the switches that read them,
//! * the portable **software prefetch** hint of both ([`prefetch`], Sec.
//!   5.4).
//!
//! All structures are safe Rust; the only (optional) unsafe code is the
//! x86_64 prefetch intrinsic, which is isolated in [`prefetch`].

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod atomic_edge_list;
pub mod dep_table;
pub mod edge_set;
pub mod prefetch;

pub use atomic_edge_list::AtomicEdgeList;
pub use dep_table::{DependencyTable, SwitchState};
pub use edge_set::{ConcurrentEdgeSet, EdgeProbe, LockOutcome};

/// Scramble a packed edge identifier into a well-distributed hash.
///
/// The paper uses the hardware `crc32` instruction; we use the splitmix64 /
/// Murmur3 finalizer, which has equivalent scrambling quality, is portable,
/// and needs no feature detection.
#[inline]
pub fn hash_edge(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_edge_spreads_consecutive_keys() {
        // Consecutive packed edges should spread like random keys: throwing
        // 512 balls into 1024 bins hits ~403 distinct bins in expectation, so
        // anything far below that indicates clustering in the low bits.
        let mask = 1023u64;
        let mut buckets = std::collections::HashSet::new();
        for k in 0..512u64 {
            buckets.insert(hash_edge(k) & mask);
        }
        assert!(buckets.len() > 350, "only {} distinct buckets", buckets.len());
    }

    #[test]
    fn hash_edge_is_deterministic() {
        assert_eq!(hash_edge(12345), hash_edge(12345));
        assert_ne!(hash_edge(1), hash_edge(2));
    }
}
