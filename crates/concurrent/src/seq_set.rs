//! Sequential open-addressing edge hash set.
//!
//! The sequential chains (`SeqES`, `SeqGlobalES`) need a set of packed edges
//! supporting a roughly balanced mix of insertions, deletions and membership
//! queries, all in expected constant time (Sec. 5.2).  This is a linear
//! probing table with power-of-two capacity and a maximum load factor of 1/2,
//! matching the design the paper settled on after comparing several hash-set
//! implementations.
//!
//! Deletions leave no tombstones: an erase moves later entries of the probe
//! cluster back into the gap (backward-shift deletion, Knuth's Algorithm R in
//! TAOCP Vol. 3, §6.4), so probes always run at the live load factor.  For
//! the prefetching pipeline (Sec. 5.4) every operation is also available in
//! split form: [`SeqEdgeSet::prefetch`] computes the home bucket and
//! prefetches it, and the actual operation is carried out later.

use crate::hash_edge;
use crate::prefetch::prefetch_read_pair;
use gesmc_graph::PackedEdge;

const EMPTY: u64 = u64::MAX;

/// A sequential hash set of packed edges.
///
/// Packed edges `(u << 32) | v` with `u <= v` never collide with the empty
/// sentinel because it decodes to a self-loop, which simple graphs never
/// contain.
#[derive(Clone, Debug)]
pub struct SeqEdgeSet {
    buckets: Vec<u64>,
    mask: usize,
    len: usize,
}

impl SeqEdgeSet {
    /// Create a set able to hold `capacity_hint` edges at load factor ≤ 1/2.
    pub fn with_capacity(capacity_hint: usize) -> Self {
        let buckets = (capacity_hint.max(4) * 2).next_power_of_two();
        Self { buckets: vec![EMPTY; buckets], mask: buckets - 1, len: 0 }
    }

    /// Build a set containing the given edges.
    pub fn from_edges(edges: impl IntoIterator<Item = PackedEdge>, capacity_hint: usize) -> Self {
        let mut set = Self::with_capacity(capacity_hint);
        for e in edges {
            set.insert(e);
        }
        set
    }

    /// Number of edges stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of buckets (for load-factor diagnostics and benchmarks).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.buckets.len()
    }

    #[inline]
    fn home_bucket(&self, key: PackedEdge) -> usize {
        (hash_edge(key) as usize) & self.mask
    }

    /// Issue a software prefetch for the buckets `key` will probe first.
    ///
    /// Part of the split hash-then-operate API used by the prefetching
    /// pipeline; calling it is optional and has no semantic effect.
    #[inline]
    pub fn prefetch(&self, key: PackedEdge) {
        prefetch_read_pair(&self.buckets, self.home_bucket(key));
    }

    /// Whether `key` is in the set.
    #[inline]
    pub fn contains(&self, key: PackedEdge) -> bool {
        self.find(key).is_ok()
    }

    /// Probe for `key`: `Ok` with its bucket if present, else `Err` with the
    /// empty bucket that ends its probe path.
    #[inline]
    fn find(&self, key: PackedEdge) -> Result<usize, usize> {
        debug_assert!(key != EMPTY);
        let mut idx = self.home_bucket(key);
        loop {
            match self.buckets[idx] {
                EMPTY => return Err(idx),
                slot if slot == key => return Ok(idx),
                _ => idx = (idx + 1) & self.mask,
            }
        }
    }

    /// Insert `key`; returns `false` if it was already present.
    pub fn insert(&mut self, key: PackedEdge) -> bool {
        self.maybe_grow();
        let Err(idx) = self.find(key) else {
            return false;
        };
        self.buckets[idx] = key;
        self.len += 1;
        true
    }

    /// Erase `key`; returns whether it was present.
    ///
    /// Each later entry of the probe cluster whose probe path passes the gap
    /// moves into it and leaves a gap of its own; the last gap becomes empty.
    pub fn erase(&mut self, key: PackedEdge) -> bool {
        let Ok(mut hole) = self.find(key) else {
            return false;
        };
        let mut next = (hole + 1) & self.mask;
        while self.buckets[next] != EMPTY {
            // The entry may fill the gap iff the gap lies on its probe path,
            // from its home bucket up to `next`.
            let home = self.home_bucket(self.buckets[next]);
            if next.wrapping_sub(home) & self.mask >= next.wrapping_sub(hole) & self.mask {
                self.buckets[hole] = self.buckets[next];
                hole = next;
            }
            next = (next + 1) & self.mask;
        }
        self.buckets[hole] = EMPTY;
        self.len -= 1;
        true
    }

    /// Iterate over the stored edges (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = PackedEdge> + '_ {
        self.buckets.iter().copied().filter(|&b| b != EMPTY)
    }

    /// Double the table when one more entry would raise the load factor
    /// above 1/2.
    fn maybe_grow(&mut self) {
        let cap = self.buckets.len();
        if (self.len + 1) * 2 > cap {
            let old = std::mem::replace(&mut self.buckets, vec![EMPTY; cap * 2]);
            self.mask = cap * 2 - 1;
            self.len = 0;
            for key in old.into_iter().filter(|&b| b != EMPTY) {
                self.insert(key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesmc_graph::Edge;

    fn key(u: u32, v: u32) -> PackedEdge {
        Edge::new(u, v).pack()
    }

    #[test]
    fn insert_contains_erase_roundtrip() {
        let mut set = SeqEdgeSet::with_capacity(8);
        assert!(set.is_empty());
        assert!(set.insert(key(1, 2)));
        assert!(!set.insert(key(2, 1)), "same undirected edge");
        assert!(set.contains(key(1, 2)));
        assert!(!set.contains(key(1, 3)));
        assert_eq!(set.len(), 1);
        assert!(set.erase(key(1, 2)));
        assert!(!set.erase(key(1, 2)));
        assert!(set.is_empty());
    }

    #[test]
    fn tombstones_do_not_hide_entries() {
        let mut set = SeqEdgeSet::with_capacity(4);
        // Fill, erase, re-insert repeatedly: every erase shifts entries back.
        for round in 0..50u32 {
            for i in 0..20u32 {
                set.insert(key(round, i + 1 + round));
            }
            for i in 0..10u32 {
                assert!(set.erase(key(round, i + 1 + round)));
            }
            for i in 10..20u32 {
                assert!(set.contains(key(round, i + 1 + round)), "round {round} lost an edge");
            }
        }
    }

    #[test]
    fn grows_beyond_initial_capacity() {
        let mut set = SeqEdgeSet::with_capacity(2);
        for i in 0..10_000u32 {
            assert!(set.insert(key(i, i + 1)));
        }
        assert_eq!(set.len(), 10_000);
        for i in 0..10_000u32 {
            assert!(set.contains(key(i, i + 1)));
        }
        // Load factor stays at or below 1/2.
        assert!(set.capacity() >= 2 * set.len());
    }

    #[test]
    fn iter_returns_exactly_the_live_edges() {
        let mut set = SeqEdgeSet::with_capacity(16);
        let keys: Vec<u64> = (0..100u32).map(|i| key(i, i + 7)).collect();
        for &k in &keys {
            set.insert(k);
        }
        for &k in keys.iter().take(30) {
            set.erase(k);
        }
        let mut live: Vec<u64> = set.iter().collect();
        live.sort_unstable();
        let mut expected: Vec<u64> = keys[30..].to_vec();
        expected.sort_unstable();
        assert_eq!(live, expected);
    }

    #[test]
    fn prefetch_has_no_semantic_effect() {
        let mut set = SeqEdgeSet::with_capacity(8);
        set.insert(key(3, 9));
        set.prefetch(key(3, 9));
        set.prefetch(key(4, 5));
        assert!(set.contains(key(3, 9)));
        assert!(!set.contains(key(4, 5)));
    }

    #[test]
    fn erase_shifts_clusters_that_wrap_past_the_last_bucket() {
        use std::collections::HashSet;
        // Seven keys whose home is one of the last three of 16 buckets: at
        // most 7 are ever live, so the table keeps its 16 buckets, and its
        // clusters often run from bucket 15 into bucket 0.
        let mut set = SeqEdgeSet::with_capacity(8);
        let keys: Vec<u64> =
            (1..).map(|v| key(0, v)).filter(|&k| set.home_bucket(k) >= 13).take(7).collect();
        let mut model = HashSet::new();
        let mut wrapped = 0;
        for r in 0..5_000u64 {
            let k = keys[(hash_edge(r) % 7) as usize];
            if hash_edge(!r) % 2 == 0 {
                assert_eq!(set.insert(k), model.insert(k), "insert {k:#x} at step {r}");
            } else {
                wrapped += (set.buckets[set.mask] != EMPTY && set.buckets[0] != EMPTY) as usize;
                assert_eq!(set.erase(k), model.remove(&k), "erase {k:#x} at step {r}");
            }
            assert_eq!(set.len(), model.len());
            for &k in &keys {
                assert_eq!(set.contains(k), model.contains(&k), "{k:#x} at step {r}");
            }
            // Every entry is reachable from its home bucket.
            for (b, &slot) in set.buckets.iter().enumerate().filter(|&(_, &s)| s != EMPTY) {
                let mut idx = set.home_bucket(slot);
                while idx != b {
                    assert_ne!(set.buckets[idx], EMPTY, "bucket {b} at step {r}");
                    idx = (idx + 1) & set.mask;
                }
            }
        }
        assert_eq!(set.capacity(), 16);
        assert!(wrapped > 100, "only {wrapped} erases met a cluster across the last bucket");
    }

    #[test]
    fn heavy_mixed_workload_matches_std_hashset() {
        use std::collections::HashSet;
        let mut ours = SeqEdgeSet::with_capacity(4);
        let mut reference: HashSet<u64> = HashSet::new();
        let mut state = 12345u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..20_000 {
            let u = (next() % 500) as u32;
            let v = (next() % 500) as u32;
            if u == v {
                continue;
            }
            let k = key(u, v);
            match next() % 3 {
                0 => assert_eq!(ours.insert(k), reference.insert(k)),
                1 => assert_eq!(ours.erase(k), reference.remove(&k)),
                _ => assert_eq!(ours.contains(k), reference.contains(&k)),
            }
        }
        assert_eq!(ours.len(), reference.len());
    }
}
