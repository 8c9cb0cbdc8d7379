//! Concurrent open-addressing edge hash set with per-bucket lock bits.
//!
//! This is the data structure of Sec. 5.2 of the paper: each bucket is a
//! single 64-bit word holding a packed edge in its lower 56 bits and an 8-bit
//! lock/owner field in its upper byte, manipulated exclusively through
//! compare-and-swap.  The 56-bit edge encoding restricts node ids to 28 bits
//! (`n ≤ 2^28`), exactly as in the paper; all evaluation graphs fit
//! comfortably.
//!
//! The set serves two distinct clients:
//!
//! * the **exact chains**, sequential and parallel, use it as the
//!   authoritative edge-existence set.  With two or more threads a parallel
//!   chain's superstep runs concurrent `contains`, then batched parallel
//!   `erase`/`insert` of the decided switches (no locks needed because
//!   Observation 2 guarantees each edge is erased at most once and inserted
//!   by at most one legal switch per superstep).  The sequential chains, and
//!   the parallel ones at one thread, run their switches in order and write
//!   through [`ConcurrentEdgeSet::insert_mut`] /
//!   [`ConcurrentEdgeSet::erase_mut`]: the `&mut` borrow proves that no
//!   other thread can probe the set, so a plain store replaces the
//!   compare-and-swap and the atomic counter updates;
//! * **`NaiveParES`** uses the ticket semantics — lock an existing edge or
//!   insert-and-lock a new one — to prevent concurrent updates of the same
//!   edge while deliberately ignoring switch dependencies.
//!
//! Every insert, atomic or exclusive, takes the first empty bucket on its
//! probe path.  The two kinds of erase differ.  An atomic erase leaves a
//! tombstone, because concurrent probes must still pass its bucket.  An
//! exclusive erase leaves none: it moves later entries of the probe cluster
//! back into the gap (backward-shift deletion, Knuth's Algorithm R in TAOCP
//! Vol. 3, §6.4) and steps over tombstones.  So the two paths leave the same
//! contents but different layouts, and they may follow each other on one set
//! in any order.  The owner rebuilds the table between supersteps once
//! tombstones start to degrade probe lengths
//! ([`ConcurrentEdgeSet::needs_rebuild`] / [`ConcurrentEdgeSet::rebuild`]);
//! in-order supersteps add none, so they never trigger a rebuild.

use crate::hash_edge;
use crate::prefetch::prefetch_read_pair;
use gesmc_graph::edge::MAX_NODE_56;
use gesmc_graph::{Edge, EdgeListGraph};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const EMPTY: u64 = 0;
const TOMBSTONE: u64 = 0xFF00_0000_0000_0000;
const EDGE_MASK: u64 = (1 << 56) - 1;

/// Outcome of a ticket-acquisition operation used by `NaiveParES`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOutcome {
    /// The ticket was acquired (edge locked by the caller).
    Acquired,
    /// The edge exists but is currently locked by another processing unit.
    Busy,
    /// The edge is not in the set.
    NotFound,
    /// The edge is already in the set (insert-and-lock only).
    AlreadyPresent,
}

/// A concurrent hash set of packed edges with 8-bit lock fields.
#[derive(Debug)]
pub struct ConcurrentEdgeSet {
    buckets: Vec<AtomicU64>,
    mask: usize,
    live: AtomicUsize,
    tombstones: AtomicUsize,
}

impl ConcurrentEdgeSet {
    /// Largest node count whose ids fit the 28-bit halves of a bucket's key.
    pub const MAX_NODES: usize = MAX_NODE_56 as usize + 1;

    /// Build the set of `graph`'s edges, sized for twice its edge count so
    /// that the tombstones of Algorithm 1 supersteps fit between rebuilds.
    ///
    /// # Panics
    /// If `graph` has more than [`MAX_NODES`](Self::MAX_NODES) nodes: two of
    /// its edges could then share one key.
    pub fn for_graph(graph: &EdgeListGraph) -> Self {
        assert!(
            graph.num_nodes() <= Self::MAX_NODES,
            "ConcurrentEdgeSet holds node ids below 2^28, but the graph has {} nodes",
            graph.num_nodes()
        );
        Self::from_edges(graph.edges().iter(), graph.num_edges() * 2)
    }

    /// Create a set able to hold `capacity_hint` edges at load factor ≤ 1/2.
    pub fn with_capacity(capacity_hint: usize) -> Self {
        let buckets = (capacity_hint.max(4) * 2).next_power_of_two();
        Self {
            buckets: (0..buckets).map(|_| AtomicU64::new(EMPTY)).collect(),
            mask: buckets - 1,
            live: AtomicUsize::new(0),
            tombstones: AtomicUsize::new(0),
        }
    }

    /// Build a set containing the edges of `edges`.
    pub fn from_edges<'a>(edges: impl IntoIterator<Item = &'a Edge>, capacity_hint: usize) -> Self {
        let mut set = Self::with_capacity(capacity_hint);
        for e in edges {
            set.insert_mut(*e);
        }
        set
    }

    /// Number of live edges (exact when no operations are in flight).
    pub fn len(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of buckets.
    pub fn capacity(&self) -> usize {
        self.buckets.len()
    }

    #[inline]
    fn key_of(edge: Edge) -> u64 {
        edge.pack56()
    }

    #[inline]
    fn entry(key: u64, lock: u8) -> u64 {
        ((lock as u64) << 56) | key
    }

    #[inline]
    fn home_bucket(&self, key: u64) -> usize {
        (hash_edge(key) as usize) & self.mask
    }

    /// Issue a software prefetch for the buckets `edge` will probe first.
    #[inline]
    pub fn prefetch(&self, edge: Edge) {
        prefetch_read_pair(&self.buckets, self.home_bucket(Self::key_of(edge)));
    }

    /// Probe for `key`: `Ok` with its bucket if present (locked or not),
    /// else `Err` with the first empty bucket on its probe path.
    #[inline]
    fn find(&self, key: u64) -> Result<usize, usize> {
        let mut idx = self.home_bucket(key);
        loop {
            let slot = self.buckets[idx].load(Ordering::Acquire);
            if slot == EMPTY {
                return Err(idx);
            }
            if slot != TOMBSTONE && (slot & EDGE_MASK) == key {
                return Ok(idx);
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// Panic unless one more bucket can be filled with an empty one to spare,
    /// which every probe loop needs to terminate.
    fn assert_not_overfull(&self) {
        assert!(
            self.live.load(Ordering::Relaxed) + self.tombstones.load(Ordering::Relaxed)
                < self.buckets.len() - 1,
            "ConcurrentEdgeSet is overfull: size it for the graph's edge count and rebuild \
             between supersteps to reclaim tombstones"
        );
    }

    /// Whether `edge` is in the set (locked or not).
    pub fn contains(&self, edge: Edge) -> bool {
        self.find(Self::key_of(edge)).is_ok()
    }

    /// Insert `edge` unlocked through exclusive access; returns `false` if it
    /// was already present.
    ///
    /// Leaves the same bucket layout as [`insert`](Self::insert) without its
    /// compare-and-swap and atomic counter update.
    pub fn insert_mut(&mut self, edge: Edge) -> bool {
        self.assert_not_overfull();
        let key = Self::key_of(edge);
        let Err(idx) = self.find(key) else {
            return false;
        };
        *self.buckets[idx].get_mut() = Self::entry(key, 0);
        *self.live.get_mut() += 1;
        true
    }

    /// Erase `edge` (regardless of its lock state) through exclusive access;
    /// returns whether it was present.
    ///
    /// Leaves no tombstone.  Each later entry of the probe cluster whose
    /// probe path passes the gap moves into it, lock byte included, and
    /// leaves a gap of its own; the last gap becomes empty.  Tombstones of
    /// atomic erases stay where they are.
    pub fn erase_mut(&mut self, edge: Edge) -> bool {
        let Ok(mut hole) = self.find(Self::key_of(edge)) else {
            return false;
        };
        let mut next = (hole + 1) & self.mask;
        loop {
            let slot = *self.buckets[next].get_mut();
            if slot == EMPTY {
                break;
            }
            if slot != TOMBSTONE {
                // The entry may fill the gap iff the gap lies on its probe
                // path, from its home bucket up to `next`.
                let home = self.home_bucket(slot & EDGE_MASK);
                if next.wrapping_sub(home) & self.mask >= next.wrapping_sub(hole) & self.mask {
                    *self.buckets[hole].get_mut() = slot;
                    hole = next;
                }
            }
            next = (next + 1) & self.mask;
        }
        *self.buckets[hole].get_mut() = EMPTY;
        *self.live.get_mut() -= 1;
        true
    }

    /// Insert `edge` unlocked; returns `false` if it was already present.
    ///
    /// Concurrent inserts of the *same* edge are resolved so that exactly one
    /// caller observes `true`.
    pub fn insert(&self, edge: Edge) -> bool {
        self.insert_entry(Self::key_of(edge), 0)
    }

    /// Insert `key` locked by `lock` (0 = unlocked) into the first empty
    /// bucket on its probe path; returns `false` if it was already present.
    ///
    /// A failed compare-and-swap means another insert took that bucket
    /// first, so the probe starts again.  No bucket becomes empty again while
    /// other threads can probe, so the retry passes the same buckets and
    /// then examines the one that was just taken.
    fn insert_entry(&self, key: u64, lock: u8) -> bool {
        self.assert_not_overfull();
        loop {
            let Err(idx) = self.find(key) else {
                return false;
            };
            let taken = self.buckets[idx].compare_exchange(
                EMPTY,
                Self::entry(key, lock),
                Ordering::AcqRel,
                Ordering::Acquire,
            );
            if taken.is_ok() {
                self.live.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
    }

    /// Erase `edge` (regardless of its lock state); returns whether it was
    /// present.
    pub fn erase(&self, edge: Edge) -> bool {
        let key = Self::key_of(edge);
        let mut idx = self.home_bucket(key);
        loop {
            let slot = self.buckets[idx].load(Ordering::Acquire);
            if slot == EMPTY {
                return false;
            }
            if slot != TOMBSTONE && (slot & EDGE_MASK) == key {
                match self.buckets[idx].compare_exchange(
                    slot,
                    TOMBSTONE,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        self.live.fetch_sub(1, Ordering::Relaxed);
                        self.tombstones.fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                    Err(_) => continue,
                }
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// Acquire the ticket of an existing edge by locking it (CAS the owner id
    /// into the lock byte).  `owner` must be non-zero.
    pub fn try_lock_existing(&self, edge: Edge, owner: u8) -> LockOutcome {
        debug_assert!(owner != 0, "owner id 0 denotes the unlocked state");
        let key = Self::key_of(edge);
        let mut idx = self.home_bucket(key);
        loop {
            let slot = self.buckets[idx].load(Ordering::Acquire);
            if slot == EMPTY {
                return LockOutcome::NotFound;
            }
            if slot != TOMBSTONE && (slot & EDGE_MASK) == key {
                if slot >> 56 != 0 {
                    return LockOutcome::Busy;
                }
                return match self.buckets[idx].compare_exchange(
                    slot,
                    Self::entry(key, owner),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => LockOutcome::Acquired,
                    Err(_) => LockOutcome::Busy,
                };
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// Acquire a ticket for a *new* edge by inserting it in locked state.
    ///
    /// Returns [`LockOutcome::AlreadyPresent`] if the edge exists (locked or
    /// not), otherwise inserts it locked by `owner` and returns
    /// [`LockOutcome::Acquired`].
    pub fn try_insert_and_lock(&self, edge: Edge, owner: u8) -> LockOutcome {
        debug_assert!(owner != 0, "owner id 0 denotes the unlocked state");
        if self.insert_entry(Self::key_of(edge), owner) {
            LockOutcome::Acquired
        } else {
            LockOutcome::AlreadyPresent
        }
    }

    /// Release the lock on an edge held by `owner` (keeps the edge in the set).
    ///
    /// Returns whether the unlock happened (i.e. the edge was present and
    /// locked by `owner`).
    pub fn unlock(&self, edge: Edge, owner: u8) -> bool {
        let key = Self::key_of(edge);
        let locked = Self::entry(key, owner);
        let mut idx = self.home_bucket(key);
        loop {
            let slot = self.buckets[idx].load(Ordering::Acquire);
            if slot == EMPTY {
                return false;
            }
            if slot != TOMBSTONE && (slot & EDGE_MASK) == key {
                return self.buckets[idx]
                    .compare_exchange(
                        locked,
                        Self::entry(key, 0),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok();
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// Erase an edge whose ticket is held by `owner`.
    ///
    /// Returns whether the erase happened.
    pub fn erase_locked(&self, edge: Edge, owner: u8) -> bool {
        let key = Self::key_of(edge);
        let locked = Self::entry(key, owner);
        let mut idx = self.home_bucket(key);
        loop {
            let slot = self.buckets[idx].load(Ordering::Acquire);
            if slot == EMPTY {
                return false;
            }
            if slot != TOMBSTONE && (slot & EDGE_MASK) == key {
                let ok = self.buckets[idx]
                    .compare_exchange(locked, TOMBSTONE, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok();
                if ok {
                    self.live.fetch_sub(1, Ordering::Relaxed);
                    self.tombstones.fetch_add(1, Ordering::Relaxed);
                }
                return ok;
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// Whether accumulated tombstones warrant a rebuild (live + tombstones
    /// exceed half of the capacity).
    ///
    /// The threshold is deliberately conservative: the chains call this
    /// between supersteps, and a single Algorithm 1 superstep can add up to
    /// `2m` new slots (tombstones for erased edges plus freshly inserted
    /// ones), so the table must never enter a superstep more than half full.
    /// Only atomic erases leave tombstones, so a set sized by
    /// [`for_graph`](Self::for_graph) that only in-order supersteps write
    /// never needs a rebuild.
    pub fn needs_rebuild(&self) -> bool {
        let used = self.live.load(Ordering::Relaxed) + self.tombstones.load(Ordering::Relaxed);
        2 * used > self.buckets.len()
    }

    /// Rebuild the table from its live entries, dropping all tombstones.
    ///
    /// Requires exclusive access, which the chains have between supersteps.
    pub fn rebuild(&mut self) {
        let live: Vec<Edge> = self.iter().collect();
        for b in &mut self.buckets {
            *b.get_mut() = EMPTY;
        }
        *self.live.get_mut() = 0;
        *self.tombstones.get_mut() = 0;
        for e in live {
            self.insert_mut(e);
        }
    }

    /// Iterate over the live edges in bucket order.  Concurrent
    /// modification yields an unspecified but memory-safe snapshot.
    pub fn iter(&self) -> impl Iterator<Item = Edge> + '_ {
        self.buckets.iter().filter_map(|b| {
            let slot = b.load(Ordering::Relaxed);
            if slot == EMPTY || slot == TOMBSTONE {
                None
            } else {
                Some(Edge::unpack56(slot & EDGE_MASK))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn insert_contains_erase() {
        let set = ConcurrentEdgeSet::with_capacity(16);
        assert!(set.insert(Edge::new(1, 2)));
        assert!(!set.insert(Edge::new(2, 1)));
        assert!(set.contains(Edge::new(1, 2)));
        assert!(!set.contains(Edge::new(1, 3)));
        assert_eq!(set.len(), 1);
        assert!(set.erase(Edge::new(1, 2)));
        assert!(!set.erase(Edge::new(1, 2)));
        assert!(!set.contains(Edge::new(1, 2)));
        assert!(set.is_empty());
    }

    #[test]
    fn lock_semantics() {
        let set = ConcurrentEdgeSet::with_capacity(16);
        set.insert(Edge::new(0, 1));

        assert_eq!(set.try_lock_existing(Edge::new(0, 1), 7), LockOutcome::Acquired);
        assert_eq!(set.try_lock_existing(Edge::new(0, 1), 9), LockOutcome::Busy);
        assert_eq!(set.try_lock_existing(Edge::new(2, 3), 7), LockOutcome::NotFound);
        // Still visible while locked.
        assert!(set.contains(Edge::new(0, 1)));

        // Unlock only succeeds for the owner.
        assert!(!set.unlock(Edge::new(0, 1), 9));
        assert!(set.unlock(Edge::new(0, 1), 7));
        assert_eq!(set.try_lock_existing(Edge::new(0, 1), 9), LockOutcome::Acquired);

        // Erase-locked requires ownership.
        assert!(!set.erase_locked(Edge::new(0, 1), 7));
        assert!(set.erase_locked(Edge::new(0, 1), 9));
        assert!(!set.contains(Edge::new(0, 1)));
    }

    #[test]
    fn insert_and_lock_semantics() {
        let set = ConcurrentEdgeSet::with_capacity(16);
        assert_eq!(set.try_insert_and_lock(Edge::new(4, 5), 3), LockOutcome::Acquired);
        assert_eq!(set.try_insert_and_lock(Edge::new(4, 5), 8), LockOutcome::AlreadyPresent);
        assert!(set.contains(Edge::new(4, 5)));
        // Rollback: erase the edge we just inserted and locked.
        assert!(set.erase_locked(Edge::new(4, 5), 3));
        assert!(!set.contains(Edge::new(4, 5)));
        // Commit path: insert-and-lock then unlock keeps the edge.
        assert_eq!(set.try_insert_and_lock(Edge::new(4, 5), 3), LockOutcome::Acquired);
        assert!(set.unlock(Edge::new(4, 5), 3));
        assert_eq!(set.try_lock_existing(Edge::new(4, 5), 8), LockOutcome::Acquired);
    }

    #[test]
    fn concurrent_inserts_of_distinct_edges() {
        let n = 50_000u32;
        let set = ConcurrentEdgeSet::with_capacity(n as usize);
        (0..n).into_par_iter().for_each(|i| {
            assert!(set.insert(Edge::new(i, i + 1)));
        });
        assert_eq!(set.len(), n as usize);
        (0..n).into_par_iter().for_each(|i| {
            assert!(set.contains(Edge::new(i, i + 1)));
            assert!(!set.contains(Edge::new(i, i + 2)));
        });
    }

    #[test]
    fn concurrent_inserts_of_same_edge_only_one_wins() {
        let set = ConcurrentEdgeSet::with_capacity(64);
        let winners: usize =
            (0..64).into_par_iter().map(|_| set.insert(Edge::new(10, 20)) as usize).sum();
        assert_eq!(winners, 1);
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn concurrent_lock_contention_grants_one_ticket() {
        let set = ConcurrentEdgeSet::with_capacity(16);
        set.insert(Edge::new(1, 2));
        let acquired: usize = (1..=64u8)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|tid| {
                (set.try_lock_existing(Edge::new(1, 2), tid) == LockOutcome::Acquired) as usize
            })
            .sum();
        assert_eq!(acquired, 1);
    }

    #[test]
    fn rebuild_drops_tombstones_and_keeps_live_edges() {
        // 256 buckets; erasing converts live entries to tombstones without
        // freeing slots, so 140 total inserts (> 128 = half the capacity)
        // trip the rebuild threshold while the table is never full.
        let mut set = ConcurrentEdgeSet::with_capacity(128);
        for i in 0..140u32 {
            set.insert(Edge::new(i, i + 1));
        }
        for i in 0..100u32 {
            set.erase(Edge::new(i, i + 1));
        }
        assert!(set.needs_rebuild());
        set.rebuild();
        assert!(!set.needs_rebuild());
        assert_eq!(set.len(), 40);
        for i in 100..140u32 {
            assert!(set.contains(Edge::new(i, i + 1)));
        }
        for i in 0..100u32 {
            assert!(!set.contains(Edge::new(i, i + 1)));
        }
    }

    #[test]
    #[should_panic(expected = "overfull")]
    fn overfilling_panics_instead_of_hanging() {
        let set = ConcurrentEdgeSet::with_capacity(4);
        for i in 0..64u32 {
            set.insert(Edge::new(i, i + 1));
        }
    }

    #[test]
    fn exclusive_writes_match_a_hash_set_across_tombstones_and_rebuilds() {
        // The edges {u, v} with u < v < 20: few enough that inserts of
        // present edges and erases of missing ones are common.
        let edge = |r: u64| {
            let (a, b) = ((r % 20) as u32, ((r >> 8) % 19) as u32);
            Edge::new(a, if b >= a { b + 1 } else { b })
        };
        let mut set = ConcurrentEdgeSet::with_capacity(128);
        let mut model = std::collections::HashSet::new();
        // Start from tombstones that the atomic erase left behind.
        for r in 0..100u64 {
            let e = edge(hash_edge(r));
            assert_eq!(set.insert(e), model.insert(e));
        }
        for r in 0..100u64 {
            let e = edge(hash_edge(r));
            if r % 2 == 0 {
                assert_eq!(set.erase(e), model.remove(&e));
            }
        }
        assert!(set.tombstones.load(Ordering::Relaxed) > 0);
        let mut rebuilds = 0;
        for r in 100..3_000u64 {
            let e = edge(hash_edge(r));
            if hash_edge(!r) % 2 == 0 {
                assert_eq!(set.insert_mut(e), model.insert(e), "insert {e:?} at step {r}");
            } else {
                assert_eq!(set.erase_mut(e), model.remove(&e), "erase {e:?} at step {r}");
            }
            assert_eq!(set.len(), model.len());
            if set.needs_rebuild() {
                set.rebuild();
                rebuilds += 1;
            }
        }
        assert!(rebuilds > 0, "the sequence must run through a rebuild");
        let mut from_set: Vec<Edge> = set.iter().collect();
        from_set.sort();
        let mut from_model: Vec<Edge> = model.into_iter().collect();
        from_model.sort();
        assert_eq!(from_set, from_model);
        for r in 0..1_000u64 {
            let e = edge(hash_edge(r ^ 0x5555));
            assert_eq!(set.contains(e), from_model.binary_search(&e).is_ok());
        }
    }

    /// Panic unless every live entry is reachable from its home bucket
    /// without crossing an empty bucket.
    fn assert_probe_paths_unbroken(set: &ConcurrentEdgeSet) {
        for (b, bucket) in set.buckets.iter().enumerate() {
            let slot = bucket.load(Ordering::Relaxed);
            if slot == EMPTY || slot == TOMBSTONE {
                continue;
            }
            let mut idx = set.home_bucket(slot & EDGE_MASK);
            while idx != b {
                assert_ne!(set.buckets[idx].load(Ordering::Relaxed), EMPTY, "bucket {b}");
                idx = (idx + 1) & set.mask;
            }
        }
    }

    #[test]
    fn exclusive_erases_shift_clusters_that_wrap_past_the_last_bucket() {
        // 16 buckets and the 10 edges {u, v} with u < v < 5, so clusters
        // are long and often run from bucket 15 into bucket 0.
        let edge = |r: u64| {
            let (a, b) = ((r % 5) as u32, ((r >> 8) % 4) as u32);
            Edge::new(a, if b >= a { b + 1 } else { b })
        };
        let mut set = ConcurrentEdgeSet::with_capacity(8);
        assert_eq!(set.capacity(), 16);
        let mut model = std::collections::HashSet::new();
        // Start from tombstones that the atomic erase left behind.
        for r in 0..4u64 {
            let e = Edge::new(r as u32, 5);
            assert!(set.insert(e));
            assert!(set.erase(e));
        }
        assert_eq!(set.tombstones.load(Ordering::Relaxed), 4);
        let mut wrapped = 0;
        for r in 0..5_000u64 {
            let e = edge(hash_edge(r));
            let last = set.buckets[set.mask].load(Ordering::Relaxed);
            let first = set.buckets[0].load(Ordering::Relaxed);
            if hash_edge(!r) % 2 == 0 {
                assert_eq!(set.insert_mut(e), model.insert(e), "insert {e:?} at step {r}");
            } else {
                wrapped += (last != EMPTY && first != EMPTY) as usize;
                assert_eq!(set.erase_mut(e), model.remove(&e), "erase {e:?} at step {r}");
            }
            assert_eq!(set.len(), model.len());
            assert_probe_paths_unbroken(&set);
            for a in 0..5u32 {
                for b in a + 1..5 {
                    let e = Edge::new(a, b);
                    assert_eq!(set.contains(e), model.contains(&e), "{e:?} at step {r}");
                }
            }
        }
        assert!(wrapped > 100, "only {wrapped} erases met a cluster across the last bucket");
        assert_eq!(set.tombstones.load(Ordering::Relaxed), 4, "tombstones stay in place");
    }

    #[test]
    fn exclusive_writes_leave_no_tombstones() {
        // The writes of in-order supersteps: each switch erases two edges
        // and inserts two, at a quarter of the table's capacity.
        let mut set = ConcurrentEdgeSet::with_capacity(64);
        let mut live: Vec<Edge> = (0..64u32).map(|i| Edge::new(i, i + 1)).collect();
        for &e in &live {
            assert!(set.insert_mut(e));
        }
        for r in 0..10_000u64 {
            let slot = (hash_edge(r) % 64) as usize;
            let fresh = Edge::new((hash_edge(!r) % 1000) as u32, 1000 + r as u32);
            assert!(set.erase_mut(live[slot]));
            assert!(set.insert_mut(fresh));
            live[slot] = fresh;
            assert_eq!(set.tombstones.load(Ordering::Relaxed), 0);
            assert!(!set.needs_rebuild(), "step {r}");
        }
        assert_eq!(set.len(), 64);
        assert!(live.iter().all(|&e| set.contains(e)));
        assert_probe_paths_unbroken(&set);
    }

    #[test]
    fn shifted_entries_keep_their_locks() {
        let mut set = ConcurrentEdgeSet::with_capacity(8);
        // Two edges with the same home bucket: the second lands one bucket
        // later, locked, and the exclusive erase of the first shifts it home.
        let home_of = |e: Edge| set.home_bucket(ConcurrentEdgeSet::key_of(e));
        let first = Edge::new(0, 1);
        let home = home_of(first);
        let second = (2..1000u32).map(|v| Edge::new(0, v)).find(|&e| home_of(e) == home).unwrap();
        assert!(set.insert_mut(first));
        assert_eq!(set.try_insert_and_lock(second, 7), LockOutcome::Acquired);
        let key = ConcurrentEdgeSet::key_of(second);
        assert_eq!(set.find(key), Ok((home + 1) & set.mask));
        assert!(set.erase_mut(first));
        assert_eq!(set.find(key), Ok(home), "the erase must shift the locked entry");
        assert_eq!(set.try_lock_existing(second, 9), LockOutcome::Busy);
        assert!(set.unlock(second, 7));
        assert_eq!(set.try_lock_existing(second, 9), LockOutcome::Acquired);
    }

    #[test]
    fn exclusive_writes_match_a_hash_set_under_a_heavy_mixed_workload() {
        // 20k inserts, erases and queries over the edges of 500 nodes: about
        // 6.3k edges end up live in 8192 buckets, so the probe clusters that
        // the backward shift repairs are long.
        let mut set = ConcurrentEdgeSet::with_capacity(4096);
        let mut model = std::collections::HashSet::new();
        let mut state = 12345u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 16
        };
        for _ in 0..20_000 {
            let (u, v) = ((next() % 500) as u32, (next() % 500) as u32);
            if u == v {
                continue;
            }
            let e = Edge::new(u, v);
            match next() % 3 {
                0 => assert_eq!(set.insert_mut(e), model.insert(e)),
                1 => assert_eq!(set.erase_mut(e), model.remove(&e)),
                _ => assert_eq!(set.contains(e), model.contains(&e)),
            }
        }
        assert_eq!(set.len(), model.len());
        assert!(set.len() > set.capacity() / 2, "only {} edges live", set.len());
        assert_probe_paths_unbroken(&set);
    }

    #[test]
    fn prefetch_has_no_semantic_effect() {
        let mut set = ConcurrentEdgeSet::with_capacity(8);
        assert!(set.insert_mut(Edge::new(3, 9)));
        set.prefetch(Edge::new(3, 9));
        set.prefetch(Edge::new(4, 5));
        assert!(set.contains(Edge::new(3, 9)));
        assert!(!set.contains(Edge::new(4, 5)));
        assert_eq!(set.len(), 1);
    }

    #[test]
    #[should_panic(expected = "overfull")]
    fn overfilling_through_exclusive_inserts_panics_instead_of_hanging() {
        let mut set = ConcurrentEdgeSet::with_capacity(4);
        for i in 0..64u32 {
            set.insert_mut(Edge::new(i, i + 1));
        }
    }

    #[test]
    fn for_graph_accepts_node_ids_up_to_the_limit() {
        let edges = vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 3)];
        let graph = EdgeListGraph::new(ConcurrentEdgeSet::MAX_NODES, edges).unwrap();
        let set = ConcurrentEdgeSet::for_graph(&graph);
        assert_eq!(set.len(), 3);
        assert_eq!(set.capacity(), 16);
        assert!(graph.edges().iter().all(|&e| set.contains(e)));
    }

    #[test]
    #[should_panic(expected = "node ids below 2^28")]
    fn for_graph_refuses_node_ids_beyond_28_bits() {
        let edges = vec![Edge::new(0, ConcurrentEdgeSet::MAX_NODES as u32), Edge::new(1, 2)];
        let graph = EdgeListGraph::new(ConcurrentEdgeSet::MAX_NODES + 1, edges).unwrap();
        ConcurrentEdgeSet::for_graph(&graph);
    }

    #[test]
    fn iter_snapshot() {
        let set = ConcurrentEdgeSet::with_capacity(16);
        set.insert(Edge::new(1, 2));
        set.insert(Edge::new(3, 4));
        set.insert(Edge::new(5, 6));
        set.erase(Edge::new(3, 4));
        let mut edges: Vec<Edge> = set.iter().collect();
        edges.sort();
        assert_eq!(edges, vec![Edge::new(1, 2), Edge::new(5, 6)]);
    }

    #[test]
    fn parallel_erase_and_insert_batches() {
        // Mimics the end-of-superstep update: first erase a batch, then insert
        // a batch, both in parallel.
        let n = 20_000u32;
        let set = ConcurrentEdgeSet::with_capacity(2 * n as usize);
        (0..n).into_par_iter().for_each(|i| {
            set.insert(Edge::new(i, i + 1));
        });
        (0..n).into_par_iter().for_each(|i| {
            assert!(set.erase(Edge::new(i, i + 1)));
        });
        (0..n).into_par_iter().for_each(|i| {
            assert!(set.insert(Edge::new(i, i + 2)));
        });
        assert_eq!(set.len(), n as usize);
        (0..n).into_par_iter().for_each(|i| {
            assert!(!set.contains(Edge::new(i, i + 1)));
            assert!(set.contains(Edge::new(i, i + 2)));
        });
    }
}
