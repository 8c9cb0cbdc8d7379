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
//!   [`ConcurrentEdgeSet::erase_mut`] / [`ConcurrentEdgeSet::switch_mut`]:
//!   the `&mut` borrow proves that no other thread can probe the set, so
//!   plain loads and stores replace the atomic loads, the compare-and-swap
//!   and the atomic counter updates;
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
//!
//! [`ConcurrentEdgeSet::for_graph`] sizes a chain's set at a load of at most
//! 1/4, which leaves Algorithm 1's tombstones room between rebuilds, and at
//! most 1/32 where that takes no more than 2^17 buckets (1 MiB): the
//! in-order kernel's probes, and so its switches, get cheaper as the load
//! falls.
//!
//! A key's home bucket is the top bits of its [`fibonacci_hash`].  Every
//! lookup walks one probe loop, which reads a bucket with an atomic load
//! under shared access and with a plain one under exclusive access.  The
//! in-order kernel hashes each edge of a switch once into an [`EdgeProbe`]
//! when it stages the switch, prefetches the probe's home bucket
//! ([`ConcurrentEdgeSet::prefetch`]) and decides the switch some switches
//! later with the same probes (Sec. 5.4), in one inlined
//! [`ConcurrentEdgeSet::switch_mut`]: Def. 1's existence test and set
//! update, which inserts the targets into the empty buckets the test found.
//! A legal switch keeps the number of edges, so `switch_mut` counts nothing
//! and the kernel checks once per superstep that the set has room
//! ([`ConcurrentEdgeSet::assert_room_for_switches`]).

use crate::fibonacci_hash;
use crate::prefetch::prefetch_read;
use gesmc_graph::edge::MAX_NODE_56;
use gesmc_graph::{Edge, EdgeListGraph};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const EMPTY: u64 = 0;
const TOMBSTONE: u64 = 0xFF00_0000_0000_0000;
const EDGE_MASK: u64 = (1 << 56) - 1;

/// Most buckets (8 bytes each, so 1 MiB) that [`ConcurrentEdgeSet::for_graph`]
/// spends to keep a set at most 1/32 full; beyond that a set is at most 1/4
/// full, as Algorithm 1's tombstones need.  The in-order kernel's cost
/// follows the load, since a lookup walks on from a taken home bucket.  On a
/// 2-vCPU Xeon (2 MiB L2 per core), building a set and running 20 in-order
/// global switches on it took, against a set 1/8–1/4 full (medians of 11
/// alternating rounds): 0.53× and 0.81× at 117 and 194 edges, 0.61× for
/// SynPld n = 700 (673 edges, 2^15 buckets), 0.51–0.67× at n = 2^10, 0.57×
/// and 0.76× at n = 2^13 (γ = 2.5 and 2.2, 2^17), 0.49–0.74× for G(n, m) at
/// 1k–2k edges and 0.68–0.82× at 5k–10k (2^17).  At 20k edges 2^18 buckets
/// read 0.91× but took 1.32× as long to build, and from 2^18 buckets on the
/// kernel is pipelined, so the cap leaves every graph of 2^15 or more edges
/// at a load of 1/8–1/4.
const SPARSE_MAX_BUCKETS: usize = 1 << 17;

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

/// An edge's bucket key and [`fibonacci_hash`], computed once: where every
/// probe of that edge starts, in a set of any capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeProbe {
    key: u64,
    hash: u64,
}

impl EdgeProbe {
    /// Hash `edge`.
    #[inline]
    pub fn new(edge: Edge) -> Self {
        Self::of_key(edge.pack56())
    }

    #[inline]
    fn of_key(key: u64) -> Self {
        Self { key, hash: fibonacci_hash(key) }
    }
}

/// A concurrent hash set of packed edges with 8-bit lock fields.
#[derive(Debug)]
pub struct ConcurrentEdgeSet {
    buckets: Vec<AtomicU64>,
    mask: usize,
    /// 64 − log2 of the bucket count: a hash's top bits index a bucket.
    shift: u32,
    live: AtomicUsize,
    tombstones: AtomicUsize,
}

impl ConcurrentEdgeSet {
    /// Largest node count whose ids fit the 28-bit halves of a bucket's key.
    pub const MAX_NODES: usize = MAX_NODE_56 as usize + 1;

    /// Build the set of `graph`'s edges at a load of at most 1/32 while that
    /// takes no more than 2^17 buckets (1 MiB), and of at most 1/4 always,
    /// so that the tombstones of Algorithm 1 supersteps fit between
    /// rebuilds.  Graphs of up to 2^14 edges so get a sparser table than the
    /// 1/4 bound alone would give, which shortens the in-order kernel's
    /// probes.
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
        Self::from_edges(graph.edges().iter(), graph_capacity_hint(graph.num_edges()))
    }

    /// Create a set able to hold `capacity_hint` edges at load factor ≤ 1/2:
    /// the smallest power of two of at least `2 × capacity_hint` buckets, and
    /// at least 8.
    pub fn with_capacity(capacity_hint: usize) -> Self {
        let buckets = buckets_for(capacity_hint);
        Self {
            buckets: (0..buckets).map(|_| AtomicU64::new(EMPTY)).collect(),
            mask: buckets - 1,
            shift: 64 - buckets.trailing_zeros(),
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
    fn entry(key: u64, lock: u8) -> u64 {
        ((lock as u64) << 56) | key
    }

    #[inline(always)]
    fn home(&self, probe: EdgeProbe) -> usize {
        (probe.hash >> self.shift) as usize
    }

    /// Hint the CPU to fetch the home bucket of `probe` (Sec. 5.4); changes
    /// nothing.
    #[inline]
    pub fn prefetch(&self, probe: EdgeProbe) {
        prefetch_read(&self.buckets, self.home(probe));
    }

    /// Probe for `probe`'s edge: `Ok` with its bucket if present (locked or
    /// not), else `Err` with the first empty bucket on its probe path.
    #[inline]
    fn find(&self, probe: EdgeProbe) -> Result<usize, usize> {
        let load = |idx: usize| self.buckets[idx].load(Ordering::Acquire);
        walk(self.home(probe), self.mask, probe.key, load)
    }

    /// [`find`](Self::find) through exclusive access, with plain loads: no
    /// other thread can write a bucket, so the set's length and mask stay in
    /// registers.
    #[inline(always)]
    fn find_mut(&mut self, probe: EdgeProbe) -> Result<usize, usize> {
        let (home, mask) = (self.home(probe), self.mask);
        let buckets = &mut self.buckets[..];
        walk(home, mask, probe.key, |idx| *buckets[idx].get_mut())
    }

    /// Panic unless `entries` more buckets can be filled with an empty one
    /// to spare, which every probe loop needs to terminate.
    fn assert_room(&self, entries: usize) {
        assert!(
            self.live.load(Ordering::Relaxed) + self.tombstones.load(Ordering::Relaxed) + entries
                < self.buckets.len(),
            "ConcurrentEdgeSet is overfull: size it for the graph's edge count and rebuild \
             between supersteps to reclaim tombstones"
        );
    }

    /// Panic unless the set has room for [`switch_mut`](Self::switch_mut),
    /// which stores a switch's two targets before it erases its sources and
    /// checks no room itself.  A legal switch keeps the number of edges, so
    /// one check covers any run of switches.
    pub fn assert_room_for_switches(&self) {
        self.assert_room(2);
    }

    /// Whether `edge` is in the set (locked or not).
    pub fn contains(&self, edge: Edge) -> bool {
        self.find(EdgeProbe::new(edge)).is_ok()
    }

    /// Insert `edge` unlocked through exclusive access; returns `false` if it
    /// was already present.
    ///
    /// Leaves the same bucket layout as [`insert`](Self::insert) without its
    /// compare-and-swap and atomic counter update.
    #[inline]
    pub fn insert_mut(&mut self, edge: Edge) -> bool {
        let probe = EdgeProbe::new(edge);
        let Err(idx) = self.find_mut(probe) else {
            return false;
        };
        self.assert_room(1);
        self.fill(idx, probe);
        *self.live.get_mut() += 1;
        true
    }

    /// Store `probe`'s edge, unlocked, in the empty bucket `idx`.
    #[inline(always)]
    fn fill(&mut self, idx: usize, probe: EdgeProbe) {
        *self.buckets[idx].get_mut() = Self::entry(probe.key, 0);
    }

    /// Def. 1's update for one switch, through exclusive access: unless an
    /// edge of `targets` is present, insert both targets, erase both
    /// `sources` and return `true`; otherwise change nothing and return
    /// `false`.
    ///
    /// The targets go into the empty buckets the existence test found,
    /// before the erases can move entries, so each probe path is walked
    /// once.  The contents are those of erasing first and inserting after;
    /// the layout may differ.  `targets` must be two different edges, as a
    /// switch's are.  The number of edges does not change, so nothing is
    /// counted, and the caller checks room once for a run of switches
    /// ([`assert_room_for_switches`](Self::assert_room_for_switches)).
    ///
    /// # Panics
    /// If a source is missing, which means the caller's edge array and the
    /// set disagree; the targets are then inserted already.
    #[inline(always)]
    pub fn switch_mut(&mut self, sources: [EdgeProbe; 2], targets: [EdgeProbe; 2]) -> bool {
        let Err(first) = self.find_mut(targets[0]) else {
            return false;
        };
        let Err(second) = self.find_mut(targets[1]) else {
            return false;
        };
        debug_assert_ne!(targets[0], targets[1], "a switch has two different targets");
        self.fill(first, targets[0]);
        // `first` was empty, so it is not on the second target's path before
        // `second`, the first empty bucket there; unless it is `second`,
        // that bucket is still the second target's.
        let second = if second == first {
            let (Ok(next) | Err(next)) = self.find_mut(targets[1]);
            next
        } else {
            second
        };
        self.fill(second, targets[1]);
        let erased = self.shift_out(sources[0]) & self.shift_out(sources[1]);
        assert!(erased, "a legal switch's source is missing from the edge set");
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
        let erased = self.shift_out(EdgeProbe::new(edge));
        *self.live.get_mut() -= erased as usize;
        erased
    }

    /// Erase `probe`'s edge by backward shift, without counting it; returns
    /// whether it was present.
    #[inline(always)]
    fn shift_out(&mut self, probe: EdgeProbe) -> bool {
        let Ok(mut hole) = self.find_mut(probe) else {
            return false;
        };
        let (mask, shift) = (self.mask, self.shift);
        let buckets = &mut self.buckets[..];
        let mut next = (hole + 1) & mask;
        loop {
            let slot = *buckets[next].get_mut();
            if slot == EMPTY {
                break;
            }
            if slot != TOMBSTONE {
                // The entry may fill the gap iff the gap lies on its probe
                // path, from its home bucket up to `next`.
                let home = (fibonacci_hash(slot & EDGE_MASK) >> shift) as usize;
                if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                    *buckets[hole].get_mut() = slot;
                    hole = next;
                }
            }
            next = (next + 1) & mask;
        }
        *buckets[hole].get_mut() = EMPTY;
        true
    }

    /// Insert `edge` unlocked; returns `false` if it was already present.
    ///
    /// Concurrent inserts of the *same* edge are resolved so that exactly one
    /// caller observes `true`.
    pub fn insert(&self, edge: Edge) -> bool {
        self.insert_entry(edge, 0)
    }

    /// Insert `edge` locked by `lock` (0 = unlocked) into the first empty
    /// bucket on its probe path; returns `false` if it was already present.
    ///
    /// A failed compare-and-swap means another insert took that bucket
    /// first, so the probe starts again.  No bucket becomes empty again while
    /// other threads can probe, so the retry passes the same buckets and
    /// then examines the one that was just taken.
    fn insert_entry(&self, edge: Edge, lock: u8) -> bool {
        self.assert_room(1);
        let probe = EdgeProbe::new(edge);
        loop {
            let Err(idx) = self.find(probe) else {
                return false;
            };
            if self.replace(idx, EMPTY, Self::entry(probe.key, lock)) {
                self.live.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
    }

    /// Erase `edge` (regardless of its lock state); returns whether it was
    /// present.
    ///
    /// Under shared access a bucket keeps its edge, in some lock state, until
    /// an erase leaves a tombstone there, and no insert reuses a tombstone.
    /// So the erase swaps a tombstone in; if another erase was first, the
    /// probe starts again and passes that tombstone.
    pub fn erase(&self, edge: Edge) -> bool {
        let probe = EdgeProbe::new(edge);
        loop {
            let Ok(idx) = self.find(probe) else {
                return false;
            };
            if self.buckets[idx].swap(TOMBSTONE, Ordering::AcqRel) != TOMBSTONE {
                self.count_tombstone();
                return true;
            }
        }
    }

    /// Acquire the ticket of an existing edge by locking it (CAS the owner id
    /// into the lock byte).  `owner` must be non-zero.
    pub fn try_lock_existing(&self, edge: Edge, owner: u8) -> LockOutcome {
        debug_assert!(owner != 0, "owner id 0 denotes the unlocked state");
        let probe = EdgeProbe::new(edge);
        let Ok(idx) = self.find(probe) else {
            return LockOutcome::NotFound;
        };
        // Fails if the edge is locked, or erased since the probe.
        if self.replace(idx, Self::entry(probe.key, 0), Self::entry(probe.key, owner)) {
            LockOutcome::Acquired
        } else {
            LockOutcome::Busy
        }
    }

    /// Acquire a ticket for a *new* edge by inserting it in locked state.
    ///
    /// Returns [`LockOutcome::AlreadyPresent`] if the edge exists (locked or
    /// not), otherwise inserts it locked by `owner` and returns
    /// [`LockOutcome::Acquired`].
    pub fn try_insert_and_lock(&self, edge: Edge, owner: u8) -> LockOutcome {
        debug_assert!(owner != 0, "owner id 0 denotes the unlocked state");
        if self.insert_entry(edge, owner) {
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
        let probe = EdgeProbe::new(edge);
        let locked = Self::entry(probe.key, owner);
        self.find(probe).is_ok_and(|idx| self.replace(idx, locked, Self::entry(probe.key, 0)))
    }

    /// Erase an edge whose ticket is held by `owner`.
    ///
    /// Returns whether the erase happened.
    pub fn erase_locked(&self, edge: Edge, owner: u8) -> bool {
        let probe = EdgeProbe::new(edge);
        let locked = Self::entry(probe.key, owner);
        let erased = self.find(probe).is_ok_and(|idx| self.replace(idx, locked, TOMBSTONE));
        if erased {
            self.count_tombstone();
        }
        erased
    }

    /// Compare-and-swap bucket `idx` from `current` to `new`; returns whether
    /// it held `current`.
    fn replace(&self, idx: usize, current: u64, new: u64) -> bool {
        let bucket = &self.buckets[idx];
        bucket.compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }

    /// Count an atomic erase: one live edge fewer, one tombstone more.
    fn count_tombstone(&self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
        self.tombstones.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether accumulated tombstones warrant a rebuild (live + tombstones
    /// exceed half of the capacity).
    ///
    /// The threshold is deliberately conservative: the chains call this
    /// between supersteps, and a single Algorithm 1 superstep can add up to
    /// `2m` new slots (tombstones for erased edges plus freshly inserted
    /// ones), so the table must never enter a superstep more than half full.
    /// A set sized by [`for_graph`](Self::for_graph) starts at most a
    /// quarter full, and one of up to 2^17 buckets at most 1/32 full, which
    /// lasts proportionally more Algorithm 1 supersteps.  Only atomic erases
    /// leave tombstones, so a set that only in-order supersteps write never
    /// needs a rebuild.
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
impl ConcurrentEdgeSet {
    /// Mean distance of the live entries from their home buckets.
    pub(crate) fn mean_displacement(&self) -> f64 {
        let (mut total, mut live) = (0, 0);
        for (b, bucket) in self.buckets.iter().enumerate() {
            let slot = bucket.load(Ordering::Relaxed);
            if slot != EMPTY && slot != TOMBSTONE {
                total += b.wrapping_sub(self.home(EdgeProbe::of_key(slot & EDGE_MASK))) & self.mask;
                live += 1;
            }
        }
        total as f64 / live as f64
    }
}

/// The capacity hint of [`ConcurrentEdgeSet::for_graph`] for `m` edges: room
/// for `16m` edges at load ≤ 1/2 up to [`SPARSE_MAX_BUCKETS`], and for `2m`
/// always.
fn graph_capacity_hint(m: usize) -> usize {
    (2 * m).max((16 * m).min(SPARSE_MAX_BUCKETS / 2))
}

/// Buckets of [`ConcurrentEdgeSet::with_capacity`]`(capacity_hint)`.
fn buckets_for(capacity_hint: usize) -> usize {
    (capacity_hint.max(4) * 2).next_power_of_two()
}

/// The one probe loop of the set: walk from bucket `home`, reading bucket
/// `idx` with `load`, to the bucket holding `key` (`Ok`, locked or not) or
/// to the first empty bucket (`Err`).
#[inline(always)]
fn walk(
    home: usize,
    mask: usize,
    key: u64,
    mut load: impl FnMut(usize) -> u64,
) -> Result<usize, usize> {
    let mut idx = home;
    loop {
        let slot = load(idx);
        if slot == EMPTY {
            return Err(idx);
        }
        if slot != TOMBSTONE && (slot & EDGE_MASK) == key {
            return Ok(idx);
        }
        idx = (idx + 1) & mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesmc_randx::mix64;
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
            let e = edge(mix64(r));
            assert_eq!(set.insert(e), model.insert(e));
        }
        for r in 0..100u64 {
            let e = edge(mix64(r));
            if r % 2 == 0 {
                assert_eq!(set.erase(e), model.remove(&e));
            }
        }
        assert!(set.tombstones.load(Ordering::Relaxed) > 0);
        let mut rebuilds = 0;
        for r in 100..3_000u64 {
            let e = edge(mix64(r));
            if mix64(!r) % 2 == 0 {
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
            let e = edge(mix64(r ^ 0x5555));
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
            let mut idx = set.home(EdgeProbe::of_key(slot & EDGE_MASK));
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
            let e = edge(mix64(r));
            let last = set.buckets[set.mask].load(Ordering::Relaxed);
            let first = set.buckets[0].load(Ordering::Relaxed);
            if mix64(!r) % 2 == 0 {
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
            let slot = (mix64(r) % 64) as usize;
            let fresh = Edge::new((mix64(!r) % 1000) as u32, 1000 + r as u32);
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
        let home_of = |e: Edge| set.home(EdgeProbe::new(e));
        let first = Edge::new(0, 1);
        let home = home_of(first);
        let second = (2..1000u32).map(|v| Edge::new(0, v)).find(|&e| home_of(e) == home).unwrap();
        assert!(set.insert_mut(first));
        assert_eq!(set.try_insert_and_lock(second, 7), LockOutcome::Acquired);
        let probe = EdgeProbe::new(second);
        assert_eq!(set.find(probe), Ok((home + 1) & set.mask));
        assert!(set.erase_mut(first));
        assert_eq!(set.find(probe), Ok(home), "the erase must shift the locked entry");
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
    fn switch_mut_matches_erasing_then_inserting() {
        // 64 buckets over the edges of 14 nodes at about half load, starting
        // from tombstones: clusters are long and wrap past the last bucket,
        // and targets are often present or equal to a source.
        let edge = |r: u64| {
            let (a, b) = ((r % 14) as u32, ((r >> 8) % 13) as u32);
            Edge::new(a, if b >= a { b + 1 } else { b })
        };
        let mut set = ConcurrentEdgeSet::with_capacity(32);
        for r in 0..6u64 {
            assert!(set.insert(Edge::new(20, 21 + r as u32)));
            assert!(set.erase(Edge::new(20, 21 + r as u32)));
        }
        let mut model = std::collections::HashSet::new();
        let mut live = Vec::new();
        for r in 0..200u64 {
            let e = edge(mix64(r));
            if live.len() < 30 && model.insert(e) {
                assert!(set.insert_mut(e));
                live.push(e);
            }
        }
        let probe = EdgeProbe::new;
        let (mut legal, mut illegal) = (0, 0);
        for r in 0..20_000u64 {
            let (i, j) = ((mix64(r) % 30) as usize, (mix64(!r) % 29) as usize);
            let j = if j >= i { j + 1 } else { j };
            let targets = [edge(mix64(r ^ 0xA5A5)), edge(mix64(r ^ 0x5A5A))];
            if targets[0] == targets[1] {
                continue;
            }
            let expected = !model.contains(&targets[0]) && !model.contains(&targets[1]);
            let done = set.switch_mut([probe(live[i]), probe(live[j])], targets.map(probe));
            assert_eq!(done, expected, "step {r}");
            if done {
                assert!(model.remove(&live[i]) && model.remove(&live[j]));
                assert!(model.insert(targets[0]) && model.insert(targets[1]));
                (live[i], live[j]) = (targets[0], targets[1]);
                legal += 1;
            } else {
                illegal += 1;
            }
            assert_eq!(set.len(), model.len());
            assert_probe_paths_unbroken(&set);
        }
        assert!(legal > 1_000 && illegal > 1_000, "{legal} legal, {illegal} illegal");
        assert!(model.iter().all(|&e| set.contains(e)));
        assert_eq!(set.tombstones.load(Ordering::Relaxed), 6, "tombstones stay in place");
    }

    #[test]
    fn prefetch_has_no_semantic_effect() {
        let mut set = ConcurrentEdgeSet::with_capacity(8);
        let (present, absent) = (Edge::new(3, 9), Edge::new(4, 5));
        assert!(set.insert_mut(present));
        let buckets: Vec<u64> = set.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        set.prefetch(EdgeProbe::new(present));
        set.prefetch(EdgeProbe::new(absent));
        assert!(set.contains(present));
        assert!(!set.contains(absent));
        assert_eq!(set.len(), 1);
        assert!(set.buckets.iter().map(|b| b.load(Ordering::Relaxed)).eq(buckets));
    }

    #[test]
    #[should_panic(expected = "overfull")]
    fn a_set_without_room_for_two_more_edges_refuses_switches() {
        // 8 buckets: 5 edges leave room for a switch's two targets and an
        // empty bucket, 6 do not.
        let mut set = ConcurrentEdgeSet::with_capacity(4);
        for i in 0..5u32 {
            set.insert_mut(Edge::new(i, i + 1));
        }
        set.assert_room_for_switches();
        set.insert_mut(Edge::new(7, 8));
        set.assert_room_for_switches();
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
        assert_eq!(set.capacity(), 128);
        assert!(graph.edges().iter().all(|&e| set.contains(e)));
    }

    #[test]
    fn for_graph_sizes_sparse_up_to_the_cap_and_at_most_a_quarter_full() {
        for m in 0..=1usize << 20 {
            let buckets = buckets_for(graph_capacity_hint(m));
            assert!(4 * m <= buckets, "{m} edges in {buckets} buckets: over a load of 1/4");
            let quarter = (4 * m).next_power_of_two();
            assert!(buckets <= SPARSE_MAX_BUCKETS.max(quarter), "{m} edges in {buckets} buckets");
            if 32 * m <= SPARSE_MAX_BUCKETS {
                assert!(32 * m <= buckets, "{m} edges in {buckets} buckets: over a load of 1/32");
            }
        }
        // es-small's graph keeps the size it had at a load of at most 1/4.
        assert_eq!(buckets_for(graph_capacity_hint(19_838)), 1 << 17);
        let edges = (0..1000u32).map(|v| Edge::new(v, v + 1)).collect();
        let set = ConcurrentEdgeSet::for_graph(&EdgeListGraph::new(1001, edges).unwrap());
        assert_eq!(set.capacity(), 1 << 15);
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
