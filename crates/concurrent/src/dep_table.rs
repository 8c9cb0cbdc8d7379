//! The dependency table of `ParallelSuperstep` (Algorithm 1).
//!
//! Before a superstep is executed, every switch `σ_k` registers itself as the
//! *eraser* of its two source edges and as an *inserter* of its two target
//! edges ([`DependencyTable::register`]).  While deciding a switch, the table
//! answers two questions about each of its target edges, and stores the
//! decision state of every switch ([`DependencyTable::state`]):
//!
//! * [`DependencyTable::eraser`] — which switch (if any) erases the edge in
//!   this superstep?  By Observation 2 of the paper at most one switch erases
//!   a given edge per superstep, so one slot per edge suffices;
//! * [`DependencyTable::inserters`] — which switches try to insert it?
//!
//! **Layout.**  Buckets are found by open addressing on the packed edge and
//! claimed with a compare-and-swap on the key.  A bucket holds the edge, its
//! single eraser, and the head of an index-linked list of inserters.  The
//! list links live in a dense array with one `next` slot per switch target
//! (slot `2k + t` for target `t` of switch `k`), so pushing an inserter is
//! one atomic swap of the head plus one store, and no bucket owns a heap
//! allocation.  Switch states live in a dense array of one `AtomicU8` per
//! switch, so deciding a switch is one store.  Nothing takes a lock.
//!
//! **Lifecycle.**  A chain owns one table and reuses it for every superstep.
//! [`DependencyTable::prepare`] grows it to fit the superstep (it never
//! shrinks).  Registration runs as one parallel pass whose closing join
//! publishes the buckets and inserter lists: the `next` links are written
//! with relaxed stores and read only in the decision rounds after that join.
//! [`DependencyTable::register`] returns the four bucket indices of a switch,
//! so nothing hashes an edge again after registration, and after the apply
//! passes each switch [`release`](DependencyTable::release)s its own four
//! buckets and its state.  Clearing therefore costs the buckets used, not
//! the table's capacity.

use crate::hash_edge;
use gesmc_graph::PackedEdge;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

/// Decision state of a switch, as recorded in the dependency table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SwitchState {
    /// Not yet decided (initial state).
    Undecided = 0,
    /// Decided: the switch is legal and its rewiring has been applied.
    Legal = 1,
    /// Decided: the switch is illegal (rejected).
    Illegal = 2,
}

impl SwitchState {
    fn from_u8(value: u8) -> Self {
        match value {
            0 => SwitchState::Undecided,
            1 => SwitchState::Legal,
            _ => SwitchState::Illegal,
        }
    }
}

const KEY_EMPTY: u64 = u64::MAX;
/// "No switch" in an eraser field, a list head, or a `next` link.
const NONE: u32 = u32::MAX;

#[derive(Debug)]
struct Bucket {
    /// Packed edge, or [`KEY_EMPTY`].
    key: AtomicU64,
    /// Index of the switch erasing the edge, or [`NONE`].
    eraser: AtomicU32,
    /// Link (`2k + t`) of the most recently registered inserter, or [`NONE`].
    inserters: AtomicU32,
}

impl Bucket {
    fn empty() -> Self {
        Self {
            key: AtomicU64::new(KEY_EMPTY),
            eraser: AtomicU32::new(NONE),
            inserters: AtomicU32::new(NONE),
        }
    }
}

/// Reusable lock-free map from packed edge to its eraser and inserters, plus
/// the decision state of every switch of the current superstep.
#[derive(Debug, Default)]
pub struct DependencyTable {
    buckets: Vec<Bucket>,
    states: Vec<AtomicU8>,
    next: Vec<AtomicU32>,
}

impl DependencyTable {
    /// Create a table prepared for a superstep of `num_switches` switches.
    pub fn for_switches(num_switches: usize) -> Self {
        let mut table = Self::default();
        table.prepare(num_switches);
        table
    }

    /// Number of buckets (diagnostics only).
    pub fn capacity(&self) -> usize {
        self.buckets.len()
    }

    /// Grow the table, if needed, to hold a superstep of `num_switches`
    /// switches.
    ///
    /// Every switch registers at most four distinct edges, so the table keeps
    /// at least `8 × num_switches` buckets (next power of two) for a load
    /// factor of at most 1/2.  The table must be empty, i.e. every switch of
    /// the previous superstep released.
    ///
    /// # Panics
    /// If `num_switches` does not fit the table's 32-bit links.
    pub fn prepare(&mut self, num_switches: usize) {
        assert!(num_switches < (NONE / 2) as usize, "{num_switches} switches in one superstep");
        let buckets = (num_switches.max(1) * 8).next_power_of_two();
        if buckets > self.buckets.len() {
            self.buckets = (0..buckets).map(|_| Bucket::empty()).collect();
        }
        if num_switches > self.states.len() {
            self.states.resize_with(num_switches, || AtomicU8::new(SwitchState::Undecided as u8));
            self.next.resize_with(2 * num_switches, || AtomicU32::new(NONE));
        }
    }

    /// Find the bucket of `key`, claiming an empty one if necessary.
    fn claim(&self, key: PackedEdge) -> usize {
        debug_assert_ne!(key, KEY_EMPTY);
        let mask = self.buckets.len() - 1;
        let mut idx = (hash_edge(key) as usize) & mask;
        loop {
            let bucket = &self.buckets[idx];
            let current = bucket.key.load(Ordering::Acquire);
            if current == key {
                return idx;
            }
            if current == KEY_EMPTY {
                match bucket.key.compare_exchange(
                    KEY_EMPTY,
                    key,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return idx,
                    Err(actual) if actual == key => return idx,
                    Err(_) => { /* someone claimed it for a different key */ }
                }
            }
            idx = (idx + 1) & mask;
        }
    }

    /// Register switch `k` as the eraser of its two `sources` and an inserter
    /// of its two `targets` (phase 1 of a superstep).
    ///
    /// Returns the buckets of `[sources[0], sources[1], targets[0],
    /// targets[1]]`, which every later call about this switch takes.  By
    /// Observation 2 a superstep without source dependencies erases every
    /// edge at most once; a second eraser indicates a bug in the caller, and
    /// registration panics when it sees one.
    pub fn register(
        &self,
        k: u32,
        sources: [PackedEdge; 2],
        targets: [PackedEdge; 2],
    ) -> [usize; 4] {
        debug_assert!((k as usize) < self.states.len(), "switch {k} beyond the prepared size");
        let mut buckets = [0; 4];
        for (slot, key) in sources.into_iter().enumerate() {
            let b = self.claim(key);
            let eraser = &self.buckets[b].eraser;
            assert_eq!(
                eraser.load(Ordering::Relaxed),
                NONE,
                "edge {key:#x} erased twice in one superstep (source dependency?)"
            );
            eraser.store(k, Ordering::Relaxed);
            buckets[slot] = b;
        }
        for (t, key) in targets.into_iter().enumerate() {
            let b = self.claim(key);
            let link = 2 * k + t as u32;
            let head = self.buckets[b].inserters.swap(link, Ordering::Relaxed);
            self.next[link as usize].store(head, Ordering::Relaxed);
            buckets[2 + t] = b;
        }
        buckets
    }

    /// The switch erasing the edge of `bucket`, if any.
    pub fn eraser(&self, bucket: usize) -> Option<u32> {
        let k = self.buckets[bucket].eraser.load(Ordering::Relaxed);
        (k != NONE).then_some(k)
    }

    /// The switches inserting the edge of `bucket`, latest registered first.
    pub fn inserters(&self, bucket: usize) -> impl Iterator<Item = u32> + '_ {
        let mut link = self.buckets[bucket].inserters.load(Ordering::Relaxed);
        std::iter::from_fn(move || {
            (link != NONE).then(|| {
                let k = link / 2;
                link = self.next[link as usize].load(Ordering::Relaxed);
                k
            })
        })
    }

    /// Current decision state of switch `k`.
    pub fn state(&self, k: u32) -> SwitchState {
        SwitchState::from_u8(self.states[k as usize].load(Ordering::Acquire))
    }

    /// Record the decision of switch `k`.
    ///
    /// The `Release` store pairs with the `Acquire` load in
    /// [`state`](Self::state): a thread that reads the decision also sees
    /// what the deciding thread wrote before it, such as its rewired slots.
    pub fn set_state(&self, k: u32, state: SwitchState) {
        self.states[k as usize].store(state as u8, Ordering::Release);
    }

    /// Forget switch `k`: empty its four `buckets` (as returned by
    /// [`register`](Self::register)) and reset its state.
    ///
    /// Once every registered switch is released the table is empty again.
    /// Releasing a bucket that another switch of the superstep shares is
    /// harmless, but no lookup may run concurrently with the releases.  The
    /// stores are relaxed: the join that ends the releasing pass publishes
    /// the empty table to the next superstep's registration.
    pub fn release(&self, k: u32, buckets: [usize; 4]) {
        for b in buckets {
            let bucket = &self.buckets[b];
            bucket.key.store(KEY_EMPTY, Ordering::Relaxed);
            bucket.eraser.store(NONE, Ordering::Relaxed);
            bucket.inserters.store(NONE, Ordering::Relaxed);
        }
        self.states[k as usize].store(SwitchState::Undecided as u8, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    fn is_empty(table: &DependencyTable) -> bool {
        table.buckets.iter().all(|b| {
            b.key.load(Ordering::Relaxed) == KEY_EMPTY
                && b.eraser.load(Ordering::Relaxed) == NONE
                && b.inserters.load(Ordering::Relaxed) == NONE
        }) && (0..table.states.len() as u32).all(|k| table.state(k) == SwitchState::Undecided)
    }

    fn sorted_inserters(table: &DependencyTable, bucket: usize) -> Vec<u32> {
        let mut ks: Vec<u32> = table.inserters(bucket).collect();
        ks.sort_unstable();
        ks
    }

    #[test]
    fn eraser_lifecycle() {
        let table = DependencyTable::for_switches(4);
        let buckets = table.register(3, [42, 43], [44, 45]);
        assert_eq!(table.eraser(buckets[0]), Some(3));
        assert_eq!(table.eraser(buckets[1]), Some(3));
        assert_eq!(table.eraser(buckets[2]), None, "a target is not erased");
        assert_eq!(table.state(3), SwitchState::Undecided);
        table.set_state(3, SwitchState::Legal);
        assert_eq!(table.state(3), SwitchState::Legal);
        table.release(3, buckets);
        assert!(is_empty(&table));
    }

    #[test]
    fn several_inserters_on_one_edge() {
        let table = DependencyTable::for_switches(8);
        // Switch 5 erases edge 7; switches 2, 4 and 6 insert it, as first or
        // second target.
        let b5 = table.register(5, [7, 70], [71, 72]);
        let b2 = table.register(2, [20, 21], [7, 22]);
        let b6 = table.register(6, [60, 61], [62, 7]);
        let b4 = table.register(4, [40, 41], [7, 42]);
        assert!(b5[0] == b2[2] && b2[2] == b6[3] && b6[3] == b4[2], "one bucket per edge");
        let bucket = b5[0];
        assert_eq!(table.eraser(bucket), Some(5));
        assert_eq!(sorted_inserters(&table, bucket), vec![2, 4, 6]);
        // Edges with one inserter, and one with none.
        assert_eq!(sorted_inserters(&table, b2[3]), vec![2]);
        assert_eq!(sorted_inserters(&table, b6[2]), vec![6]);
        assert_eq!(sorted_inserters(&table, b5[1]), Vec::<u32>::new());
    }

    #[test]
    fn a_released_table_answers_like_a_fresh_one() {
        let switches: [(u32, [u64; 2], [u64; 2]); 4] =
            [(0, [1, 2], [3, 4]), (1, [5, 6], [3, 1]), (2, [7, 8], [4, 9]), (3, [10, 11], [3, 12])];
        // Register every switch, then report eraser and inserters of each of
        // their edges.
        let answers = |table: &DependencyTable| {
            let buckets: Vec<[usize; 4]> = switches
                .iter()
                .map(|&(k, sources, targets)| table.register(k, sources, targets))
                .collect();
            buckets
                .iter()
                .flatten()
                .map(|&b| (table.eraser(b), sorted_inserters(table, b)))
                .collect::<Vec<_>>()
        };

        let fresh = DependencyTable::for_switches(4);
        let expected = answers(&fresh);

        // A smaller table that serves two earlier supersteps, growing for the
        // second, whose switches share edges 9 and 2 and release them twice.
        let mut reused = DependencyTable::for_switches(1);
        let b = reused.register(0, [3, 1], [5, 100]);
        reused.set_state(0, SwitchState::Illegal);
        reused.release(0, b);
        reused.prepare(4);
        let earlier = [(0, [4, 9], [1, 2]), (1, [3, 12], [9, 2])];
        let buckets: Vec<[usize; 4]> = earlier
            .iter()
            .map(|&(k, sources, targets)| reused.register(k, sources, targets))
            .collect();
        for (k, b) in (0..).zip(buckets) {
            reused.set_state(k, SwitchState::Legal);
            reused.release(k, b);
        }
        assert!(is_empty(&reused));
        assert_eq!(answers(&reused), expected);
        assert!((0..4).all(|k| reused.state(k) == SwitchState::Undecided));
    }

    #[test]
    fn prepare_only_grows() {
        let mut table = DependencyTable::for_switches(1000);
        assert!(table.capacity() >= 8000);
        let capacity = table.capacity();
        table.prepare(10);
        assert_eq!(table.capacity(), capacity);
        table.prepare(5000);
        assert!(table.capacity() >= 40_000);
        assert!(DependencyTable::for_switches(0).capacity() >= 8);
    }

    #[test]
    fn concurrent_registration() {
        let n = 10_000u32;
        let table = DependencyTable::for_switches(n as usize);
        // Every switch erases two private edges, inserts one private edge,
        // and inserts one of 16 edges shared with many others.
        let buckets: Vec<[usize; 4]> = (0..n)
            .into_par_iter()
            .map(|k| {
                let base = 4 * u64::from(k) + 100;
                table.register(k, [base, base + 1], [base + 2, u64::from(k % 16)])
            })
            .collect();
        (0..n).into_par_iter().for_each(|k| {
            let b = buckets[k as usize];
            assert_eq!(table.eraser(b[0]), Some(k));
            assert_eq!(table.eraser(b[1]), Some(k));
            assert_eq!(table.inserters(b[2]).collect::<Vec<_>>(), vec![k]);
            assert_eq!(table.eraser(b[3]), None);
        });
        for edge in 0..16u32 {
            let bucket = buckets[edge as usize][3];
            let expected: Vec<u32> = (edge..n).step_by(16).collect();
            assert_eq!(sorted_inserters(&table, bucket), expected, "shared edge {edge}");
        }
        (0..n).into_par_iter().for_each(|k| table.release(k, buckets[k as usize]));
        assert!(is_empty(&table));
    }
}
