//! `SeqESExt` — sequential ES-MC over a pluggable [`EdgeStore`], designed
//! for external (out-of-core) edge storage.
//!
//! The chain draws exactly the same pseudo-random stream as
//! [`SeqES`](gesmc_core::SeqES) (through
//! [`SwitchRequest::sample`](gesmc_core::SwitchRequest::sample)) and makes
//! exactly the same accept/reject decisions, so **its samples are
//! bit-identical to `seq-es` at the same seed** — property-tested in the
//! workspace's `exmem_equivalence` suite.  What changes is only the memory
//! access pattern: instead of touching the edge array and a full hash set at
//! random, switches are drafted into *slot-disjoint batches*, each batch's
//! source slots are gathered in ascending slot order, the legality test is
//! answered by a single sequential scan of the store, and accepted writes are
//! scattered back in ascending slot order.  Chunked stores thus see sorted,
//! run-friendly traffic instead of uniform random I/O.
//!
//! ## Why batching preserves the trajectory
//!
//! * Drafting stops a batch at the first request whose slots collide with a
//!   slot already in the batch (the collided request carries over as the
//!   first member of the next batch — its random draws are already
//!   consumed, in order).  Batches are therefore **slot-disjoint**: every
//!   gathered value equals the value `SeqES` would have observed, because
//!   no earlier request in the batch can rewrite a later request's slots.
//! * The sequential scan answers "does edge `e` exist?" as of the *start*
//!   of the batch.  Within the batch, two delta sets (`inserted`, `erased`)
//!   replay the accepted switches in draft order, so each request sees the
//!   exact hash-set state `SeqES` would have: source edges still present
//!   (ES-MC tests targets against a set that still contains `e1`, `e2`),
//!   plus all earlier insertions, minus all earlier erasures.
//!
//! Each batch costs one `O(m)` scan; with the default batch cap and the
//! birthday bound on slot collisions (≈ `√(2m)` drafts until the first
//! collision), a superstep of `m/2` switches costs `O(m + m·(m/2)/batch)`
//! store-sequential work — the price of never holding the edge set in RAM.
//! The `batch` parameter is a pure performance knob: it must never change
//! the sampled bytes (also property-tested).

use crate::error::ExmemError;
use crate::store::ExternalEdgeStore;
use gesmc_core::{
    switch_targets, ChainSnapshot, EdgeSwitching, SnapshotError, StoreSwitching, SuperstepStats,
    SwitchRequest, SwitchingConfig,
};
use gesmc_graph::{Edge, EdgeListGraph, EdgeStore, PackedEdge};
use gesmc_randx::bounded::UniformIndex;
use gesmc_randx::{rng_from_seed, Rng, RngState};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Default batch cap (see [`SeqESExt::with_batch_cap`]).
pub const DEFAULT_BATCH_CAP: usize = 8192;

/// Sequential ES-MC over a pluggable edge store (out-of-core capable).
pub struct SeqESExt {
    /// The store behind a mutex only because [`EdgeSwitching::graph`] and
    /// [`EdgeSwitching::snapshot`] take `&self` while store reads take
    /// `&mut self` (chunk-cache mutation); the hot paths go through
    /// `get_mut()` and never pay for a lock.
    store: Mutex<Box<dyn EdgeStore + Send>>,
    num_nodes: usize,
    num_edges: usize,
    rng: Rng,
    supersteps_done: u64,
    config: SwitchingConfig,
    batch_cap: usize,
}

impl SeqESExt {
    /// Create a chain randomising the edges held by `store`.
    pub fn new(store: Box<dyn EdgeStore + Send>, config: SwitchingConfig) -> Self {
        let num_nodes = store.num_nodes();
        let num_edges = store.num_edges();
        Self {
            store: Mutex::new(store),
            num_nodes,
            num_edges,
            rng: rng_from_seed(config.seed),
            supersteps_done: 0,
            config,
            batch_cap: DEFAULT_BATCH_CAP,
        }
    }

    /// Convenience constructor over the in-memory store.
    pub fn from_graph(graph: EdgeListGraph, config: SwitchingConfig) -> Self {
        Self::new(Box::new(graph), config)
    }

    /// Convenience constructor over an [`ExternalEdgeStore`]: copy the
    /// `GESMCEL1` file at `input` to `scratch` and randomize there under
    /// `memory_budget` bytes of cache.
    pub fn from_file<P: AsRef<Path>, Q: AsRef<Path>>(
        input: P,
        scratch: Q,
        memory_budget: usize,
        config: SwitchingConfig,
    ) -> Result<Self, ExmemError> {
        let store = ExternalEdgeStore::create(input, scratch, memory_budget)?;
        Ok(Self::new(Box::new(store), config))
    }

    /// Set the batch cap (clamped to ≥ 1): the maximum number of drafted
    /// switches decided per sequential store scan.  A pure performance
    /// knob — any cap yields bit-identical samples.
    pub fn with_batch_cap(mut self, cap: usize) -> Self {
        self.batch_cap = cap.max(1);
        self
    }

    /// The configured batch cap.
    pub fn batch_cap(&self) -> usize {
        self.batch_cap
    }

    /// Decide one slot-disjoint batch: gather sources (ascending slots),
    /// answer existence with one sequential scan, replay decisions in draft
    /// order via delta sets, scatter accepted writes (ascending slots).
    /// Returns the number of legal (applied) switches.
    fn apply_batch(&mut self, batch: &[SwitchRequest]) -> usize {
        let store = self.store.get_mut().expect("store mutex poisoned");

        // Gather: every source slot, ascending for chunk locality.
        let mut slots: Vec<usize> = batch.iter().flat_map(|r| [r.i, r.j]).collect();
        slots.sort_unstable();
        let mut values: HashMap<usize, Edge> = HashMap::with_capacity(slots.len());
        for &slot in &slots {
            values.insert(slot, store.edge(slot));
        }

        // Predict: the target edges whose existence the legality test needs.
        let mut candidates: HashSet<PackedEdge> = HashSet::with_capacity(2 * batch.len());
        for r in batch {
            let (e3, e4) = switch_targets(values[&r.i], values[&r.j], r.g);
            if e3.is_loop() || e4.is_loop() {
                continue;
            }
            candidates.insert(e3.pack());
            candidates.insert(e4.pack());
        }

        // Scan: membership of every candidate as of the start of the batch.
        let mut found: HashSet<PackedEdge> = HashSet::with_capacity(candidates.len());
        if !candidates.is_empty() {
            store.for_each_edge(&mut |_, e| {
                let p = e.pack();
                if candidates.contains(&p) {
                    found.insert(p);
                }
            });
        }

        // Decide in draft order.  `inserted`/`erased` replay this batch's
        // accepted switches on top of the scanned membership, giving each
        // request the exact edge-set view the sequential chain would have.
        let mut inserted: HashSet<PackedEdge> = HashSet::new();
        let mut erased: HashSet<PackedEdge> = HashSet::new();
        let mut writes: BTreeMap<usize, Edge> = BTreeMap::new();
        let mut legal = 0usize;
        for r in batch {
            let e1 = values[&r.i];
            let e2 = values[&r.j];
            let (e3, e4) = switch_targets(e1, e2, r.g);
            if e3.is_loop() || e4.is_loop() {
                continue;
            }
            let exists = |p: PackedEdge| {
                inserted.contains(&p) || (found.contains(&p) && !erased.contains(&p))
            };
            // Like SeqES, the test runs with e1/e2 still in the set.
            if exists(e3.pack()) || exists(e4.pack()) {
                continue;
            }
            for p in [e1.pack(), e2.pack()] {
                if !inserted.remove(&p) {
                    erased.insert(p);
                }
            }
            for p in [e3.pack(), e4.pack()] {
                if !erased.remove(&p) {
                    inserted.insert(p);
                }
            }
            writes.insert(r.i, e3);
            writes.insert(r.j, e4);
            legal += 1;
        }

        // Scatter: ascending slot order via the BTreeMap.
        for (slot, edge) in writes {
            store.set_edge(slot, edge);
        }
        legal
    }

    /// Perform `count` uniformly random switches (drafted exactly like
    /// `SeqES`, decided in slot-disjoint batches); returns the number
    /// applied.
    pub fn run_switches(&mut self, count: usize) -> usize {
        let m = self.num_edges;
        if m < 2 {
            return 0;
        }
        let sampler = UniformIndex::new(m as u64);
        let mut legal = 0usize;
        let mut drafted = 0usize;
        let mut pending: Option<SwitchRequest> = None;
        let mut batch: Vec<SwitchRequest> = Vec::with_capacity(self.batch_cap.min(count));
        let mut batch_slots: HashSet<usize> = HashSet::new();
        while drafted < count || pending.is_some() {
            batch.clear();
            batch_slots.clear();
            if let Some(r) = pending.take() {
                batch_slots.insert(r.i);
                batch_slots.insert(r.j);
                batch.push(r);
            }
            while batch.len() < self.batch_cap && drafted < count {
                let r = SwitchRequest::sample(&sampler, &mut self.rng);
                drafted += 1;
                if batch_slots.contains(&r.i) || batch_slots.contains(&r.j) {
                    // Slot collision: the draws are consumed (stream parity
                    // with SeqES), but the request must observe the writes of
                    // this batch — carry it into the next one.
                    pending = Some(r);
                    break;
                }
                batch_slots.insert(r.i);
                batch_slots.insert(r.j);
                batch.push(r);
            }
            legal += self.apply_batch(&batch);
        }
        legal
    }
}

impl EdgeSwitching for SeqESExt {
    fn name(&self) -> &'static str {
        "SeqESExt"
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn graph(&self) -> EdgeListGraph {
        self.store.lock().expect("store mutex poisoned").materialize()
    }

    fn superstep(&mut self) -> SuperstepStats {
        let start = Instant::now();
        let requested = self.num_edges / 2;
        let legal = self.run_switches(requested);
        self.supersteps_done += 1;
        SuperstepStats {
            requested,
            legal,
            illegal: requested - legal,
            rounds: 1,
            round_durations: vec![start.elapsed()],
            duration: start.elapsed(),
        }
    }

    fn snapshot(&self) -> Option<ChainSnapshot> {
        // Materializes the full edge array — the generic checkpoint path.
        // Out-of-core jobs use `snapshot_meta` + `stream_edges` instead.
        let graph = self.graph();
        Some(ChainSnapshot {
            algorithm: self.name().to_string(),
            num_nodes: self.num_nodes,
            edges: graph.into_edges(),
            rng: RngState::capture(&self.rng),
            aux_seed_state: 0,
            supersteps_done: self.supersteps_done,
            seed: self.config.seed,
            loop_probability: self.config.loop_probability,
            prefetch: self.config.prefetch,
        })
    }

    fn restore(&mut self, snapshot: &ChainSnapshot) -> Result<(), SnapshotError> {
        snapshot.check_algorithm(self.name())?;
        // The generic restore path replaces whatever store the chain had
        // with an in-memory one holding the snapshot's edges; resuming onto
        // an *external* store goes through `restore_meta` after the engine
        // has loaded the edge payload into the store.
        let graph = snapshot.graph()?;
        self.num_nodes = graph.num_nodes();
        self.num_edges = graph.num_edges();
        *self.store.get_mut().expect("store mutex poisoned") = Box::new(graph);
        self.rng = snapshot.rng.restore();
        self.supersteps_done = snapshot.supersteps_done;
        self.config = snapshot.config();
        Ok(())
    }
}

impl StoreSwitching for SeqESExt {
    fn store_num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn stream_edges(&mut self, visit: &mut dyn FnMut(Edge)) {
        self.store.get_mut().expect("store mutex poisoned").for_each_edge(&mut |_, e| visit(e));
    }

    fn snapshot_meta(&self) -> ChainSnapshot {
        ChainSnapshot {
            algorithm: self.name().to_string(),
            num_nodes: self.num_nodes,
            edges: Vec::new(),
            rng: RngState::capture(&self.rng),
            aux_seed_state: 0,
            supersteps_done: self.supersteps_done,
            seed: self.config.seed,
            loop_probability: self.config.loop_probability,
            prefetch: self.config.prefetch,
        }
    }

    fn restore_meta(&mut self, snapshot: &ChainSnapshot) -> Result<(), SnapshotError> {
        snapshot.check_algorithm("SeqESExt")?;
        if snapshot.num_nodes != self.num_nodes {
            return Err(SnapshotError::Unsupported(
                "checkpoint node count does not match the store contents",
            ));
        }
        self.rng = snapshot.rng.restore();
        self.supersteps_done = snapshot.supersteps_done;
        self.config = snapshot.config();
        Ok(())
    }

    fn flush_store(&mut self) -> std::io::Result<()> {
        self.store.get_mut().expect("store mutex poisoned").flush()
    }

    fn store_io_stats(&self) -> gesmc_graph::StoreIoStats {
        self.store.lock().expect("store mutex poisoned").io_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesmc_core::SeqES;
    use gesmc_graph::gen::gnp;

    fn test_graph(seed: u64) -> EdgeListGraph {
        let mut rng = rng_from_seed(seed);
        gnp(&mut rng, 120, 0.08)
    }

    #[test]
    fn matches_seq_es_bit_for_bit_over_the_in_memory_store() {
        for seed in [0, 1, 42] {
            let graph = test_graph(seed);
            let mut reference = SeqES::new(graph.clone(), SwitchingConfig::with_seed(seed));
            let mut ext = SeqESExt::from_graph(graph, SwitchingConfig::with_seed(seed));
            for step in 0..4 {
                let a = reference.superstep();
                let b = ext.superstep();
                assert_eq!(a.requested, b.requested, "seed {seed} step {step}");
                assert_eq!(a.legal, b.legal, "seed {seed} step {step}");
                assert_eq!(
                    reference.graph().edges(),
                    ext.graph().edges(),
                    "seed {seed} step {step}: slot-exact edge arrays must match"
                );
            }
        }
    }

    #[test]
    fn batch_cap_is_a_pure_performance_knob() {
        let graph = test_graph(7);
        let reference = {
            let mut c = SeqESExt::from_graph(graph.clone(), SwitchingConfig::with_seed(7));
            c.run_supersteps(3);
            c.graph()
        };
        for cap in [1, 2, 3, 17, 100_000] {
            let mut c = SeqESExt::from_graph(graph.clone(), SwitchingConfig::with_seed(7))
                .with_batch_cap(cap);
            c.run_supersteps(3);
            assert_eq!(c.graph().edges(), reference.edges(), "cap {cap}");
        }
    }

    #[test]
    fn runs_over_an_external_store_identically() {
        let graph = test_graph(5);
        let input = std::env::temp_dir().join("gesmc-exmem-chain-in.el");
        let scratch = std::env::temp_dir().join("gesmc-exmem-chain-scratch.el");
        gesmc_graph::io::write_edge_list_binary_file(&input, &graph).unwrap();

        let mut heap = SeqESExt::from_graph(graph, SwitchingConfig::with_seed(5));
        // One-chunk budget: constant traffic through the LRU cache.
        let mut ext = SeqESExt::from_file(&input, &scratch, 1, SwitchingConfig::with_seed(5))
            .unwrap()
            .with_batch_cap(64);
        heap.run_supersteps(3);
        ext.run_supersteps(3);
        assert_eq!(heap.graph().edges(), ext.graph().edges());
        ext.flush_store().unwrap();
        let on_disk = gesmc_graph::io::read_edge_list_binary_file(&scratch).unwrap();
        assert_eq!(on_disk.edges(), heap.graph().edges());
        let _ = std::fs::remove_file(&input);
        let _ = std::fs::remove_file(&scratch);
    }

    #[test]
    fn preserves_degrees_and_simplicity() {
        let graph = test_graph(2);
        let degrees = graph.degrees();
        let mut chain = SeqESExt::from_graph(graph, SwitchingConfig::with_seed(3));
        chain.run_supersteps(5);
        let result = chain.graph();
        assert_eq!(result.degrees(), degrees);
        assert!(result.validate().is_ok());
    }

    #[test]
    fn snapshot_restore_roundtrips_bit_identically() {
        let graph = test_graph(11);
        let mut uninterrupted = SeqESExt::from_graph(graph.clone(), SwitchingConfig::with_seed(4));
        uninterrupted.run_supersteps(6);

        let mut interrupted = SeqESExt::from_graph(graph.clone(), SwitchingConfig::with_seed(4));
        interrupted.run_supersteps(2);
        let snap = interrupted.snapshot().unwrap();
        let mut resumed = SeqESExt::from_graph(test_graph(99), SwitchingConfig::with_seed(1));
        resumed.restore(&snap).unwrap();
        resumed.run_supersteps(4);
        assert_eq!(resumed.graph().edges(), uninterrupted.graph().edges());
    }

    #[test]
    fn restore_meta_keeps_the_store_and_restores_the_counters() {
        let graph = test_graph(13);
        let mut uninterrupted = SeqESExt::from_graph(graph.clone(), SwitchingConfig::with_seed(8));
        uninterrupted.run_supersteps(5);

        let mut interrupted = SeqESExt::from_graph(graph, SwitchingConfig::with_seed(8));
        interrupted.run_supersteps(2);
        let meta = interrupted.snapshot_meta();
        assert!(meta.edges.is_empty());
        // Rebuild a chain over a store that already holds the right edges
        // (the out-of-core resume path: payload loaded first, then meta).
        let mut resumed = SeqESExt::from_graph(interrupted.graph(), SwitchingConfig::with_seed(0));
        resumed.restore_meta(&meta).unwrap();
        resumed.run_supersteps(3);
        assert_eq!(resumed.graph().edges(), uninterrupted.graph().edges());

        // Mismatched algorithm / node count are rejected.
        let mut wrong = SeqESExt::from_graph(test_graph(14), SwitchingConfig::with_seed(0));
        let mut foreign = meta.clone();
        foreign.algorithm = "SeqES".to_string();
        assert!(wrong.restore_meta(&foreign).is_err());
    }

    #[test]
    fn tiny_graphs_do_not_panic_or_touch_the_rng() {
        for edges in [vec![], vec![Edge::new(0, 1)]] {
            let graph = EdgeListGraph::new(2, edges).unwrap();
            let mut chain = SeqESExt::from_graph(graph, SwitchingConfig::with_seed(9));
            let stats = chain.superstep();
            assert_eq!(stats.legal, 0);
            let snap = chain.snapshot().unwrap();
            // The RNG must be untouched: identical to a fresh seed-9 stream.
            assert_eq!(snap.rng, RngState::capture(&rng_from_seed(9)));
        }
    }
}
