//! The warm sample cache: an LRU of pre-encoded null-model samples.
//!
//! Entries are keyed by `(graph fingerprint, canonical chain slug,
//! supersteps)` — exactly the triple that determines a one-shot sample, since
//! the sample seed is *derived deterministically from the key* (see
//! [`derive_sample_seed`]).  That determinism is the cache's core invariant:
//! any two computations of the same key produce bit-identical bytes, so a
//! cache hit is indistinguishable from a recomputation and entries can be
//! replenished in the background (by the engine
//! [`ServicePool`](gesmc_engine::ServicePool)) without readers ever observing
//! a changed payload.
//!
//! Both encodings of a sample (plain text and the binary edge list) are
//! stored behind `Arc`s, so a hit is one map lookup plus two atomic
//! increments — no copying, no re-encoding.  `encode_bodies` makes them,
//! for one-shot samples, job samples and samples rehydrated from disk alike.

use gesmc_graph::io::{write_edges, write_edges_binary, EDGE_BYTES, HEADER_BYTES};
use gesmc_graph::Edge;
use gesmc_obs::{Histogram, Phase, Span};
use gesmc_randx::{fnv1a_64, mix64};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The triple identifying one cacheable sample.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Fingerprint of the input graph (or of its canonical generator spec).
    pub fingerprint: u64,
    /// Canonical slug of the chain spec ([`ChainSpec::slug`](gesmc_core::ChainSpec::slug)).
    pub chain_slug: String,
    /// Number of supersteps the sample is taken after.
    pub supersteps: u64,
}

/// Derive the deterministic sample seed for a cache key: a splitmix64
/// finalisation of the key's three components (the chain slug enters via
/// FNV-1a).  Equal keys ⇒ equal seeds ⇒ bit-identical samples.
pub fn derive_sample_seed(key: &CacheKey) -> u64 {
    let slug_hash = fnv1a_64(key.chain_slug.as_bytes());
    mix64(key.fingerprint ^ mix64(slug_hash) ^ mix64(key.supersteps))
}

/// The two response bodies of a sample: its plain text and its binary
/// (`GESMCEL1`) edge list.
pub(crate) type Bodies = (Arc<Vec<u8>>, Arc<Vec<u8>>);

/// The [`Bodies`] of a sample over `num_nodes` nodes, both as
/// `gesmc_graph::io` writes them.
pub(crate) fn encode_bodies(num_nodes: usize, edges: &[Edge]) -> Bodies {
    let mut text = Vec::new();
    write_edges(&mut text, num_nodes, edges).expect("writing to a Vec cannot fail");
    let mut binary = Vec::with_capacity(HEADER_BYTES + EDGE_BYTES * edges.len());
    write_edges_binary(&mut binary, num_nodes, edges).expect("writing to a Vec cannot fail");
    (Arc::new(text), Arc::new(binary))
}

/// One cached sample, pre-encoded in both response formats.
#[derive(Debug, Clone)]
pub struct CachedSample {
    /// Plain-text edge-list encoding.
    pub text: Arc<Vec<u8>>,
    /// Binary edge-list encoding (`GESMCEL1`).
    pub binary: Arc<Vec<u8>>,
    /// The derived seed the sample was generated with.
    pub seed: u64,
}

struct Entry {
    sample: CachedSample,
    last_used: u64,
}

struct CacheInner {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
}

/// A bounded LRU of [`CachedSample`]s with lock-free hit/miss counters.
///
/// Capacity 0 disables the cache (every `get` misses, `insert` is a no-op).
/// Eviction scans for the least-recently-used entry on insert — linear in
/// the entry count, which is bounded by the configured capacity (hundreds,
/// not millions), keeping the implementation free of unsafe intrusive
/// lists.
pub struct SampleCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    // Registry handles cached here so the hot path never takes the registry
    // lock; all caches in a process share the same global series.
    probe_hit: Arc<Histogram>,
    probe_miss: Arc<Histogram>,
}

/// A snapshot of the cache counters: hits, misses, evictions, entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by inserts at capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl SampleCache {
    /// A cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        const PROBE_HELP: &str = "Wall time of one warm-cache lookup, by outcome.";
        Self {
            capacity,
            inner: Mutex::new(CacheInner { map: HashMap::new(), tick: 0 }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            probe_hit: gesmc_obs::histogram_with(
                "gesmc_cache_probe_duration_seconds",
                PROBE_HELP,
                &[("result", "hit")],
            ),
            probe_miss: gesmc_obs::histogram_with(
                "gesmc_cache_probe_duration_seconds",
                PROBE_HELP,
                &[("result", "miss")],
            ),
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look `key` up, refreshing its recency on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<CachedSample> {
        self.get_or_load(key, None, || None)
    }

    /// Look `key` up, refreshing its recency on a hit; on a miss, ask `load`
    /// (e.g. a disk spill) and insert what it returns.
    ///
    /// Counts and times the whole probe once, as one [`Phase`] that closes
    /// `span` (when the request is traced): a hit when the sample was
    /// resident or loaded, else a miss; the span's `result` annotation says
    /// which.  `load` runs without the cache lock.
    pub fn get_or_load(
        &self,
        key: &CacheKey,
        span: Option<Span<'_>>,
        load: impl FnOnce() -> Option<CachedSample>,
    ) -> Option<CachedSample> {
        let mut probe = Phase::traced(&self.probe_miss, span);
        let found = self.lookup(key).or_else(|| {
            let loaded = load()?;
            self.insert(key.clone(), loaded.clone());
            Some(loaded)
        });
        let result = if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            probe.observe_into(&self.probe_hit);
            "hit"
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            "miss"
        };
        if let Some(span) = probe.span_mut() {
            span.annotate("result", result);
        }
        found
    }

    /// The resident sample of `key`, refreshing its recency.
    fn lookup(&self, key: &CacheKey) -> Option<CachedSample> {
        if self.capacity == 0 {
            return None;
        }
        let mut inner = self.inner.lock().expect("cache mutex poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.get_mut(key)?;
        entry.last_used = tick;
        Some(entry.sample.clone())
    }

    /// Insert (or overwrite) `key`, evicting the least-recently-used entry
    /// when at capacity.  Overwrites are idempotent by construction: the
    /// deterministic seed means any writer of a key carries the same bytes.
    pub fn insert(&self, key: CacheKey, sample: CachedSample) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("cache mutex poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            if let Some(lru) =
                inner.map.iter().min_by_key(|(_, entry)| entry.last_used).map(|(k, _)| k.clone())
            {
                inner.map.remove(&lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.map.insert(key, Entry { sample, last_used: tick });
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.inner.lock().expect("cache mutex poisoned").map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> CacheKey {
        CacheKey { fingerprint: i, chain_slug: "seq-es".to_string(), supersteps: 10 }
    }

    fn sample(tag: u8) -> CachedSample {
        CachedSample {
            text: Arc::new(vec![tag]),
            binary: Arc::new(vec![tag, tag]),
            seed: u64::from(tag),
        }
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let cache = SampleCache::new(4);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), sample(7));
        let got = cache.get(&key(1)).unwrap();
        assert_eq!(*got.text, vec![7]);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1, evictions: 0, entries: 1 });
    }

    #[test]
    fn a_loaded_sample_counts_as_one_hit_and_becomes_resident() {
        use gesmc_obs::trace::{TracePolicy, Tracer, FLAG_SAMPLED};
        let tracer = Tracer::new(TracePolicy::default());
        let root = tracer.start_root_flagged("request", FLAG_SAMPLED);
        let probe = || Some(root.child("cache_probe"));
        let cache = SampleCache::new(4);
        assert!(cache.get_or_load(&key(1), probe(), || None).is_none());
        let loaded = cache.get_or_load(&key(2), probe(), || Some(sample(2))).unwrap();
        assert_eq!(*loaded.text, vec![2]);
        let resident =
            cache.get_or_load(&key(2), probe(), || panic!("a resident key must not load"));
        assert_eq!(*resident.unwrap().text, vec![2]);
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 1, evictions: 0, entries: 1 });
        // Each probe closed one span, annotated with the counted result.
        let trace = root.trace_id();
        drop(root);
        let spans = tracer.kept_trace(trace).unwrap().spans;
        let results: Vec<_> = spans.iter().flat_map(|s| &s.annotations).map(|a| &a.1).collect();
        assert_eq!(results, ["miss", "hit", "hit"]);
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let cache = SampleCache::new(2);
        cache.insert(key(1), sample(1));
        cache.insert(key(2), sample(2));
        // Touch 1 so 2 becomes the LRU.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), sample(3));
        assert!(cache.get(&key(2)).is_none(), "LRU entry must be evicted");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn overwriting_a_resident_key_does_not_evict_others() {
        let cache = SampleCache::new(2);
        cache.insert(key(1), sample(1));
        cache.insert(key(2), sample(2));
        cache.insert(key(1), sample(1));
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let cache = SampleCache::new(0);
        cache.insert(key(1), sample(1));
        assert!(cache.get(&key(1)).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn derived_seeds_are_deterministic_and_key_sensitive() {
        let base = key(42);
        assert_eq!(derive_sample_seed(&base), derive_sample_seed(&base.clone()));
        let other_graph = key(43);
        assert_ne!(derive_sample_seed(&base), derive_sample_seed(&other_graph));
        let other_chain = CacheKey { chain_slug: "par-global-es".to_string(), ..base.clone() };
        assert_ne!(derive_sample_seed(&base), derive_sample_seed(&other_chain));
        let other_steps = CacheKey { supersteps: 11, ..base.clone() };
        assert_ne!(derive_sample_seed(&base), derive_sample_seed(&other_steps));
    }
}
