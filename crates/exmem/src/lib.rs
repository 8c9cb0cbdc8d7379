//! Out-of-core edge storage for graphs that do not fit in RAM.
//!
//! Here `unsafe` is confined to the [`mmap`] module's three syscall wrappers
//! (see the safety argument there); elsewhere in the workspace only
//! `gesmc-serve`'s `poll(2)` wrapper and `gesmc-concurrent`'s prefetch
//! intrinsic use it.  Building blocks:
//!
//! * [`Mmap`] — a dependency-free read-only memory-map wrapper (no `libc`
//!   crate; direct `extern "C"` declarations), with a pure-`std` positioned
//!   read fallback selected automatically off Linux or under
//!   `GESMC_EXMEM_NO_MMAP=1`.
//! * [`MappedEdgeList`] — a zero-copy validated view of a `GESMCEL1` file;
//!   header rules identical to the heap parser, per-slot bounds re-checked
//!   on every access (corruption yields an error, never UB).
//! * [`ExternalEdgeStore`] — a mutable, disk-backed
//!   [`EdgeStore`] serving slot reads/writes through
//!   a bounded LRU chunk cache with dirty-chunk writeback.
//! * [`SeqESExt`] — sequential ES-MC over any `EdgeStore`, drafting switch
//!   batches from the seeded PRNG, sorting them by slot locality, and
//!   applying them in runs — **bit-identical to `seq-es` at the same seed**.
//!
//! The cardinal invariant, property-tested in the workspace's
//! `exmem_equivalence` suite: *the storage backend never changes the sample
//! bytes.*  Budgets, batch caps, and mmap-vs-fallback only move memory
//! traffic around.
//!
//! [`register`] plugs the `seq-es-ext` chain (plus its store-aware factory)
//! into any [`ChainRegistry`], which is how `gesmc_engine::default_registry`
//! makes it selectable from manifests, studies, checkpoints, the CLI, and
//! the HTTP API without special-casing.  Out of core, `gesmc_engine::run_job`
//! builds it over an [`ExternalEdgeStore`] for a `GraphSource::OutOfCore`
//! job — the same job loop every in-memory job runs on.

#![warn(missing_docs)]

pub mod chain;
pub mod error;
pub mod mapped;
pub mod mmap;
pub mod store;

pub use chain::{SeqESExt, DEFAULT_BATCH_CAP};
pub use error::ExmemError;
pub use mapped::MappedEdgeList;
pub use mmap::{mmap_available, Advice, Mmap};
pub use store::{ExternalEdgeStore, CHUNK_BYTES, CHUNK_EDGES};

use gesmc_core::registry::COMMON_PARAMS;
use gesmc_core::{
    ChainError, ChainInfo, ChainRegistry, ChainSpec, EdgeSwitching, ParamInfo, ParamKind,
    StoreSwitching, SwitchingConfig,
};
use gesmc_graph::{EdgeListGraph, EdgeStore};

/// Name of the batch-cap parameter of `seq-es-ext`.
pub const PARAM_BATCH: &str = "batch";

/// Parameters accepted by `seq-es-ext`: the common pair plus `batch`.
const SEQ_ES_EXT_PARAMS: &[ParamInfo] = &[
    COMMON_PARAMS[0],
    COMMON_PARAMS[1],
    ParamInfo {
        name: PARAM_BATCH,
        kind: ParamKind::Int,
        default: "8192",
        doc: "switches decided per sequential store scan (pure performance knob — \
              any value yields bit-identical samples)",
    },
];

fn batch_cap_from_spec(spec: &ChainSpec) -> Result<usize, ChainError> {
    match spec.param(PARAM_BATCH) {
        None => Ok(DEFAULT_BATCH_CAP),
        Some(v) => {
            let raw = v.as_i64().ok_or_else(|| ChainError::BadParam {
                chain: "seq-es-ext".to_string(),
                param: PARAM_BATCH.to_string(),
                message: format!("expected an int, got {v}"),
            })?;
            if raw < 1 {
                return Err(ChainError::BadParam {
                    chain: "seq-es-ext".to_string(),
                    param: PARAM_BATCH.to_string(),
                    message: format!("must be >= 1, got {raw}"),
                });
            }
            Ok(raw as usize)
        }
    }
}

fn seq_es_ext_factory(
    graph: EdgeListGraph,
    config: SwitchingConfig,
    spec: &ChainSpec,
) -> Result<Box<dyn EdgeSwitching + Send>, ChainError> {
    let cap = batch_cap_from_spec(spec)?;
    Ok(Box::new(SeqESExt::from_graph(graph, config).with_batch_cap(cap)))
}

fn seq_es_ext_store_factory(
    store: Box<dyn EdgeStore + Send>,
    config: SwitchingConfig,
    spec: &ChainSpec,
) -> Result<Box<dyn StoreSwitching + Send>, ChainError> {
    let cap = batch_cap_from_spec(spec)?;
    Ok(Box::new(SeqESExt::new(store, config).with_batch_cap(cap)))
}

/// The [`ChainInfo`] descriptor of `seq-es-ext`.
pub fn seq_es_ext_info() -> ChainInfo {
    ChainInfo {
        name: "seq-es-ext",
        chain_name: "SeqESExt",
        aliases: &[],
        summary: "sequential ES-MC over a pluggable edge store: slot-sorted batched I/O, \
                  bit-identical to seq-es; runs out-of-core via --mmap",
        exact: true,
        parallel: false,
        snapshot: true,
        params: SEQ_ES_EXT_PARAMS,
        factory: seq_es_ext_factory,
    }
}

/// Register the `seq-es-ext` chain and its store-aware factory.
pub fn register(registry: &mut ChainRegistry) {
    registry.register(seq_es_ext_info());
    registry.register_store_factory("seq-es-ext", seq_es_ext_store_factory);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesmc_randx::rng_from_seed;

    fn test_graph() -> EdgeListGraph {
        gesmc_graph::gen::gnp(&mut rng_from_seed(3), 80, 0.08)
    }

    #[test]
    fn registers_and_builds_through_the_registry() {
        let mut registry = ChainRegistry::with_core_chains();
        register(&mut registry);
        assert_eq!(registry.store_capable_names(), vec!["seq-es-ext"]);

        let graph = test_graph();
        let degrees = graph.degrees();
        let spec = ChainSpec::parse("seq-es-ext?batch=64&prefetch=off").unwrap();
        let mut chain = registry.build(&spec, graph.clone(), 5).unwrap();
        assert_eq!(chain.name(), "SeqESExt");
        chain.superstep();
        assert_eq!(chain.graph().degrees(), degrees);

        // The store-aware build path resolves through the registry too.
        let mut store_chain = registry.build_store(&spec, Box::new(graph), 5).unwrap();
        store_chain.superstep();
        assert_eq!(store_chain.graph().edges(), chain.graph().edges());
    }

    #[test]
    fn batch_param_is_validated() {
        let mut registry = ChainRegistry::with_core_chains();
        register(&mut registry);
        let graph = test_graph();
        let bad = ChainSpec::parse("seq-es-ext?batch=0").unwrap();
        assert!(matches!(registry.build(&bad, graph.clone(), 1), Err(ChainError::BadParam { .. })));
        let wrong_type = ChainSpec::parse("seq-es-ext?batch=0.5").unwrap();
        assert!(registry.validate(&wrong_type).is_err());
        let ok = ChainSpec::parse("seq-es-ext?batch=32").unwrap();
        assert!(registry.build(&ok, graph, 1).is_ok());
    }
}
