//! # gesmc — Parallel Global Edge Switching for the Uniform Sampling of
//! Simple Graphs with Prescribed Degrees
//!
//! This is the umbrella crate of the workspace: it re-exports the public API
//! of the individual crates so that applications (and the bundled examples)
//! only need a single dependency.
//!
//! * [`graph`] — graphs, degree sequences, generators, metrics, I/O;
//! * [`chains`] — the switching Markov chains (`SeqES`, `SeqGlobalES`,
//!   `ParES`, `ParGlobalES`, `NaiveParES`), their shared interface, and the
//!   open `ChainSpec`/`ChainRegistry` algorithm API;
//! * [`baselines`] — adjacency-list ES-MC baselines and Global Curveball,
//!   registered alongside the core chains in the engine's default registry;
//! * [`analysis`] — autocorrelation-based mixing-time analysis and proxies;
//! * [`datasets`] — the SynGnp / SynPld / NetRep-like dataset families;
//! * [`concurrent`] — the edge hash set and the dependency table;
//! * [`exmem`] — out-of-core edge storage: the disk-backed
//!   `ExternalEdgeStore`, and the `seq-es-ext` chain (bit-identical to
//!   `seq-es`; `gesmc randomize --mmap` on the command line);
//! * [`randx`] — randomness utilities (bounded sampling, permutations);
//! * [`engine`] — the batched randomization job engine: one job driver
//!   (`run_job`) for in-memory and out-of-core jobs, streaming
//!   thinned-sample sinks, binary checkpoint/resume,
//!   and one job pool (`ServicePool`) with cancellation and graceful
//!   shutdown that runs batches, studies and the HTTP service;
//! * [`serve`] — the HTTP sampling service (`gesmc serve`): hand-rolled
//!   `std::net` server, warm LRU sample cache, bounded admission with load
//!   shedding, Prometheus metrics;
//! * [`cluster`] — consistent-hash ring primitives shared by the sharded
//!   serving mode and the client: FNV-1a/mix64 hashing, virtual-node rings,
//!   canonical cache keys, and a dependency-free blocking HTTP/1.1 client;
//! * [`client`] — the typed SDK for the service: multi-endpoint pool with
//!   ring-based routing, failover, and `Retry-After`-aware backoff;
//! * [`obs`] — dependency-free observability: structured leveled logging
//!   with per-request correlation ids, fixed-bucket latency histograms with
//!   lock-cheap sharded recording, and Prometheus/JSON rendering;
//! * [`study`] — end-to-end mixing-time experiments (Figs. 2-3): sweep
//!   specs, streaming metric sinks, deterministic JSON/CSV reports.
//!
//! ## Quick start
//!
//! ```
//! use gesmc::prelude::*;
//!
//! // Build a power-law graph with 1000 nodes and exponent 2.5 ...
//! let graph = gesmc::datasets::syn_pld_graph(42, 1000, 2.5);
//! let degrees = graph.degrees();
//!
//! // ... and replace it by an approximately uniform sample with the same
//! // degrees using the exact parallel G-ES-MC chain.
//! let mut chain = ParGlobalES::new(graph, SwitchingConfig::with_seed(42));
//! chain.run_supersteps(20);
//! let sample = chain.graph();
//!
//! assert_eq!(sample.degrees(), degrees);
//! assert!(sample.validate().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gesmc_analysis as analysis;
pub use gesmc_baselines as baselines;
pub use gesmc_client as client;
pub use gesmc_cluster as cluster;
pub use gesmc_concurrent as concurrent;
pub use gesmc_core as chains;
pub use gesmc_datasets as datasets;
pub use gesmc_engine as engine;
pub use gesmc_exmem as exmem;
pub use gesmc_graph as graph;
pub use gesmc_obs as obs;
pub use gesmc_randx as randx;
pub use gesmc_serve as serve;
pub use gesmc_study as study;

/// The most commonly used items in one import.
pub mod prelude {
    pub use gesmc_analysis::{mixing_profile, MixingProfile};
    pub use gesmc_baselines::{
        register_baselines, AdjacencyListES, GlobalCurveball, SortedAdjacencyES,
    };
    pub use gesmc_client::{Client, ClientError, Sample, SampleSpec};
    pub use gesmc_cluster::{canonical_graph_spec, HashRing, SampleKey};
    pub use gesmc_core::{
        ChainError, ChainInfo, ChainRegistry, ChainSnapshot, ChainSpec, EdgeSwitching, NaiveParES,
        ParES, ParGlobalES, ParamValue, SeqES, SeqGlobalES, SwitchingConfig,
    };
    pub use gesmc_engine::{
        default_registry, run_batch, run_job, Checkpoint, CheckpointSink, GraphSource, JobControl,
        JobHandle, JobSpec, JobState, Manifest, MemorySink, QueuedJob, SampleSink, SampleView,
        ServicePool,
    };
    pub use gesmc_exmem::{ExternalEdgeStore, SeqESExt};
    pub use gesmc_graph::{DegreeSequence, Edge, EdgeListGraph, EdgeStore};
    pub use gesmc_serve::{ClusterConfig, PersistIo, ServeConfig, Server, StdFs};
    pub use gesmc_study::{run_study, MetricsSink, StudyOptions, StudyReport, StudySpec};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_pipeline() {
        let graph = crate::datasets::syn_gnp_graph(1, 200, 800);
        let degrees = graph.degrees();
        let mut chain = SeqGlobalES::new(graph, SwitchingConfig::with_seed(1));
        chain.run_supersteps(3);
        assert_eq!(chain.graph().degrees(), degrees);
    }
}
