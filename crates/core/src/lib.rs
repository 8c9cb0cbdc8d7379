//! Edge switching Markov chains for the uniform sampling of simple graphs
//! with prescribed degrees.
//!
//! This crate implements the paper's primary contribution:
//!
//! * the classic **Edge Switching Markov Chain** (`ES-MC`, Def. 1) —
//!   [`SeqES`] (sequential) and [`ParES`] (exact parallel, Algorithm 2),
//! * the novel **Global Edge Switching Markov Chain** (`G-ES-MC`, Def. 3) —
//!   [`SeqGlobalES`] (sequential) and [`ParGlobalES`] (exact parallel,
//!   Algorithm 3),
//! * the **`ParallelSuperstep`** primitive (Algorithm 1) both parallel chains
//!   are built on ([`superstep::parallel_superstep`]), and the in-order Def. 1
//!   kernel that all four exact chains share
//!   ([`superstep::sequential_superstep`]),
//! * **`NaiveParES`** (Sec. 5.1), the inexact lock-per-edge parallel baseline.
//!
//! All chains expose the same [`EdgeSwitching`] interface so the examples,
//! analysis tooling and benchmarks can treat them interchangeably.  A
//! *superstep* is the unit of comparison defined in Sec. 6.1 of the paper:
//! `⌊m/2⌋` uniformly random edge switches for the ES-MC family and one global
//! switch for the G-ES-MC family.
//!
//! ```
//! use gesmc_core::{ParGlobalES, EdgeSwitching, SwitchingConfig};
//! use gesmc_graph::gen::gnp;
//! use gesmc_randx::rng_from_seed;
//!
//! let mut rng = rng_from_seed(7);
//! let graph = gnp(&mut rng, 200, 0.05);
//! let degrees_before = graph.degrees();
//!
//! let mut chain = ParGlobalES::new(graph, SwitchingConfig::with_seed(7));
//! chain.run_supersteps(10);
//! let randomized = chain.graph();
//!
//! assert_eq!(randomized.degrees(), degrees_before);
//! assert!(randomized.validate().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod naive_par;
pub mod par_es;
pub mod par_global;
pub mod registry;
pub mod seq_es;
pub mod seq_global;
pub mod snapshot;
pub mod spec;
pub mod stats;
pub mod store_chain;
pub mod superstep;
pub mod switch;

pub use chain::{EdgeSwitching, SwitchingConfig};
pub use naive_par::NaiveParES;
pub use par_es::ParES;
pub use par_global::ParGlobalES;
pub use registry::{
    ChainFactory, ChainInfo, ChainRegistry, ParamInfo, ParamKind, StoreChainFactory,
};
pub use seq_es::SeqES;
pub use seq_global::SeqGlobalES;
pub use snapshot::{ChainSnapshot, SnapshotError};
pub use spec::{ChainError, ChainSpec, ParamValue};
pub use stats::{ChainStats, SuperstepStats};
pub use store_chain::StoreSwitching;
pub use switch::{switch_targets, SwitchRequest};
