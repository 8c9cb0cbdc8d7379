//! Reference baselines the paper compares against.
//!
//! The runtime table (Fig. 4) pits the paper's hash-set based implementations
//! against two pre-existing adjacency-list based codes, NetworKit and
//! Gengraph.  Neither can be vendored here, so this crate re-implements the
//! relevant data-structure designs in Rust:
//!
//! * [`AdjacencyListES`] — ES-MC on an unsorted adjacency list whose edge
//!   existence check scans the smaller neighbourhood (the NetworKit-style
//!   design the paper describes in Sec. 5.2);
//! * [`SortedAdjacencyES`] — ES-MC on sorted adjacency vectors with binary
//!   search for existence and ordered insertion/removal (the Gengraph /
//!   Viger–Latapy-style design);
//! * [`GlobalCurveball`] — the Global Curveball chain (related work
//!   \[42\]/\[46\]),
//!   which trades whole neighbourhoods between random node pairs; included as
//!   the alternative randomisation scheme the paper discusses.
//!
//! All baselines implement the common
//! [`EdgeSwitching`](gesmc_core::EdgeSwitching) interface, so the
//! benchmark harness can time them side by side with `SeqES`, `SeqGlobalES`,
//! `NaiveParES` and `ParGlobalES`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjacency_es;
pub mod curveball;
pub mod registry;

pub use adjacency_es::{AdjacencyES, AdjacencyListES, SortedAdjacencyES};
pub use curveball::GlobalCurveball;
pub use registry::register_baselines;
