//! End-to-end mixing-time experiments: the path from a study spec to the
//! data behind the paper's Figs. 2-3.
//!
//! The crates below this one each solve a piece of the puzzle — `gesmc-core`
//! runs a chain, `gesmc-engine` batches jobs, `gesmc-analysis` decides
//! per-edge independence — but none of them turns *a manifest into figure
//! data*.  This crate is that layer:
//!
//! * a [`StudySpec`] (JSON) describes a sweep {chain} × {graph family/size}
//!   with a shared thinning set and seed;
//! * [`run_study`] fans the sweep cells out over the engine's
//!   [`ServicePool`](gesmc_engine::ServicePool), one job per cell;
//! * every cell streams each superstep's graph into a [`MetricsSink`] — a
//!   [`SampleSink`](gesmc_engine::SampleSink) that folds the sample into the
//!   [`ThinnedAutocorrelation`](gesmc_analysis::ThinnedAutocorrelation)
//!   accumulator on the fly instead of materialising thinned graphs;
//! * the per-cell results aggregate into a [`StudyReport`] written as
//!   deterministic JSON + CSV (plus a non-deterministic timing side-car)
//!   under `results/`, carrying the fraction of non-independent edges per
//!   thinning value, scalar proxy traces, and the exact seeds for re-runs.
//!
//! On the command line this is `gesmc study studies/fig2_smoke.json`; the
//! pieces compose individually for library use:
//!
//! ```
//! use gesmc_study::{run_study, StudyOptions, StudySpec};
//!
//! let spec = StudySpec::parse(r#"{
//!     "name": "doc_demo",
//!     "chains": ["seq-es", "seq-global-es"],
//!     "graphs": [{ "family": "gnp", "nodes": 40, "edges": 120 }],
//!     "thinnings": [1, 2, 4],
//!     "supersteps": 8,
//!     "seed": 1,
//!     "output_dir": "results"
//! }"#).unwrap();
//! let dir = std::env::temp_dir().join("gesmc-study-doc");
//! let opts = StudyOptions { output_dir: Some(dir.clone()), ..Default::default() };
//! let run = run_study(&spec, &opts).unwrap();
//! assert_eq!(run.report.cells.len(), 2, "one report cell per sweep cell");
//! assert_eq!(run.report.cells[0].points.len(), 3, "one point per thinning");
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod report;
pub mod runner;
pub mod sink;
pub mod spec;

pub use error::StudyError;
pub use report::{CellReport, StudyReport};
pub use runner::{run_study, StudyOptions, StudyRun};
pub use sink::{CellMetrics, CellOutcome, MetricsSink};
pub use spec::{
    derive_seed, CellSpec, GraphSpec, PaperOverrides, StudyScale, StudySpec, XlOverrides,
};
