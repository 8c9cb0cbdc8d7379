//! Job specifications: what to randomize, with which chain, and how.
//!
//! The chain of a job is an open [`ChainSpec`] resolved against a
//! [`ChainRegistry`](gesmc_core::ChainRegistry) at run time (the engine's
//! default is [`default_registry`](crate::default_registry), which knows the
//! five `gesmc-core` chains *and* the `gesmc-baselines` chains) — there is no
//! closed algorithm enum anywhere in the engine, so registering a new chain
//! makes it batchable, checkpointable and resumable without touching this
//! crate.

use crate::error::EngineError;
use gesmc_core::{
    spec::{PARAM_LOOP_PROBABILITY, PARAM_PREFETCH},
    ChainSpec, ParamValue, SwitchingConfig,
};
use gesmc_datasets::{netrep_like::family_graph, syn_gnp_graph, syn_pld_graph, GraphFamily};
use gesmc_graph::io::{
    is_binary_edge_list_file, read_edge_list_binary_file, read_edge_list_file, IoError,
};
use gesmc_graph::EdgeListGraph;
use std::path::{Path, PathBuf};

/// The synthetic graph families [`GraphSource::Generated`] dispatches on —
/// the single source of truth for everything that validates a family name
/// upstream (manifests, the HTTP service).
pub const GRAPH_FAMILIES: &[&str] = &["gnp", "pld", "road", "mesh", "dense"];

/// Where a job's input graph comes from.
#[derive(Debug, Clone)]
pub enum GraphSource {
    /// An edge-list file: binary `GESMCEL1` (told apart by its magic) or
    /// plain text (`u v` per line).
    File(PathBuf),
    /// An already-loaded graph (library use, tests, resume).
    InMemory(EdgeListGraph),
    /// A synthetic graph generated on the fly by `gesmc-datasets`.
    Generated {
        /// Family name: `gnp`, `pld`, `road`, `mesh`, or `dense`.
        family: String,
        /// Number of nodes (`0` picks the family default for `edges`).
        nodes: usize,
        /// Target number of edges.
        edges: usize,
        /// Power-law exponent (only used by `pld`).
        gamma: f64,
        /// Generator seed.
        seed: u64,
    },
    /// A graph kept out of core: a store-capable chain (`seq-es-ext`)
    /// randomizes a disk-backed copy under a bounded chunk cache, and the
    /// job streams its samples and checkpoints from there.
    OutOfCore {
        /// A binary `GESMCEL1` edge list to start from, or a `GESMCKP1`
        /// checkpoint to resume from (its chain, state and samples so far);
        /// the 8-byte magic tells which.
        path: PathBuf,
        /// The working copy the chain randomizes; removed when the job ends.
        scratch: PathBuf,
        /// Byte budget of the store's chunk cache.
        memory_budget: usize,
    },
}

impl GraphSource {
    /// Materialise the input graph.
    pub fn load(&self) -> Result<EdgeListGraph, EngineError> {
        match self {
            // An out-of-core edge list loads like a file (its checkpoint
            // form does not); `run_job` streams it instead.
            GraphSource::File(path) | GraphSource::OutOfCore { path, .. } => read_graph_file(path)
                .map_err(|e| EngineError::Graph(format!("{}: {e}", path.display()))),
            GraphSource::InMemory(graph) => Ok(graph.clone()),
            GraphSource::Generated { family, nodes, edges, gamma, seed } => {
                let graph = match family.as_str() {
                    "gnp" => {
                        let n = if *nodes == 0 { edges / 8 } else { *nodes };
                        syn_gnp_graph(*seed, n, *edges)
                    }
                    "pld" => {
                        let n = if *nodes == 0 { edges / 3 } else { *nodes };
                        syn_pld_graph(*seed, n, *gamma)
                    }
                    "road" => family_graph(*seed, GraphFamily::RoadLike, *edges).graph,
                    "mesh" => family_graph(*seed, GraphFamily::Mesh, *edges).graph,
                    "dense" => family_graph(*seed, GraphFamily::Dense, *edges).graph,
                    other => {
                        return Err(EngineError::Graph(format!(
                            "unknown graph family {other:?} (expected {})",
                            GRAPH_FAMILIES.join(", ")
                        )))
                    }
                };
                Ok(graph)
            }
        }
    }

    /// Short human-readable description for reports and logs.
    pub fn describe(&self) -> String {
        match self {
            GraphSource::File(path) => path.display().to_string(),
            GraphSource::OutOfCore { path, .. } => format!("{} (out of core)", path.display()),
            GraphSource::InMemory(graph) => {
                format!("in-memory (n = {}, m = {})", graph.num_nodes(), graph.num_edges())
            }
            GraphSource::Generated { family, edges, .. } => {
                format!("generated {family} (m ≈ {edges})")
            }
        }
    }
}

/// Read an edge-list file in either format: binary `GESMCEL1` when it starts
/// with that magic, plain text otherwise.
fn read_graph_file(path: &Path) -> Result<EdgeListGraph, IoError> {
    if is_binary_edge_list_file(path)? {
        read_edge_list_binary_file(path)
    } else {
        read_edge_list_file(path)
    }
}

/// The full specification of one randomization job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Job name; also the prefix of emitted sample and checkpoint files.
    pub name: String,
    /// Input graph.
    pub source: GraphSource,
    /// Which chain randomises it, with its parameters (e.g.
    /// `par-global-es?pl=0.001&prefetch=off`).
    pub algorithm: ChainSpec,
    /// Total number of supersteps to run.
    pub supersteps: u64,
    /// Sample thinning interval `k` (Sec. 6.1): every `k`-th superstep's
    /// graph is streamed to the sink as an independent sample.  `0` emits
    /// only the final graph, once.
    pub thinning: u64,
    /// Seed of the chain's pseudo-random stream.
    pub seed: u64,
    /// Rayon thread budget for this job (`None` = the ambient pool).
    pub threads: Option<usize>,
    /// Write a checkpoint every this many supersteps (`None` = never).
    pub checkpoint_every: Option<u64>,
    /// Directory checkpoints are written to (`{name}.ckpt`).
    pub checkpoint_dir: Option<PathBuf>,
}

impl JobSpec {
    /// A job with the workspace defaults: 20 supersteps, final-state-only
    /// sampling, seed 1, ambient thread pool, no checkpoints.  Chain
    /// parameters not set on `algorithm` keep the [`SwitchingConfig`]
    /// defaults (`P_L = 0.01`, prefetching enabled).
    pub fn new(name: impl Into<String>, source: GraphSource, algorithm: ChainSpec) -> Self {
        Self {
            name: name.into(),
            source,
            algorithm,
            supersteps: 20,
            thinning: 0,
            seed: 1,
            threads: None,
            checkpoint_every: None,
            checkpoint_dir: None,
        }
    }

    /// Builder-style override of the superstep count.
    pub fn supersteps(mut self, count: u64) -> Self {
        self.supersteps = count;
        self
    }

    /// Builder-style override of the thinning interval.
    pub fn thinning(mut self, interval: u64) -> Self {
        self.thinning = interval;
        self
    }

    /// Builder-style override of the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style override of the per-job thread budget.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Builder-style override of `P_L` (sets the chain's `pl` parameter; the
    /// value is validated when the chain is built, not here).
    pub fn loop_probability(mut self, p: f64) -> Self {
        self.algorithm.params.insert(PARAM_LOOP_PROBABILITY.to_string(), ParamValue::Float(p));
        self
    }

    /// Builder-style override of the prefetch flag (sets the chain's
    /// `prefetch` parameter).
    pub fn prefetch(mut self, enabled: bool) -> Self {
        self.algorithm.params.insert(PARAM_PREFETCH.to_string(), ParamValue::Bool(enabled));
        self
    }

    /// Builder-style request for periodic checkpoints into `dir`.
    pub fn checkpoint(mut self, every: u64, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_every = Some(every);
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// The [`SwitchingConfig`] this job hands to its chain: the seed plus the
    /// chain spec's common parameters (`pl`, `prefetch`).
    pub fn config(&self) -> Result<SwitchingConfig, EngineError> {
        Ok(self.algorithm.switching_config(self.seed)?)
    }

    /// Number of samples a full uninterrupted run emits (`thinning == 0`
    /// emits the final graph exactly once).
    pub fn expected_samples(&self) -> u64 {
        self.supersteps.checked_div(self.thinning).unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_registry;

    #[test]
    fn generated_sources_load() {
        for family in ["gnp", "pld", "road", "mesh", "dense"] {
            let source = GraphSource::Generated {
                family: family.to_string(),
                nodes: 0,
                edges: 600,
                gamma: 2.5,
                seed: 1,
            };
            let graph = source.load().unwrap_or_else(|e| panic!("{family}: {e}"));
            assert!(graph.num_edges() > 0, "{family} generated an empty graph");
            assert!(graph.validate().is_ok());
        }
        let bad = GraphSource::Generated {
            family: "nope".into(),
            nodes: 0,
            edges: 10,
            gamma: 2.5,
            seed: 1,
        };
        assert!(bad.load().is_err());
    }

    #[test]
    fn missing_file_is_a_graph_error_with_the_path() {
        let source = GraphSource::File(PathBuf::from("/nonexistent/gesmc-test.txt"));
        match source.load() {
            Err(EngineError::Graph(msg)) => assert!(msg.contains("gesmc-test.txt")),
            other => panic!("expected Graph error, got {other:?}"),
        }
    }

    #[test]
    fn file_sources_read_text_and_binary_edge_lists_alike() {
        let dir = std::env::temp_dir().join("gesmc-job-file-formats-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let graph = gesmc_graph::gen::gnp(&mut gesmc_randx::rng_from_seed(4), 40, 0.1);
        gesmc_graph::io::write_edge_list_file(dir.join("g.txt"), &graph).unwrap();
        gesmc_graph::io::write_edge_list_binary_file(dir.join("g.el"), &graph).unwrap();
        for name in ["g.txt", "g.el"] {
            let loaded = GraphSource::File(dir.join(name)).load().unwrap();
            assert_eq!(loaded.edges(), graph.edges(), "{name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expected_samples() {
        let g = GraphSource::Generated {
            family: "gnp".into(),
            nodes: 0,
            edges: 100,
            gamma: 2.5,
            seed: 1,
        };
        let spec = JobSpec::new("a", g, ChainSpec::new("seq-es")).supersteps(10).thinning(3);
        assert_eq!(spec.expected_samples(), 3);
        assert_eq!(spec.clone().thinning(0).expected_samples(), 1);
    }

    #[test]
    fn config_builders_flow_into_the_chain_spec() {
        let g = GraphSource::Generated {
            family: "gnp".into(),
            nodes: 0,
            edges: 100,
            gamma: 2.5,
            seed: 1,
        };
        let spec = JobSpec::new("a", g, ChainSpec::new("seq-global-es"))
            .seed(7)
            .loop_probability(0.25)
            .prefetch(false);
        assert_eq!(spec.algorithm.to_string(), "seq-global-es?pl=0.25&prefetch=false");
        let config = spec.config().unwrap();
        assert_eq!(config.seed, 7);
        assert!((config.loop_probability - 0.25).abs() < 1e-12);
        assert!(!config.prefetch);
        // An out-of-range builder value surfaces as an error at config time.
        let bad = spec.loop_probability(1.5);
        assert!(bad.config().is_err());
        assert!(default_registry().validate(&bad.algorithm).is_err());
    }
}
