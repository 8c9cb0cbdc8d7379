//! Study specifications: the JSON input of `gesmc study`.
//!
//! A study sweeps the cross product {chain} × {graph} and, for every cell,
//! drives the chain for a fixed number of supersteps while measuring the
//! fraction of non-independent edges for every thinning value (the quantity
//! of the paper's Figs. 2 and 3).  A spec looks like:
//!
//! ```json
//! {
//!   "name": "fig2_smoke",
//!   "chains": ["seq-es", "global-curveball", "par-global-es?pl=0.001"],
//!   "graphs": [
//!     { "family": "pld", "nodes": 120, "edges": 360, "gamma": 2.5 },
//!     { "family": "gnp", "nodes": 100, "edges": 400 }
//!   ],
//!   "thinnings": [1, 2, 4, 8],
//!   "supersteps": 32,
//!   "seed": 1,
//!   "workers": 2,
//!   "output_dir": "results",
//!   "paper": { "supersteps": 4096, "edge_factor": 64 }
//! }
//! ```
//!
//! The top-level numbers describe the **smoke** scale (seconds on a laptop);
//! the optional `"paper"` object overrides the superstep count and scales
//! every graph's edge budget when the study runs with `--scale paper`.  An
//! optional `"xl"` object of the same shape describes the **xl** scale:
//! graphs sized past main memory, meant to run through the out-of-core
//! `seq-es-ext` chain (`gesmc randomize --mmap`).  Absent an explicit `"xl"`
//! block, xl keeps the paper superstep count and multiplies the paper edge
//! budget by another 16×.
//!
//! Each `"chains"` entry is a [`ChainSpec`] — a plain name, a
//! `name?key=value` string, or the equivalent JSON object — resolved against
//! the engine's [`default_registry`], so baselines (`global-curveball`,
//! `adjacency-es`, …) sweep next to the core chains and per-chain parameters
//! (e.g. two `P_L` values of the same chain) become distinct sweep columns.

use crate::error::StudyError;
use gesmc_engine::{default_registry, ChainSpec};
use gesmc_graph::gen::check_gamma;
use serde_json::Value;
use std::path::PathBuf;

/// Workload scale of a study run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StudyScale {
    /// Seconds: the spec's numbers as written; what CI runs.
    #[default]
    Smoke,
    /// Hours: the spec's `"paper"` overrides applied (superstep count and
    /// edge budgets approaching the publication's parameter ranges).
    Paper,
    /// Out-of-core: the spec's `"xl"` overrides applied — edge budgets past
    /// main memory, intended for the external-memory `seq-es-ext` chain.
    Xl,
}

impl StudyScale {
    /// Parse the CLI spelling (`"smoke"` / `"paper"` / `"xl"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "smoke" => Some(StudyScale::Smoke),
            "paper" => Some(StudyScale::Paper),
            "xl" => Some(StudyScale::Xl),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            StudyScale::Smoke => "smoke",
            StudyScale::Paper => "paper",
            StudyScale::Xl => "xl",
        }
    }
}

/// One input graph of the sweep.
#[derive(Debug, Clone)]
pub struct GraphSpec {
    /// Generator family (`gnp`, `pld`, `road`, `mesh`, `dense`).
    pub family: String,
    /// Number of nodes (`0` picks the family default for the edge budget).
    pub nodes: usize,
    /// Target number of edges at smoke scale.
    pub edges: usize,
    /// Power-law exponent (only used by `pld`).
    pub gamma: f64,
    /// Short label used in job names and reports (default
    /// `{family}-m{edges}`).
    pub label: String,
}

/// Overrides applied when a study runs with `--scale paper`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaperOverrides {
    /// Superstep count at paper scale (default: the smoke count × 64).
    pub supersteps: Option<u64>,
    /// Multiplier on every graph's edge budget (default 16).
    pub edge_factor: Option<u64>,
}

/// Overrides applied when a study runs with `--scale xl`.
#[derive(Debug, Clone, Copy, Default)]
pub struct XlOverrides {
    /// Superstep count at xl scale (default: the paper count).
    pub supersteps: Option<u64>,
    /// Multiplier on every graph's *smoke* edge budget (default: the paper
    /// factor × 16, i.e. another 16× past paper scale).
    pub edge_factor: Option<u64>,
}

/// A parsed study specification.
#[derive(Debug, Clone)]
pub struct StudySpec {
    /// Study name; keys every output file (`results/{name}.json`, …).
    pub name: String,
    /// The chains of the sweep (the outer loop of the cross product), as
    /// registry-resolved specs.
    pub chains: Vec<ChainSpec>,
    /// The graphs of the sweep (the inner loop).
    pub graphs: Vec<GraphSpec>,
    /// Thinning values `k` evaluated in every cell (sorted, deduplicated).
    pub thinnings: Vec<usize>,
    /// Supersteps per cell at smoke scale.
    pub supersteps: u64,
    /// Root seed; per-cell chain and generator seeds derive from it via
    /// [`derive_seed`] and are recorded in the report, so any single cell can
    /// be re-run exactly.
    pub seed: u64,
    /// Worker threads of the job pool (`0` = hardware parallelism).
    pub workers: usize,
    /// Rayon thread budget per cell (`None` = the ambient pool).
    pub threads_per_job: Option<usize>,
    /// `P_L` handed to the G-ES-MC chains.
    pub loop_probability: f64,
    /// Record scalar proxies (triangles, clustering, assortativity) every
    /// this many supersteps; `0` (the default) uses the largest thinning.
    pub proxy_stride: u64,
    /// Directory the report files are written to.
    pub output_dir: PathBuf,
    /// Paper-scale overrides.
    pub paper: PaperOverrides,
    /// Xl-scale (out-of-core) overrides.
    pub xl: XlOverrides,
}

/// One cell of the sweep: a (chain, graph) pair with its derived seeds.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Zero-based position in the sweep (chain-major order).
    pub index: usize,
    /// Job name, `{chain slug}-{graph label}`; keys the cell's resume file.
    pub job_name: String,
    /// The chain of this cell.
    pub algorithm: ChainSpec,
    /// The graph of this cell, with the scale's edge budget applied.
    pub graph: GraphSpec,
    /// Supersteps at the requested scale.
    pub supersteps: u64,
    /// The derived chain seed ([`derive_seed`]`(study seed, CHAIN, index)`).
    pub seed: u64,
    /// The derived generator seed ([`derive_seed`]`(study seed, GRAPH,
    /// graph index)`) — a function of the *graph* position only, so every
    /// chain of the sweep randomises the identical input graph.
    pub graph_seed: u64,
}

/// Seed stream of the graph generators (see [`derive_seed`]).
pub const SEED_STREAM_GRAPH: u64 = 0;
/// Seed stream of the switching chains (see [`derive_seed`]).
pub const SEED_STREAM_CHAIN: u64 = 1;

/// Derive a sub-seed from the study's root seed.
///
/// A splitmix64-style finaliser over `(root, stream, index)`.  Two distinct
/// streams keep the generator and chain PRNG sequences unrelated even for
/// equal indices (both are `Pcg64`-seeded, so a shared raw seed would make
/// the chain replay the exact random stream that placed the edges).  The
/// derived values are recorded in the report, so any single cell can be
/// reconstructed without re-deriving.
///
/// The result is masked to 53 bits: report seeds must survive a JSON
/// round-trip, and JSON numbers (and the vendored `serde_json` shim) only
/// represent integers exactly up to `2^53`.
pub fn derive_seed(root: u64, stream: u64, index: u64) -> u64 {
    let mut z = root
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & ((1 << 53) - 1)
}

fn field_u64(value: &Value, key: &str, context: &str) -> Result<Option<u64>, StudyError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            StudyError::Spec(format!("{context}: {key:?} must be a non-negative integer"))
        }),
    }
}

fn field_f64(value: &Value, key: &str, context: &str) -> Result<Option<f64>, StudyError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| StudyError::Spec(format!("{context}: {key:?} must be a number"))),
    }
}

fn field_str<'a>(
    value: &'a Value,
    key: &str,
    context: &str,
) -> Result<Option<&'a str>, StudyError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| StudyError::Spec(format!("{context}: {key:?} must be a string"))),
    }
}

fn parse_graph(value: &Value, index: usize) -> Result<GraphSpec, StudyError> {
    let context = format!("graph #{index}");
    if value.as_object().is_none() {
        return Err(StudyError::Spec(format!("{context}: must be an object")));
    }
    let family = field_str(value, "family", &context)?
        .ok_or_else(|| StudyError::Spec(format!("{context}: needs a \"family\"")))?
        .to_string();
    let edges = field_u64(value, "edges", &context)?
        .ok_or_else(|| StudyError::Spec(format!("{context}: needs \"edges\"")))?
        as usize;
    if edges == 0 {
        return Err(StudyError::Spec(format!("{context}: \"edges\" must be positive")));
    }
    let label = field_str(value, "label", &context)?
        .map(str::to_string)
        .unwrap_or_else(|| format!("{family}-m{edges}"));
    // Labels key the cell resume file names and appear unquoted in CSV rows;
    // restrict them the same way the study name is restricted.
    if label.is_empty() || !label.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)) {
        return Err(StudyError::Spec(format!(
            "{context}: label {label:?} must be non-empty [A-Za-z0-9_.-] \
             (it keys file names and CSV rows)"
        )));
    }
    let gamma = field_f64(value, "gamma", &context)?.unwrap_or(2.5);
    check_gamma(gamma).map_err(|e| StudyError::Spec(format!("{context}: {e}")))?;
    Ok(GraphSpec {
        family,
        nodes: field_u64(value, "nodes", &context)?.unwrap_or(0) as usize,
        edges,
        gamma,
        label,
    })
}

impl StudySpec {
    /// Parse a study spec from JSON text.
    pub fn parse(text: &str) -> Result<Self, StudyError> {
        let root = serde_json::from_str(text)
            .map_err(|e| StudyError::Spec(format!("invalid JSON: {e}")))?;
        if root.as_object().is_none() {
            return Err(StudyError::Spec("top level must be an object".to_string()));
        }
        let name = field_str(&root, "name", "study")?
            .ok_or_else(|| StudyError::Spec("study needs a \"name\"".to_string()))?
            .to_string();
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || "_-".contains(c)) {
            return Err(StudyError::Spec(format!(
                "study name {name:?} must be non-empty [A-Za-z0-9_-] (it keys file names)"
            )));
        }

        let chains_value = root
            .get("chains")
            .and_then(Value::as_array)
            .ok_or_else(|| StudyError::Spec("study needs a \"chains\" array".to_string()))?;
        let chains = chains_value
            .iter()
            .map(|v| {
                let spec = ChainSpec::from_json(v).map_err(|e| StudyError::Spec(e.to_string()))?;
                // Resolve now so unknown names / bad parameters fail at parse
                // time with the registry's message.
                default_registry().validate(&spec).map_err(|e| StudyError::Spec(e.to_string()))?;
                Ok(spec)
            })
            .collect::<Result<Vec<_>, StudyError>>()?;
        if chains.is_empty() {
            return Err(StudyError::Spec("\"chains\" must not be empty".to_string()));
        }
        let mut slugs = std::collections::HashSet::new();
        for chain in &chains {
            if !slugs.insert(chain.slug()) {
                return Err(StudyError::Spec(format!(
                    "duplicate chain {:?}: cell names would collide",
                    chain.to_string()
                )));
            }
        }

        let graphs_value = root
            .get("graphs")
            .and_then(Value::as_array)
            .ok_or_else(|| StudyError::Spec("study needs a \"graphs\" array".to_string()))?;
        let graphs = graphs_value
            .iter()
            .enumerate()
            .map(|(i, v)| parse_graph(v, i))
            .collect::<Result<Vec<_>, _>>()?;
        if graphs.is_empty() {
            return Err(StudyError::Spec("\"graphs\" must not be empty".to_string()));
        }
        let mut labels = std::collections::HashSet::new();
        for graph in &graphs {
            if !labels.insert(graph.label.as_str()) {
                return Err(StudyError::Spec(format!(
                    "duplicate graph label {:?}: cell names would collide",
                    graph.label
                )));
            }
        }

        let thinnings_value = root
            .get("thinnings")
            .and_then(Value::as_array)
            .ok_or_else(|| StudyError::Spec("study needs a \"thinnings\" array".to_string()))?;
        let mut thinnings = thinnings_value
            .iter()
            .map(|v| {
                v.as_u64().filter(|&k| k > 0).map(|k| k as usize).ok_or_else(|| {
                    StudyError::Spec("\"thinnings\" entries must be positive integers".into())
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        thinnings.sort_unstable();
        thinnings.dedup();
        if thinnings.is_empty() {
            return Err(StudyError::Spec("\"thinnings\" must not be empty".to_string()));
        }

        let supersteps = field_u64(&root, "supersteps", "study")?.unwrap_or(32);
        if supersteps == 0 {
            return Err(StudyError::Spec("\"supersteps\" must be positive".to_string()));
        }
        let loop_probability = field_f64(&root, "loop_probability", "study")?.unwrap_or(0.01);
        if !(0.0..1.0).contains(&loop_probability) {
            return Err(StudyError::Spec("\"loop_probability\" must lie in [0, 1)".to_string()));
        }

        let paper = match root.get("paper") {
            None => PaperOverrides::default(),
            Some(v) if v.as_object().is_some() => PaperOverrides {
                supersteps: field_u64(v, "supersteps", "paper")?,
                edge_factor: field_u64(v, "edge_factor", "paper")?,
            },
            Some(_) => {
                return Err(StudyError::Spec("\"paper\" must be an object".to_string()));
            }
        };

        let xl = match root.get("xl") {
            None => XlOverrides::default(),
            Some(v) if v.as_object().is_some() => XlOverrides {
                supersteps: field_u64(v, "supersteps", "xl")?,
                edge_factor: field_u64(v, "edge_factor", "xl")?,
            },
            Some(_) => {
                return Err(StudyError::Spec("\"xl\" must be an object".to_string()));
            }
        };

        Ok(Self {
            name,
            chains,
            graphs,
            thinnings,
            supersteps,
            seed: field_u64(&root, "seed", "study")?.unwrap_or(1),
            workers: field_u64(&root, "workers", "study")?.unwrap_or(0) as usize,
            threads_per_job: field_u64(&root, "threads_per_job", "study")?.map(|t| t as usize),
            loop_probability,
            proxy_stride: field_u64(&root, "proxy_stride", "study")?.unwrap_or(0),
            output_dir: PathBuf::from(
                field_str(&root, "output_dir", "study")?.unwrap_or("results"),
            ),
            paper,
            xl,
        })
    }

    /// Read and parse a study spec file.
    pub fn from_file(path: impl AsRef<std::path::Path>) -> Result<Self, StudyError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| StudyError::Spec(format!("cannot read {}: {e}", path.display())))?;
        Self::parse(&text)
    }

    /// Supersteps per cell at the given scale.
    pub fn supersteps_at(&self, scale: StudyScale) -> u64 {
        match scale {
            StudyScale::Smoke => self.supersteps,
            StudyScale::Paper => {
                self.paper.supersteps.unwrap_or_else(|| self.supersteps.saturating_mul(64))
            }
            // Xl grows the *graphs*, not the chain length: absent an explicit
            // override it keeps the paper superstep count.
            StudyScale::Xl => {
                self.xl.supersteps.unwrap_or_else(|| self.supersteps_at(StudyScale::Paper))
            }
        }
    }

    /// Edge budget of one graph at the given scale.
    pub fn edges_at(&self, scale: StudyScale, base_edges: usize) -> usize {
        match scale {
            StudyScale::Smoke => base_edges,
            StudyScale::Paper => {
                base_edges.saturating_mul(self.paper.edge_factor.unwrap_or(16) as usize)
            }
            StudyScale::Xl => base_edges.saturating_mul(
                self.xl
                    .edge_factor
                    .unwrap_or_else(|| self.paper.edge_factor.unwrap_or(16).saturating_mul(16))
                    as usize,
            ),
        }
    }

    /// The proxy recording stride: the explicit `proxy_stride`, or the
    /// largest thinning value.
    pub fn effective_proxy_stride(&self) -> u64 {
        if self.proxy_stride > 0 {
            self.proxy_stride
        } else {
            self.thinnings.last().copied().unwrap_or(1) as u64
        }
    }

    /// Enumerate the sweep cells in chain-major order, applying the scale.
    pub fn cells(&self, scale: StudyScale) -> Vec<CellSpec> {
        let supersteps = self.supersteps_at(scale);
        let mut cells = Vec::with_capacity(self.chains.len() * self.graphs.len());
        for chain in &self.chains {
            for (graph_index, graph) in self.graphs.iter().enumerate() {
                let index = cells.len();
                let mut graph = graph.clone();
                graph.edges = self.edges_at(scale, graph.edges);
                cells.push(CellSpec {
                    index,
                    job_name: format!("{}-{}", chain.slug(), graph.label),
                    algorithm: chain.clone(),
                    graph,
                    supersteps,
                    seed: derive_seed(self.seed, SEED_STREAM_CHAIN, index as u64),
                    graph_seed: derive_seed(self.seed, SEED_STREAM_GRAPH, graph_index as u64),
                });
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "name": "unit",
        "chains": ["seq-es", "par-global-es"],
        "graphs": [
            { "family": "pld", "nodes": 100, "edges": 300, "gamma": 2.5 },
            { "family": "gnp", "edges": 400, "label": "gilbert" }
        ],
        "thinnings": [8, 1, 2, 2],
        "supersteps": 16,
        "seed": 5,
        "workers": 2,
        "paper": { "supersteps": 1024, "edge_factor": 8 }
    }"#;

    #[test]
    fn parses_and_enumerates_cells() {
        let spec = StudySpec::parse(SPEC).unwrap();
        assert_eq!(spec.name, "unit");
        assert_eq!(spec.thinnings, vec![1, 2, 8], "sorted and deduplicated");
        assert_eq!(spec.effective_proxy_stride(), 8);

        let cells = spec.cells(StudyScale::Smoke);
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].job_name, "seq-es-pld-m300");
        assert_eq!(cells[1].job_name, "seq-es-gilbert");
        assert_eq!(cells[3].job_name, "par-global-es-gilbert");
        assert!(cells.iter().all(|c| c.supersteps == 16));

        // Chain seeds are distinct per cell; generator seeds depend only on
        // the graph, so both chains randomise the identical input.
        assert_eq!(cells[0].seed, derive_seed(5, SEED_STREAM_CHAIN, 0));
        let chain_seeds: std::collections::HashSet<u64> = cells.iter().map(|c| c.seed).collect();
        assert_eq!(chain_seeds.len(), 4);
        assert_eq!(cells[0].graph_seed, cells[2].graph_seed);
        assert_eq!(cells[1].graph_seed, cells[3].graph_seed);
        assert_ne!(cells[0].graph_seed, cells[1].graph_seed);
        assert!(!chain_seeds.contains(&cells[0].graph_seed));
    }

    #[test]
    fn baseline_and_parameterised_chains_become_distinct_cells() {
        let spec = StudySpec::parse(
            r#"{
                "name": "mix",
                "chains": ["global-curveball", "par-global-es?pl=0.001", "par-global-es"],
                "graphs": [{ "family": "gnp", "edges": 100, "label": "g" }],
                "thinnings": [1]
            }"#,
        )
        .unwrap();
        let cells = spec.cells(StudyScale::Smoke);
        assert_eq!(cells[0].job_name, "global-curveball-g");
        assert_eq!(cells[1].job_name, "par-global-es-pl-0.001-g");
        assert_eq!(cells[2].job_name, "par-global-es-g");
        // Every job name stays within the report's file/CSV-safe charset.
        for cell in &cells {
            assert!(
                cell.job_name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                cell.job_name
            );
        }
    }

    #[test]
    fn seed_derivation_is_stable_and_stream_separated() {
        assert_eq!(derive_seed(1, 0, 0), derive_seed(1, 0, 0));
        assert_ne!(derive_seed(1, SEED_STREAM_GRAPH, 3), derive_seed(1, SEED_STREAM_CHAIN, 3));
        assert_ne!(derive_seed(1, 0, 1), derive_seed(2, 0, 1));
        // Seeds must survive a JSON (f64) round-trip exactly.
        for i in 0..64 {
            assert!(derive_seed(u64::MAX, 1, i) < (1 << 53));
        }
    }

    #[test]
    fn paper_scale_applies_overrides() {
        let spec = StudySpec::parse(SPEC).unwrap();
        let cells = spec.cells(StudyScale::Paper);
        assert_eq!(cells[0].supersteps, 1024);
        assert_eq!(cells[0].graph.edges, 2400);
        assert_eq!(cells[1].graph.edges, 3200);
        // Defaults when the "paper" object is absent.
        let bare = StudySpec::parse(&SPEC.replace(
            r#""paper": { "supersteps": 1024, "edge_factor": 8 }"#,
            r#""proxy_stride": 4"#,
        ))
        .unwrap();
        assert_eq!(bare.supersteps_at(StudyScale::Paper), 16 * 64);
        assert_eq!(bare.edges_at(StudyScale::Paper, 300), 4800);
        assert_eq!(bare.effective_proxy_stride(), 4);
    }

    #[test]
    fn xl_scale_applies_overrides_and_defaults_past_paper() {
        // Explicit "xl" block wins.
        let explicit = StudySpec::parse(&SPEC.replace(
            r#""paper": { "supersteps": 1024, "edge_factor": 8 }"#,
            r#""paper": { "supersteps": 1024, "edge_factor": 8 },
               "xl": { "supersteps": 2048, "edge_factor": 500 }"#,
        ))
        .unwrap();
        let cells = explicit.cells(StudyScale::Xl);
        assert_eq!(cells[0].supersteps, 2048);
        assert_eq!(cells[0].graph.edges, 300 * 500);

        // Without an "xl" block: paper supersteps, paper edge factor × 16.
        let spec = StudySpec::parse(SPEC).unwrap();
        assert_eq!(spec.supersteps_at(StudyScale::Xl), 1024);
        assert_eq!(spec.edges_at(StudyScale::Xl, 300), 300 * 8 * 16);

        // Bare defaults (neither "paper" nor "xl"): 64× smoke supersteps,
        // 16 × 16 = 256× smoke edges.
        let bare = StudySpec::parse(&SPEC.replace(
            r#""paper": { "supersteps": 1024, "edge_factor": 8 }"#,
            r#""proxy_stride": 4"#,
        ))
        .unwrap();
        assert_eq!(bare.supersteps_at(StudyScale::Xl), 16 * 64);
        assert_eq!(bare.edges_at(StudyScale::Xl, 300), 300 * 256);

        assert_eq!(StudyScale::parse("xl"), Some(StudyScale::Xl));
        assert_eq!(StudyScale::Xl.name(), "xl");
        expect_spec_error(
            r#"{"name": "x", "chains": ["seq-es"],
                "graphs": [{"family": "gnp", "edges": 9}], "thinnings": [1], "xl": 3}"#,
            "\"xl\" must be an object",
        );
    }

    fn expect_spec_error(text: &str, needle: &str) {
        match StudySpec::parse(text) {
            Err(StudyError::Spec(msg)) => {
                assert!(msg.contains(needle), "message {msg:?} lacks {needle:?}")
            }
            other => panic!("expected spec error containing {needle:?}, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_specs() {
        expect_spec_error("nonsense", "invalid JSON");
        expect_spec_error("[]", "top level");
        expect_spec_error(r#"{"chains": []}"#, "name");
        expect_spec_error(r#"{"name": "a b", "chains": ["seq-es"]}"#, "must be non-empty");
        expect_spec_error(r#"{"name": "x"}"#, "chains");
        expect_spec_error(r#"{"name": "x", "chains": []}"#, "empty");
        expect_spec_error(r#"{"name": "x", "chains": ["quantum"]}"#, "unknown chain");
        expect_spec_error(r#"{"name": "x", "chains": ["seq-es?pl=9"]}"#, "pl");
        expect_spec_error(r#"{"name": "x", "chains": ["seq-es", "seq-es"]}"#, "duplicate chain");
        expect_spec_error(r#"{"name": "x", "chains": ["seq-es"]}"#, "graphs");
        expect_spec_error(
            r#"{"name": "x", "chains": ["seq-es"], "graphs": [{"edges": 5}]}"#,
            "family",
        );
        expect_spec_error(
            r#"{"name": "x", "chains": ["seq-es"], "graphs": [{"family": "gnp"}]}"#,
            "edges",
        );
        expect_spec_error(
            r#"{"name": "x", "chains": ["seq-es"],
                "graphs": [{"family": "pld", "edges": 9, "gamma": 0.5}], "thinnings": [1]}"#,
            "gamma must exceed 1",
        );
        expect_spec_error(
            r#"{"name": "x", "chains": ["seq-es"],
                "graphs": [{"family": "gnp", "edges": 9, "label": "a/b"}], "thinnings": [1]}"#,
            "label",
        );
        expect_spec_error(
            r#"{"name": "x", "chains": ["seq-es"],
                "graphs": [{"family": "gnp", "edges": 9, "label": "a,b"}], "thinnings": [1]}"#,
            "label",
        );
        expect_spec_error(
            r#"{"name": "x", "chains": ["seq-es"],
                "graphs": [{"family": "gnp", "edges": 9, "label": "g"},
                           {"family": "pld", "edges": 9, "label": "g"}],
                "thinnings": [1]}"#,
            "duplicate graph label",
        );
        expect_spec_error(
            r#"{"name": "x", "chains": ["seq-es"], "graphs": [{"family": "gnp", "edges": 9}]}"#,
            "thinnings",
        );
        expect_spec_error(
            r#"{"name": "x", "chains": ["seq-es"], "graphs": [{"family": "gnp", "edges": 9}],
                "thinnings": [0]}"#,
            "positive",
        );
        expect_spec_error(
            r#"{"name": "x", "chains": ["seq-es"], "graphs": [{"family": "gnp", "edges": 9}],
                "thinnings": [1], "supersteps": 0}"#,
            "supersteps",
        );
        expect_spec_error(
            r#"{"name": "x", "chains": ["seq-es"], "graphs": [{"family": "gnp", "edges": 9}],
                "thinnings": [1], "loop_probability": 1.5}"#,
            "[0, 1)",
        );
        expect_spec_error(
            r#"{"name": "x", "chains": ["seq-es"], "graphs": [{"family": "gnp", "edges": 9}],
                "thinnings": [1], "paper": 3}"#,
            "paper",
        );
    }

    #[test]
    fn defaults_are_sensible() {
        let spec = StudySpec::parse(
            r#"{"name": "d", "chains": ["seq-es"],
                "graphs": [{"family": "gnp", "edges": 100}], "thinnings": [1, 4]}"#,
        )
        .unwrap();
        assert_eq!(spec.supersteps, 32);
        assert_eq!(spec.seed, 1);
        assert_eq!(spec.workers, 0);
        assert_eq!(spec.threads_per_job, None);
        assert_eq!(spec.output_dir, PathBuf::from("results"));
        assert!((spec.loop_probability - 0.01).abs() < 1e-12);
        assert_eq!(spec.effective_proxy_stride(), 4);
    }
}
