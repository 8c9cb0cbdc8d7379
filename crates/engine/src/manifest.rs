//! JSON batch manifests: the `gesmc batch` input format.
//!
//! ```json
//! {
//!   "workers": 2,
//!   "output_dir": "samples",
//!   "checkpoint_dir": "checkpoints",
//!   "jobs": [
//!     {
//!       "name": "web-null-model",
//!       "input": "web.txt",
//!       "algorithm": "par-global-es?pl=0.001",
//!       "supersteps": 40,
//!       "thinning": 10,
//!       "seed": 1,
//!       "threads": 4,
//!       "checkpoint_every": 20
//!     },
//!     {
//!       "name": "curveball-reference",
//!       "generate": { "family": "pld", "edges": 20000, "gamma": 2.5, "seed": 7 },
//!       "algorithm": { "name": "global-curveball" },
//!       "supersteps": 30,
//!       "thinning": 5
//!     }
//!   ]
//! }
//! ```
//!
//! Per job, exactly one of `input` (edge-list file) or `generate` (synthetic
//! family) selects the graph.  The chain is a [`ChainSpec`] under the
//! `"algorithm"` key — a string (`"par-global-es?pl=0.001"`) or the
//! equivalent object (`{"name": "par-global-es", "pl": 0.001}`) — validated
//! against the engine's [`default_registry`](crate::default_registry()), so
//! every registered chain (baselines included) is reachable.  `"algo"` is the
//! pre-registry spelling of the same key, and the job-level
//! `"loop_probability"` / `"prefetch"` keys shorthand the chain's `pl` /
//! `prefetch` parameters; all three keep older manifests loading unchanged.
//! Omitted fields fall back to the [`JobSpec`] defaults; `checkpoint_every`
//! requires a top-level `checkpoint_dir`.

use crate::default_registry;
use crate::error::EngineError;
use crate::job::{GraphSource, JobSpec};
use gesmc_core::spec::{ChainSpec, PARAM_LOOP_PROBABILITY, PARAM_PREFETCH};
use gesmc_core::ChainRegistry;
use gesmc_graph::gen::check_gamma;
use serde_json::Value;
use std::path::{Path, PathBuf};

/// A parsed batch manifest.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Worker threads of the [`ServicePool`](crate::ServicePool) that
    /// [`run_batch`](crate::run_batch) runs the jobs on (`0` = hardware
    /// parallelism).
    pub workers: usize,
    /// Directory sample files are written to.
    pub output_dir: PathBuf,
    /// Directory periodic checkpoints are written to, if any job requests
    /// them.
    pub checkpoint_dir: Option<PathBuf>,
    /// The jobs, in submission order.
    pub jobs: Vec<JobSpec>,
}

fn field_u64(value: &Value, key: &str, context: &str) -> Result<Option<u64>, EngineError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            EngineError::Manifest(format!("{context}: {key:?} must be a non-negative integer"))
        }),
    }
}

fn field_f64(value: &Value, key: &str, context: &str) -> Result<Option<f64>, EngineError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| EngineError::Manifest(format!("{context}: {key:?} must be a number"))),
    }
}

fn field_str<'a>(
    value: &'a Value,
    key: &str,
    context: &str,
) -> Result<Option<&'a str>, EngineError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| EngineError::Manifest(format!("{context}: {key:?} must be a string"))),
    }
}

fn parse_job(
    registry: &ChainRegistry,
    value: &Value,
    index: usize,
    checkpoint_dir: Option<&Path>,
) -> Result<JobSpec, EngineError> {
    let context = format!("job #{index}");
    if value.as_object().is_none() {
        return Err(EngineError::Manifest(format!("{context}: must be an object")));
    }
    let name = field_str(value, "name", &context)?
        .map(str::to_string)
        .unwrap_or_else(|| format!("job{index}"));
    let context = format!("job {name:?}");

    let source = match (value.get("input"), value.get("generate")) {
        (Some(_), Some(_)) => {
            return Err(EngineError::Manifest(format!(
                "{context}: \"input\" and \"generate\" are mutually exclusive"
            )))
        }
        (Some(input), None) => {
            let path = input.as_str().ok_or_else(|| {
                EngineError::Manifest(format!("{context}: \"input\" must be a file path string"))
            })?;
            GraphSource::File(PathBuf::from(path))
        }
        (None, Some(generate)) => {
            let family = field_str(generate, "family", &context)?
                .ok_or_else(|| {
                    EngineError::Manifest(format!("{context}: \"generate\" needs a \"family\""))
                })?
                .to_string();
            let gamma = field_f64(generate, "gamma", &context)?.unwrap_or(2.5);
            check_gamma(gamma).map_err(|e| EngineError::Manifest(format!("{context}: {e}")))?;
            GraphSource::Generated {
                family,
                nodes: field_u64(generate, "nodes", &context)?.unwrap_or(0) as usize,
                edges: field_u64(generate, "edges", &context)?.ok_or_else(|| {
                    EngineError::Manifest(format!("{context}: \"generate\" needs \"edges\""))
                })? as usize,
                gamma,
                seed: field_u64(generate, "seed", &context)?.unwrap_or(1),
            }
        }
        (None, None) => {
            return Err(EngineError::Manifest(format!(
                "{context}: needs either \"input\" (edge-list file) or \"generate\""
            )))
        }
    };

    let algorithm = match (value.get("algorithm"), value.get("algo")) {
        (Some(_), Some(_)) => {
            return Err(EngineError::Manifest(format!(
                "{context}: \"algorithm\" and \"algo\" are the same key; give only one"
            )))
        }
        (Some(v), None) | (None, Some(v)) => ChainSpec::from_json(v)?,
        (None, None) => ChainSpec::new("par-global-es"),
    };

    let mut spec = JobSpec::new(name, source, algorithm);
    if let Some(supersteps) = field_u64(value, "supersteps", &context)? {
        spec.supersteps = supersteps;
    }
    if let Some(thinning) = field_u64(value, "thinning", &context)? {
        spec.thinning = thinning;
    }
    if let Some(seed) = field_u64(value, "seed", &context)? {
        spec.seed = seed;
    }
    if let Some(threads) = field_u64(value, "threads", &context)? {
        spec.threads = Some(threads as usize);
    }
    // Job-level shorthands for the chain's common parameters (also the
    // pre-registry spelling, so older manifests keep loading).
    if let Some(p) = field_f64(value, "loop_probability", &context)? {
        if !(0.0..1.0).contains(&p) {
            return Err(EngineError::Manifest(format!(
                "{context}: \"loop_probability\" must lie in [0, 1)"
            )));
        }
        if spec.algorithm.param(PARAM_LOOP_PROBABILITY).is_some() {
            return Err(EngineError::Manifest(format!(
                "{context}: \"loop_probability\" and the chain parameter \
                 {PARAM_LOOP_PROBABILITY:?} are the same knob; give only one"
            )));
        }
        spec = spec.loop_probability(p);
    }
    if let Some(v) = value.get("prefetch") {
        let enabled = v.as_bool().ok_or_else(|| {
            EngineError::Manifest(format!("{context}: \"prefetch\" must be a boolean"))
        })?;
        if spec.algorithm.param(PARAM_PREFETCH).is_some() {
            return Err(EngineError::Manifest(format!(
                "{context}: \"prefetch\" and the chain parameter {PARAM_PREFETCH:?} are the \
                 same knob; give only one"
            )));
        }
        spec = spec.prefetch(enabled);
    }
    // Resolve the chain against the registry now, so bad names and
    // parameters fail at parse time with a readable message, not mid-batch.
    registry.validate(&spec.algorithm)?;
    if let Some(every) = field_u64(value, "checkpoint_every", &context)? {
        let dir = checkpoint_dir.ok_or_else(|| {
            EngineError::Manifest(format!(
                "{context}: \"checkpoint_every\" needs a top-level \"checkpoint_dir\""
            ))
        })?;
        spec.checkpoint_every = Some(every);
        spec.checkpoint_dir = Some(dir.to_path_buf());
    }
    Ok(spec)
}

impl Manifest {
    /// Parse a manifest from JSON text, validating chains against the
    /// [`default_registry`].
    pub fn parse(text: &str) -> Result<Self, EngineError> {
        Self::parse_with(default_registry(), text)
    }

    /// Like [`Manifest::parse`], validating chains against `registry` — the
    /// manifest counterpart of [`run_job`](crate::run_job) /
    /// [`ServicePool::start_with`](crate::ServicePool::start_with) for users
    /// who registered chains of their own.
    pub fn parse_with(registry: &ChainRegistry, text: &str) -> Result<Self, EngineError> {
        let root = serde_json::from_str(text)
            .map_err(|e| EngineError::Manifest(format!("invalid JSON: {e}")))?;
        if root.as_object().is_none() {
            return Err(EngineError::Manifest("top level must be an object".to_string()));
        }
        let workers = field_u64(&root, "workers", "manifest")?.unwrap_or(0) as usize;
        let output_dir =
            PathBuf::from(field_str(&root, "output_dir", "manifest")?.unwrap_or("samples"));
        let checkpoint_dir = field_str(&root, "checkpoint_dir", "manifest")?.map(PathBuf::from);

        let jobs_value = root
            .get("jobs")
            .ok_or_else(|| EngineError::Manifest("manifest needs a \"jobs\" array".to_string()))?;
        let jobs_array = jobs_value
            .as_array()
            .ok_or_else(|| EngineError::Manifest("\"jobs\" must be an array".to_string()))?;
        if jobs_array.is_empty() {
            return Err(EngineError::Manifest("\"jobs\" must not be empty".to_string()));
        }
        let jobs = jobs_array
            .iter()
            .enumerate()
            .map(|(i, v)| parse_job(registry, v, i, checkpoint_dir.as_deref()))
            .collect::<Result<Vec<_>, _>>()?;

        // Job names key the sample and checkpoint file paths; duplicates
        // would silently overwrite each other's output.
        let mut seen = std::collections::HashSet::new();
        for job in &jobs {
            if !seen.insert(job.name.as_str()) {
                return Err(EngineError::Manifest(format!(
                    "duplicate job name {:?}: sample/checkpoint files would collide",
                    job.name
                )));
            }
        }

        Ok(Self { workers, output_dir, checkpoint_dir, jobs })
    }

    /// Read and parse a manifest file (default registry).
    pub fn from_file(path: impl AsRef<Path>) -> Result<Self, EngineError> {
        Self::from_file_with(default_registry(), path)
    }

    /// Read and parse a manifest file, validating chains against `registry`.
    pub fn from_file_with(
        registry: &ChainRegistry,
        path: impl AsRef<Path>,
    ) -> Result<Self, EngineError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| EngineError::Manifest(format!("cannot read {}: {e}", path.display())))?;
        Self::parse_with(registry, &text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesmc_core::ChainError;

    const FULL: &str = r#"{
        "workers": 2,
        "output_dir": "out",
        "checkpoint_dir": "ckpt",
        "jobs": [
            {
                "name": "file-job",
                "input": "graph.txt",
                "algo": "seq-es",
                "supersteps": 12,
                "thinning": 3,
                "seed": 9,
                "threads": 2,
                "loop_probability": 0.05,
                "checkpoint_every": 6
            },
            {
                "generate": { "family": "pld", "edges": 5000, "gamma": 2.2 },
                "supersteps": 7
            }
        ]
    }"#;

    #[test]
    fn parses_a_full_manifest() {
        let manifest = Manifest::parse(FULL).unwrap();
        assert_eq!(manifest.workers, 2);
        assert_eq!(manifest.output_dir, PathBuf::from("out"));
        assert_eq!(manifest.jobs.len(), 2);

        let job = &manifest.jobs[0];
        assert_eq!(job.name, "file-job");
        assert!(matches!(&job.source, GraphSource::File(p) if p == &PathBuf::from("graph.txt")));
        // The legacy "algo" + "loop_probability" keys land in the chain spec.
        assert_eq!(job.algorithm.to_string(), "seq-es?pl=0.05");
        assert_eq!(job.supersteps, 12);
        assert_eq!(job.thinning, 3);
        assert_eq!(job.seed, 9);
        assert_eq!(job.threads, Some(2));
        assert!((job.config().unwrap().loop_probability - 0.05).abs() < 1e-12);
        assert_eq!(job.checkpoint_every, Some(6));
        assert_eq!(job.checkpoint_dir, Some(PathBuf::from("ckpt")));

        let generated = &manifest.jobs[1];
        assert_eq!(generated.name, "job1");
        assert_eq!(generated.algorithm, ChainSpec::new("par-global-es"));
        assert_eq!(generated.supersteps, 7);
        assert_eq!(generated.thinning, 0);
        assert!(matches!(
            &generated.source,
            GraphSource::Generated { family, edges: 5000, .. } if family == "pld"
        ));
    }

    #[test]
    fn algorithm_key_takes_chain_spec_strings_and_objects() {
        let manifest = Manifest::parse(
            r#"{"jobs": [
                {"name": "a", "input": "x", "algorithm": "global-curveball"},
                {"name": "b", "input": "x", "algorithm": "par-global-es?pl=0.001&prefetch=off"},
                {"name": "c", "input": "x",
                 "algorithm": {"name": "seq-global-es", "pl": 0.25}},
                {"name": "d", "input": "x", "algo": "adjacency-es"},
                {"name": "e", "input": "x", "algorithm": "seq-es", "prefetch": false}
            ]}"#,
        )
        .unwrap();
        assert_eq!(manifest.jobs[0].algorithm, ChainSpec::new("global-curveball"));
        assert_eq!(manifest.jobs[1].algorithm.to_string(), "par-global-es?pl=0.001&prefetch=false");
        assert!((manifest.jobs[2].config().unwrap().loop_probability - 0.25).abs() < 1e-12);
        assert_eq!(manifest.jobs[3].algorithm, ChainSpec::new("adjacency-es"));
        assert!(!manifest.jobs[4].config().unwrap().prefetch, "per-job prefetch must be plumbed");
    }

    fn expect_manifest_error(text: &str, needle: &str) {
        match Manifest::parse(text) {
            Err(EngineError::Manifest(msg)) => {
                assert!(msg.contains(needle), "message {msg:?} lacks {needle:?}")
            }
            Err(EngineError::Chain(e)) if needle == "chain" => {
                let _ = e;
            }
            other => panic!("expected manifest error containing {needle:?}, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_manifests() {
        expect_manifest_error("nonsense", "invalid JSON");
        expect_manifest_error("[1, 2]", "top level");
        expect_manifest_error("{}", "jobs");
        expect_manifest_error(r#"{"jobs": []}"#, "empty");
        expect_manifest_error(r#"{"jobs": [{}]}"#, "input");
        expect_manifest_error(
            r#"{"jobs": [{"input": "a", "generate": {"family": "gnp", "edges": 1}}]}"#,
            "mutually exclusive",
        );
        expect_manifest_error(r#"{"jobs": [{"input": "a", "supersteps": "ten"}]}"#, "integer");
        expect_manifest_error(
            r#"{"jobs": [{"input": "a", "checkpoint_every": 5}]}"#,
            "checkpoint_dir",
        );
        expect_manifest_error(r#"{"jobs": [{"input": "a", "loop_probability": 1.5}]}"#, "[0, 1)");
        expect_manifest_error(r#"{"jobs": [{"generate": {"family": "pld"}}]}"#, "edges");
        expect_manifest_error(
            r#"{"jobs": [{"generate": {"family": "pld", "edges": 9, "gamma": 0.5}}]}"#,
            "gamma must exceed 1",
        );
        expect_manifest_error(
            r#"{"jobs": [{"input": "a", "algo": "x", "algorithm": "y"}]}"#,
            "only one",
        );
        expect_manifest_error(
            r#"{"jobs": [{"input": "a", "algorithm": "seq-es?pl=0.1", "loop_probability": 0.2}]}"#,
            "same knob",
        );
        expect_manifest_error(r#"{"jobs": [{"input": "a", "prefetch": "yes"}]}"#, "boolean");
    }

    #[test]
    fn chain_errors_surface_at_parse_time() {
        // Unknown chain names, unknown parameters and bad parameter values
        // fail while the manifest is parsed, with the registry's messages.
        let unknown = Manifest::parse(r#"{"jobs": [{"input": "a", "algo": "quantum"}]}"#);
        match unknown {
            Err(EngineError::Chain(ChainError::UnknownChain { name, known })) => {
                assert_eq!(name, "quantum");
                assert!(known.contains(&"global-curveball".to_string()));
            }
            other => panic!("expected UnknownChain, got {other:?}"),
        }
        assert!(matches!(
            Manifest::parse(r#"{"jobs": [{"input": "a", "algorithm": "seq-es?bogus=1"}]}"#),
            Err(EngineError::Chain(ChainError::UnknownParam { .. }))
        ));
        assert!(matches!(
            Manifest::parse(r#"{"jobs": [{"input": "a", "algorithm": "seq-es?pl=7"}]}"#),
            Err(EngineError::Chain(ChainError::BadParam { .. }))
        ));
    }

    #[test]
    fn rejects_duplicate_job_names() {
        expect_manifest_error(
            r#"{"jobs": [{"name": "a", "input": "x"}, {"name": "a", "input": "y"}]}"#,
            "duplicate job name",
        );
        // An explicit name colliding with another job's default name.
        expect_manifest_error(
            r#"{"jobs": [{"name": "job1", "input": "x"}, {"input": "y"}]}"#,
            "duplicate job name",
        );
    }

    #[test]
    fn defaults_are_sensible() {
        let manifest = Manifest::parse(r#"{"jobs": [{"input": "g.txt"}]}"#).unwrap();
        assert_eq!(manifest.workers, 0);
        assert_eq!(manifest.output_dir, PathBuf::from("samples"));
        assert!(manifest.checkpoint_dir.is_none());
        let job = &manifest.jobs[0];
        assert_eq!(job.supersteps, 20);
        assert_eq!(job.thinning, 0);
        assert_eq!(job.seed, 1);
        assert_eq!(job.threads, None);
    }
}
