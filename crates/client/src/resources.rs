//! The typed resources: `Samples`, `Jobs`, `Algorithms`.
//!
//! Each resource is a thin view borrowing the client's endpoint pool —
//! construct them per call (`client.samples().get(…)`), they hold no state
//! of their own.  Samples route by the consistent-hash ring (the same ring
//! the servers forward by, so a well-routed request lands on the node whose
//! cache owns the key); jobs are node-local, so a [`JobRef`] pins the
//! endpoint that accepted the submission; algorithm metadata is identical
//! everywhere, so any healthy node answers.

use crate::error::ClientError;
use crate::pool::{EndpointPool, PoolRequest, PoolResponse};
use gesmc_cluster::{canonical_graph_spec, encode_query_value, SampleKey};
use gesmc_core::ChainSpec;
use serde_json::Value;
use std::time::Duration;

/// Map a pool response to its body, turning 4xx/5xx into [`ClientError::Api`]
/// with the server's `{"error": …}` message extracted.
fn expect_success(out: PoolResponse) -> Result<PoolResponse, ClientError> {
    if out.response.is_success() {
        return Ok(out);
    }
    let raw = String::from_utf8_lossy(&out.response.body).into_owned();
    let message = serde_json::from_str(&raw)
        .ok()
        .and_then(|v: Value| v.get("error").and_then(|e| e.as_str()).map(str::to_string))
        .unwrap_or(raw);
    Err(ClientError::Api { endpoint: out.endpoint, status: out.response.status, message })
}

fn parse_json(out: &PoolResponse) -> Result<Value, ClientError> {
    let text = std::str::from_utf8(&out.response.body)
        .map_err(|_| ClientError::Decode("response body is not UTF-8".to_string()))?;
    serde_json::from_str(text).map_err(|e| ClientError::Decode(format!("bad JSON: {e}")))
}

fn field_u64(value: &Value, name: &str) -> Result<u64, ClientError> {
    value
        .get(name)
        .and_then(|v| v.as_u64())
        .ok_or_else(|| ClientError::Decode(format!("missing integer field {name:?}")))
}

fn field_str(value: &Value, name: &str) -> Result<String, ClientError> {
    value
        .get(name)
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .ok_or_else(|| ClientError::Decode(format!("missing string field {name:?}")))
}

// ---------------------------------------------------------------------------
// Samples
// ---------------------------------------------------------------------------

/// What to sample: a generator spec, an algorithm, a superstep count.
#[derive(Debug, Clone)]
pub struct SampleSpec {
    /// Compact generator grammar, e.g. `pld:m=2000,gamma=2.5`.
    pub graph: String,
    /// Algorithm spec, e.g. `par-global-es?threads=4`.
    pub algo: String,
    /// Supersteps before the sample is taken.
    pub supersteps: u64,
}

impl SampleSpec {
    /// A spec for `graph` with the service defaults (`par-global-es`, 20
    /// supersteps).
    pub fn new(graph: impl Into<String>) -> Self {
        Self { graph: graph.into(), algo: "par-global-es".to_string(), supersteps: 20 }
    }

    /// Replace the algorithm spec.
    pub fn algo(mut self, algo: impl Into<String>) -> Self {
        self.algo = algo.into();
        self
    }

    /// Replace the superstep count.
    pub fn supersteps(mut self, supersteps: u64) -> Self {
        self.supersteps = supersteps;
        self
    }

    /// The cluster key this spec resolves to — the exact key the servers
    /// cache and shard by.  Fails when the graph grammar or the algorithm
    /// spec does not parse (the same validation the server would apply).
    pub fn key(&self) -> Result<SampleKey, ClientError> {
        let params = canonical_graph_spec(&self.graph).map_err(ClientError::Spec)?;
        let chain = ChainSpec::parse(&self.algo)
            .map_err(|e| ClientError::Spec(format!("bad algo spec: {e}")))?;
        Ok(SampleKey::new(params.fingerprint(), chain.slug(), self.supersteps))
    }

    fn path(&self, extra: &str) -> String {
        format!(
            "/v1/sample?graph={}&algo={}&supersteps={}{extra}",
            encode_query_value(&self.graph),
            encode_query_value(&self.algo),
            self.supersteps
        )
    }
}

/// A fetched sample with its provenance headers.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The encoded edge list (binary when fetched with [`Samples::get`],
    /// text when fetched with [`Samples::get_text`]).
    pub bytes: Vec<u8>,
    /// The server's cache verdict: `hit`, `miss`, or `coalesced`.
    pub cache: String,
    /// The seed the sample was generated with (derived from the key, so
    /// identical from every node).
    pub seed: u64,
    /// The endpoint that answered.
    pub endpoint: String,
    /// The trace id this fetch originated (32 hex digits).  The client sets
    /// the sampled flag, so every hop keeps its spans and `gesmc trace`
    /// can reconstruct the request afterwards.
    pub trace_id: String,
    /// How long the fetch took: the duration its `client_fetch` span closed
    /// with, from the same clock read.
    pub elapsed: Duration,
}

/// The `Samples` resource: ring-routed one-shot sampling.
pub struct Samples<'a> {
    pub(crate) pool: &'a EndpointPool,
}

impl Samples<'_> {
    fn fetch(&self, spec: &SampleSpec, accept: &str) -> Result<Sample, ClientError> {
        let key = spec.key()?;
        let path = spec.path("");
        // Originate the trace client-side with the sampled flag set: every
        // server that handles a hop keeps its span fragment, so the id
        // returned in [`Sample::trace_id`] is always resolvable afterwards.
        let mut span = gesmc_obs::trace::tracer()
            .start_root_flagged("client_fetch", gesmc_obs::trace::FLAG_SAMPLED);
        span.annotate("path", path.clone());
        let trace_header = span.context().to_header();
        let headers = [("Accept", accept), ("X-Gesmc-Trace", &trace_header)];
        let out = match self
            .pool
            .routed(
                key.ring_hash(),
                &PoolRequest { method: "GET", path: &path, headers: &headers, body: &[] },
            )
            .and_then(expect_success)
        {
            Ok(out) => out,
            Err(e) => {
                span.set_error();
                return Err(e);
            }
        };
        span.annotate("endpoint", out.endpoint.clone());
        let cache = out.response.header("x-gesmc-cache").unwrap_or("unknown").to_string();
        let seed =
            out.response.header("x-gesmc-seed").and_then(|v| v.parse().ok()).unwrap_or_default();
        let trace_id = span.trace_id().to_hex();
        let (bytes, endpoint) = (out.response.body, out.endpoint);
        let elapsed = span.finish();
        Ok(Sample { bytes, cache, seed, endpoint, trace_id, elapsed })
    }

    /// Fetch the sample in the binary edge-list encoding.
    pub fn get(&self, spec: &SampleSpec) -> Result<Sample, ClientError> {
        self.fetch(spec, "application/octet-stream")
    }

    /// Fetch the sample in the text edge-list encoding.
    pub fn get_text(&self, spec: &SampleSpec) -> Result<Sample, ClientError> {
        self.fetch(spec, "text/plain")
    }

    /// Ask the owning node to pre-compute the key in the background.
    /// Returns `true` when the key was already warm, `false` when warming
    /// was kicked off.
    pub fn warm(&self, spec: &SampleSpec) -> Result<bool, ClientError> {
        let key = spec.key()?;
        let path = spec.path("&warm=true");
        let out = expect_success(self.pool.routed(
            key.ring_hash(),
            &PoolRequest { method: "GET", path: &path, headers: &[], body: &[] },
        )?)?;
        let body = parse_json(&out)?;
        Ok(body.get("status").and_then(|v| v.as_str()) == Some("warm"))
    }

    /// The endpoint the ring says owns this spec's key — useful for tests
    /// and tooling that want to compare routed and direct fetches.
    pub fn owner(&self, spec: &SampleSpec) -> Result<String, ClientError> {
        let key = spec.key()?;
        Ok(self.pool.ring().owner(key.ring_hash()).to_string())
    }
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

/// A submitted job: jobs are node-local, so the reference pins the endpoint
/// that accepted it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRef {
    /// The node holding the job.
    pub endpoint: String,
    /// The node-local job id.
    pub id: u64,
}

/// A job's status document.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// The node holding the job.
    pub endpoint: String,
    /// Node-local job id.
    pub id: u64,
    /// Job name.
    pub name: String,
    /// Canonical chain spec.
    pub chain: String,
    /// Lifecycle label: `queued`, `running`, `done`, `failed`, `cancelled`.
    pub status: String,
    /// Supersteps completed so far.
    pub superstep: u64,
    /// Supersteps requested.
    pub total_supersteps: u64,
    /// Samples emitted so far.
    pub samples: u64,
    /// Failure message, when `status == "failed"`.
    pub error: Option<String>,
}

impl JobStatus {
    /// The job this status describes.
    pub fn job_ref(&self) -> JobRef {
        JobRef { endpoint: self.endpoint.clone(), id: self.id }
    }

    /// Whether the job reached a terminal state.
    pub fn is_finished(&self) -> bool {
        matches!(self.status.as_str(), "done" | "failed" | "cancelled")
    }

    fn parse(endpoint: &str, value: &Value) -> Result<Self, ClientError> {
        Ok(Self {
            endpoint: endpoint.to_string(),
            id: field_u64(value, "id")?,
            name: field_str(value, "name")?,
            chain: field_str(value, "chain")?,
            status: field_str(value, "status")?,
            superstep: field_u64(value, "superstep")?,
            total_supersteps: field_u64(value, "total_supersteps")?,
            samples: field_u64(value, "samples")?,
            error: value.get("error").and_then(|v| v.as_str()).map(str::to_string),
        })
    }
}

/// A job submission: a generated graph (compact grammar), an algorithm, and
/// the chain schedule.
#[derive(Debug, Clone)]
pub struct JobSubmit {
    /// Compact generator grammar, e.g. `pld:m=50000,gamma=2.5`.
    pub graph: String,
    /// Algorithm spec; `None` for the service default.
    pub algo: Option<String>,
    /// Optional human-readable name.
    pub name: Option<String>,
    /// Supersteps to run.
    pub supersteps: u64,
    /// Keep one sample every `thinning` supersteps (0 = final only).
    pub thinning: u64,
    /// Chain seed.
    pub seed: u64,
}

impl JobSubmit {
    /// A submission for `graph` with the service defaults.
    pub fn new(graph: impl Into<String>) -> Self {
        Self { graph: graph.into(), algo: None, name: None, supersteps: 20, thinning: 0, seed: 1 }
    }

    /// Set the algorithm spec.
    pub fn algo(mut self, algo: impl Into<String>) -> Self {
        self.algo = Some(algo.into());
        self
    }

    /// Set the job name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Set the superstep count.
    pub fn supersteps(mut self, supersteps: u64) -> Self {
        self.supersteps = supersteps;
        self
    }

    /// Set the thinning interval.
    pub fn thinning(mut self, thinning: u64) -> Self {
        self.thinning = thinning;
        self
    }

    /// Set the chain seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn body(&self) -> Result<String, ClientError> {
        let params = canonical_graph_spec(&self.graph).map_err(ClientError::Spec)?;
        let mut generate = serde_json::Map::new();
        generate.insert("family".to_string(), Value::String(params.family.clone()));
        generate.insert("edges".to_string(), Value::Number(params.edges as f64));
        generate.insert("nodes".to_string(), Value::Number(params.nodes as f64));
        generate.insert("gamma".to_string(), Value::Number(params.gamma));
        generate.insert("seed".to_string(), Value::Number(params.seed as f64));
        let mut body = serde_json::Map::new();
        body.insert("generate".to_string(), Value::Object(generate));
        if let Some(algo) = &self.algo {
            let chain = ChainSpec::parse(algo)
                .map_err(|e| ClientError::Spec(format!("bad algo spec: {e}")))?;
            body.insert("algorithm".to_string(), Value::String(chain.to_string()));
        }
        if let Some(name) = &self.name {
            body.insert("name".to_string(), Value::String(name.clone()));
        }
        body.insert("supersteps".to_string(), Value::Number(self.supersteps as f64));
        body.insert("thinning".to_string(), Value::Number(self.thinning as f64));
        body.insert("seed".to_string(), Value::Number(self.seed as f64));
        serde_json::to_string(&Value::Object(body))
            .map_err(|e| ClientError::Spec(format!("could not encode body: {e}")))
    }
}

/// The `Jobs` resource: asynchronous randomization jobs.
pub struct Jobs<'a> {
    pub(crate) pool: &'a EndpointPool,
}

impl Jobs<'_> {
    /// Submit a job to any healthy node and return its reference.
    pub fn submit(&self, spec: &JobSubmit) -> Result<JobRef, ClientError> {
        let body = spec.body()?;
        let headers = [("Content-Type", "application/json")];
        let out = expect_success(self.pool.any(&PoolRequest {
            method: "POST",
            path: "/v1/jobs",
            headers: &headers,
            body: body.as_bytes(),
        })?)?;
        let ack = parse_json(&out)?;
        Ok(JobRef { endpoint: out.endpoint, id: field_u64(&ack, "id")? })
    }

    /// The job's current status document.
    pub fn get(&self, job: &JobRef) -> Result<JobStatus, ClientError> {
        let path = format!("/v1/jobs/{}", job.id);
        let out = expect_success(self.pool.at(
            &job.endpoint,
            &PoolRequest { method: "GET", path: &path, headers: &[], body: &[] },
        )?)?;
        JobStatus::parse(&out.endpoint, &parse_json(&out)?)
    }

    /// Request cancellation; returns the acknowledged status label.
    pub fn cancel(&self, job: &JobRef) -> Result<String, ClientError> {
        let path = format!("/v1/jobs/{}", job.id);
        let out = expect_success(self.pool.at(
            &job.endpoint,
            &PoolRequest { method: "DELETE", path: &path, headers: &[], body: &[] },
        )?)?;
        field_str(&parse_json(&out)?, "status")
    }

    /// Every resident job across the whole cluster, one `GET /v1/jobs` per
    /// node.  Unreachable nodes contribute nothing rather than failing the
    /// listing — a partial inventory beats none during a node outage.
    pub fn list(&self) -> Result<Vec<JobStatus>, ClientError> {
        let mut all = Vec::new();
        for endpoint in self.pool.ring().nodes().to_vec() {
            let Ok(out) = self.pool.at(
                &endpoint,
                &PoolRequest { method: "GET", path: "/v1/jobs", headers: &[], body: &[] },
            ) else {
                continue;
            };
            let Ok(out) = expect_success(out) else { continue };
            let body = parse_json(&out)?;
            let jobs = body
                .as_array()
                .ok_or_else(|| ClientError::Decode("job listing is not an array".to_string()))?;
            for job in jobs {
                all.push(JobStatus::parse(&endpoint, job)?);
            }
        }
        Ok(all)
    }

    /// Fetch the `k`-th thinned sample of a job, binary encoding.
    pub fn sample(&self, job: &JobRef, k: usize) -> Result<Vec<u8>, ClientError> {
        let path = format!("/v1/jobs/{}/samples/{k}", job.id);
        let headers = [("Accept", "application/octet-stream")];
        let out = expect_success(self.pool.at(
            &job.endpoint,
            &PoolRequest { method: "GET", path: &path, headers: &headers, body: &[] },
        )?)?;
        Ok(out.response.body)
    }
}

// ---------------------------------------------------------------------------
// Algorithms
// ---------------------------------------------------------------------------

/// One registered randomization algorithm.
#[derive(Debug, Clone)]
pub struct AlgorithmInfo {
    /// Canonical name.
    pub name: String,
    /// Underlying chain implementation.
    pub chain: String,
    /// Accepted aliases.
    pub aliases: Vec<String>,
    /// One-line summary.
    pub summary: String,
    /// Whether the chain preserves the degree sequence exactly.
    pub exact: bool,
    /// Whether the chain runs parallel supersteps.
    pub parallel: bool,
}

/// The `Algorithms` resource: registry metadata (identical on every node).
pub struct Algorithms<'a> {
    pub(crate) pool: &'a EndpointPool,
}

impl Algorithms<'_> {
    /// Every registered algorithm.
    pub fn list(&self) -> Result<Vec<AlgorithmInfo>, ClientError> {
        let out = expect_success(self.pool.any(&PoolRequest {
            method: "GET",
            path: "/v1/algorithms",
            headers: &[],
            body: &[],
        })?)?;
        let body = parse_json(&out)?;
        let entries = body
            .as_array()
            .ok_or_else(|| ClientError::Decode("algorithm listing is not an array".to_string()))?;
        entries
            .iter()
            .map(|entry| {
                Ok(AlgorithmInfo {
                    name: field_str(entry, "name")?,
                    chain: field_str(entry, "chain")?,
                    aliases: entry
                        .get("aliases")
                        .and_then(|v| v.as_array())
                        .map(|a| a.iter().filter_map(|v| v.as_str().map(str::to_string)).collect())
                        .unwrap_or_default(),
                    summary: field_str(entry, "summary")?,
                    exact: entry.get("exact").and_then(|v| v.as_bool()).unwrap_or(false),
                    parallel: entry.get("parallel").and_then(|v| v.as_bool()).unwrap_or(false),
                })
            })
            .collect()
    }

    /// Look up one algorithm by name or alias.
    pub fn get(&self, name: &str) -> Result<Option<AlgorithmInfo>, ClientError> {
        Ok(self
            .list()?
            .into_iter()
            .find(|info| info.name == name || info.aliases.iter().any(|a| a == name)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_specs_resolve_to_the_server_cache_key() {
        let spec = SampleSpec::new("pld:m=2000,seed=9").algo("seq-es").supersteps(30);
        let key = spec.key().unwrap();
        assert_eq!(key.supersteps, 30);
        assert_eq!(key.chain_slug, ChainSpec::parse("seq-es").unwrap().slug());
        // Equivalent spellings map to the same key → the same ring owner.
        let other = SampleSpec::new("pld:seed=9,m=2000").algo("seq-es").supersteps(30);
        assert_eq!(key.ring_hash(), other.key().unwrap().ring_hash());
        assert!(SampleSpec::new("pld:m=").key().is_err());
        assert!(SampleSpec::new("pld").algo("no?such=").key().is_err());
    }

    #[test]
    fn job_submissions_encode_the_generate_body() {
        let body = JobSubmit::new("pld:m=5000,gamma=2.2")
            .name("night-run")
            .supersteps(100)
            .thinning(10)
            .seed(7)
            .body()
            .unwrap();
        let value = serde_json::from_str(&body).unwrap();
        let generate = value.get("generate").unwrap();
        assert_eq!(generate.get("family").and_then(|v| v.as_str()), Some("pld"));
        assert_eq!(generate.get("edges").and_then(|v| v.as_u64()), Some(5000));
        assert_eq!(generate.get("gamma").and_then(|v| v.as_f64()), Some(2.2));
        assert_eq!(value.get("name").and_then(|v| v.as_str()), Some("night-run"));
        assert_eq!(value.get("supersteps").and_then(|v| v.as_u64()), Some(100));
        assert_eq!(value.get("thinning").and_then(|v| v.as_u64()), Some(10));
        assert_eq!(value.get("seed").and_then(|v| v.as_u64()), Some(7));
        assert!(value.get("algorithm").is_none());
    }

    #[test]
    fn job_status_parses_and_classifies() {
        let doc = serde_json::from_str(
            r#"{"id": 3, "name": "j", "chain": "par-global-es", "status": "running",
                "superstep": 5, "total_supersteps": 20, "thinning": 0, "seed": 1,
                "samples": 0}"#,
        )
        .unwrap();
        let status = JobStatus::parse("n1:1", &doc).unwrap();
        assert_eq!(status.job_ref(), JobRef { endpoint: "n1:1".to_string(), id: 3 });
        assert!(!status.is_finished());
        let doc = serde_json::from_str(
            r#"{"id": 3, "name": "j", "chain": "c", "status": "failed",
                "superstep": 5, "total_supersteps": 20, "samples": 0,
                "error": "boom"}"#,
        )
        .unwrap();
        let status = JobStatus::parse("n1:1", &doc).unwrap();
        assert!(status.is_finished());
        assert_eq!(status.error.as_deref(), Some("boom"));
    }
}
