//! Request routing and the endpoint handlers.
//!
//! Handlers are pure functions from `(state, request)` to [`Response`]; all
//! blocking (waiting on engine jobs) happens on the HTTP worker thread that
//! called in, and every chain execution goes through the engine pool's
//! bounded admission queue — a handler never runs a chain inline.

use crate::cache::{derive_sample_seed, CacheKey, CachedSample};
use crate::cluster::FORWARDED_HEADER;
use crate::http::{Method, Request, Response};
use crate::jobstore::JobRecord;
use crate::persist::{
    make_job_sink, spawn_reaper, FinishedMeta, JobCheckpointSink, JobMeta, PersistedGraph,
    Persistence,
};
use crate::server::{ColdError, Lease, LeaseGuard, ServerState};
use gesmc_core::{ChainRegistry, ChainSpec};
use gesmc_engine::{
    GraphSource, JobSpec, JobState, MemorySink, QueuedJob, SubmitError, GRAPH_FAMILIES,
};
use gesmc_graph::io::{write_edge_list, write_edge_list_binary};
use gesmc_graph::EdgeListGraph;
use gesmc_randx::fnv1a_64;
use serde_json::{Map, Value};
use std::sync::Arc;

/// Encode a sample graph in both response formats.
fn encode_sample(graph: &EdgeListGraph, seed: u64) -> CachedSample {
    let mut text = Vec::new();
    write_edge_list(&mut text, graph).expect("writing to a Vec cannot fail");
    let mut binary = Vec::new();
    write_edge_list_binary(&mut binary, graph).expect("writing to a Vec cannot fail");
    CachedSample { text: Arc::new(text), binary: Arc::new(binary), seed }
}

fn json_object(entries: Vec<(&str, Value)>) -> Value {
    let mut map = Map::new();
    for (key, value) in entries {
        map.insert(key.to_string(), value);
    }
    Value::Object(map)
}

/// Dispatch a parsed request.  `request_id` is the correlation id the
/// worker minted for this request; handlers that log pass it along.
/// `span` is the request's root trace span — handlers hang child spans
/// (cache probe, forward hop, compute wait) off it.
pub(crate) fn route(
    state: &Arc<ServerState>,
    request: &Request,
    request_id: &str,
    span: &mut gesmc_obs::Span<'static>,
) -> Response {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method, segments.as_slice()) {
        (Method::Get, ["healthz"]) => Response::text(200, "ok\n"),
        (Method::Get, ["metrics"]) => Response::text(
            200,
            state.metrics.render(
                &state.pool,
                &state.cache,
                state.jobs.len(),
                state.persist.as_deref().map(Persistence::metrics),
                state.cluster.as_ref().map(|c| c.metrics()).as_ref(),
            ),
        )
        .with_content_type("text/plain; version=0.0.4; charset=utf-8"),
        (Method::Get, ["v1", "algorithms"]) => algorithms(state.registry),
        (Method::Get, ["v1", "cluster"]) => cluster_status(state),
        (Method::Get, ["v1", "sample"]) => sample(state, request, request_id, span),
        (Method::Post, ["v1", "jobs"]) => submit_job(state, request, request_id),
        (Method::Get, ["v1", "jobs"]) => list_jobs(state),
        (Method::Get, ["v1", "jobs", id]) => job_status(state, id),
        (Method::Delete, ["v1", "jobs", id]) => cancel_job(state, id),
        (Method::Get, ["v1", "jobs", id, "samples", k]) => job_sample(state, request, id, k),
        (Method::Get, ["v1", "debug", "stats"]) => debug_stats(state),
        (Method::Get, ["v1", "debug", "traces"]) => debug_traces(request),
        (Method::Get, ["v1", "debug", "trace", id]) => debug_trace(id),
        (Method::Post, ["v1", "shutdown"]) => shutdown(state),
        (_, path) => {
            let known = matches!(
                path,
                ["healthz"]
                    | ["metrics"]
                    | ["v1", "algorithms"]
                    | ["v1", "cluster"]
                    | ["v1", "sample"]
                    | ["v1", "jobs"]
                    | ["v1", "jobs", _]
                    | ["v1", "jobs", _, "samples", _]
                    | ["v1", "debug", "stats"]
                    | ["v1", "debug", "traces"]
                    | ["v1", "debug", "trace", _]
                    | ["v1", "shutdown"]
            );
            if known {
                Response::error(405, "method not allowed for this path")
            } else {
                Response::error(404, &format!("no route for {:?}", request.path))
            }
        }
    }
}

/// `GET /v1/algorithms` — the registry, as JSON.
fn algorithms(registry: &ChainRegistry) -> Response {
    let chains: Vec<Value> = registry
        .infos()
        .map(|info| {
            let params: Vec<Value> = info
                .params
                .iter()
                .map(|p| {
                    json_object(vec![
                        ("name", Value::String(p.name.to_string())),
                        ("kind", Value::String(p.kind.name().to_string())),
                        ("default", Value::String(p.default.to_string())),
                        ("doc", Value::String(p.doc.to_string())),
                    ])
                })
                .collect();
            json_object(vec![
                ("name", Value::String(info.name.to_string())),
                ("chain", Value::String(info.chain_name.to_string())),
                (
                    "aliases",
                    Value::Array(
                        info.aliases.iter().map(|a| Value::String(a.to_string())).collect(),
                    ),
                ),
                ("summary", Value::String(info.summary.to_string())),
                ("exact", Value::Bool(info.exact)),
                ("parallel", Value::Bool(info.parallel)),
                ("snapshot", Value::Bool(info.snapshot)),
                ("params", Value::Array(params)),
            ])
        })
        .collect();
    Response::json(200, &Value::Array(chains))
}

/// A parsed `graph=` generator spec: the source plus its canonical spelling
/// (which keys the cache fingerprint).
#[derive(Debug)]
struct GraphSpec {
    source: GraphSource,
    canonical: String,
    nodes: usize,
    edges: usize,
}

/// Parse the compact generator grammar `family[:key=value,…]` with keys
/// `n` (nodes), `m` (edges), `gamma`, `seed` — e.g. `pld:m=2000,gamma=2.5`.
/// The grammar and canonical form live in [`gesmc_cluster::canonical_graph_spec`]
/// (the client SDK routes by the same fingerprint); the server additionally
/// validates the family against its generator registry.
fn parse_graph_spec(raw: &str) -> Result<GraphSpec, String> {
    let params = gesmc_cluster::canonical_graph_spec(raw)?;
    if !GRAPH_FAMILIES.contains(&params.family.as_str()) {
        return Err(format!(
            "unknown graph family {:?} (expected {})",
            params.family,
            GRAPH_FAMILIES.join(", ")
        ));
    }
    let canonical = params.canonical();
    let source = GraphSource::Generated {
        family: params.family,
        nodes: params.nodes,
        edges: params.edges,
        gamma: params.gamma,
        seed: params.seed,
    };
    Ok(GraphSpec { source, canonical, nodes: params.nodes, edges: params.edges })
}

fn parse_u64_param(request: &Request, name: &str, default: u64) -> Result<u64, Response> {
    match request.query_param(name) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| {
            Response::error(400, &format!("query parameter {name}={raw:?} is not an integer"))
        }),
    }
}

/// Serve a cached (or just-computed) sample in the requested encoding,
/// sharing the cached bytes instead of copying them (hits stay O(1)).
fn sample_response(request: &Request, sample: &CachedSample, cache_status: &str) -> Response {
    let response = if request.wants_binary() {
        Response::shared(200, "application/octet-stream", Arc::clone(&sample.binary))
    } else {
        Response::shared(200, "text/plain; charset=utf-8", Arc::clone(&sample.text))
    };
    response
        .with_header("X-Gesmc-Cache", cache_status)
        .with_header("X-Gesmc-Seed", sample.seed.to_string())
}

/// Run the sampling job for `key` on the engine pool, publish the result
/// into the warm cache, and return it.
fn generate_into_cache(
    state: &ServerState,
    key: &CacheKey,
    source: GraphSource,
    chain: &ChainSpec,
    supersteps: u64,
    trace: Option<gesmc_obs::SpanContext>,
) -> Result<CachedSample, ColdError> {
    let seed = derive_sample_seed(key);
    let spec = JobSpec::new(
        format!("sample-{:016x}-{}-{}", key.fingerprint, key.chain_slug, supersteps),
        source,
        chain.clone(),
    )
    .supersteps(supersteps)
    .thinning(0)
    .seed(seed);
    let sink = MemorySink::new();
    let store = sink.store();
    // The "compute" span covers queueing plus the engine run; the queued job
    // carries its context, so the engine's supersteps/checkpoint spans nest
    // beneath it in the joined tree.
    let mut compute_span =
        trace.map(|ctx| gesmc_obs::trace::tracer().span_from_context(ctx, "compute"));
    if let Some(span) = &mut compute_span {
        span.annotate("chain", key.chain_slug.clone());
        span.annotate("supersteps", supersteps.to_string());
    }
    let job_trace = compute_span.as_ref().map(gesmc_obs::Span::context);
    let queued = QueuedJob::new(spec, Box::new(sink)).with_trace(job_trace);
    let handle = state.pool.submit(queued).map_err(|e| {
        if let Some(span) = &mut compute_span {
            span.set_error();
        }
        match e {
            SubmitError::Saturated { .. } => ColdError::Saturated,
            SubmitError::ShuttingDown => ColdError::ShuttingDown,
        }
    })?;
    let waited = gesmc_obs::span!(state.phases.compute, { handle.wait() });
    if let Some(span) = &mut compute_span {
        if !matches!(waited, JobState::Done(_)) {
            span.set_error();
        }
    }
    drop(compute_span);
    match waited {
        JobState::Done(_) => {
            let samples = store.lock().expect("sample store mutex poisoned");
            let (_, graph) = samples
                .last()
                .ok_or_else(|| ColdError::Failed("job emitted no sample".to_string()))?;
            let sample = encode_sample(graph, seed);
            state.cache.insert(key.clone(), sample.clone());
            if let Some(persist) = &state.persist {
                // Write-through spill: the key survives both LRU eviction
                // and process restarts.  Failures degrade to in-memory-only.
                persist.spill_cache(key, &sample);
            }
            Ok(sample)
        }
        JobState::Failed(msg) => Err(ColdError::Failed(msg)),
        JobState::Cancelled(_) => Err(ColdError::ShuttingDown),
        JobState::Queued | JobState::Running => {
            unreachable!("wait() only returns terminal states")
        }
    }
}

/// `GET /v1/sample?graph=…&algo=…[&supersteps=…][&warm=true]` — the
/// synchronous one-shot endpoint and warm-cache hot path.
fn sample(
    state: &Arc<ServerState>,
    request: &Request,
    request_id: &str,
    span: &mut gesmc_obs::Span<'static>,
) -> Response {
    // Reject unknown query parameters instead of silently dropping them: an
    // unencoded `&` inside an `algo=name?k=v&k=v` spec would otherwise split
    // into a never-read pair and serve a wrong-config sample with no
    // diagnostic.
    if let Some((key, _)) = request
        .query
        .iter()
        .find(|(key, _)| !matches!(key.as_str(), "graph" | "algo" | "supersteps" | "warm"))
    {
        return Response::error(
            400,
            &format!(
                "unknown query parameter {key:?} (accepted: graph, algo, supersteps, warm; \
                 percent-encode `&` inside an algo spec as %26)"
            ),
        );
    }
    let Some(graph_raw) = request.query_param("graph") else {
        return Response::error(400, "missing query parameter \"graph\" (e.g. graph=pld:m=2000)");
    };
    let spec = match parse_graph_spec(graph_raw) {
        Ok(spec) => spec,
        Err(msg) => return Response::error(400, &msg),
    };
    if spec.edges > state.config.max_sync_edges {
        return Response::error(
            413,
            &format!(
                "m = {} exceeds the synchronous limit of {} edges; submit via POST /v1/jobs",
                spec.edges, state.config.max_sync_edges
            ),
        );
    }
    if spec.nodes > 2 * state.config.max_sync_edges {
        return Response::error(
            413,
            &format!(
                "n = {} exceeds the synchronous limit of {} nodes",
                spec.nodes,
                2 * state.config.max_sync_edges
            ),
        );
    }
    let algo_raw = request.query_param("algo").unwrap_or("par-global-es");
    let chain = match ChainSpec::parse(algo_raw) {
        Ok(chain) => chain,
        Err(e) => return Response::error(400, &format!("bad algo spec: {e}")),
    };
    if let Err(e) = state.registry.validate(&chain) {
        return Response::error(400, &format!("bad algo spec: {e}"));
    }
    let supersteps = match parse_u64_param(request, "supersteps", 20) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if supersteps == 0 || supersteps > state.config.max_supersteps {
        return Response::error(
            400,
            &format!("supersteps must lie in [1, {}]", state.config.max_supersteps),
        );
    }
    let warm = request.query_param("warm").is_some_and(|v| v == "true" || v == "1" || v.is_empty());

    let key = CacheKey {
        fingerprint: fnv1a_64(spec.canonical.as_bytes()),
        chain_slug: chain.slug(),
        supersteps,
    };
    // Cluster hook: keys another node owns are forwarded to it (one hop at
    // most — a request that already carries the forwarded marker is always
    // handled locally, whatever this node thinks about ownership).  A
    // `None` from `forward` means the owner is unreachable; seeds derive
    // from the key, so computing locally yields the identical bytes.
    if let Some(cluster) = &state.cluster {
        if request.header(FORWARDED_HEADER).is_some() {
            cluster.note_received_forward();
            span.annotate("forwarded_from_peer", "true");
        } else {
            let owner = cluster.owner_of(&key);
            if owner != cluster.advertise() {
                // The hop carries the child span's context, so the owner's
                // request span joins this trace as a grandchild.
                let mut fwd = span.child("forward");
                fwd.annotate("owner", owner.to_string());
                let header = fwd.context().to_header();
                let relayed = cluster.forward(owner, request, request_id, Some(&header));
                if relayed.is_none() {
                    // Failed hop: mark the span so tail sampling keeps the
                    // trace even when the local fallback answers quickly.
                    fwd.annotate("fallback", "local");
                    fwd.set_error();
                }
                drop(fwd);
                if let Some(response) = relayed {
                    return response;
                }
            }
        }
    }
    let cached = {
        let mut probe = span.child("cache_probe");
        // On an LRU miss, a restarted (or evicted) node may still hold this
        // key spilled on disk: rehydrate it lazily and serve it as a hit.
        let found = state
            .cache
            .get_or_load(&key, || state.persist.as_ref().and_then(|p| p.load_cached(&key)));
        probe.annotate("result", if found.is_some() { "hit" } else { "miss" });
        found
    };
    if let Some(cached) = cached {
        if warm {
            return Response::json(
                200,
                &json_object(vec![("status", Value::String("warm".to_string()))]),
            );
        }
        return sample_response(request, &cached, "hit");
    }

    if warm {
        // Pre-warm: compute in the background on the engine pool; the
        // requester does not wait.
        if let Lease::Leader(slot) = state.lease_inflight(&key) {
            let state = Arc::clone(state);
            let key_for_job = key.clone();
            std::thread::spawn(move || {
                let guard = LeaseGuard::new(&state, &key_for_job, slot);
                // Background warms outlive their request's root span, so
                // they run untraced (None) rather than orphaning children.
                let outcome = generate_into_cache(
                    &state,
                    &key_for_job,
                    spec.source,
                    &chain,
                    supersteps,
                    None,
                );
                guard.release(outcome);
            });
        }
        return Response::json(
            202,
            &json_object(vec![("status", Value::String("warming".to_string()))]),
        );
    }

    match state.lease_inflight(&key) {
        Lease::Leader(slot) => {
            // The guard publishes a failure to any followers if the compute
            // path unwinds before `release`.
            let guard = LeaseGuard::new(state, &key, slot);
            let outcome = generate_into_cache(
                state,
                &key,
                spec.source,
                &chain,
                supersteps,
                Some(span.context()),
            );
            guard.release(outcome.clone());
            match outcome {
                Ok(sample) => sample_response(request, &sample, "miss"),
                Err(e) => e.into_response(),
            }
        }
        Lease::Follower(slot) => {
            let mut wait_span = span.child("coalesced_wait");
            let outcome = slot.wait();
            if outcome.is_err() {
                wait_span.set_error();
            }
            drop(wait_span);
            match outcome {
                Ok(sample) => sample_response(request, &sample, "coalesced"),
                Err(e) => e.into_response(),
            }
        }
    }
}

/// Parse the graph of a job body: inline `"edges": [[u, v], …]` (with
/// optional `"nodes"`) or a `"generate"` object.  Node counts are bounded
/// (2 × [`max_graph_edges`](crate::ServeConfig::max_graph_edges)) so a
/// single request cannot make generators or degree checks allocate
/// unboundedly.
fn parse_job_graph(state: &ServerState, body: &Value) -> Result<GraphSource, Response> {
    match (body.get("edges"), body.get("generate")) {
        (Some(_), Some(_)) => {
            Err(Response::error(400, "\"edges\" and \"generate\" are mutually exclusive"))
        }
        (Some(edges_value), None) => {
            let entries = edges_value.as_array().ok_or_else(|| {
                Response::error(400, "\"edges\" must be an array of [u, v] pairs")
            })?;
            let mut pairs = Vec::with_capacity(entries.len());
            let mut max_node = 0u64;
            for (i, entry) in entries.iter().enumerate() {
                let pair = entry.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                    Response::error(400, &format!("edge #{i} must be a [u, v] pair"))
                })?;
                let node = |v: &Value, which: &str| {
                    v.as_u64().filter(|&n| n <= u64::from(u32::MAX)).ok_or_else(|| {
                        Response::error(
                            400,
                            &format!("edge #{i}: {which} must be an integer node id < 2^32"),
                        )
                    })
                };
                let u = node(&pair[0], "u")?;
                let v = node(&pair[1], "v")?;
                max_node = max_node.max(u).max(v);
                pairs.push((u as u32, v as u32));
            }
            let nodes = match body.get("nodes") {
                None => {
                    if pairs.is_empty() {
                        0
                    } else {
                        max_node as usize + 1
                    }
                }
                Some(v) => {
                    let n = v.as_u64().ok_or_else(|| {
                        Response::error(400, "\"nodes\" must be a non-negative integer")
                    })? as usize;
                    if !pairs.is_empty() && n <= max_node as usize {
                        return Err(Response::error(
                            400,
                            &format!("\"nodes\" = {n} but an edge references node {max_node}"),
                        ));
                    }
                    n
                }
            };
            let max_nodes = 2 * state.config.max_graph_edges;
            if nodes > max_nodes {
                return Err(Response::error(
                    400,
                    &format!("{nodes} nodes exceed the service limit of {max_nodes}"),
                ));
            }
            // Self-loops and duplicates are dropped, mirroring the text
            // reader's NetRep-style clean-up.
            Ok(GraphSource::InMemory(EdgeListGraph::from_pairs_dedup(nodes, pairs)))
        }
        (None, Some(generate)) => {
            let family = generate
                .get("family")
                .and_then(|v| v.as_str())
                .ok_or_else(|| Response::error(400, "\"generate\" needs a \"family\" string"))?;
            let edges =
                generate.get("edges").and_then(|v| v.as_u64()).ok_or_else(|| {
                    Response::error(400, "\"generate\" needs an integer \"edges\"")
                })? as usize;
            if edges == 0 || edges > state.config.max_graph_edges {
                return Err(Response::error(
                    400,
                    &format!("\"edges\" must lie in [1, {}]", state.config.max_graph_edges),
                ));
            }
            let nodes = generate.get("nodes").and_then(|v| v.as_u64()).unwrap_or(0) as usize;
            let max_nodes = 2 * state.config.max_graph_edges;
            if nodes > max_nodes {
                return Err(Response::error(
                    400,
                    &format!("\"nodes\" = {nodes} exceeds the service limit of {max_nodes}"),
                ));
            }
            let gamma = generate.get("gamma").and_then(|v| v.as_f64()).unwrap_or(2.5);
            // Reject at parse time rather than panicking an engine worker.
            if let Err(e) = gesmc_cluster::check_service_gamma(gamma) {
                return Err(Response::error(400, &format!("\"gamma\" {e}")));
            }
            let seed = generate.get("seed").and_then(|v| v.as_u64()).unwrap_or(1);
            // Validate the family eagerly for a parse-time error.
            if !GRAPH_FAMILIES.contains(&family) {
                return Err(Response::error(
                    400,
                    &format!(
                        "unknown graph family {family:?} (expected {})",
                        GRAPH_FAMILIES.join(", ")
                    ),
                ));
            }
            Ok(GraphSource::Generated { family: family.to_string(), nodes, edges, gamma, seed })
        }
        (None, None) => Err(Response::error(
            400,
            "job needs either \"edges\" (inline edge list) or \"generate\" (generator spec)",
        )),
    }
}

/// `GET /v1/debug/stats` — one JSON document combining every resident
/// job's status with a full snapshot of the observability registry
/// (counters and latency histograms, same data `/metrics` exposes in
/// Prometheus text format).
fn debug_stats(state: &ServerState) -> Response {
    let jobs: Vec<Value> = state.jobs.records().iter().map(|r| r.status_json()).collect();
    let metrics =
        serde_json::from_str(&gesmc_obs::render_json()).expect("obs registry JSON must parse");
    Response::json(200, &json_object(vec![("jobs", Value::Array(jobs)), ("metrics", metrics)]))
}

/// `GET /v1/debug/traces?min_ms=N` — summaries of the traces this node's
/// tail sampler kept, newest first, filtered to roots at least `min_ms`
/// long.
fn debug_traces(request: &Request) -> Response {
    let min_ms = match parse_u64_param(request, "min_ms", 0) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    Response::text(200, gesmc_obs::trace::tracer().traces_json(min_ms))
        .with_content_type("application/json")
}

/// `GET /v1/debug/trace/{id}` — every span this node holds for one trace.
/// A cluster viewer fetches this from each node and joins the fragments on
/// span ids (`gesmc trace` does exactly that).
fn debug_trace(id_raw: &str) -> Response {
    let Some(id) = gesmc_obs::TraceId::parse(id_raw) else {
        return Response::error(400, &format!("trace id {id_raw:?} is not 32 hex digits"));
    };
    match gesmc_obs::trace::tracer().trace_json(id) {
        Some(json) => Response::text(200, &json).with_content_type("application/json"),
        None => Response::error(404, &format!("no kept trace {id_raw}")),
    }
}

/// `POST /v1/jobs` — submit an asynchronous randomization job.
fn submit_job(state: &Arc<ServerState>, request: &Request, request_id: &str) -> Response {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return Response::error(400, "body must be UTF-8 JSON");
    };
    let body = match serde_json::from_str(text) {
        Ok(value) => value,
        Err(e) => return Response::error(400, &format!("invalid JSON body: {e}")),
    };
    if body.as_object().is_none() {
        return Response::error(400, "body must be a JSON object");
    }

    let source = match parse_job_graph(state, &body) {
        Ok(parsed) => parsed,
        Err(resp) => return resp,
    };
    let chain = match (body.get("algorithm"), body.get("algo")) {
        (Some(_), Some(_)) => {
            return Response::error(400, "\"algorithm\" and \"algo\" are the same key; give one")
        }
        (Some(v), None) | (None, Some(v)) => match ChainSpec::from_json(v) {
            Ok(chain) => chain,
            Err(e) => return Response::error(400, &format!("bad algorithm: {e}")),
        },
        (None, None) => ChainSpec::new("par-global-es"),
    };
    if let Err(e) = state.registry.validate(&chain) {
        return Response::error(400, &format!("bad algorithm: {e}"));
    }

    let field_u64 = |name: &str, default: u64| -> Result<u64, Response> {
        match body.get(name) {
            None => Ok(default),
            Some(v) => v.as_u64().ok_or_else(|| {
                Response::error(400, &format!("{name:?} must be a non-negative integer"))
            }),
        }
    };
    let supersteps = match field_u64("supersteps", 20) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if supersteps == 0 || supersteps > state.config.max_supersteps {
        return Response::error(
            400,
            &format!("supersteps must lie in [1, {}]", state.config.max_supersteps),
        );
    }
    let thinning = match field_u64("thinning", 0) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let seed = match field_u64("seed", 1) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let expected_samples = supersteps.checked_div(thinning).unwrap_or(1);
    if expected_samples > state.config.max_job_samples {
        return Response::error(
            400,
            &format!(
                "{expected_samples} samples (supersteps/thinning) exceed the per-job limit of {}",
                state.config.max_job_samples
            ),
        );
    }
    // The edge and sample-count limits compose multiplicatively: bound the
    // estimated bytes this job would retain (both encodings, ~24 B/edge per
    // sample) so a large graph with dense thinning cannot exhaust memory.
    let edge_estimate = match &source {
        GraphSource::InMemory(graph) => graph.num_edges() as u64,
        GraphSource::Generated { edges, .. } => *edges as u64,
        // Not constructible through this API.
        GraphSource::File(_) | GraphSource::OutOfCore { .. } => 0,
    };
    const RETAINED_BYTES_PER_EDGE: u64 = 24;
    let retained_estimate =
        expected_samples.saturating_mul(edge_estimate).saturating_mul(RETAINED_BYTES_PER_EDGE);
    if retained_estimate > state.config.max_retained_sample_bytes {
        return Response::error(
            400,
            &format!(
                "job would retain ≈{retained_estimate} bytes of samples \
                 ({expected_samples} samples × {edge_estimate} edges), over the {}-byte \
                 budget; raise \"thinning\" or shrink the graph",
                state.config.max_retained_sample_bytes
            ),
        );
    }

    let id = state.jobs.allocate_id();
    let name = body
        .get("name")
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .unwrap_or_else(|| format!("job{id}"));

    // Durability gate: persist the input and journal the submission BEFORE
    // acknowledging anything.  If any durable step fails, refuse with 503 —
    // an acknowledged job is never lost.
    if let Some(persist) = &state.persist {
        let graph_meta = match &source {
            GraphSource::Generated { family, nodes, edges, gamma, seed } => {
                PersistedGraph::Generated {
                    family: family.clone(),
                    nodes: *nodes,
                    edges: *edges,
                    gamma: *gamma,
                    seed: *seed,
                }
            }
            GraphSource::InMemory(graph) => {
                if persist.write_job_input(id, graph).is_err() {
                    return Response::error(
                        503,
                        "persistence unavailable: could not store the job input; retry later",
                    )
                    .with_header("Retry-After", "1");
                }
                PersistedGraph::File
            }
            // Not constructible through this API.
            GraphSource::File(_) | GraphSource::OutOfCore { .. } => PersistedGraph::File,
        };
        let meta = JobMeta {
            id,
            name: name.clone(),
            chain: chain.to_string(),
            supersteps,
            thinning,
            seed,
            graph: graph_meta,
        };
        if persist.journal_submitted(&meta).is_err() {
            return Response::error(
                503,
                "persistence unavailable: could not journal the submission; retry later",
            )
            .with_header("Retry-After", "1");
        }
    }

    let mut spec = JobSpec::new(name.clone(), source, chain.clone())
        .supersteps(supersteps)
        .thinning(thinning)
        .seed(seed);
    if state.persist.is_some() && state.config.checkpoint_every > 0 {
        spec.checkpoint_every = Some(state.config.checkpoint_every);
    }
    let samples: crate::jobstore::SharedSamples = Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = make_job_sink(state.persist.clone(), id, Arc::clone(&samples));

    let mut queued = QueuedJob::new(spec, sink);
    if let Some(persist) = &state.persist {
        queued = queued
            .with_checkpoint_sink(Box::new(JobCheckpointSink { persist: Arc::clone(persist), id }));
    }

    // The journal already holds a `submitted` entry; if admission fails now,
    // close it out as cancelled so a restart does not resurrect the job.
    let journal_cancelled = |superstep: u64| {
        if let Some(persist) = &state.persist {
            persist.journal_finished(
                id,
                &FinishedMeta {
                    status: "cancelled".to_string(),
                    samples: 0,
                    superstep,
                    error: None,
                },
            );
        }
    };

    let handle = match state.pool.submit(queued) {
        Ok(handle) => handle,
        Err(SubmitError::Saturated { pending }) => {
            journal_cancelled(0);
            return Response::error(
                429,
                &format!("admission queue is full ({pending} jobs pending); retry later"),
            )
            .with_header("Retry-After", "1");
        }
        Err(SubmitError::ShuttingDown) => {
            journal_cancelled(0);
            return Response::error(503, "server is shutting down");
        }
    };

    let handle_for_rollback = handle.clone();
    let record = JobRecord {
        id,
        name: name.clone(),
        chain: chain.to_string(),
        supersteps,
        thinning,
        seed,
        handle: handle.clone(),
        samples: Arc::clone(&samples),
    };
    match state.jobs.register(record) {
        Ok(record) => {
            spawn_reaper(state, id, handle, samples);
            gesmc_obs::info!(
                target: "gesmc_serve::jobs",
                id: request_id,
                "job {id} ({name:?}) accepted: chain={}, supersteps={supersteps}, thinning={thinning}",
                record.chain
            );
            Response::json(
                202,
                &json_object(vec![
                    ("id", Value::Number(id as f64)),
                    ("name", Value::String(name)),
                    ("status", Value::String(record.handle.state().label().to_string())),
                    ("url", Value::String(format!("/v1/jobs/{id}"))),
                ]),
            )
        }
        Err(e) => {
            // No room to track the job: cancel the untracked submission and
            // shed.
            handle_for_rollback.cancel();
            journal_cancelled(0);
            Response::error(429, &format!("{e}; retry once jobs finish"))
                .with_header("Retry-After", "5")
        }
    }
}

fn parse_id(raw: &str) -> Result<u64, Response> {
    raw.parse().map_err(|_| Response::error(400, &format!("job id {raw:?} is not an integer")))
}

/// `GET /v1/jobs` — every job record resident on this node, newest-ID
/// last.  Jobs are node-local (not sharded); a cluster client lists each
/// node and merges.
fn list_jobs(state: &ServerState) -> Response {
    let jobs: Vec<Value> = state.jobs.records().iter().map(|r| r.status_json()).collect();
    Response::json(200, &Value::Array(jobs))
}

/// `GET /v1/cluster` — ring membership, peer health, and forwarding
/// counters (`{"enabled": false}` on a standalone node).
fn cluster_status(state: &ServerState) -> Response {
    match &state.cluster {
        Some(cluster) => Response::json(200, &cluster.status_json()),
        None => Response::json(200, &json_object(vec![("enabled", Value::Bool(false))])),
    }
}

/// `GET /v1/jobs/{id}` — status document.
fn job_status(state: &ServerState, id_raw: &str) -> Response {
    let id = match parse_id(id_raw) {
        Ok(id) => id,
        Err(resp) => return resp,
    };
    match state.jobs.get(id) {
        Some(record) => Response::json(200, &record.status_json()),
        None => Response::error(404, &format!("no job {id}")),
    }
}

/// `DELETE /v1/jobs/{id}` — request cancellation.
fn cancel_job(state: &ServerState, id_raw: &str) -> Response {
    let id = match parse_id(id_raw) {
        Ok(id) => id,
        Err(resp) => return resp,
    };
    match state.jobs.get(id) {
        Some(record) => {
            record.handle.cancel();
            Response::json(
                202,
                &json_object(vec![
                    ("id", Value::Number(id as f64)),
                    ("status", Value::String("cancelling".to_string())),
                ]),
            )
        }
        None => Response::error(404, &format!("no job {id}")),
    }
}

/// `GET /v1/jobs/{id}/samples/{k}` — the `k`-th thinned sample.
fn job_sample(state: &ServerState, request: &Request, id_raw: &str, k_raw: &str) -> Response {
    let id = match parse_id(id_raw) {
        Ok(id) => id,
        Err(resp) => return resp,
    };
    let Ok(k) = k_raw.parse::<usize>() else {
        return Response::error(400, &format!("sample index {k_raw:?} is not an integer"));
    };
    let Some(record) = state.jobs.get(id) else {
        return Response::error(404, &format!("no job {id}"));
    };
    let sample = record.samples.lock().expect("samples mutex poisoned").get(k).cloned();
    match sample {
        Some(sample) => {
            let response = if request.wants_binary() {
                Response::shared(200, "application/octet-stream", Arc::clone(&sample.binary))
            } else {
                Response::shared(200, "text/plain; charset=utf-8", Arc::clone(&sample.text))
            };
            response.with_header("X-Gesmc-Superstep", sample.superstep.to_string())
        }
        None => {
            let available = record.samples.lock().expect("samples mutex poisoned").len();
            let state_label = record.handle.state().label();
            if record.handle.is_finished() {
                Response::error(
                    404,
                    &format!("job {id} ({state_label}) has {available} samples; index {k} is out of range"),
                )
            } else {
                Response::error(
                    404,
                    &format!(
                        "sample {k} of job {id} not yet available ({available} so far, job {state_label})"
                    ),
                )
            }
        }
    }
}

/// `POST /v1/shutdown` — graceful shutdown, when enabled.
fn shutdown(state: &ServerState) -> Response {
    if !state.config.allow_shutdown {
        return Response::error(
            403,
            "shutdown over HTTP is disabled (start with --allow-shutdown)",
        );
    }
    state.request_shutdown();
    Response::json(202, &json_object(vec![("status", Value::String("shutting-down".to_string()))]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_specs_parse_with_defaults_and_canonicalise() {
        let spec = parse_graph_spec("pld:m=2000,gamma=2.2,seed=9").unwrap();
        assert_eq!(spec.canonical, "pld:gamma=2.2,m=2000,n=0,seed=9");
        assert_eq!(spec.edges, 2000);
        assert!(matches!(
            spec.source,
            GraphSource::Generated { ref family, edges: 2000, seed: 9, .. } if family == "pld"
        ));
        // Defaults fill in; key order does not change the canonical form.
        let a = parse_graph_spec("gnp:m=100,seed=2").unwrap();
        let b = parse_graph_spec("gnp:seed=2,m=100").unwrap();
        assert_eq!(a.canonical, b.canonical);
        assert_eq!(parse_graph_spec("gnp").unwrap().canonical, "gnp:gamma=2.5,m=1000,n=0,seed=1");
    }

    #[test]
    fn graph_specs_reject_nonsense() {
        for (raw, needle) in [
            ("tree:m=10", "unknown graph family"),
            ("gnp:m", "malformed graph parameter"),
            ("gnp:m=zebra", "not a valid edge count"),
            ("gnp:weird=1", "unknown graph parameter"),
            ("gnp:m=0", "must be positive"),
            ("pld:gamma=0.5", "gamma must lie"),
        ] {
            let err = parse_graph_spec(raw).unwrap_err();
            assert!(err.contains(needle), "{raw}: {err:?} lacks {needle:?}");
        }
    }

    #[test]
    fn canonical_specs_fingerprint_stably() {
        let a = parse_graph_spec("gnp:m=100,seed=2").unwrap();
        let b = parse_graph_spec("gnp:seed=2,m=100").unwrap();
        assert_eq!(fnv1a_64(a.canonical.as_bytes()), fnv1a_64(b.canonical.as_bytes()));
        let c = parse_graph_spec("gnp:m=100,seed=3").unwrap();
        assert_ne!(fnv1a_64(a.canonical.as_bytes()), fnv1a_64(c.canonical.as_bytes()));
    }
}
