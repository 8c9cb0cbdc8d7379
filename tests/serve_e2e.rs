//! End-to-end tests of the `gesmc-serve` HTTP sampling service.
//!
//! Each test boots a real server on an ephemeral port and talks to it over
//! HTTP through `gesmc::cluster::wire`.  The acceptance properties under
//! test:
//!
//! * every served sample preserves the degree sequence of its input graph
//!   (checked independently here, on top of the engine's internal check);
//! * warm-cache hits for an identical `(graph, chain, supersteps)` key are
//!   **bit-identical**, under concurrency, in both encodings;
//! * `429 Retry-After` appears **only** under admission-queue saturation;
//! * shutdown drains cleanly: in-flight requests finish, the socket closes.

mod common;

use common::{boot, http, BINARY};
use gesmc::engine::GraphSource;
use gesmc::graph::io::{read_edge_list, read_edge_list_binary};
use gesmc::prelude::*;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// The degree sequence the service must preserve for a generated pld key.
fn expected_degrees(edges: usize, seed: u64) -> DegreeSequence {
    let source =
        GraphSource::Generated { family: "pld".to_string(), nodes: 0, edges, gamma: 2.5, seed };
    source.load().expect("generator families load").degrees()
}

fn sample_path(m: usize, seed: u64, algo: &str, supersteps: u64) -> String {
    format!("/v1/sample?graph=pld:m={m},seed={seed}&algo={algo}&supersteps={supersteps}")
}

#[test]
fn concurrent_mixed_hot_cold_load_is_valid_and_never_sheds_below_saturation() {
    let server = Arc::new(boot(|c| c.max_pending = 256));
    let addr = server.local_addr();
    const THREADS: u64 = 6;
    const REQUESTS: u64 = 6;
    const M: usize = 400;

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut hot_bodies = Vec::new();
                for i in 0..REQUESTS {
                    // Even requests hammer the shared hot key; odd ones are
                    // per-thread cold keys.
                    let seed = if i % 2 == 0 { 1 } else { 1_000 + t * 100 + i };
                    let path = sample_path(M, seed, "seq-global-es", 6);
                    let response = http(addr, "GET", &path, &[], "");
                    assert_eq!(
                        response.status, 200,
                        "mixed load below saturation must never shed (thread {t}, request {i})"
                    );
                    let graph = read_edge_list(&response.body[..]).expect("sample parses");
                    assert_eq!(
                        graph.degrees(),
                        expected_degrees(M, seed),
                        "sample must preserve the input degree sequence"
                    );
                    assert!(
                        response.header("x-gesmc-cache").is_some(),
                        "sample responses carry the cache disposition"
                    );
                    if seed == 1 {
                        hot_bodies.push(response.body);
                    }
                }
                hot_bodies
            })
        })
        .collect();

    let mut all_hot: Vec<Vec<u8>> = Vec::new();
    for worker in workers {
        all_hot.extend(worker.join().expect("client thread"));
    }
    assert_eq!(all_hot.len() as u64, THREADS * REQUESTS / 2);
    for body in &all_hot {
        assert_eq!(
            body, &all_hot[0],
            "every response for an identical (graph, chain, supersteps) key must be bit-identical"
        );
    }

    // The shared hot key was requested many times but computed once: the
    // cache (plus miss coalescing) absorbed the rest.
    let metrics = String::from_utf8(http(addr, "GET", "/metrics", &[], "").body).unwrap();
    let hits: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("gesmc_cache_hits_total "))
        .expect("hit counter exported")
        .parse()
        .unwrap();
    assert!(hits > 0, "repeated hot-key queries must hit the warm cache:\n{metrics}");
    assert!(
        metrics.contains("gesmc_http_responses_total{class=\"429\"} 0"),
        "no request may be shed below saturation:\n{metrics}"
    );
    server.shutdown();
}

#[test]
fn saturation_sheds_with_429_and_retry_after_while_hits_keep_flowing() {
    // One engine worker and a single-slot admission queue: with the worker
    // pinned, at most one cold key can wait and the rest must shed.
    let server = Arc::new(boot(|c| {
        c.engine_workers = 1;
        c.max_pending = 1;
        c.http_workers = 8;
    }));
    let addr = server.local_addr();

    // Pre-warm one key so hot traffic is servable even at saturation.
    let hot = sample_path(600, 7, "seq-global-es", 8);
    assert_eq!(http(addr, "GET", &hot, &[], "").status, 200);

    // The gate: a job far too long to finish on its own pins the single
    // engine worker.  Polling it to `running` is the saturation barrier —
    // no sleeps, no racing the worker.  Jobs and cold one-shot samples
    // share the engine pool, so while the gate runs the pool has exactly
    // one free queue slot and zero free workers.
    let gate_body = r#"{
        "name": "gate",
        "generate": {"family": "pld", "edges": 4000, "seed": 2},
        "algorithm": "seq-global-es",
        "supersteps": 50000,
        "seed": 9
    }"#;
    let response = http(addr, "POST", "/v1/jobs", &[], gate_body);
    assert_eq!(response.status, 202, "{}", String::from_utf8_lossy(&response.body));
    let gate: serde_json::Value =
        serde_json::from_str(&String::from_utf8(response.body).unwrap()).unwrap();
    let gate_id = gate.get("id").and_then(|v| v.as_u64()).expect("gate id");
    let mut label = String::new();
    for _ in 0..600 {
        let body = http(addr, "GET", &format!("/v1/jobs/{gate_id}"), &[], "").body;
        let doc: serde_json::Value =
            serde_json::from_str(&String::from_utf8(body).unwrap()).unwrap();
        label = doc.get("status").and_then(|v| v.as_str()).unwrap_or("").to_string();
        if label == "running" {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(label, "running", "the gate job must pin the engine worker");

    // 12 concurrent cold keys against a pinned worker and a 1-slot queue:
    // exactly one is admitted (and parks in the queue until the gate is
    // cancelled below); the other 11 shed with `429 Retry-After`.
    let clients: Vec<_> = (0..12)
        .map(|i| {
            std::thread::spawn(move || {
                let path = sample_path(2_000, 10_000 + i, "seq-global-es", 30);
                let response = http(addr, "GET", &path, &[], "");
                match response.status {
                    200 => {
                        let graph = read_edge_list(&response.body[..]).expect("sample parses");
                        assert_eq!(graph.degrees(), expected_degrees(2_000, 10_000 + i));
                    }
                    429 => {
                        assert!(
                            response.header("retry-after").is_some(),
                            "shed responses must carry Retry-After"
                        );
                    }
                    other => panic!("unexpected status {other} under saturation"),
                }
                response.status
            })
        })
        .collect();

    // While the shed is in progress the warm key still answers from the
    // cache.  Wait for all 11 rejections first so the hot fetch provably
    // overlaps saturation, then check it.
    for _ in 0..600 {
        let metrics = String::from_utf8(http(addr, "GET", "/metrics", &[], "").body).unwrap();
        if metrics.contains("gesmc_http_responses_total{class=\"429\"} 11") {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let response = http(addr, "GET", &hot, &[], "");
    assert_eq!(response.status, 200);
    assert_eq!(response.header("x-gesmc-cache"), Some("hit"));

    // Cancel the gate: the worker frees up, drains the one queued cold key,
    // and every client thread comes home — 1 success, 11 sheds.
    let response = http(addr, "DELETE", &format!("/v1/jobs/{gate_id}"), &[], "");
    assert_eq!(response.status, 202);
    let statuses: Vec<u16> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    let shed = statuses.iter().filter(|&&s| s == 429).count();
    let served = statuses.iter().filter(|&&s| s == 200).count();
    assert_eq!(
        (served, shed),
        (1, 11),
        "a pinned 1-worker/1-slot pool admits exactly one cold key: {statuses:?}"
    );
    server.shutdown();
}

#[test]
fn binary_and_text_encodings_agree_and_hits_are_bit_identical_in_both() {
    let server = boot(|_| {});
    let addr = server.local_addr();
    let path = sample_path(300, 3, "par-global-es?pl=0.01", 5);

    let response = http(addr, "GET", &path, &[], "");
    assert_eq!(response.status, 200);
    let text_a = response.body;
    let text_b = http(addr, "GET", &path, &[], "").body;
    assert_eq!(text_a, text_b, "text hits must be bit-identical");

    let response = http(addr, "GET", &path, BINARY, "");
    assert_eq!(response.status, 200);
    assert_eq!(response.header("content-type"), Some("application/octet-stream"));
    let bin_a = response.body;
    let bin_b = http(addr, "GET", &path, BINARY, "").body;
    assert_eq!(bin_a, bin_b, "binary hits must be bit-identical");

    let from_text = read_edge_list(&text_a[..]).unwrap();
    let from_binary = read_edge_list_binary(&bin_a[..]).unwrap();
    assert_eq!(from_text.canonical_edges(), from_binary.canonical_edges());
    assert_eq!(from_text.num_nodes(), from_binary.num_nodes());
    assert_eq!(from_binary.degrees(), expected_degrees(300, 3));
    server.shutdown();
}

#[test]
fn warm_requests_prefill_the_cache_in_the_background() {
    let server = boot(|_| {});
    let addr = server.local_addr();
    let key_query = "graph=pld:m=350,seed=11&algo=seq-es&supersteps=6";

    let response = http(addr, "GET", &format!("/v1/sample?{key_query}&warm=true"), &[], "");
    assert_eq!(response.status, 202, "{}", String::from_utf8_lossy(&response.body));

    // Poll until the background job landed the entry, then expect a hit.
    let mut disposition = String::new();
    for _ in 0..400 {
        let response = http(addr, "GET", &format!("/v1/sample?{key_query}"), &[], "");
        assert_eq!(response.status, 200);
        disposition = response.header("x-gesmc-cache").unwrap_or_default().to_string();
        if disposition == "hit" {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(disposition, "hit", "a warmed key must be served from the cache");
    server.shutdown();
}

#[test]
fn async_job_lifecycle_inline_edges_status_samples_and_cancel() {
    let server = boot(|_| {});
    let addr = server.local_addr();

    // An explicit 6-cycle: every node has degree 2.
    let body = r#"{
        "name": "cycle",
        "edges": [[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]],
        "algorithm": "seq-es",
        "supersteps": 8,
        "thinning": 2,
        "seed": 4
    }"#;
    let response = http(addr, "POST", "/v1/jobs", &[], body);
    assert_eq!(response.status, 202, "{}", String::from_utf8_lossy(&response.body));
    let submitted: serde_json::Value =
        serde_json::from_str(&String::from_utf8(response.body).unwrap()).unwrap();
    let id = submitted.get("id").and_then(|v| v.as_u64()).expect("job id");
    assert_eq!(
        submitted.get("url").and_then(|v| v.as_str()),
        Some(format!("/v1/jobs/{id}")).as_deref()
    );

    // Poll to completion.
    let mut status_doc = serde_json::Value::Null;
    for _ in 0..400 {
        let response = http(addr, "GET", &format!("/v1/jobs/{id}"), &[], "");
        assert_eq!(response.status, 200);
        status_doc = serde_json::from_str(&String::from_utf8(response.body).unwrap()).unwrap();
        if status_doc.get("status").and_then(|v| v.as_str()) == Some("done") {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(status_doc.get("status").and_then(|v| v.as_str()), Some("done"), "{status_doc:?}");
    assert_eq!(status_doc.get("samples").and_then(|v| v.as_u64()), Some(4));
    assert_eq!(status_doc.get("superstep").and_then(|v| v.as_u64()), Some(8));

    // Thinned samples 0..4 exist in both encodings and preserve degrees.
    let cycle_degrees = [2u32; 6];
    for k in 0..4u64 {
        let text = http(addr, "GET", &format!("/v1/jobs/{id}/samples/{k}"), &[], "");
        assert_eq!(text.status, 200);
        let graph = read_edge_list(&text.body[..]).unwrap();
        assert_eq!(graph.degrees().degrees(), &cycle_degrees[..]);
        let superstep: u64 = text.header("x-gesmc-superstep").unwrap().parse().unwrap();
        assert_eq!(superstep, (k + 1) * 2);
        let binary = http(addr, "GET", &format!("/v1/jobs/{id}/samples/{k}"), BINARY, "");
        assert_eq!(binary.status, 200);
        let from_binary = read_edge_list_binary(&binary.body[..]).unwrap();
        assert_eq!(from_binary.canonical_edges(), graph.canonical_edges());
    }
    // Out-of-range and unknown-id lookups are clean 404s.
    assert_eq!(http(addr, "GET", &format!("/v1/jobs/{id}/samples/99"), &[], "").status, 404);
    assert_eq!(http(addr, "GET", "/v1/jobs/4242", &[], "").status, 404);

    // A long-running generated job can be cancelled mid-flight.
    let long_body = r#"{
        "generate": {"family": "pld", "edges": 4000, "seed": 2},
        "algorithm": "seq-global-es",
        "supersteps": 50000,
        "seed": 9
    }"#;
    let response = http(addr, "POST", "/v1/jobs", &[], long_body);
    assert_eq!(response.status, 202);
    let long_doc: serde_json::Value =
        serde_json::from_str(&String::from_utf8(response.body).unwrap()).unwrap();
    let long_id = long_doc.get("id").and_then(|v| v.as_u64()).unwrap();
    let response = http(addr, "DELETE", &format!("/v1/jobs/{long_id}"), &[], "");
    assert_eq!(response.status, 202);
    let mut label = String::new();
    for _ in 0..400 {
        let body = http(addr, "GET", &format!("/v1/jobs/{long_id}"), &[], "").body;
        let doc: serde_json::Value =
            serde_json::from_str(&String::from_utf8(body).unwrap()).unwrap();
        label = doc.get("status").and_then(|v| v.as_str()).unwrap_or("").to_string();
        if label == "cancelled" {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(label, "cancelled");
    server.shutdown();
}

#[test]
fn bad_requests_get_readable_errors_not_hangs() {
    let server = boot(|c| c.max_sync_edges = 1_000);
    let addr = server.local_addr();
    for (path, expected) in [
        ("/v1/sample", 400),                              // missing graph
        ("/v1/sample?graph=tree:m=10", 400),              // unknown family
        ("/v1/sample?graph=pld:m=5000", 413),             // over the sync edge limit
        ("/v1/sample?graph=pld:n=2000000000,m=10", 413),  // over the sync node limit
        ("/v1/sample?graph=pld:m=100&algo=quantum", 400), // unknown chain
        ("/v1/sample?graph=pld:m=100,gamma=1", 400),      // pld needs gamma > 1
        ("/v1/sample?graph=pld:m=100&supersteps=0", 400), // zero supersteps
        ("/v1/sample?graph=pld:m=100&supersteps=notanumber", 400),
        // An unencoded `&` inside an algo spec must be rejected, not
        // silently dropped (the stray pair is an unknown parameter).
        ("/v1/sample?graph=pld:m=100&algo=seq-es?pl=0.1&prefetch=off", 400),
        ("/v1/jobs/notanid", 400),
        ("/nope", 404),
    ] {
        let response = http(addr, "GET", path, &[], "");
        assert_eq!(
            response.status,
            expected,
            "{path}: {}",
            String::from_utf8_lossy(&response.body)
        );
        let doc: serde_json::Value =
            serde_json::from_str(&String::from_utf8(response.body).unwrap()).unwrap();
        assert!(doc.get("error").is_some(), "{path} must return the JSON error shape");
    }
    // Wrong method on a known path is 405.
    assert_eq!(http(addr, "DELETE", "/healthz", &[], "").status, 405);
    // Malformed job bodies.
    assert_eq!(http(addr, "POST", "/v1/jobs", &[], "not json").status, 400);
    let rejected = |body: &str| {
        let response = http(addr, "POST", "/v1/jobs", &[], body);
        (response.status, String::from_utf8_lossy(&response.body).into_owned())
    };
    let (status, body) = rejected(r#"{"edges": [[0,1]], "nodes": 1}"#);
    assert_eq!(status, 400, "{body}");
    // Unbounded node counts must be rejected before any generator runs.
    let (status, body) =
        rejected(r#"{"generate": {"family": "pld", "edges": 10, "nodes": 2000000000}}"#);
    assert_eq!(status, 400, "{body}");
    let (status, body) = rejected(r#"{"edges": [[0, 4000000000]]}"#);
    assert_eq!(status, 400, "{body}");
    // Seeds beyond 2^53 would silently round in the f64-backed JSON layer;
    // the parser rejects them outright instead.
    let (status, body) = rejected(r#"{"edges": [[0,1]], "seed": 9007199254740993}"#);
    assert_eq!(status, 400, "{body}");
    // Generator parameters that would panic a worker are rejected up front.
    let (status, body) = rejected(r#"{"generate": {"family": "pld", "edges": 100, "gamma": 0.5}}"#);
    assert_eq!(status, 400, "{body}");
    // Edge count and sample count compose: a job within both individual
    // limits but over the retained-bytes budget is rejected at submission.
    let (status, body) = rejected(
        r#"{"generate": {"family": "dense", "edges": 5000000},
            "supersteps": 1000, "thinning": 1}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("retain"), "rejection must explain the byte budget");
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests_and_closes_the_socket() {
    let server = Arc::new(boot(|_| {}));
    let addr = server.local_addr();

    // Launch a cold request, give it a moment to reach the engine pool, then
    // shut down concurrently: the request must still complete with a valid
    // sample (drain), not an error or a reset.
    let client = std::thread::spawn(move || {
        http(addr, "GET", &sample_path(2_000, 77, "seq-global-es", 40), &[], "")
    });
    std::thread::sleep(Duration::from_millis(50));
    server.shutdown();

    let response = client.join().expect("in-flight client");
    assert_eq!(response.status, 200, "in-flight requests must drain through shutdown");
    let graph = read_edge_list(&response.body[..]).unwrap();
    assert_eq!(graph.degrees(), expected_degrees(2_000, 77));
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "the listener must be closed after shutdown"
    );
}
