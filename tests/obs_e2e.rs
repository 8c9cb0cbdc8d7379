//! End-to-end tests of the observability layer (`gesmc-obs`) as wired
//! through the serving stack.
//!
//! One real server, a known request mix, then two scrapes:
//!
//! * `GET /v1/debug/stats` — the JSON snapshot (jobs + registry);
//! * `GET /metrics` — the Prometheus text exposition.
//!
//! The acceptance properties: every response carries an
//! `X-Gesmc-Request-Id`, the id of the request's root span; `/metrics` speaks Prometheus text format 0.0.4 and
//! exposes the histogram families the pipeline records (superstep duration,
//! request phases, cache probes, journal appends); and the `_count`s of the
//! two scrapes agree — exactly for families the scrapes themselves never
//! touch, monotonically for the request-phase family.
//!
//! NOTE: the obs registry is process-global, so every strict-equality
//! assertion lives in the single `observability_end_to_end` test; the other
//! tests only issue requests that touch the (monotonically-checked)
//! request-phase family.

use gesmc::prelude::*;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One raw HTTP exchange; returns (status, lowercased headers, body bytes).
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, HashMap<String, String>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut request = format!("{method} {path} HTTP/1.1\r\nHost: e2e\r\n");
    match body {
        Some(body) => {
            request.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
        }
        None => request.push_str("\r\n"),
    }
    stream.write_all(request.as_bytes()).expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");

    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response must have a header/body separator");
    let head = String::from_utf8(raw[..header_end].to_vec()).expect("headers are UTF-8");
    let body = raw[header_end + 4..].to_vec();
    let mut lines = head.lines();
    let status: u16 =
        lines.next().expect("status line").split(' ').nth(1).expect("status code").parse().unwrap();
    let headers = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, HashMap<String, String>, Vec<u8>) {
    http(addr, "GET", path, None)
}

fn boot(mutate: impl FnOnce(&mut ServeConfig)) -> Server {
    let mut config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        http_workers: 4,
        engine_workers: 2,
        allow_shutdown: true,
        ..ServeConfig::default()
    };
    mutate(&mut config);
    Server::bind(config).expect("bind ephemeral port")
}

/// Extract every `<family>_count{…}` series of the Prometheus text as
/// `series -> value` (the series string includes the label set verbatim).
fn prometheus_counts(text: &str) -> HashMap<String, u64> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            let family_end = series.find('{').unwrap_or(series.len());
            if !series[..family_end].ends_with("_count") {
                return None;
            }
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Reconstruct the same `series -> count` map from the `/v1/debug/stats`
/// histogram snapshot (label order matches the registry's render order).
fn debug_stats_counts(metrics: &serde_json::Value) -> HashMap<String, u64> {
    let mut out = HashMap::new();
    let histograms =
        metrics.get("histograms").and_then(|v| v.as_array()).expect("histograms array");
    for hist in histograms {
        let name = hist.get("name").and_then(|v| v.as_str()).expect("histogram name");
        let count = hist.get("count").and_then(|v| v.as_u64()).expect("histogram count");
        let labels = hist.get("labels").and_then(|v| v.as_object()).expect("labels object");
        let series = if labels.is_empty() {
            format!("{name}_count")
        } else {
            let rendered: Vec<String> =
                labels.iter().map(|(k, v)| format!("{k}=\"{}\"", v.as_str().unwrap())).collect();
            format!("{name}_count{{{}}}", rendered.join(","))
        };
        out.insert(series, count);
    }
    out
}

#[test]
fn every_response_carries_a_fresh_request_id() {
    let server = boot(|_| {});
    let addr = server.local_addr();

    let (status, ok_headers, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let first = ok_headers.get("x-gesmc-request-id").expect("id on 200").clone();
    let (status, err_headers, _) = get(addr, "/no/such/route");
    assert_eq!(status, 404);
    let second = err_headers.get("x-gesmc-request-id").expect("id on 404").clone();

    for id in [&first, &second] {
        assert_eq!(id.len(), 16, "request id {id:?} must be 16 hex chars");
        assert!(id.chars().all(|c| c.is_ascii_hexdigit()), "non-hex request id {id:?}");
    }
    assert_ne!(first, second, "request ids must differ across requests");

    server.shutdown();
}

#[test]
fn a_sampled_requests_id_is_the_span_id_of_its_request_span() {
    let server = boot(|_| {});
    let addr = server.local_addr();

    // A client-started trace with the sampled flag, so the server keeps it.
    let (trace_id, parent_id) = ("0123456789abcdef0123456789abcdef", "00000000000000aa");
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET /healthz HTTP/1.1\r\nHost: e2e\r\nX-Gesmc-Trace: {trace_id}-{parent_id}-01\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let header = |name: &str| {
        raw.lines()
            .find_map(|line| line.split_once(':').filter(|(k, _)| k.eq_ignore_ascii_case(name)))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_else(|| panic!("no {name} header in {raw}"))
    };
    assert_eq!(header("x-gesmc-trace-id"), trace_id);
    let request_id = header("x-gesmc-request-id");

    let (status, _, body) = get(addr, &format!("/v1/debug/trace/{trace_id}"));
    assert_eq!(status, 200, "the sampled trace must be kept");
    let trace: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("trace JSON");
    let spans = trace.get("spans").and_then(|v| v.as_array()).expect("spans array");
    let root = spans
        .iter()
        .find(|s| s.get("name").and_then(|v| v.as_str()) == Some("request"))
        .expect("a request span");
    assert_eq!(root.get("span_id").and_then(|v| v.as_str()), Some(request_id.as_str()));
    assert_eq!(root.get("parent_id").and_then(|v| v.as_str()), Some(parent_id));

    server.shutdown();
}

#[test]
fn observability_end_to_end() {
    let data_dir = std::env::temp_dir().join(format!("gesmc-obs-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let server = boot(|c| c.data_dir = Some(data_dir.clone()));
    let addr = server.local_addr();

    // --- Known request mix -------------------------------------------------
    let sample_path = "/v1/sample?graph=pld:m=300,seed=7&algo=seq-es&supersteps=4";
    let (status, headers, _) = get(addr, sample_path); // cold: chain runs
    assert_eq!(status, 200);
    assert_eq!(headers.get("x-gesmc-cache").map(String::as_str), Some("miss"));
    let (status, headers, _) = get(addr, sample_path); // warm: cache probe hit
    assert_eq!(status, 200);
    assert_eq!(headers.get("x-gesmc-cache").map(String::as_str), Some("hit"));
    let (status, _, _) = get(addr, "/definitely/not/a/route");
    assert_eq!(status, 404);
    // One async job, so superstep + journal histograms tick while the job
    // store has a record to report.
    let job = r#"{"generate":{"family":"gnp","edges":200},"supersteps":6,"name":"obsjob"}"#;
    let (status, _, body) = http(addr, "POST", "/v1/jobs", Some(job));
    assert_eq!(status, 202, "job submit failed: {}", String::from_utf8_lossy(&body));
    let accepted: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
    let job_url = accepted.get("url").and_then(|v| v.as_str()).unwrap().to_string();
    loop {
        let (_, _, body) = get(addr, &job_url);
        let status_doc: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
        match status_doc.get("status").and_then(|v| v.as_str()) {
            Some("queued") | Some("running") => std::thread::sleep(Duration::from_millis(10)),
            Some("done") => break,
            other => panic!("job ended as {other:?}"),
        }
    }

    // --- Scrape order matters: the JSON snapshot first ---------------------
    let (status, _, stats_body) = get(addr, "/v1/debug/stats");
    assert_eq!(status, 200);
    let stats: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&stats_body).unwrap()).unwrap();
    let jobs = stats.get("jobs").and_then(|v| v.as_array()).expect("jobs array");
    assert!(
        jobs.iter().any(|j| j.get("name").and_then(|v| v.as_str()) == Some("obsjob")
            && j.get("status").and_then(|v| v.as_str()) == Some("done")),
        "debug stats must report the finished job"
    );
    let snapshot_counts = debug_stats_counts(stats.get("metrics").expect("metrics object"));

    let (status, metrics_headers, metrics_body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(
        metrics_headers.get("content-type").map(String::as_str),
        Some("text/plain; version=0.0.4; charset=utf-8"),
        "/metrics must declare the Prometheus text format version"
    );
    let text = String::from_utf8(metrics_body).unwrap();

    // --- Families and exposition shape -------------------------------------
    for family in [
        "gesmc_superstep_duration_seconds",
        "gesmc_request_phase_duration_seconds",
        "gesmc_cache_probe_duration_seconds",
        "gesmc_journal_append_duration_seconds",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} histogram")),
            "missing histogram family {family}"
        );
        assert!(text.contains(&format!("{family}_sum")), "missing {family}_sum");
        assert!(text.contains(&format!("{family}_count")), "missing {family}_count");
        assert!(
            text.contains(&format!("{family}_bucket")) && text.contains("le=\"+Inf\""),
            "missing cumulative buckets for {family}"
        );
    }
    assert!(text.contains("gesmc_build_info{version="), "missing build info gauge");
    assert!(text.contains("gesmc_uptime_seconds"), "missing uptime gauge");

    // --- Consistency between the two scrapes -------------------------------
    let text_counts = prometheus_counts(&text);
    assert!(!snapshot_counts.is_empty(), "debug stats must carry histogram counts");
    for (series, &snapshot_count) in &snapshot_counts {
        let text_count = *text_counts
            .get(series)
            .unwrap_or_else(|| panic!("series {series} absent from /metrics"));
        if series.starts_with("gesmc_request_phase_duration_seconds") {
            // The scrapes themselves pass through the request pipeline, so
            // the later scrape has at least the earlier scrape's counts.
            assert!(
                text_count >= snapshot_count,
                "{series}: /metrics count {text_count} < debug stats count {snapshot_count}"
            );
        } else {
            // Scraping records no superstep, cache-probe, coalesce, or
            // persistence events, so those totals must agree exactly.
            assert_eq!(
                text_count, snapshot_count,
                "{series}: /metrics and /v1/debug/stats disagree"
            );
        }
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}
