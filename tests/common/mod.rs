//! Helpers shared by the end-to-end suites that drive a real server.
//!
//! Every request goes through `gesmc::cluster::wire`, the workspace's one
//! HTTP client, which reads a response body up to its `Content-Length`.

#![allow(dead_code)] // each suite uses its own subset

use gesmc::cluster::wire::{request_with_timeouts, WireResponse};
use gesmc::prelude::{ServeConfig, Server};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The `Accept` header that asks for the binary edge-list encoding.
pub const BINARY: &[(&str, &str)] = &[("Accept", "application/octet-stream")];

/// One HTTP exchange with `addr`; panics when the exchange itself fails.
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> WireResponse {
    let timeout = Duration::from_secs(60);
    request_with_timeouts(
        &addr.to_string(),
        method,
        path,
        headers,
        body.as_bytes(),
        timeout,
        timeout,
    )
    .unwrap_or_else(|e| panic!("{method} {path} on {addr}: {e}"))
}

/// The value of the first `/metrics` line that starts with `name`.
pub fn metric(addr: SocketAddr, name: &str) -> u64 {
    let response = http(addr, "GET", "/metrics", &[], "");
    assert_eq!(response.status, 200);
    String::from_utf8_lossy(&response.body)
        .lines()
        .find(|line| line.starts_with(name) && !line.starts_with('#'))
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or_else(|| panic!("metric {name} missing")) as u64
}

/// An in-process server on an ephemeral port, configured by `mutate`.
pub fn boot(mutate: impl FnOnce(&mut ServeConfig)) -> Server {
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

/// Fetch a kept trace fragment from one node, retrying briefly: a node
/// commits spans to its flight recorder when the request's root span drops,
/// which happens after the response bytes have been sent.
pub fn trace_fragment(addr: SocketAddr, trace_id: &str) -> serde_json::Value {
    let path = format!("/v1/debug/trace/{trace_id}");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let response = http(addr, "GET", &path, &[], "");
        if response.status == 200 {
            return serde_json::from_str(std::str::from_utf8(&response.body).expect("trace utf8"))
                .expect("trace json");
        }
        assert!(
            Instant::now() < deadline,
            "node {addr} never exposed trace {trace_id} (last status {})",
            response.status
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}
