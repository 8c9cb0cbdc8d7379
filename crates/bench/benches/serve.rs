//! Criterion benchmark: requests/sec of the `gesmc-serve` HTTP service.
//!
//! Boots a real server on an ephemeral port and measures the two regimes
//! that matter for the serving layer:
//!
//! * **hot cache** — repeated requests for one `(graph, chain, supersteps)`
//!   key; after the first miss every request is an O(1) cache hit, so this
//!   measures the HTTP codec + cache lookup path;
//! * **cold cache** — every request uses a fresh graph seed, so each one
//!   flows through the bounded admission queue and runs a chain on the
//!   engine pool.
//! * **cold-boot rehydration** — a durable server (`data_dir` set) is
//!   restarted on a populated data dir and the first request for a spilled
//!   key is timed: boot replay + lazy disk rehydration instead of a chain
//!   run.
//!
//! Honours the harness' `--scale {smoke,small,paper}` knob (default
//! `smoke`, so `cargo bench` stays fast offline).

use criterion::{criterion_group, BatchSize, BenchmarkId, Criterion, Throughput};
use gesmc_bench::Scale;
use gesmc_serve::{ServeConfig, Server};
use std::net::SocketAddr;

fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|pair| pair[0] == "--scale")
        .and_then(|pair| Scale::parse(&pair[1]))
        .unwrap_or(Scale::Smoke)
}

/// One blocking request through the wire client; panics on a non-200 so
/// regressions fail loudly.
fn request(addr: SocketAddr, path: &str) -> usize {
    let response =
        gesmc_cluster::request(&addr.to_string(), "GET", path, &[], b"").expect("request");
    assert_eq!(response.status, 200, "non-200 response during bench");
    response.body.len()
}

fn bench_serve(c: &mut Criterion) {
    let scale = scale_from_args();
    let (edges, supersteps) = scale.pick((500usize, 5u64), (5_000, 10), (50_000, 20));

    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        engine_workers: 2,
        max_pending: 0, // unbounded: the bench must never shed
        ..ServeConfig::default()
    };
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();

    let hot_path =
        format!("/v1/sample?graph=pld:m={edges},seed=1&algo=seq-global-es&supersteps={supersteps}");
    // Prime the hot key once, outside the measurement.
    request(addr, &hot_path);

    let mut group = c.benchmark_group("serve_requests");
    group.throughput(Throughput::Elements(1));
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("hot_cache", edges), &edges, |b, _| {
        b.iter(|| request(addr, &hot_path));
    });
    let mut cold_seed = 1_000_000u64;
    group.bench_with_input(BenchmarkId::new("cold_cache", edges), &edges, |b, _| {
        b.iter(|| {
            cold_seed += 1;
            let path = format!(
                "/v1/sample?graph=pld:m={edges},seed={cold_seed}&algo=seq-global-es&supersteps={supersteps}"
            );
            request(addr, &path)
        });
    });
    group.finish();
    server.shutdown();
}

/// Time a durable node coming back warm: boot on a populated data dir and
/// fetch a spilled one-shot key (replayed journal + lazy disk rehydration,
/// no chain run).
fn bench_cold_boot_rehydration(c: &mut Criterion) {
    let scale = scale_from_args();
    let (edges, supersteps) = scale.pick((500usize, 5u64), (5_000, 10), (50_000, 20));

    let data_dir =
        std::env::temp_dir().join(format!("gesmc-bench-rehydrate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let durable_config = || ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        engine_workers: 2,
        max_pending: 0,
        data_dir: Some(data_dir.clone()),
        ..ServeConfig::default()
    };
    let path =
        format!("/v1/sample?graph=pld:m={edges},seed=2&algo=seq-global-es&supersteps={supersteps}");

    // Populate the data dir once: compute the key so it spills to disk.
    {
        let server = Server::bind(durable_config()).expect("bind seed server");
        request(server.local_addr(), &path);
        server.shutdown();
    }

    let mut group = c.benchmark_group("serve_cold_boot");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("rehydrate_first_hit", edges), &edges, |b, _| {
        b.iter_batched(
            || Server::bind(durable_config()).expect("bind rebooted server"),
            |server| {
                // Timed: first request after a restart (served from the
                // spilled cache entry, no chain run) plus the teardown.
                request(server.local_addr(), &path);
                server.shutdown();
            },
            BatchSize::PerIteration,
        );
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&data_dir);
}

criterion_group!(benches, bench_serve, bench_cold_boot_rehydration);

fn main() {
    benches();
    criterion::write_json_report();
    // The serve benchmarks drive the full request pipeline, so the sidecar
    // (`<report stem>.hist.json`) captures request-phase, cache-probe, and
    // persistence latency distributions for the checked-in baseline.
    gesmc_bench::dump_obs_histograms();
}
