//! The serving workloads: closed-loop clients against an in-process
//! `gesmc-serve` node, on warm keys or on cold ones.
//!
//! Each client sends its next request only after the previous response
//! arrived, over a fresh connection, as the service's own examples do.
//! Warm and cold keys are separate workloads, as `BENCH_serve.json` reports
//! hot and cold requests apart, so that a change which speeds one path and
//! slows the other shows on both.
//!
//! * [`Keys::Hot`] — the `gesmc loadgen` traffic: a few keys, warmed during
//!   set-up and then requested round-robin, every client starting at a
//!   different key.  Every request is a cache hit, so its latency is the
//!   request path itself.
//! * [`Keys::Cold`] — every request asks for a key nobody asked for before
//!   (a fresh generator seed), so it misses the cache and runs a chain on
//!   the engine pool.

use crate::{mean, ms, per, Outcome};
use gesmc_datasets::syn_pld_graph;
use gesmc_graph::DegreeSequence;
use gesmc_serve::{ServeConfig, Server};
use std::collections::{BTreeMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Which keys the clients request during the measurement.
#[derive(Debug, Clone, Copy)]
pub enum Keys {
    /// The keys warmed during set-up, round-robin: every request a hit.
    Hot,
    /// A fresh key per request: every request a miss.
    Cold,
}

/// Concurrent closed-loop clients.
const CLIENTS: usize = 2;
/// Keys warmed during set-up.
const HOT_KEYS: u64 = 8;
/// Set-ups per run; the reported set-up time is their median.
const SETUPS: usize = 5;
/// Generator parameters of every requested graph (about 600 edges).
const NODES: usize = 700;
const GAMMA: f64 = 2.5;

fn sample_path(graph_seed: u64) -> String {
    format!(
        "/v1/sample?graph=pld:n={NODES},gamma={GAMMA},seed={graph_seed}\
         &algo=par-global-es&supersteps=20"
    )
}

/// One HTTP exchange as the client saw it.
struct Reply {
    connect: Duration,
    status: u16,
    cache_hit: bool,
    body: Vec<u8>,
}

fn get(addr: SocketAddr, path: &str) -> std::io::Result<Reply> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connect = start.elapsed();
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n")?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap_or(raw.len());
    let head = String::from_utf8_lossy(&raw[..split]).to_ascii_lowercase();
    let status = head.split(' ').nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let cache_hit = head.lines().any(|line| line == "x-gesmc-cache: hit");
    let body = raw.get(split + 4..).unwrap_or_default().to_vec();
    Ok(Reply { connect, status, cache_hit, body })
}

/// Whether `body` is a text edge list of a simple graph with `degrees`.
/// Parsed here because the library's reader silently drops loops and
/// duplicate edges, which are exactly what this check has to catch.
fn is_valid_sample(body: &[u8], degrees: &DegreeSequence) -> bool {
    let Ok(text) = std::str::from_utf8(body) else { return false };
    let mut seen = HashSet::new();
    let mut counted = vec![0u32; degrees.len()];
    for line in text.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let mut ends = line.split_whitespace().map(str::parse::<usize>);
        let (Some(Ok(u)), Some(Ok(v)), None) = (ends.next(), ends.next(), ends.next()) else {
            return false;
        };
        if u == v || u.max(v) >= counted.len() || !seen.insert((u.min(v), u.max(v))) {
            return false;
        }
        counted[u] += 1;
        counted[v] += 1;
    }
    counted == degrees.degrees()
}

fn degrees_of(graph_seed: u64) -> DegreeSequence {
    syn_pld_graph(graph_seed, NODES, GAMMA).degrees()
}

/// Boot a node and warm the hot keys; returns the node and each hot key's
/// body.
fn set_up(hot_seeds: &[u64]) -> (Server, Vec<Vec<u8>>) {
    let config = ServeConfig { addr: "127.0.0.1:0".to_string(), ..ServeConfig::default() };
    let server = Server::bind(config).expect("bind an ephemeral port");
    let addr = server.local_addr();
    let bodies = hot_seeds
        .iter()
        .map(|&seed| get(addr, &sample_path(seed)).map(|reply| reply.body).unwrap_or_default())
        .collect();
    (server, bodies)
}

/// `/metrics` as a map from series (name plus labels) to value.
fn scrape(addr: SocketAddr) -> BTreeMap<String, f64> {
    let Ok(reply) = get(addr, "/metrics") else { return BTreeMap::new() };
    String::from_utf8_lossy(&reply.body)
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// What one client measured.
#[derive(Default)]
struct ClientLog {
    attempted: u64,
    failed: u64,
    correct: bool,
    latencies_ms: Vec<f64>,
    connect: Duration,
}

fn client(
    addr: SocketAddr,
    keys: Keys,
    hot: &[(u64, Vec<u8>)],
    mut cold_seeds: impl Iterator<Item = u64>,
    first_hot: usize,
    window: Duration,
) -> ClientLog {
    let mut log = ClientLog { correct: true, ..ClientLog::default() };
    let deadline = Instant::now() + window;
    let mut next_hot = first_hot;
    while Instant::now() < deadline {
        let (seed, expected) = match keys {
            Keys::Hot => {
                let (seed, body) = &hot[next_hot % hot.len()];
                next_hot += 1;
                (*seed, Some(body))
            }
            Keys::Cold => (cold_seeds.next().expect("unbounded seeds"), None),
        };
        log.attempted += 1;
        let start = Instant::now();
        let reply = get(addr, &sample_path(seed));
        let latency = start.elapsed();
        match reply {
            Ok(reply) if reply.status == 200 => {
                log.latencies_ms.push(ms(latency));
                log.connect += reply.connect;
                log.correct &= match expected {
                    // A warm key is a cache hit, byte for byte the warmed sample.
                    Some(body) => reply.cache_hit && reply.body == *body,
                    None => !reply.cache_hit && is_valid_sample(&reply.body, &degrees_of(seed)),
                };
            }
            _ => log.failed += 1,
        }
    }
    log
}

/// Run the workload on `keys` for `window`, drawing keys from `seed`.
pub fn run(seed: u64, window: Duration, trace: bool, keys: Keys) -> Outcome {
    // Graph seeds stay below 2^53 so every layer parses them exactly.
    let base = (seed % (1 << 20)) << 32;
    let hot_seeds: Vec<u64> = (0..HOT_KEYS).map(|k| base + k).collect();

    let mut setups_s = Vec::with_capacity(SETUPS);
    let mut node: Option<(Server, Vec<Vec<u8>>)> = None;
    for _ in 0..SETUPS {
        if let Some((previous, _)) = node.take() {
            previous.shutdown();
        }
        let start = Instant::now();
        node = Some(set_up(&hot_seeds));
        setups_s.push(start.elapsed().as_secs_f64());
    }
    let (server, bodies) = node.expect("at least one set-up");
    let addr = server.local_addr();
    let mut correct =
        hot_seeds.iter().zip(&bodies).all(|(&seed, body)| is_valid_sample(body, &degrees_of(seed)));
    let hot: Vec<(u64, Vec<u8>)> = hot_seeds.into_iter().zip(bodies).collect();

    let before = if trace { scrape(addr) } else { BTreeMap::new() };
    let barrier = Barrier::new(CLIENTS);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (barrier, hot) = (&barrier, &hot);
                let cold = (0..).map(move |i| base + (1 << 24) + ((c as u64) << 20) + i);
                scope.spawn(move || {
                    barrier.wait();
                    client(addr, keys, hot, cold, c, window)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let after = if trace { scrape(addr) } else { BTreeMap::new() };
    server.shutdown();

    let mut outcome = Outcome { setups_s, ..Outcome::default() };
    let mut connect = Duration::ZERO;
    for log in logs {
        outcome.attempted += log.attempted;
        outcome.failed += log.failed;
        correct &= log.correct;
        connect += log.connect;
        outcome.latencies_ms.extend(log.latencies_ms);
    }
    outcome.correct = correct && !outcome.latencies_ms.is_empty();
    if trace {
        record_layers(&mut outcome, &before, &after, connect);
    }
    outcome
}

fn record_layers(
    outcome: &mut Outcome,
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    connect: Duration,
) {
    let delta = |series: &str| {
        after.get(series).copied().unwrap_or(0.0) - before.get(series).copied().unwrap_or(0.0)
    };
    // Total (in milliseconds) and count of a histogram's observations over
    // the window.
    let observed = |family: &str, labels: &str| {
        (delta(&format!("{family}_sum{labels}")) * 1e3, delta(&format!("{family}_count{labels}")))
    };
    let mean_ms = |family: &str, labels: &str| {
        let (total, count) = observed(family, labels);
        per(total, count)
    };
    let phase = |name: &str| {
        mean_ms("gesmc_request_phase_duration_seconds", &format!("{{phase=\"{name}\"}}"))
    };
    let connect_ms = per(ms(connect), outcome.latencies_ms.len() as f64);
    let (queue_wait, read, handle, write) =
        (phase("queue_wait"), phase("read"), phase("handle"), phase("write"));
    let probe = "gesmc_cache_probe_duration_seconds";
    let (hit_probe, hit_probes) = observed(probe, "{result=\"hit\"}");
    let (miss_probe, miss_probes) = observed(probe, "{result=\"miss\"}");
    let hits = delta("gesmc_cache_hits_total");
    let misses = delta("gesmc_cache_misses_total");
    let steps = "gesmc_superstep_duration_seconds";
    let chain = "{chain=\"ParGlobalES\"}";
    let latency_ms = mean(&outcome.latencies_ms);

    let layers = &mut outcome.layers;
    layers.set("superstep_ms", mean_ms(steps, chain));
    layers.set("supersteps", delta(&format!("{steps}_count{chain}")));
    layers.set("connect_ms", connect_ms);
    layers.set("queue_wait_ms", queue_wait);
    layers.set("read_ms", read);
    layers.set("handle_ms", handle);
    layers.set("write_ms", write);
    layers.set("cache_probe_ms", per(hit_probe + miss_probe, hit_probes + miss_probes));
    layers.set("compute_ms", phase("compute"));
    layers.set("cache_hit_ratio", per(hits, hits + misses));
    layers.set("unattributed_ms", latency_ms - connect_ms - queue_wait - read - handle - write);
}
