//! End-to-end tests of the sharded serving mode: three real `gesmc-serve`
//! processes joined by `--peers`, driven through the typed `gesmc-client`
//! SDK.
//!
//! Each node is spawned as a **separate child process** (this test binary
//! re-executing itself) with its own data dir, so the suite exercises the
//! same process boundaries, sockets, and SIGKILL semantics production sees.
//! The acceptance properties:
//!
//! * a request landing on the wrong node is forwarded to the ring owner
//!   (`X-Gesmc-Forwarded-By` present, the owner's forward counters rise)
//!   and the body is **bit-identical** to a plain single-node server's
//!   answer for the same spec;
//! * a mixed hot/cold workload through the client routes by the same ring
//!   the servers shard by, so warm keys come back `hit` from the owner;
//! * SIGKILL of one node loses **zero requests**: survivor-owned keys keep
//!   flowing untouched, victim-owned keys fail over to a successor that
//!   recomputes the identical bytes, and both the client pool and the
//!   surviving servers eject the dead peer;
//! * a traced request deliberately sent to the wrong node produces **one**
//!   trace id whose joined span tree covers both processes: the forwarder
//!   contributes the `forward` hop, the owner the cache-probe and
//!   compute/superstep phases, and every parent link resolves inside the
//!   joined tree.

mod common;

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use common::{boot, http, metric, trace_fragment, BINARY};
use gesmc::client::PeerStatus;
use gesmc::cluster::wire;
use gesmc::prelude::{Client, ClusterConfig, HashRing, SampleSpec, ServeConfig, Server};

/// The child half of the re-exec trick: boot one cluster node on the fixed
/// address the parent preallocated, and serve until killed.  `#[ignore]`
/// keeps it out of normal runs; the parent invokes it by name.
#[test]
#[ignore = "child process entry point, spawned by the cluster tests"]
fn child_cluster_node_main() {
    let addr = std::env::var("GESMC_CLUSTER_ADDR").expect("child needs GESMC_CLUSTER_ADDR");
    let peers: Vec<String> = std::env::var("GESMC_CLUSTER_PEERS")
        .expect("child needs GESMC_CLUSTER_PEERS")
        .split(',')
        .map(str::to_string)
        .collect();
    let data_dir = PathBuf::from(
        std::env::var("GESMC_CLUSTER_DATA_DIR").expect("child needs GESMC_CLUSTER_DATA_DIR"),
    );
    let config = ServeConfig {
        addr: addr.clone(),
        http_workers: 2,
        engine_workers: 2,
        data_dir: Some(data_dir),
        cluster: Some(ClusterConfig { advertise: addr, peers }),
        ..ServeConfig::default()
    };
    let server = Server::bind(config).expect("child bind");
    server.wait(); // blocks until SIGKILL
}

struct ClusterNode {
    child: Child,
    addr: SocketAddr,
    endpoint: String,
}

impl ClusterNode {
    /// SIGKILL — no graceful teardown.
    fn kill(mut self) {
        self.child.kill().expect("kill node");
        self.child.wait().expect("reap node");
    }
}

impl Drop for ClusterNode {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A running cluster: its nodes and the temp dir that holds their data dirs.
/// Dropping it, also when a test panics, kills and reaps every node that is
/// left and then removes the dir.
struct Cluster {
    nodes: Vec<ClusterNode>,
    base: PathBuf,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.nodes.clear();
        let _ = std::fs::remove_dir_all(&self.base);
    }
}

/// Reserve `n` distinct loopback ports by binding them all at once and then
/// dropping the listeners.  The peers list must be known *before* any node
/// boots, so the publish-an-ephemeral-port trick of the durability tests
/// does not work here.
fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port")).collect();
    listeners.iter().map(|l| l.local_addr().expect("port").port()).collect()
}

/// Spawn an `n`-node cluster, each node its own process with its own data
/// dir under one temp dir, and wait until every node answers `/healthz`.
fn spawn_cluster(tag: &str, n: usize) -> Cluster {
    let base = std::env::temp_dir().join(format!("gesmc-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let endpoints: Vec<String> =
        free_ports(n).into_iter().map(|port| format!("127.0.0.1:{port}")).collect();
    let peers = endpoints.join(",");
    let nodes = endpoints
        .iter()
        .enumerate()
        .map(|(i, endpoint)| {
            let data_dir = base.join(format!("node{i}"));
            std::fs::create_dir_all(&data_dir).expect("create data dir");
            let child = Command::new(std::env::current_exe().expect("current exe"))
                .args(["child_cluster_node_main", "--exact", "--ignored", "--nocapture"])
                .env("GESMC_CLUSTER_ADDR", endpoint)
                .env("GESMC_CLUSTER_PEERS", &peers)
                .env("GESMC_CLUSTER_DATA_DIR", &data_dir)
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn cluster node");
            ClusterNode { child, addr: endpoint.parse().expect("addr"), endpoint: endpoint.clone() }
        })
        .collect();
    let cluster = Cluster { nodes, base };
    let deadline = Instant::now() + Duration::from_secs(60);
    for node in &cluster.nodes {
        loop {
            if wire::request(&node.endpoint, "GET", "/healthz", &[], b"")
                .is_ok_and(|r| r.status == 200)
            {
                break;
            }
            assert!(Instant::now() < deadline, "node {} never became healthy", node.endpoint);
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    cluster
}

/// The workload: a spread of small power-law specs, distinct keys.
fn workload_specs() -> Vec<SampleSpec> {
    (1..=8u64)
        .map(|seed| SampleSpec::new(format!("pld:m=120,seed={seed}")).supersteps(10))
        .collect()
}

/// The sample path a spec resolves to, encoded as the client encodes it.
fn sample_path(spec: &SampleSpec) -> String {
    let (graph, algo) =
        (wire::encode_query_value(&spec.graph), wire::encode_query_value(&spec.algo));
    format!("/v1/sample?graph={graph}&algo={algo}&supersteps={}", spec.supersteps)
}

/// Run the same specs against a plain in-process single-node server (no
/// cluster config) — the reference every sharded answer must match
/// bit-identically.
fn reference_bytes(specs: &[SampleSpec]) -> Vec<Vec<u8>> {
    let server = boot(|c| c.http_workers = 2);
    let addr = server.local_addr();
    let bytes = specs
        .iter()
        .map(|spec| {
            let response = http(addr, "GET", &sample_path(spec), BINARY, "");
            assert_eq!(response.status, 200);
            assert!(!response.body.is_empty());
            response.body
        })
        .collect();
    server.shutdown();
    bytes
}

#[test]
fn misrouted_requests_forward_to_the_owner_and_match_a_single_node_bit_for_bit() {
    let cluster = spawn_cluster("forward", 3);
    let endpoints: Vec<String> = cluster.nodes.iter().map(|n| n.endpoint.clone()).collect();
    let specs = workload_specs();
    let reference = reference_bytes(&specs);

    let client = Client::builder(endpoints.clone()).build().expect("client");
    let ring = HashRing::new(endpoints.clone()).expect("ring");

    // Cold pass through the client: every key routes to its ring owner and
    // computes fresh; every body must match the single-node reference.
    for (spec, expected) in specs.iter().zip(&reference) {
        let sample = client.samples().get(spec).expect("cold fetch");
        assert_eq!(&sample.bytes, expected, "sharded answer diverged for {}", spec.graph);
        assert_ne!(sample.cache, "hit", "first fetch of {} cannot be warm", spec.graph);
        assert_eq!(sample.endpoint, client.samples().owner(spec).expect("owner"));
    }

    // Hot pass: the same keys again, now served from the owners' caches.
    for (spec, expected) in specs.iter().zip(&reference) {
        let sample = client.samples().get(spec).expect("hot fetch");
        assert_eq!(&sample.bytes, expected);
        assert_eq!(sample.cache, "hit", "second fetch of {} must hit", spec.graph);
    }

    // Misroute every key on purpose: ask a non-owner directly.  The wrong
    // node must forward to the owner (one hop), stamp itself into
    // `X-Gesmc-Forwarded-By`, and relay the owner's warm-cache answer
    // bit-identically.
    for (spec, expected) in specs.iter().zip(&reference) {
        let key = spec.key().expect("key");
        let owner = ring.owner(key.ring_hash()).to_string();
        let wrong = cluster.nodes.iter().find(|n| n.endpoint != owner).expect("non-owner");
        let owner_node = cluster.nodes.iter().find(|n| n.endpoint == owner).expect("owner node");
        let received_before = metric(owner_node.addr, "gesmc_cluster_forwards_received_total");

        let response = http(wrong.addr, "GET", &sample_path(spec), BINARY, "");
        assert_eq!(response.status, 200);
        assert_eq!(&response.body, expected, "forwarded answer diverged for {}", spec.graph);
        assert_eq!(
            response.header("x-gesmc-forwarded-by"),
            Some(wrong.endpoint.as_str()),
            "misrouted fetch of {} must be forwarded",
            spec.graph
        );
        assert_eq!(
            response.header("x-gesmc-cache"),
            Some("hit"),
            "the owner's cache is warm, so the relayed verdict must be a hit"
        );
        let received_after = metric(owner_node.addr, "gesmc_cluster_forwards_received_total");
        assert_eq!(received_after, received_before + 1, "owner must count the received forward");
    }

    // The ring status endpoint agrees: every node sees 3 peers, all healthy.
    for node in &cluster.nodes {
        let response = http(node.addr, "GET", "/v1/cluster", &[], "");
        assert_eq!(response.status, 200);
        let text = String::from_utf8_lossy(&response.body).to_string();
        assert!(text.contains("\"enabled\": true"), "{text}");
        assert!(!text.contains("ejected"), "no peer may be ejected yet: {text}");
        assert_eq!(metric(node.addr, "gesmc_cluster_peers"), 3);
    }
}

#[test]
fn a_misrouted_traced_request_yields_one_span_tree_across_both_processes() {
    let cluster = spawn_cluster("trace", 3);
    let endpoints: Vec<String> = cluster.nodes.iter().map(|n| n.endpoint.clone()).collect();
    let ring = HashRing::new(endpoints).expect("ring");

    // A spec nothing has warmed: the owner must actually compute, so the
    // engine-side phases (queue_wait / compute / supersteps) appear.
    let spec = SampleSpec::new("pld:m=120,seed=42").supersteps(10);
    let owner = ring.owner(spec.key().expect("key").ring_hash()).to_string();
    let wrong = cluster.nodes.iter().find(|n| n.endpoint != owner).expect("non-owner");
    let owner_node = cluster.nodes.iter().find(|n| n.endpoint == owner).expect("owner node");

    // Originate the trace ourselves, exactly as the client SDK does: the
    // sampled flag (…-01) forces every hop to keep its spans.
    let trace_id = format!(
        "{:032x}",
        0xe2e0_0000_0000_0000_0000_0000_0000_0000u128 | u128::from(std::process::id())
    );
    let origin_span_id = format!("{:016x}", 0x5eed_0000_0000_0001u64);
    let header = format!("{trace_id}-{origin_span_id}-01");

    let headers = [("Accept", "application/octet-stream"), ("X-Gesmc-Trace", &header)];
    let response = http(wrong.addr, "GET", &sample_path(&spec), &headers, "");
    assert_eq!(response.status, 200);
    assert!(!response.body.is_empty());
    assert!(
        response.header("x-gesmc-forwarded-by").is_some(),
        "the misrouted request must be forwarded: {:?}",
        response.headers
    );
    assert_eq!(
        response.header("x-gesmc-trace-id"),
        Some(trace_id.as_str()),
        "the response must echo the originated trace id"
    );

    // Both processes must have kept their fragment of the SAME trace.  Join
    // the fragments on span ids: (id, parent, name, service) per span.
    let fragments =
        [trace_fragment(wrong.addr, &trace_id), trace_fragment(owner_node.addr, &trace_id)];
    let mut spans: Vec<(String, Option<String>, String, String)> = Vec::new();
    for fragment in &fragments {
        assert_eq!(
            fragment.get("trace_id").and_then(|id| id.as_str()),
            Some(trace_id.as_str()),
            "fragment carries a foreign trace id: {fragment:?}"
        );
        for span in fragment.get("spans").and_then(|s| s.as_array()).expect("spans array") {
            let field = |key: &str| span.get(key).and_then(|v| v.as_str()).map(str::to_string);
            spans.push((
                field("span_id").expect("span_id"),
                field("parent_id"),
                field("name").expect("name"),
                field("service").expect("service"),
            ));
        }
    }

    // Each process reported under its own service name, and the phases of
    // both sides of the hop are visible.
    let names_of = |service: &str| -> Vec<&str> {
        spans.iter().filter(|s| s.3 == service).map(|s| s.2.as_str()).collect()
    };
    let forwarder_names = names_of(&wrong.endpoint);
    let owner_names = names_of(&owner);
    for name in ["request", "forward", "queue_wait"] {
        assert!(forwarder_names.contains(&name), "forwarder lacks {name:?}: {forwarder_names:?}");
    }
    for name in ["request", "cache_probe", "compute", "supersteps", "queue_wait"] {
        assert!(owner_names.contains(&name), "owner lacks {name:?}: {owner_names:?}");
    }

    // The joined fragments form ONE tree hanging off the originated span:
    // every parent link resolves to another joined span, except the
    // forwarder's root, which points at the span id we minted.
    let ids: std::collections::HashSet<&str> = spans.iter().map(|s| s.0.as_str()).collect();
    assert_eq!(ids.len(), spans.len(), "span ids must be unique across processes");
    let mut roots = 0;
    for (id, parent, name, service) in &spans {
        let parent = parent
            .as_deref()
            .unwrap_or_else(|| panic!("span {name} ({id}) on {service} lost its parent link"));
        if parent == origin_span_id {
            roots += 1;
            assert_eq!(name, "request");
            assert_eq!(service, &wrong.endpoint, "only the forwarder continues the origin span");
        } else {
            assert!(
                ids.contains(parent),
                "span {name} ({id}) on {service} has dangling parent {parent}"
            );
        }
    }
    assert_eq!(roots, 1, "exactly one span may hang off the originated context");
}

#[test]
fn killing_one_node_loses_no_requests_and_survivors_eject_it() {
    let mut cluster = spawn_cluster("failover", 3);
    let endpoints: Vec<String> = cluster.nodes.iter().map(|n| n.endpoint.clone()).collect();
    let specs = workload_specs();
    let reference = reference_bytes(&specs);
    let ring = HashRing::new(endpoints.clone()).expect("ring");

    // Fail over fast in the test: dead-node connects are refused instantly
    // on loopback, but keep the timeouts tight anyway.
    let client = Client::builder(endpoints.clone())
        .timeouts(Duration::from_millis(500), Duration::from_secs(30))
        .build()
        .expect("client");

    // Warm every key on its owner first.
    for spec in &specs {
        client.samples().get(spec).expect("warm fetch");
    }

    // Kill the owner of the first spec — guaranteed to own at least one key.
    let victim_endpoint = ring.owner(specs[0].key().expect("key").ring_hash()).to_string();
    let victim = cluster.nodes.iter().position(|n| n.endpoint == victim_endpoint).expect("victim");
    cluster.nodes.remove(victim).kill();

    // Three full passes over the whole workload.  Every request must
    // succeed: survivor-owned keys go straight to their live owner;
    // victim-owned keys fail over to the next node in ring order, which
    // recomputes (or re-serves) the identical bytes.
    let mut failures = 0;
    for _pass in 0..3 {
        for (spec, expected) in specs.iter().zip(&reference) {
            match client.samples().get(spec) {
                Ok(sample) => {
                    assert_eq!(&sample.bytes, expected, "failover diverged for {}", spec.graph);
                    assert_ne!(sample.endpoint, victim_endpoint, "dead node answered");
                }
                Err(e) => {
                    failures += 1;
                    eprintln!("lost request for {}: {e}", spec.graph);
                }
            }
        }
    }
    assert_eq!(failures, 0, "failover must lose zero requests");

    // Survivor-owned keys never even noticed: they still come back as cache
    // hits from their owner.
    for (spec, expected) in specs.iter().zip(&reference) {
        let key = spec.key().expect("key");
        if ring.owner(key.ring_hash()) == victim_endpoint {
            continue;
        }
        let sample = client.samples().get(spec).expect("survivor-owned fetch");
        assert_eq!(sample.cache, "hit");
        assert_eq!(&sample.bytes, expected);
    }

    // The survivor that keeps fielding victim-owned keys has tried to
    // forward to the dead owner, fallen back to local compute, and — after
    // enough consecutive failures — ejected the peer.  Hammer one
    // victim-owned key a few more times to push it over the threshold, then
    // check the counters and the status document.
    let victim_spec = specs
        .iter()
        .find(|spec| ring.owner(spec.key().expect("key").ring_hash()) == victim_endpoint)
        .expect("victim owns at least one key");
    for _ in 0..4 {
        client.samples().get(victim_spec).expect("hammer fetch");
    }
    let fallback_survivor = cluster
        .nodes
        .iter()
        .find(|survivor| metric(survivor.addr, "gesmc_cluster_forward_fallbacks_total") > 0)
        .expect("some survivor must have fallen back from the dead owner");
    let response = http(fallback_survivor.addr, "GET", "/v1/cluster", &[], "");
    assert_eq!(response.status, 200);
    let text = String::from_utf8_lossy(&response.body).to_string();
    assert!(
        text.contains("ejected"),
        "the dead peer must be ejected on {}: {text}",
        fallback_survivor.endpoint
    );
    let healthy_gauge = format!("gesmc_cluster_peer_healthy{{peer=\"{victim_endpoint}\"}}");
    assert_eq!(metric(fallback_survivor.addr, &healthy_gauge), 0, "dead peer must read unhealthy");

    // The client noticed too: its pool health marks the dead endpoint.
    assert!(
        client.health().iter().any(|(endpoint, status)| {
            endpoint == &victim_endpoint && matches!(status, PeerStatus::Ejected { .. })
        }),
        "client pool must eject the dead endpoint: {:?}",
        client.health()
    );
}
