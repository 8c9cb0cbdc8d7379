//! Cluster runtime: ring ownership, peer-to-peer forwarding, peer health.
//!
//! With `--peers`, every serve node builds the same consistent-hash ring
//! over the membership list.  A node receiving `GET /v1/sample` computes the
//! key's owner: itself → handle locally; a peer → forward the request over
//! the plain HTTP codec and relay the answer.  Forwarding is **one hop at
//! most** — a forwarded request carries `X-Gesmc-Forwarded: 1` and is always
//! handled locally by the receiver, so no routing disagreement (mid-restart
//! config skew, a bad peers file) can loop a request.
//!
//! Sample seeds derive from the cache key, so every node computes
//! bit-identical bytes for a key.  That makes forwarding a pure
//! cache-locality optimisation, and the failure policy trivial: when the
//! owner is unreachable (connect failure, 5xx, ejection), the receiving
//! node computes the sample itself.  Ejected peers are skipped for
//! [`HealthPolicy::probe_after_ms`] and then re-probed with one live
//! request.

use crate::cache::CacheKey;
use crate::http::{Request, Response};
use gesmc_cluster::{
    encode_query_value, HashRing, HealthPolicy, HealthTracker, PeerStatus, SampleKey,
};
use serde_json::{Map, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The request header marking an already-forwarded request (the loop guard).
pub const FORWARDED_HEADER: &str = "x-gesmc-forwarded";

/// Connect budget for a peer hop; a peer that cannot accept within this is
/// treated as down and the sample is computed locally.
const FORWARD_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Read/write budget for a peer hop; covers a cold compute on the owner.
const FORWARD_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Static cluster membership (`--peers`/`--advertise`).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This node's own address, exactly as it appears in `peers`.
    pub advertise: String,
    /// Every cluster member, this node included.
    pub peers: Vec<String>,
}

/// Counters and health the `/metrics` renderer snapshots.
#[derive(Debug, Clone)]
pub struct ClusterMetrics {
    /// Cluster size (peers, this node included).
    pub peers: usize,
    /// `(peer, currently healthy)` for every remote peer.
    pub peer_health: Vec<(String, bool)>,
    /// Requests forwarded to their owner.
    pub forwarded: u64,
    /// Forwards that failed (or were skipped for an ejected owner) and fell
    /// back to local computation.
    pub fallbacks: u64,
    /// Forwarded requests received from peers (loop guard honoured).
    pub received: u64,
}

/// Per-node cluster state, shared by the router handlers.
#[derive(Debug)]
pub(crate) struct ClusterState {
    advertise: String,
    ring: HashRing,
    health: Mutex<HealthTracker>,
    epoch: Instant,
    forwarded: AtomicU64,
    fallbacks: AtomicU64,
    received: AtomicU64,
}

impl ClusterState {
    /// Validate the membership list and build the ring.
    pub(crate) fn new(config: &ClusterConfig) -> Result<Self, String> {
        let ring = HashRing::new(config.peers.clone()).map_err(|e| e.to_string())?;
        if !ring.nodes().contains(&config.advertise) {
            return Err(format!(
                "advertise address {:?} is not in the peers list {:?}",
                config.advertise,
                ring.nodes()
            ));
        }
        Ok(Self {
            advertise: config.advertise.clone(),
            ring,
            health: Mutex::new(HealthTracker::new(HealthPolicy::default())),
            epoch: Instant::now(),
            forwarded: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            received: AtomicU64::new(0),
        })
    }

    /// This node's address on the ring.
    pub(crate) fn advertise(&self) -> &str {
        &self.advertise
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// The node owning `key`.
    pub(crate) fn owner_of(&self, key: &CacheKey) -> &str {
        let sample_key = SampleKey::new(key.fingerprint, key.chain_slug.clone(), key.supersteps);
        self.ring.owner(sample_key.ring_hash())
    }

    /// Note a forwarded request arriving from a peer (loop guard hit).
    pub(crate) fn note_received_forward(&self) {
        self.received.fetch_add(1, Ordering::Relaxed);
    }

    /// Forward `request` (a `GET /v1/sample`) to `owner` and relay its
    /// answer.  `None` means the caller must handle the request locally —
    /// the owner is ejected, unreachable, or answered 5xx.  Any status
    /// below 500 is authoritative and relayed as-is (including 429: the
    /// owner's backpressure signal, `Retry-After` intact, reaches the
    /// client).
    pub(crate) fn forward(
        &self,
        owner: &str,
        request: &Request,
        request_id: &str,
        trace: Option<&str>,
    ) -> Option<Response> {
        {
            let mut health = self.health.lock().expect("cluster health mutex poisoned");
            if !health.is_available(owner, self.now_ms()) {
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                gesmc_obs::info!(
                    target: "gesmc_serve::cluster",
                    id: request_id,
                    "owner {owner} is ejected; computing locally"
                );
                return None;
            }
        }
        let path = rebuild_target(request);
        let accept = request.header("accept").unwrap_or("text/plain");
        let mut headers = vec![("Accept", accept), ("X-Gesmc-Forwarded", "1")];
        if let Some(trace) = trace {
            headers.push(("X-Gesmc-Trace", trace));
        }
        let outcome = gesmc_cluster::request_with_timeouts(
            owner,
            "GET",
            &path,
            &headers,
            &[],
            FORWARD_CONNECT_TIMEOUT,
            FORWARD_IO_TIMEOUT,
        );
        let mut health = self.health.lock().expect("cluster health mutex poisoned");
        match outcome {
            Ok(wire) if wire.status < 500 => {
                health.record_success(owner);
                self.forwarded.fetch_add(1, Ordering::Relaxed);
                let content_type = wire.header("content-type").unwrap_or("text/plain").to_string();
                let relayed: Vec<(&'static str, String)> =
                    ["x-gesmc-cache", "x-gesmc-seed", "retry-after"]
                        .into_iter()
                        .filter_map(|name| {
                            wire.header(name)
                                .map(|value| (canonical_header(name), value.to_string()))
                        })
                        .collect();
                let mut response = Response::binary(wire.status, wire.body)
                    .with_content_type(&content_type)
                    .with_header("X-Gesmc-Forwarded-By", self.advertise.clone());
                for (name, value) in relayed {
                    response = response.with_header(name, value);
                }
                Some(response)
            }
            Ok(wire) => {
                let ejected = health.record_failure(owner, self.now_ms());
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                gesmc_obs::warn!(
                    target: "gesmc_serve::cluster",
                    id: request_id,
                    "owner {owner} answered {}; computing locally{}",
                    wire.status,
                    if ejected { " (peer ejected)" } else { "" }
                );
                None
            }
            Err(e) => {
                let ejected = health.record_failure(owner, self.now_ms());
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                gesmc_obs::warn!(
                    target: "gesmc_serve::cluster",
                    id: request_id,
                    "forward to {owner} failed ({e}); computing locally{}",
                    if ejected { " (peer ejected)" } else { "" }
                );
                None
            }
        }
    }

    /// Snapshot for `/metrics` and `GET /v1/cluster`.
    pub(crate) fn metrics(&self) -> ClusterMetrics {
        let now = self.now_ms();
        let health = self.health.lock().expect("cluster health mutex poisoned");
        let peer_health = self
            .ring
            .nodes()
            .iter()
            .filter(|n| **n != self.advertise)
            .map(|n| (n.clone(), matches!(health.status(n, now), PeerStatus::Healthy)))
            .collect();
        ClusterMetrics {
            peers: self.ring.len(),
            peer_health,
            forwarded: self.forwarded.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            received: self.received.load(Ordering::Relaxed),
        }
    }

    /// The `GET /v1/cluster` document.
    pub(crate) fn status_json(&self) -> Value {
        let snapshot = self.metrics();
        let mut map = Map::new();
        map.insert("enabled".to_string(), Value::Bool(true));
        map.insert("advertise".to_string(), Value::String(self.advertise.clone()));
        map.insert(
            "peers".to_string(),
            Value::Array(self.ring.nodes().iter().map(|n| Value::String(n.clone())).collect()),
        );
        map.insert(
            "vnodes_per_node".to_string(),
            Value::Number(self.ring.vnodes_per_node() as f64),
        );
        map.insert(
            "peer_health".to_string(),
            Value::Array(
                snapshot
                    .peer_health
                    .iter()
                    .map(|(peer, healthy)| {
                        let mut entry = Map::new();
                        entry.insert("peer".to_string(), Value::String(peer.clone()));
                        entry.insert(
                            "status".to_string(),
                            Value::String(if *healthy { "healthy" } else { "ejected" }.to_string()),
                        );
                        Value::Object(entry)
                    })
                    .collect(),
            ),
        );
        map.insert("forwarded".to_string(), Value::Number(snapshot.forwarded as f64));
        map.insert("forward_fallbacks".to_string(), Value::Number(snapshot.fallbacks as f64));
        map.insert("forwards_received".to_string(), Value::Number(snapshot.received as f64));
        Value::Object(map)
    }
}

/// The canonical (response) spelling of a relayed header name.
fn canonical_header(lower: &str) -> &'static str {
    match lower {
        "x-gesmc-cache" => "X-Gesmc-Cache",
        "x-gesmc-seed" => "X-Gesmc-Seed",
        "retry-after" => "Retry-After",
        _ => unreachable!("only known headers are relayed"),
    }
}

/// Re-encode a parsed request back into a wire target.  The parser decoded
/// the query pairs, so the decoder's special bytes (`%`, `&`, `+`, space)
/// must be re-escaped.
fn rebuild_target(request: &Request) -> String {
    let mut target = request.path.clone();
    for (i, (key, value)) in request.query.iter().enumerate() {
        target.push(if i == 0 { '?' } else { '&' });
        target.push_str(&encode_query_value(key));
        target.push('=');
        target.push_str(&encode_query_value(value));
    }
    target
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Method;

    fn config(advertise: &str) -> ClusterConfig {
        ClusterConfig {
            advertise: advertise.to_string(),
            peers: vec!["n1:1".to_string(), "n2:1".to_string(), "n3:1".to_string()],
        }
    }

    #[test]
    fn membership_is_validated() {
        assert!(ClusterState::new(&config("n2:1")).is_ok());
        let err = ClusterState::new(&config("elsewhere:1")).unwrap_err();
        assert!(err.contains("not in the peers list"), "{err}");
        let err = ClusterState::new(&ClusterConfig {
            advertise: "n1:1".to_string(),
            peers: vec!["n1:1".to_string(), "n1:1".to_string()],
        })
        .unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn ownership_matches_the_shared_ring() {
        let state = ClusterState::new(&config("n1:1")).unwrap();
        let key = CacheKey {
            fingerprint: 0xfeed,
            chain_slug: "par-global-es".to_string(),
            supersteps: 20,
        };
        let expected_ring = HashRing::new(["n1:1", "n2:1", "n3:1"]).unwrap();
        let hash = SampleKey::new(0xfeed, "par-global-es", 20).ring_hash();
        assert_eq!(state.owner_of(&key), expected_ring.owner(hash));
    }

    #[test]
    fn targets_rebuild_with_reescaped_components() {
        let request = Request {
            method: Method::Get,
            path: "/v1/sample".to_string(),
            query: vec![
                ("graph".to_string(), "pld:m=100".to_string()),
                ("algo".to_string(), "par-global-es?pl=0.5&threads=2".to_string()),
            ],
            headers: vec![],
            body: vec![],
        };
        assert_eq!(
            rebuild_target(&request),
            "/v1/sample?graph=pld:m=100&algo=par-global-es?pl=0.5%26threads=2"
        );
        let bare = Request {
            method: Method::Get,
            path: "/healthz".to_string(),
            query: vec![],
            headers: vec![],
            body: vec![],
        };
        assert_eq!(rebuild_target(&bare), "/healthz");
    }

    #[test]
    fn forwarding_to_a_dead_owner_falls_back_and_ejects_after_repeats() {
        // A bound-then-dropped port: connect is refused fast.
        let dead = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let state = ClusterState::new(&ClusterConfig {
            advertise: "self:1".to_string(),
            peers: vec!["self:1".to_string(), dead.clone()],
        })
        .unwrap();
        let request = Request {
            method: Method::Get,
            path: "/v1/sample".to_string(),
            query: vec![("graph".to_string(), "pld:m=100".to_string())],
            headers: vec![],
            body: vec![],
        };
        let policy = HealthPolicy::default();
        for attempt in 0..policy.eject_after {
            assert!(
                state.forward(&dead, &request, "req-test", None).is_none(),
                "attempt {attempt}"
            );
        }
        let snapshot = state.metrics();
        assert_eq!(snapshot.fallbacks, u64::from(policy.eject_after));
        assert_eq!(snapshot.forwarded, 0);
        assert_eq!(snapshot.peer_health, vec![(dead.clone(), false)]);
        // Ejected now: the next forward is skipped without touching the wire.
        assert!(state.forward(&dead, &request, "req-test", None).is_none());
        let json = serde_json::to_string(&state.status_json()).unwrap();
        assert!(json.contains("\"ejected\""), "{json}");
    }
}
