//! `gesmc-serve` — a dependency-free HTTP sampling service with a warm
//! sample cache.
//!
//! The paper's end product is a *stream of uniform null-model samples*
//! consumed by downstream analyses (Sec. 6.1).  Everything below this crate
//! produces that stream from a local process; `gesmc-serve` turns it into a
//! network service, so null-model queries become cached, backpressured HTTP
//! requests:
//!
//! | Endpoint | Description |
//! |---|---|
//! | `POST /v1/jobs` | submit a randomization job (inline edge list or generator spec, any registered chain) |
//! | `GET /v1/jobs/{id}` | job status and progress |
//! | `DELETE /v1/jobs/{id}` | cancel a job |
//! | `GET /v1/jobs/{id}/samples/{k}` | the `k`-th thinned sample (text, or binary under `Accept: application/octet-stream`) |
//! | `GET /v1/sample?graph=…&algo=…` | synchronous one-shot sample for small graphs (the warm-cache hot path) |
//! | `GET /v1/jobs` | list every job resident on this node |
//! | `GET /v1/algorithms` | the chain registry |
//! | `GET /v1/cluster` | ring membership, peer health, and forwarding counters |
//! | `GET /healthz` | liveness |
//! | `GET /metrics` | Prometheus-style counters |
//! | `GET /v1/debug/traces?min_ms=N` | index of kept distributed traces (tail-sampled flight recorder) |
//! | `GET /v1/debug/trace/{id}` | one kept trace's span fragment (joined across nodes by `gesmc trace`) |
//! | `POST /v1/shutdown` | graceful shutdown (only with [`ServeConfig::allow_shutdown`]) |
//!
//! ## Architecture
//!
//! The server is written on `std::net` only — no async runtime, a hand-rolled
//! strict HTTP/1.1 codec ([`http`]) — consistent with the workspace's
//! offline-vendoring policy.  A fixed set of HTTP worker threads serves
//! parsed requests; all chain execution happens on the engine's
//! [`ServicePool`](gesmc_engine::ServicePool) behind a **bounded admission
//! queue**, so overload degrades into fast `429 Retry-After` responses
//! instead of latency collapse.
//!
//! The hot path is the **warm sample cache** ([`cache`]): an LRU keyed by
//! `(graph fingerprint, canonical chain slug, supersteps)`.  Sample seeds
//! are derived deterministically from that key, so identical queries are
//! served bit-identically whether they hit the cache or recompute — repeated
//! null-model queries are O(1) lookups, cold keys flow through the pool
//! (concurrent misses for one key are coalesced into a single job), and
//! `…&warm=true` pre-warms a key in the background without waiting.
//!
//! The acceptor waits for connections in `poll(2)`, so a request never
//! waits for a polling interval, and each response leaves in one vectored
//! write.
//!
//! With [`ServeConfig::cluster`] set, nodes shard that cache over a
//! consistent-hash ring ([`cluster`]): a node receiving a `/v1/sample`
//! request for a key another node owns forwards it peer-to-peer (one hop at
//! most) so each key is cached exactly once cluster-wide; unreachable owners
//! are computed around locally, bit-identically.
//!
//! ```no_run
//! use gesmc_serve::{ServeConfig, Server};
//!
//! let mut config = ServeConfig::default();
//! config.addr = "127.0.0.1:0".to_string(); // ephemeral port
//! let server = Server::bind(config).unwrap();
//! println!("listening on http://{}", server.local_addr());
//! server.shutdown(); // graceful: drains in-flight work, joins all threads
//! ```
//!
//! ## Unsafe code
//!
//! The crate denies `unsafe` with exactly one exception: the private Linux
//! wrapper around `poll(2)` that the acceptor waits in.  `std` offers no
//! readiness wait on a listener and the workspace links no `libc` crate, so
//! the call is declared directly, as `gesmc-exmem` declares `mmap`; its
//! `// SAFETY:` comment states why the call is sound.  Off Linux the acceptor
//! sleeps between non-blocking accepts instead.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cluster;
pub mod fsio;
pub mod http;
pub mod jobstore;
pub mod metrics;
pub mod persist;
pub(crate) mod router;
pub mod server;

pub use cache::{CacheKey, CacheStats, CachedSample, SampleCache};
pub use cluster::{ClusterConfig, ClusterMetrics};
pub use fsio::{FaultIo, IoOp, PersistIo, StdFs};
pub use persist::{PersistMetrics, Persistence};
pub use server::Server;

use std::path::PathBuf;
use std::sync::Arc;

/// Server configuration; every field has a production-ish default.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port `0` picks an ephemeral port).
    pub addr: String,
    /// HTTP worker threads serving parsed requests.
    pub http_workers: usize,
    /// Engine worker threads running chains (`0` = hardware parallelism).
    pub engine_workers: usize,
    /// Warm-cache capacity in entries (`0` disables the cache).
    pub cache_entries: usize,
    /// Bound of the engine admission queue; beyond it, sampling work is shed
    /// with `429` (`0` = unbounded, never shed).
    pub max_pending: usize,
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// Largest accepted per-job superstep target.
    pub max_supersteps: u64,
    /// Largest graph (in edges) the synchronous `/v1/sample` path accepts;
    /// bigger graphs must go through `POST /v1/jobs`.
    pub max_sync_edges: usize,
    /// Largest generated graph (in edges) `POST /v1/jobs` accepts.
    pub max_graph_edges: usize,
    /// Most thinned samples a single job may retain.
    pub max_job_samples: u64,
    /// Estimated byte budget for one job's retained samples (both
    /// encodings); `supersteps/thinning × edges` requests beyond it are
    /// rejected at submission, so no single job can exhaust memory while
    /// individually honouring the edge and sample-count limits.
    pub max_retained_sample_bytes: u64,
    /// Most job records retained in the store.
    pub max_jobs: usize,
    /// Whether `POST /v1/shutdown` is honoured (CI and tests; off by
    /// default so a stray request cannot stop a production server).
    pub allow_shutdown: bool,
    /// Durability root (`--data-dir`).  When set, job submissions are
    /// journaled before they are acknowledged, running jobs checkpoint
    /// every [`checkpoint_every`](Self::checkpoint_every) supersteps, and
    /// one-shot cache entries spill to disk; on boot the directory is
    /// replayed — finished jobs come back queryable, interrupted jobs
    /// resume bit-identically.  `None` (the default) keeps the server
    /// fully in-memory.
    pub data_dir: Option<PathBuf>,
    /// Checkpoint cadence for persistent jobs, in supersteps (ignored
    /// without [`data_dir`](Self::data_dir); `0` disables checkpointing,
    /// leaving from-scratch recomputation as the recovery path).
    pub checkpoint_every: u64,
    /// The filesystem seam persistence writes through; `None` uses
    /// [`StdFs`].  Tests inject a [`FaultIo`] here to fail any durable
    /// step deterministically.
    pub persist_io: Option<Arc<dyn PersistIo>>,
    /// Cluster membership (`--peers`/`--advertise`); `None` (the default)
    /// runs a standalone node.  When set, the advertise address must appear
    /// in the peers list — [`Server::bind`] rejects the config otherwise.
    pub cluster: Option<ClusterConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8080".to_string(),
            http_workers: 4,
            engine_workers: 0,
            cache_entries: 256,
            max_pending: 64,
            max_body_bytes: 8 * 1024 * 1024,
            max_supersteps: 100_000,
            max_sync_edges: 200_000,
            max_graph_edges: 5_000_000,
            max_job_samples: 1_000,
            max_retained_sample_bytes: 256 * 1024 * 1024,
            max_jobs: 1_024,
            allow_shutdown: false,
            data_dir: None,
            checkpoint_every: 25,
            persist_io: None,
            cluster: None,
        }
    }
}
