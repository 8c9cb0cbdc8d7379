//! `gesmc-obs` — the workspace's dependency-free observability layer.
//!
//! Four pieces, all built on `std` only so every crate in the workspace can
//! depend on it without pulling anything in:
//!
//! * **Structured leveled logging** ([`log`]) — a process-global logger with
//!   text and JSON line formats, RFC 3339 timestamps, per-target level
//!   filtering (`GESMC_LOG=info,gesmc_serve=debug`), and optional
//!   per-request/job correlation ids.  The [`trace!`]/[`debug!`]/[`info!`]/
//!   [`warn!`]/[`error!`] macros are the only sanctioned way to emit
//!   diagnostics; raw `eprintln!` is banned in `cli`, `serve`, and `engine`
//!   (CI greps for it).
//! * **Latency histograms** ([`hist`]) — a lock-cheap [`Histogram`] with
//!   fixed log2 (power-of-two nanosecond) buckets, each recorded as four
//!   linear sub-buckets so [`Histogram::percentile_ns`] is within 1.25×.
//!   Recording picks one of a small set of cache-line-aligned shards by a
//!   per-thread index and does two relaxed atomic adds; shards are only
//!   merged when a scrape takes a [`HistogramSnapshot`].
//! * **One timing primitive** ([`mod@phase`]) — a [`Phase`] guard times a
//!   region with one clock and, on drop, observes its histogram and closes
//!   its trace span (when the work is traced) with the same duration.
//! * **A process-global registry** ([`registry`]) — histograms and counters
//!   register themselves by `(name, labels)` on first use, so `/metrics`
//!   (Prometheus text with `_bucket`/`_sum`/`_count`), `/v1/debug/stats`
//!   (JSON), and `gesmc-bench`'s snapshot dumps can enumerate everything
//!   recorded anywhere in the process without wiring.
//!
//! Two further pieces ride on the same zero-dependency base:
//!
//! * **Distributed tracing** ([`mod@trace`]) — 128-bit trace ids, span trees
//!   with parent links and annotations, an `X-Gesmc-Trace` wire context,
//!   and a tail-sampled flight recorder (always keep error and slow
//!   traces; keep the rest by a deterministic hash of the trace id so all
//!   cluster nodes agree).
//! * **Self-telemetry** ([`telemetry`]) — best-effort procfs collection of
//!   peak RSS, open fds, and I/O byte counts for gauge export.
//!
//! ```
//! let requests = gesmc_obs::histogram("doc_request_seconds", "Example latency.");
//! {
//!     let _phase = gesmc_obs::Phase::start(&requests);
//!     // ... timed region ...
//! }
//! assert_eq!(requests.snapshot().count, 1);
//! assert!(requests.percentile_ns(0.5) > 0);
//! gesmc_obs::info!(target: "doc", "handled one request");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod log;
pub mod phase;
pub mod registry;
pub mod telemetry;
pub mod trace;

pub use hist::{BucketCount, Histogram, HistogramSnapshot, BUCKETS};
pub use log::{Level, LogFormat};
pub use phase::Phase;
pub use registry::{
    counter, counter_with, histogram, histogram_with, render_json, render_prometheus, snapshot,
    Counter, CounterSnapshot, ObsSnapshot,
};
pub use telemetry::{self_telemetry, SelfTelemetry};
pub use trace::{Span, SpanContext, SpanId, TraceId, TracePolicy, Tracer};
