//! Distributed tracing: cross-process span trees with tail-based sampling.
//!
//! ## Span model
//!
//! A **trace** is one logical request's tree of **spans** across any number
//! of processes.  Trace ids are 128-bit, span ids 64-bit; every span carries
//! its parent span id (if any), a static phase name (`"request"`,
//! `"forward"`, `"compute"`, …), a wall-clock start, a duration, an error
//! flag, and free-form `key=value` annotations.  Spans are cheap value
//! guards: [`Span`] records itself into the process-local [`Tracer`] when
//! dropped, so instrumented code never talks to a collector.  A phase that
//! also feeds a histogram is timed by a [`Phase`](crate::Phase), which
//! closes its span with the duration it observed.
//!
//! ## Recording and tail-based sampling
//!
//! Finished spans land in a bounded, trace-id-sharded pending buffer (one
//! mutexed deque per shard, so concurrent requests rarely contend).  When a
//! trace's **local root** span finishes, every pending span of that trace is
//! gathered and the *tail* decision runs — with the whole trace in hand, not
//! up front:
//!
//! * traces with any **error** span are always kept;
//! * traces whose local root ran at least the policy's **slow threshold**
//!   are always kept;
//! * traces whose propagated flags carry [`FLAG_SAMPLED`] are always kept;
//! * the rest are kept with probability `keep_fraction`, decided by a pure
//!   hash of the trace id — so every process in a cluster keeps or drops
//!   the *same* traces and cross-process trees stay joinable.
//!
//! Kept traces move to a bounded flight-recorder ring (oldest evicted) that
//! `GET /v1/debug/traces` and `GET /v1/debug/trace/{id}` serve as JSON.
//!
//! ## Propagation
//!
//! [`SpanContext`] is the wire form: a traceparent-style
//! `trace_id-span_id-flags` triple carried in the `X-Gesmc-Trace` HTTP
//! header ([`SpanContext::to_header`]/[`SpanContext::parse`]).  Within a
//! process, [`with_context`] installs a context for a scope (e.g. an engine
//! worker running a queued job) and [`child_of_current`] lets deeper layers
//! attach spans without threading handles through every signature.
//!
//! ```
//! let mut root = gesmc_obs::trace::tracer().start_root("request");
//! root.annotate("path", "/v1/samples/demo");
//! {
//!     let mut compute = root.child("compute");
//!     compute.annotate("chain", "seq-es");
//! } // compute records itself here
//! drop(root); // local root: the tail decision runs now
//! ```

use crate::log::push_json_escaped;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Flag bit: the trace was force-sampled at its origin; every process must
/// keep it regardless of the probabilistic decision.
pub const FLAG_SAMPLED: u8 = 1;

/// Pending-span shards; spans of one trace always land in one shard.
const SHARDS: usize = 8;

/// Default bound on buffered spans per shard awaiting their tail decision.
const DEFAULT_PENDING_PER_SHARD: usize = 1024;

/// Default bound on kept traces in the flight-recorder ring.
const DEFAULT_KEPT_TRACES: usize = 256;

/// Bound on spans retained per kept trace (defensive; real traces are small).
const MAX_SPANS_PER_TRACE: usize = 512;

/// A 128-bit trace identifier (32 lowercase hex chars on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u128);

impl TraceId {
    /// Render as 32 lowercase hex chars.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parse exactly 32 hex chars.
    pub fn parse(s: &str) -> Option<TraceId> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(TraceId)
    }
}

/// A 64-bit span identifier (16 lowercase hex chars on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// Render as 16 lowercase hex chars.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parse exactly 16 hex chars.
    pub fn parse(s: &str) -> Option<SpanId> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(SpanId)
    }

    /// Mint a fresh process-unique id, as every new span gets one (for an
    /// id that must match the span ids of a process, e.g. the request id
    /// of a response that has no span).
    pub fn mint() -> SpanId {
        SpanId(next_id())
    }
}

/// The propagated identity of a span: what crosses process boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// The span itself (a child created from this context uses it as parent).
    pub span: SpanId,
    /// Trace flags; see [`FLAG_SAMPLED`].
    pub flags: u8,
}

impl SpanContext {
    /// Wire form for the `X-Gesmc-Trace` header:
    /// `{trace:032x}-{span:016x}-{flags:02x}`.
    pub fn to_header(&self) -> String {
        format!("{:032x}-{:016x}-{:02x}", self.trace.0, self.span.0, self.flags)
    }

    /// Parse the wire form; `None` on any malformed field.
    pub fn parse(header: &str) -> Option<SpanContext> {
        let header = header.trim();
        if header.len() != 32 + 1 + 16 + 1 + 2 {
            return None;
        }
        let (trace, rest) = header.split_at(32);
        let rest = rest.strip_prefix('-')?;
        let (span, rest) = rest.split_at(16);
        let flags = rest.strip_prefix('-')?;
        Some(SpanContext {
            trace: TraceId::parse(trace)?,
            span: SpanId::parse(span)?,
            flags: u8::from_str_radix(flags, 16).ok()?,
        })
    }

    /// Was the trace force-sampled at its origin?
    pub fn is_sampled(&self) -> bool {
        self.flags & FLAG_SAMPLED != 0
    }
}

/// Tail-sampling policy; see the [module docs](self).
#[derive(Debug, Clone, Copy)]
pub struct TracePolicy {
    /// Local-root durations at or above this are always kept.
    pub slow_threshold: Duration,
    /// Probability (0.0–1.0) of keeping an ordinary trace, decided by a
    /// pure hash of the trace id so all processes agree.
    pub keep_fraction: f64,
}

impl Default for TracePolicy {
    fn default() -> Self {
        TracePolicy { slow_threshold: Duration::from_millis(250), keep_fraction: 0.05 }
    }
}

/// One finished span, as stored and served.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Owning trace.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// Parent span id, `None` for the origin root.
    pub parent: Option<SpanId>,
    /// Static phase name.
    pub name: &'static str,
    /// Wall-clock start, microseconds since the Unix epoch.
    pub start_unix_us: u64,
    /// Duration in microseconds.
    pub duration_us: u64,
    /// Did the spanned operation fail?
    pub error: bool,
    /// Free-form `key=value` annotations.
    pub annotations: Vec<(&'static str, String)>,
}

/// One kept trace: the local fragment of its span tree.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Trace id shared by every span.
    pub trace: TraceId,
    /// Spans recorded in this process, local root last.
    pub spans: Vec<SpanRecord>,
}

/// The process-local span collector and flight recorder.
///
/// Production code uses the global [`tracer()`]; tests construct their own
/// so policies never race across the test harness's threads.
#[derive(Debug)]
pub struct Tracer {
    slow_ns: AtomicU64,
    /// Keep an ordinary trace when `mix64(trace id) < keep_threshold`.
    keep_threshold: AtomicU64,
    pending_cap: usize,
    kept_cap: usize,
    pending: [Mutex<VecDeque<SpanRecord>>; SHARDS],
    kept: Mutex<VecDeque<TraceRecord>>,
    service: Mutex<String>,
}

impl Tracer {
    /// A tracer with `policy` and default buffer bounds.
    pub fn new(policy: TracePolicy) -> Tracer {
        Tracer::with_capacity(policy, DEFAULT_PENDING_PER_SHARD, DEFAULT_KEPT_TRACES)
    }

    /// A tracer with explicit buffer bounds (tests).
    pub fn with_capacity(policy: TracePolicy, pending_per_shard: usize, kept: usize) -> Tracer {
        let tracer = Tracer {
            slow_ns: AtomicU64::new(0),
            keep_threshold: AtomicU64::new(0),
            pending_cap: pending_per_shard.max(1),
            kept_cap: kept.max(1),
            pending: std::array::from_fn(|_| Mutex::new(VecDeque::new())),
            kept: Mutex::new(VecDeque::new()),
            service: Mutex::new("gesmc".to_string()),
        };
        tracer.set_policy(policy);
        tracer
    }

    /// Replace the sampling policy (takes effect for the next tail decision).
    pub fn set_policy(&self, policy: TracePolicy) {
        let slow = u64::try_from(policy.slow_threshold.as_nanos()).unwrap_or(u64::MAX);
        self.slow_ns.store(slow, Ordering::Relaxed);
        let fraction = policy.keep_fraction.clamp(0.0, 1.0);
        let threshold = if fraction >= 1.0 {
            u64::MAX
        } else {
            // fraction in [0,1): scale into the u64 range.
            (fraction * (u64::MAX as f64)) as u64
        };
        self.keep_threshold.store(threshold, Ordering::Relaxed);
    }

    /// Set the service label stamped on every span this process serves
    /// (e.g. the advertised `host:port`, or `"cli"`).
    pub fn set_service(&self, service: impl Into<String>) {
        *self.service.lock().expect("tracer service poisoned") = service.into();
    }

    /// The current service label.
    pub fn service(&self) -> String {
        self.service.lock().expect("tracer service poisoned").clone()
    }

    /// Start a brand-new trace rooted in this process (no inbound context).
    pub fn start_root(&self, name: &'static str) -> Span<'_> {
        self.start_root_flagged(name, 0)
    }

    /// Start a new trace with explicit flags (e.g. [`FLAG_SAMPLED`] from an
    /// origin that wants the trace kept everywhere).
    pub fn start_root_flagged(&self, name: &'static str, flags: u8) -> Span<'_> {
        let trace = TraceId(((next_id() as u128) << 64) | next_id() as u128);
        self.span(trace, None, name, flags, true)
    }

    /// Continue an inbound trace: a local root whose parent lives in the
    /// sending process.
    pub fn continue_trace(&self, ctx: SpanContext, name: &'static str) -> Span<'_> {
        self.span(ctx.trace, Some(ctx.span), name, ctx.flags, true)
    }

    /// A non-root span attached to `ctx` (cross-thread propagation).
    pub fn span_from_context(&self, ctx: SpanContext, name: &'static str) -> Span<'_> {
        self.span(ctx.trace, Some(ctx.span), name, ctx.flags, false)
    }

    fn span(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &'static str,
        flags: u8,
        local_root: bool,
    ) -> Span<'_> {
        Span {
            tracer: self,
            trace,
            id: SpanId(next_id()),
            parent,
            name,
            flags,
            local_root,
            start_unix_us: now_unix_us(),
            started: Instant::now(),
            ended: None,
            error: false,
            annotations: Vec::new(),
        }
    }

    fn shard(&self, trace: TraceId) -> &Mutex<VecDeque<SpanRecord>> {
        &self.pending[(mix64(trace.0 as u64 ^ (trace.0 >> 64) as u64) as usize) % SHARDS]
    }

    /// Buffer one finished non-root span until its trace's tail decision.
    fn record(&self, record: SpanRecord) {
        let mut shard = self.shard(record.trace).lock().expect("trace shard poisoned");
        if shard.len() >= self.pending_cap {
            shard.pop_front();
        }
        shard.push_back(record);
    }

    /// The tail decision: gather the trace's pending spans, keep or drop.
    fn finish_local_root(&self, root: SpanRecord, flags: u8) {
        let mut spans: Vec<SpanRecord> = {
            let mut shard = self.shard(root.trace).lock().expect("trace shard poisoned");
            let mut gathered = Vec::new();
            shard.retain(|span| {
                if span.trace == root.trace && gathered.len() < MAX_SPANS_PER_TRACE {
                    gathered.push(span.clone());
                    false
                } else {
                    true
                }
            });
            gathered
        };
        let slow = root.duration_us.saturating_mul(1_000) >= self.slow_ns.load(Ordering::Relaxed);
        let errored = root.error || spans.iter().any(|span| span.error);
        let keep = flags & FLAG_SAMPLED != 0
            || errored
            || slow
            || keep_by_hash(root.trace, self.keep_threshold.load(Ordering::Relaxed));
        if !keep {
            return;
        }
        spans.push(root);
        let trace = spans[0].trace;
        let mut kept = self.kept.lock().expect("trace ring poisoned");
        if kept.len() >= self.kept_cap {
            kept.pop_front();
        }
        kept.push_back(TraceRecord { trace, spans });
    }

    /// Snapshot of every kept trace, oldest first (tests, debug dumps).
    pub fn kept_traces(&self) -> Vec<TraceRecord> {
        self.kept.lock().expect("trace ring poisoned").iter().cloned().collect()
    }

    /// The kept trace with `trace` id, if still in the ring.
    pub fn kept_trace(&self, trace: TraceId) -> Option<TraceRecord> {
        self.kept.lock().expect("trace ring poisoned").iter().find(|t| t.trace == trace).cloned()
    }

    /// JSON span tree for one kept trace: `{"trace_id","service","spans":[…]}`.
    pub fn trace_json(&self, trace: TraceId) -> Option<String> {
        let record = self.kept_trace(trace)?;
        let service = self.service();
        let mut out = String::with_capacity(256);
        out.push_str("{\"trace_id\":\"");
        out.push_str(&trace.to_hex());
        out.push_str("\",\"service\":\"");
        push_json_escaped(&mut out, &service);
        out.push_str("\",\"spans\":[");
        for (i, span) in record.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_span_json(&mut out, span, &service);
        }
        out.push_str("]}");
        Some(out)
    }

    /// JSON summaries of kept traces at least `min_ms` long, newest first:
    /// `{"traces":[{"trace_id","root","spans","start_unix_us","duration_us"}]}`.
    pub fn traces_json(&self, min_ms: u64) -> String {
        let kept = self.kept_traces();
        let mut out = String::from("{\"traces\":[");
        let mut first = true;
        for record in kept.iter().rev() {
            let start = record.spans.iter().map(|s| s.start_unix_us).min().unwrap_or(0);
            let end = record
                .spans
                .iter()
                .map(|s| s.start_unix_us.saturating_add(s.duration_us))
                .max()
                .unwrap_or(0);
            let duration_us = end.saturating_sub(start);
            if duration_us < min_ms.saturating_mul(1_000) {
                continue;
            }
            // The local root is recorded last by construction.
            let root = record.spans.last().map(|s| s.name).unwrap_or("");
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"trace_id\":\"");
            out.push_str(&record.trace.to_hex());
            out.push_str("\",\"root\":\"");
            push_json_escaped(&mut out, root);
            out.push_str("\",\"spans\":");
            out.push_str(&record.spans.len().to_string());
            out.push_str(",\"start_unix_us\":");
            out.push_str(&start.to_string());
            out.push_str(",\"duration_us\":");
            out.push_str(&duration_us.to_string());
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

fn push_span_json(out: &mut String, span: &SpanRecord, service: &str) {
    out.push_str("{\"span_id\":\"");
    out.push_str(&span.span.to_hex());
    out.push_str("\",\"parent_id\":");
    match span.parent {
        Some(parent) => {
            out.push('"');
            out.push_str(&parent.to_hex());
            out.push('"');
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"name\":\"");
    push_json_escaped(out, span.name);
    out.push_str("\",\"service\":\"");
    push_json_escaped(out, service);
    out.push_str("\",\"start_unix_us\":");
    out.push_str(&span.start_unix_us.to_string());
    out.push_str(",\"duration_us\":");
    out.push_str(&span.duration_us.to_string());
    out.push_str(",\"error\":");
    out.push_str(if span.error { "true" } else { "false" });
    out.push_str(",\"annotations\":{");
    for (i, (key, value)) in span.annotations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        push_json_escaped(out, key);
        out.push_str("\":\"");
        push_json_escaped(out, value);
        out.push('"');
    }
    out.push_str("}}");
}

/// An in-flight span; records itself into its [`Tracer`] on drop.
#[derive(Debug)]
pub struct Span<'a> {
    tracer: &'a Tracer,
    trace: TraceId,
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    flags: u8,
    local_root: bool,
    start_unix_us: u64,
    started: Instant,
    /// The duration a [`Phase`](crate::Phase) measured, which closes the
    /// span instead of a second clock read.
    ended: Option<Duration>,
    error: bool,
    annotations: Vec<(&'static str, String)>,
}

impl<'a> Span<'a> {
    /// The propagation context naming this span as parent.
    pub fn context(&self) -> SpanContext {
        SpanContext { trace: self.trace, span: self.id, flags: self.flags }
    }

    /// This span's trace id.
    pub fn trace_id(&self) -> TraceId {
        self.trace
    }

    /// This span's id.
    pub fn span_id(&self) -> SpanId {
        self.id
    }

    /// A child span in the same trace.
    pub fn child(&self, name: &'static str) -> Span<'a> {
        self.tracer.span(self.trace, Some(self.id), name, self.flags, false)
    }

    /// Attach a `key=value` annotation.
    pub fn annotate(&mut self, key: &'static str, value: impl Into<String>) {
        self.annotations.push((key, value.into()));
    }

    /// Mark the spanned operation as failed (forces the trace to be kept).
    pub fn set_error(&mut self) {
        self.error = true;
    }

    /// Backdate the span's start to `at`, an instant taken before the span
    /// could exist (a request's root starts when its connection was
    /// queued, before its trace header was read).
    pub fn started_at(mut self, at: Instant) -> Self {
        self.start_unix_us = self.unix_us_at(at);
        self.started = at;
        self
    }

    /// The instant the span started.
    pub(crate) fn started(&self) -> Instant {
        self.started
    }

    /// Close the span with a `duration` its caller measured.
    pub(crate) fn end(mut self, duration: Duration) {
        self.ended = Some(duration);
    }

    /// Close the span now and return its duration: one clock read for the
    /// span and for whatever else its caller records.
    pub fn finish(self) -> Duration {
        let duration = self.started.elapsed();
        self.end(duration);
        duration
    }

    /// Record an already-finished child retroactively: it started at
    /// `start` and ran for `duration`.  Used for phases that ended before
    /// this span existed (queue wait, request read).
    pub(crate) fn record_child(&self, name: &'static str, start: Instant, duration: Duration) {
        self.tracer.record(SpanRecord {
            trace: self.trace,
            span: SpanId(next_id()),
            parent: Some(self.id),
            name,
            start_unix_us: self.unix_us_at(start),
            duration_us: duration_us(duration),
            error: false,
            annotations: Vec::new(),
        });
    }

    /// Wall-clock microseconds at `at`, from this span's start (no clock
    /// read).
    fn unix_us_at(&self, at: Instant) -> u64 {
        match at.checked_duration_since(self.started) {
            Some(after) => self.start_unix_us.saturating_add(duration_us(after)),
            None => self.start_unix_us.saturating_sub(duration_us(self.started - at)),
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let record = SpanRecord {
            trace: self.trace,
            span: self.id,
            parent: self.parent,
            name: self.name,
            start_unix_us: self.start_unix_us,
            duration_us: duration_us(self.ended.unwrap_or_else(|| self.started.elapsed())),
            error: self.error,
            annotations: std::mem::take(&mut self.annotations),
        };
        if self.local_root {
            self.tracer.finish_local_root(record, self.flags);
        } else {
            self.tracer.record(record);
        }
    }
}

/// The process-global tracer behind [`start_root`], [`child_of_current`],
/// and the serve debug endpoints.
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer::new(TracePolicy::default()))
}

/// Start a new trace on the global tracer.
pub fn start_root(name: &'static str) -> Span<'static> {
    tracer().start_root(name)
}

thread_local! {
    static CURRENT: Cell<Option<SpanContext>> = const { Cell::new(None) };
}

/// Install `ctx` as the thread's current span context for the duration of
/// `f`, restoring the previous context afterwards (panic-safe).
pub fn with_context<T>(ctx: SpanContext, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<SpanContext>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|cell| cell.set(self.0));
        }
    }
    let _restore = Restore(CURRENT.with(|cell| cell.replace(Some(ctx))));
    f()
}

/// Install `ctx` when present, otherwise just run `f`.
pub fn with_context_opt<T>(ctx: Option<SpanContext>, f: impl FnOnce() -> T) -> T {
    match ctx {
        Some(ctx) => with_context(ctx, f),
        None => f(),
    }
}

/// The thread's current span context, if one is installed.
pub fn current_context() -> Option<SpanContext> {
    CURRENT.with(|cell| cell.get())
}

/// A child span of the thread's current context on the global tracer, or
/// `None` when the work was not traced (one thread-local read).
pub fn child_of_current(name: &'static str) -> Option<Span<'static>> {
    current_context().map(|ctx| tracer().span_from_context(ctx, name))
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn now_unix_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Keep decision for ordinary traces: a pure function of the trace id, so
/// every process in the cluster agrees.
fn keep_by_hash(trace: TraceId, threshold: u64) -> bool {
    mix64(trace.0 as u64 ^ (trace.0 >> 64) as u64) < threshold
}

/// splitmix64 finalizer (also the ring's mixer in `gesmc-cluster`).
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Mint a process-unique nonzero 64-bit id.
fn next_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    static BOOT: OnceLock<u64> = OnceLock::new();
    let boot = *BOOT.get_or_init(|| {
        let nanos =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0);
        nanos ^ ((std::process::id() as u64) << 32)
    });
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let id = mix64(boot.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    if id == 0 {
        1
    } else {
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drop_all() -> Tracer {
        // keep_fraction 0 and an unreachable slow threshold: only errors,
        // slow roots, or the sampled flag can keep a trace.
        Tracer::new(TracePolicy { slow_threshold: Duration::from_secs(3_600), keep_fraction: 0.0 })
    }

    #[test]
    fn header_roundtrip_and_rejection() {
        let ctx = SpanContext { trace: TraceId(0xDEAD_BEEF), span: SpanId(42), flags: 1 };
        let header = ctx.to_header();
        assert_eq!(header.len(), 52);
        assert_eq!(SpanContext::parse(&header), Some(ctx));
        assert_eq!(SpanContext::parse(""), None);
        assert_eq!(SpanContext::parse("zz"), None);
        assert_eq!(SpanContext::parse(&header[..50]), None);
        let mut bad = header.clone();
        bad.replace_range(0..1, "g");
        assert_eq!(SpanContext::parse(&bad), None);
    }

    #[test]
    fn ordinary_traces_are_dropped_at_keep_fraction_zero() {
        let tracer = drop_all();
        drop(tracer.start_root("request"));
        assert!(tracer.kept_traces().is_empty());
    }

    #[test]
    fn error_traces_are_always_kept() {
        let tracer = drop_all();
        let root = tracer.start_root("request");
        let mut child = root.child("compute");
        child.set_error();
        drop(child);
        let id = root.trace_id();
        drop(root);
        let kept = tracer.kept_trace(id).expect("error trace kept");
        assert_eq!(kept.spans.len(), 2);
        assert!(kept.spans.iter().any(|s| s.error));
    }

    #[test]
    fn slow_traces_are_always_kept() {
        let tracer = Tracer::new(TracePolicy {
            slow_threshold: Duration::ZERO, // everything is "slow"
            keep_fraction: 0.0,
        });
        let root = tracer.start_root("request");
        let id = root.trace_id();
        drop(root);
        assert!(tracer.kept_trace(id).is_some());
    }

    #[test]
    fn sampled_flag_forces_keep() {
        let tracer = drop_all();
        let root = tracer.start_root_flagged("request", FLAG_SAMPLED);
        let id = root.trace_id();
        assert!(root.context().is_sampled());
        drop(root);
        assert!(tracer.kept_trace(id).is_some());
    }

    #[test]
    fn a_finished_span_records_the_duration_it_returns() {
        let tracer = drop_all();
        let root = tracer.start_root_flagged("client_fetch", FLAG_SAMPLED);
        let id = root.trace_id();
        std::thread::sleep(Duration::from_millis(2));
        let elapsed = root.finish();
        assert!(elapsed >= Duration::from_millis(2), "{elapsed:?}");
        let spans = tracer.kept_trace(id).unwrap().spans;
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].duration_us, duration_us(elapsed));
    }

    #[test]
    fn keep_fraction_one_keeps_everything() {
        let tracer = Tracer::new(TracePolicy {
            slow_threshold: Duration::from_secs(3_600),
            keep_fraction: 1.0,
        });
        for _ in 0..10 {
            drop(tracer.start_root("request"));
        }
        assert_eq!(tracer.kept_traces().len(), 10);
    }

    #[test]
    fn probabilistic_decision_is_a_pure_function_of_the_trace_id() {
        // Two tracers with the same policy must agree on every trace id —
        // the property that keeps cross-process trees joinable.
        let threshold = u64::MAX / 2;
        for raw in 0..1_000u128 {
            let id = TraceId(raw.wrapping_mul(0x1234_5678_9ABC_DEF0_1122_3344_5566_7788));
            assert_eq!(keep_by_hash(id, threshold), keep_by_hash(id, threshold));
        }
        // And the hash actually discriminates: roughly half survive.
        let kept = (0..1_000u128)
            .filter(|raw| keep_by_hash(TraceId(raw.wrapping_mul(0x9E37_79B9_7F4A_7C15)), threshold))
            .count();
        assert!((300..700).contains(&kept), "kept {kept}/1000 at 50%");
    }

    #[test]
    fn span_tree_links_parents_and_serves_json() {
        let tracer = drop_all();
        tracer.set_service("node-a:8080");
        let mut root = tracer.start_root_flagged("request", FLAG_SAMPLED);
        root.annotate("path", "/v1/samples/x");
        let child = root.child("compute");
        let child_id = child.span_id();
        let root_id = root.span_id();
        drop(child);
        let id = root.trace_id();
        drop(root);

        let kept = tracer.kept_trace(id).unwrap();
        let child_rec = kept.spans.iter().find(|s| s.span == child_id).unwrap();
        assert_eq!(child_rec.parent, Some(root_id));
        let root_rec = kept.spans.iter().find(|s| s.span == root_id).unwrap();
        assert_eq!(root_rec.parent, None);
        assert_eq!(root_rec.annotations, vec![("path", "/v1/samples/x".to_string())]);

        let json = tracer.trace_json(id).unwrap();
        assert!(json.contains(&id.to_hex()), "{json}");
        assert!(json.contains("\"service\":\"node-a:8080\""), "{json}");
        assert!(json.contains("\"name\":\"compute\""), "{json}");
        assert!(json.contains(&format!("\"parent_id\":\"{}\"", root_id.to_hex())), "{json}");
        assert!(tracer.trace_json(TraceId(0)).is_none());

        let list = tracer.traces_json(0);
        assert!(list.contains("\"root\":\"request\""), "{list}");
        // A large min_ms filters this (sub-second) trace out.
        assert_eq!(tracer.traces_json(3_600_000), "{\"traces\":[]}");
    }

    #[test]
    fn minted_span_ids_are_unique_and_render_as_16_hex_chars() {
        let (a, b) = (SpanId::mint(), SpanId::mint());
        assert_ne!(a, b);
        assert_eq!(a.to_hex().len(), 16);
        assert!(a.to_hex().chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(SpanId::parse(&a.to_hex()), Some(a));
    }

    #[test]
    fn kept_ring_is_bounded_and_evicts_oldest() {
        let tracer = Tracer::with_capacity(
            TracePolicy { slow_threshold: Duration::ZERO, keep_fraction: 1.0 },
            16,
            3,
        );
        let ids: Vec<TraceId> = (0..5)
            .map(|_| {
                let root = tracer.start_root("request");
                let id = root.trace_id();
                drop(root);
                id
            })
            .collect();
        assert_eq!(tracer.kept_traces().len(), 3);
        assert!(tracer.kept_trace(ids[0]).is_none(), "oldest evicted");
        assert!(tracer.kept_trace(ids[4]).is_some());
    }

    #[test]
    fn cross_thread_context_attaches_children_to_the_same_trace() {
        // Uses the global tracer (thread-local helpers are global-only); the
        // sampled flag pins the trace against the default 5% policy.
        let root = tracer().start_root_flagged("request", FLAG_SAMPLED);
        let ctx = root.context();
        let handle = std::thread::spawn(move || {
            with_context(ctx, || {
                assert_eq!(current_context(), Some(ctx));
                let mut span = child_of_current("job").expect("context installed");
                span.annotate("worker", "1");
            });
            assert_eq!(current_context(), None);
        });
        handle.join().unwrap();
        assert!(child_of_current("nope").is_none());
        let id = root.trace_id();
        drop(root);
        let kept = tracer().kept_trace(id).expect("sampled trace kept");
        assert!(kept.spans.iter().any(|s| s.name == "job"));
    }
}
