//! The server runtime: listener, HTTP worker threads, shared state, and the
//! graceful-shutdown choreography.
//!
//! ## Data flow
//!
//! ```text
//! accept loop ── bounded conn queue ── HTTP workers ── router
//!                                                        │
//!                     warm cache ◄── hit ────────────────┤
//!                         ▲                              │ miss / job
//!                         └── insert ── ServicePool ◄────┘
//!                                       (bounded admission, 429 beyond)
//! ```
//!
//! The acceptor waits for connections in `poll(2)` on the listener, so a
//! new connection wakes it at once; the wait times out every 5 ms to
//! re-check the stop flag (off Linux the acceptor sleeps those 5 ms
//! instead).  Each response leaves in one vectored write
//! ([`Response::write_to`]).
//!
//! Shutdown (via [`Server::shutdown`] or `POST /v1/shutdown`) runs in
//! strict order: stop accepting connections, drain the connection queue and
//! join the HTTP workers (in-flight requests finish and their responses are
//! written), then drain the engine pool (in-flight jobs finish, new
//! submissions were already rejected) and join its workers.  Nothing is
//! aborted mid-request and no sample is lost.

use crate::cache::{CacheKey, CachedSample, SampleCache};
use crate::cluster::ClusterState;
use crate::fsio::StdFs;
use crate::http::{read_request, Response};
use crate::jobstore::JobStore;
use crate::metrics::Metrics;
use crate::persist::{boot_replay, Persistence};
use crate::router::route;
use crate::ServeConfig;
use gesmc_engine::{default_registry, ChainRegistry, ServicePool};
use gesmc_obs::{Histogram, Phase, Span, SpanId};
use std::collections::{HashMap, VecDeque};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-connection socket timeout: a stalled peer cannot pin a worker.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);
/// Bound of the parsed-connection queue, per HTTP worker.
const CONN_QUEUE_PER_WORKER: usize = 32;
/// Longest the idle acceptor waits for a connection before it re-checks the
/// stop flag: the bound on how long shutdown waits for the acceptor.
const ACCEPT_WAIT: Duration = Duration::from_millis(5);

/// Why a cold `/v1/sample` computation did not produce a sample.  Shared
/// with coalesced waiters, hence `Clone`.
#[derive(Debug, Clone)]
pub(crate) enum ColdError {
    /// The admission queue was full; shed with 429.
    Saturated,
    /// The server is shutting down; 503.
    ShuttingDown,
    /// The job failed; 500 with the engine's message.
    Failed(String),
}

impl ColdError {
    pub(crate) fn into_response(self) -> Response {
        match self {
            ColdError::Saturated => Response::error(429, "admission queue is full; retry later")
                .with_header("Retry-After", "1"),
            ColdError::ShuttingDown => Response::error(503, "server is shutting down"),
            ColdError::Failed(msg) => Response::error(500, &format!("sampling job failed: {msg}")),
        }
    }
}

/// The slot coalesced cold requests rendezvous on: the leader publishes the
/// outcome, followers block on it instead of submitting duplicate jobs.
pub(crate) struct InflightSlot {
    result: Mutex<Option<Result<CachedSample, ColdError>>>,
    ready: Condvar,
}

impl InflightSlot {
    fn new() -> Self {
        Self { result: Mutex::new(None), ready: Condvar::new() }
    }

    pub(crate) fn wait(&self) -> Result<CachedSample, ColdError> {
        let mut result = self.result.lock().expect("inflight mutex poisoned");
        while result.is_none() {
            result = self.ready.wait(result).expect("inflight mutex poisoned");
        }
        result.clone().expect("checked above")
    }

    fn publish(&self, outcome: Result<CachedSample, ColdError>) {
        *self.result.lock().expect("inflight mutex poisoned") = Some(outcome);
        self.ready.notify_all();
    }
}

/// Leader/follower outcome of claiming a cold key.
pub(crate) enum Lease {
    /// This request computes the sample and publishes it.
    Leader(Arc<InflightSlot>),
    /// Another request is already computing it; wait on the slot.
    Follower(Arc<InflightSlot>),
}

/// RAII companion of a leader lease: if the leader unwinds before
/// publishing (a panic anywhere in the compute path), the drop handler
/// publishes a failure and retires the slot, so followers are never
/// stranded in [`InflightSlot::wait`].
pub(crate) struct LeaseGuard<'a> {
    state: &'a ServerState,
    key: &'a CacheKey,
    slot: Arc<InflightSlot>,
    released: bool,
}

impl<'a> LeaseGuard<'a> {
    pub(crate) fn new(state: &'a ServerState, key: &'a CacheKey, slot: Arc<InflightSlot>) -> Self {
        Self { state, key, slot, released: false }
    }

    /// Publish the leader's outcome and retire the slot.
    pub(crate) fn release(mut self, outcome: Result<CachedSample, ColdError>) {
        self.state.release_inflight(self.key, &self.slot, outcome);
        self.released = true;
    }
}

impl Drop for LeaseGuard<'_> {
    fn drop(&mut self) {
        if !self.released {
            self.state.release_inflight(
                self.key,
                &self.slot,
                Err(ColdError::Failed("sample computation panicked".to_string())),
            );
        }
    }
}

/// Cached handles of the `gesmc_request_phase_duration_seconds` family, one
/// series per pipeline phase, and of the coalesced-wait histogram, so the
/// per-request hot path never takes the obs registry lock.
pub(crate) struct PhaseHists {
    pub(crate) queue_wait: Arc<Histogram>,
    pub(crate) read: Arc<Histogram>,
    pub(crate) handle: Arc<Histogram>,
    pub(crate) write: Arc<Histogram>,
    pub(crate) compute: Arc<Histogram>,
    pub(crate) coalesced_wait: Arc<Histogram>,
}

impl PhaseHists {
    fn new() -> Self {
        const HELP: &str = "Wall time of each HTTP request pipeline phase.";
        let phase = |name| {
            gesmc_obs::histogram_with(
                "gesmc_request_phase_duration_seconds",
                HELP,
                &[("phase", name)],
            )
        };
        Self {
            queue_wait: phase("queue_wait"),
            read: phase("read"),
            handle: phase("handle"),
            write: phase("write"),
            compute: phase("compute"),
            coalesced_wait: gesmc_obs::histogram(
                "gesmc_coalesce_wait_duration_seconds",
                "Time coalesced followers spent waiting on the leader's sample.",
            ),
        }
    }
}

/// Everything the handlers share.
pub(crate) struct ServerState {
    pub(crate) config: ServeConfig,
    pub(crate) registry: &'static ChainRegistry,
    pub(crate) pool: ServicePool,
    pub(crate) cache: SampleCache,
    pub(crate) jobs: JobStore,
    pub(crate) metrics: Metrics,
    /// Per-phase request latency histograms (obs registry handles).
    pub(crate) phases: PhaseHists,
    /// The durability layer; `Some` only when the config sets a data dir.
    pub(crate) persist: Option<Arc<Persistence>>,
    /// Ring, peer health, and forwarding; `Some` only with `--peers`.
    pub(crate) cluster: Option<ClusterState>,
    inflight: Mutex<HashMap<CacheKey, Arc<InflightSlot>>>,
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
    stopping: AtomicBool,
    /// Accepted connections with their enqueue instants (the queue-wait
    /// phase measures the pop-side delta).
    conns: Mutex<VecDeque<(TcpStream, Instant)>>,
    conn_available: Condvar,
}

impl ServerState {
    /// Claim the in-flight slot for `key`: the first claimant leads, later
    /// ones follow.
    pub(crate) fn lease_inflight(&self, key: &CacheKey) -> Lease {
        let mut inflight = self.inflight.lock().expect("inflight map mutex poisoned");
        match inflight.get(key) {
            Some(slot) => Lease::Follower(Arc::clone(slot)),
            None => {
                let slot = Arc::new(InflightSlot::new());
                inflight.insert(key.clone(), Arc::clone(&slot));
                Lease::Leader(slot)
            }
        }
    }

    /// Publish the leader's outcome and retire the slot.
    pub(crate) fn release_inflight(
        &self,
        key: &CacheKey,
        slot: &InflightSlot,
        outcome: Result<CachedSample, ColdError>,
    ) {
        self.inflight.lock().expect("inflight map mutex poisoned").remove(key);
        slot.publish(outcome);
    }

    /// Flag a graceful shutdown (idempotent); [`Server::wait`] observes it.
    pub(crate) fn request_shutdown(&self) {
        *self.shutdown_requested.lock().expect("shutdown mutex poisoned") = true;
        self.shutdown_cv.notify_all();
    }
}

/// The running server: a listener plus its worker threads.
///
/// Constructed by [`Server::bind`]; stopped by [`Server::shutdown`] (or by a
/// `POST /v1/shutdown` when enabled, observed through [`Server::wait`]).
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    acceptor: Mutex<Option<JoinHandle<()>>>,
    http_workers: Mutex<Vec<JoinHandle<()>>>,
    torn_down: Mutex<bool>,
}

impl Server {
    /// Bind `config.addr`, spawn the acceptor and HTTP workers, and start
    /// the engine pool.  Returns as soon as the socket listens; use
    /// [`Server::local_addr`] for the resolved address (ephemeral ports).
    pub fn bind(config: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        // Non-blocking accept and a bounded readiness wait: the acceptor
        // re-checks the stop flag between attempts, so shutdown never
        // depends on being able to connect to our own address to unblock a
        // blocking accept().
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let persist = match &config.data_dir {
            Some(dir) => {
                let io = config.persist_io.clone().unwrap_or_else(|| Arc::new(StdFs));
                Some(Arc::new(Persistence::open(dir.clone(), io)?))
            }
            None => None,
        };

        let cluster = match &config.cluster {
            Some(cluster_config) => Some(ClusterState::new(cluster_config).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("cluster: {e}"))
            })?),
            None => None,
        };

        // Trace spans carry a per-process service label so joined
        // cross-process trees attribute each span to its node.
        let service = match &cluster {
            Some(cluster) => cluster.advertise().to_string(),
            None => addr.to_string(),
        };
        gesmc_obs::trace::tracer().set_service(service);

        let state = Arc::new(ServerState {
            pool: ServicePool::start(config.engine_workers, config.max_pending),
            cache: SampleCache::new(config.cache_entries),
            jobs: JobStore::new(config.max_jobs),
            metrics: Metrics::new(),
            phases: PhaseHists::new(),
            registry: default_registry(),
            persist,
            cluster,
            inflight: Mutex::new(HashMap::new()),
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            stopping: AtomicBool::new(false),
            conns: Mutex::new(VecDeque::new()),
            conn_available: Condvar::new(),
            config,
        });

        // Recover before the socket serves traffic: restore finished job
        // records, resume interrupted jobs, compact the journal.
        boot_replay(&state);

        let http_workers = (0..state.config.http_workers.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || http_worker(&state))
            })
            .collect();

        let acceptor = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || accept_loop(&listener, &state))
        };

        Ok(Self {
            state,
            addr,
            acceptor: Mutex::new(Some(acceptor)),
            http_workers: Mutex::new(http_workers),
            torn_down: Mutex::new(false),
        })
    }

    /// The bound socket address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until a shutdown is requested (by [`Server::shutdown`] or a
    /// `POST /v1/shutdown`), then tear the server down gracefully.
    /// Idempotent across threads; every caller returns once teardown
    /// finished.
    pub fn wait(&self) {
        {
            let mut requested =
                self.state.shutdown_requested.lock().expect("shutdown mutex poisoned");
            while !*requested {
                requested =
                    self.state.shutdown_cv.wait(requested).expect("shutdown mutex poisoned");
            }
        }
        self.teardown();
    }

    /// Request a graceful shutdown and block until it completed: no new
    /// connections, in-flight requests answered, accepted jobs drained,
    /// every thread joined.
    pub fn shutdown(&self) {
        self.state.request_shutdown();
        self.teardown();
    }

    fn teardown(&self) {
        let mut done = self.torn_down.lock().expect("teardown mutex poisoned");
        if *done {
            return;
        }
        self.state.stopping.store(true, Ordering::Release);
        // The acceptor's readiness wait times out every ACCEPT_WAIT, so it
        // observes the flag within one interval — no self-connect needed.
        if let Some(acceptor) = self.acceptor.lock().expect("acceptor mutex poisoned").take() {
            let _ = acceptor.join();
        }
        // HTTP workers finish queued connections, then exit; jobs their
        // requests wait on still execute because the pool drains last.
        // Notify under the queue mutex: a worker between its stop-flag check
        // and its wait holds that mutex, so the wakeup cannot be lost.
        {
            let _conns = self.state.conns.lock().expect("conn queue mutex poisoned");
            self.state.conn_available.notify_all();
        }
        let workers =
            std::mem::take(&mut *self.http_workers.lock().expect("worker handles mutex poisoned"));
        for worker in workers {
            let _ = worker.join();
        }
        // Draining the pool ends every job, and with it every completion
        // that journals a `finished` event.
        self.state.pool.shutdown();
        *done = true;
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.state.request_shutdown();
        self.teardown();
    }
}

/// Wait for a pending connection on `listener` for at most `timeout`;
/// `true` when one is ready to accept.
///
/// On Linux this is `poll(2)` on the listener fd, so a new connection wakes
/// the caller at once.  It is the crate's one `unsafe` item (see the crate
/// docs for why).
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
fn wait_for_connection(listener: &TcpListener, timeout: Duration) -> bool {
    use std::ffi::{c_int, c_short, c_ulong};
    use std::os::fd::AsRawFd;

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    const POLLIN: c_short = 0x1;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    let mut pollfd = PollFd { fd: listener.as_raw_fd(), events: POLLIN, revents: 0 };
    let millis = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
    // SAFETY: `pollfd` is one live, `#[repr(C)]` `struct pollfd` owned by
    // this frame and `nfds` is 1, so poll reads and writes only that struct,
    // and only until it returns.  The fd belongs to `listener`, which the
    // borrow keeps open for the whole call.
    match unsafe { poll(&mut pollfd, 1, millis) } {
        ready if ready > 0 => true,
        0 => false,
        _ => {
            // poll failed (EINTR, ENOMEM): wait out the interval so the
            // caller never spins.
            std::thread::sleep(timeout);
            false
        }
    }
}

/// Off Linux there is no readiness wait: sleep `timeout` and let the caller
/// retry its non-blocking accept.
#[cfg(not(target_os = "linux"))]
fn wait_for_connection(_listener: &TcpListener, timeout: Duration) -> bool {
    std::thread::sleep(timeout);
    false
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    let conn_bound = state.config.http_workers.max(1) * CONN_QUEUE_PER_WORKER;
    loop {
        if state.stopping.load(Ordering::Acquire) {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => {
                // Accepted sockets inherit the listener's non-blocking flag
                // on some platforms; the workers want blocking reads.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                stream
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Idle: wait for the next connection, but return to the
                // stop-flag check at least every ACCEPT_WAIT.
                wait_for_connection(listener, ACCEPT_WAIT);
                continue;
            }
            Err(_) => {
                // Persistent accept errors (e.g. fd exhaustion) must not
                // busy-spin a core; back off briefly and retry.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if state.stopping.load(Ordering::Acquire) {
            return;
        }
        let enqueued = {
            let mut conns = state.conns.lock().expect("conn queue mutex poisoned");
            if conns.len() >= conn_bound {
                Err(stream)
            } else {
                conns.push_back((stream, Instant::now()));
                Ok(())
            }
        };
        match enqueued {
            Ok(()) => state.conn_available.notify_one(),
            Err(mut stream) => {
                // Shed at the connection level too: answer 429 inline
                // without occupying a worker.
                state.metrics.count_response(429);
                let request_id = SpanId::mint().to_hex();
                gesmc_obs::warn!(
                    target: "gesmc_serve::http",
                    id: request_id,
                    "connection queue full ({conn_bound}); shedding with 429"
                );
                let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                let _ = Response::error(429, "connection queue is full; retry later")
                    .with_header("Retry-After", "1")
                    .with_header("X-Gesmc-Request-Id", request_id)
                    .write_to(&mut stream);
            }
        }
    }
}

fn http_worker(state: &Arc<ServerState>) {
    loop {
        let stream = {
            let mut conns = state.conns.lock().expect("conn queue mutex poisoned");
            loop {
                if let Some(stream) = conns.pop_front() {
                    break Some(stream);
                }
                if state.stopping.load(Ordering::Acquire) {
                    break None;
                }
                conns = state.conn_available.wait(conns).expect("conn queue mutex poisoned");
            }
        };
        let Some((mut stream, queued_at)) = stream else {
            state.conn_available.notify_all();
            return;
        };
        // One instant ends the queue wait and starts the read; both phases
        // are recorded once the root span exists (or without one).
        let popped = Instant::now();
        let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
        let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
        let Ok(read_half) = stream.try_clone() else {
            Phase::record(&state.phases.queue_wait, None, "queue_wait", queued_at, popped);
            continue;
        };
        let mut reader = BufReader::new(read_half);
        let parsed = read_request(&mut reader, state.config.max_body_bytes);
        let read_end = Instant::now();
        // Every parsed request gets a root span, started when its connection
        // was queued, so its duration (which the tail sampler's slow rule
        // reads) covers the queue wait and the read.  An inbound
        // `X-Gesmc-Trace` joins the sender's trace instead.
        let mut span = parsed.as_ref().ok().map(|request| {
            let tracer = gesmc_obs::trace::tracer();
            let mut span =
                match request.header("x-gesmc-trace").and_then(gesmc_obs::SpanContext::parse) {
                    Some(ctx) => tracer.continue_trace(ctx, "request"),
                    None => tracer.start_root("request"),
                }
                .started_at(queued_at);
            span.annotate("method", request.method.as_str());
            span.annotate("path", request.path.clone());
            span
        });
        Phase::record(&state.phases.queue_wait, span.as_ref(), "queue_wait", queued_at, popped);
        Phase::record(&state.phases.read, span.as_ref(), "read", popped, read_end);
        // The request id is the root span's id; a request without a span
        // gets a fresh one.
        let request_id = span.as_ref().map_or_else(SpanId::mint, Span::span_id).to_hex();
        let (response, request_line) = match parsed {
            Ok(request) => {
                let root = span.as_mut().expect("a parsed request has a root span");
                state.metrics.count_request();
                let line = format!("{} {}", request.method.as_str(), request.path);
                // A panicking handler must cost one response, not a worker
                // thread: answer 500 and keep serving.  (LeaseGuard already
                // unstranded any followers of a panicked leader.)
                let handled = {
                    let _handle = Phase::start(&state.phases.handle);
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        route(state, &request, &request_id, root)
                    }))
                };
                let response = match handled {
                    Ok(response) => response,
                    Err(_) => {
                        root.set_error();
                        Response::error(500, "internal error: request handler panicked")
                    }
                };
                (response, line)
            }
            Err(error) => match error.into_response() {
                Some(response) => (response, "<unparsed request>".to_string()),
                None => continue, // peer went away; nothing to answer
            },
        };
        state.metrics.count_response(response.status);
        let mut response = response.with_header("X-Gesmc-Request-Id", request_id.as_str());
        if let Some(span) = &span {
            response = response.with_header("X-Gesmc-Trace-Id", span.trace_id().to_hex().as_str());
        }
        {
            let _write =
                Phase::traced(&state.phases.write, span.as_ref().map(|root| root.child("write")));
            let _ = response.write_to(&mut stream);
        }
        // Close the connection before the bookkeeping below, so a client
        // reading to EOF does not wait for the tail decision and the log.
        drop(reader);
        drop(stream);
        if let Some(span) = &mut span {
            if response.status >= 500 {
                span.set_error();
            }
            span.annotate("status", response.status.to_string());
        }
        drop(span); // local root: the tail decision runs here
        gesmc_obs::info!(
            target: "gesmc_serve::http",
            id: request_id,
            "{request_line} -> {} ({} B in {:.1} ms)",
            response.status,
            response.body().len(),
            popped.elapsed().as_secs_f64() * 1e3
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesmc_cluster::wire;
    use std::io::{Read, Write};

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let response = wire::request(&addr.to_string(), "GET", path, &[], b"").unwrap();
        (response.status, String::from_utf8(response.body).unwrap())
    }

    fn test_config() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            http_workers: 2,
            engine_workers: 1,
            allow_shutdown: true,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn healthz_and_graceful_shutdown() {
        let server = Server::bind(test_config()).unwrap();
        let addr = server.local_addr();
        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(body, "ok\n");
        // An idle acceptor must still notice the stop flag: its connection
        // wait has to time out.
        std::thread::sleep(Duration::from_millis(50));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let stopper = std::thread::spawn(move || {
            server.shutdown();
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(1)).is_ok(),
            "shutdown of an idle server must return within 1 s"
        );
        stopper.join().unwrap();
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
            "socket must be closed after shutdown"
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn connection_wait_wakes_on_a_pending_connection_and_times_out_when_idle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let timeout = Duration::from_millis(20);
        let idle_start = Instant::now();
        assert!(!wait_for_connection(&listener, timeout), "nothing is pending yet");
        assert!(idle_start.elapsed() >= timeout, "the idle wait returned early");

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let start = Instant::now();
        assert!(wait_for_connection(&listener, Duration::from_secs(10)));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "a pending connection must wake the wait"
        );
        assert!(listener.accept().is_ok());
    }

    #[test]
    fn unknown_routes_and_bad_requests_get_clean_errors() {
        let server = Server::bind(test_config()).unwrap();
        let addr = server.local_addr();
        assert_eq!(get(addr, "/nope").0, 404);
        // A malformed request line gets a 400, not a dropped connection.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "garbage\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
        server.shutdown();
    }

    #[test]
    fn a_request_slow_only_in_the_queue_is_kept_with_a_root_over_its_queue_wait_and_read() {
        // One HTTP worker, held by a first connection whose request line
        // arrives 300 ms late: the second connection waits in the queue
        // longer than the tail sampler's default 250 ms slow threshold, then
        // is answered at once.
        let server = Server::bind(ServeConfig { http_workers: 1, ..test_config() }).unwrap();
        let addr = server.local_addr();
        let mut blocker = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let queued = std::thread::spawn(move || {
            wire::request(&addr.to_string(), "GET", "/healthz", &[], b"").unwrap()
        });
        std::thread::sleep(Duration::from_millis(300));
        write!(blocker, "GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        blocker.read_to_string(&mut String::new()).unwrap();
        let response = queued.join().unwrap();
        let trace_id =
            response.header("x-gesmc-trace-id").expect("a parsed request carries its trace id");

        // The trace is committed when the root span drops, after the
        // response was sent: wait for it, boundedly.
        let deadline = Instant::now() + Duration::from_secs(10);
        let (status, body) = loop {
            let (status, body) = get(addr, &format!("/v1/debug/trace/{trace_id}"));
            if status == 200 || Instant::now() > deadline {
                break (status, body);
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        assert_eq!(status, 200, "the slow trace must be kept: {body}");
        let trace: serde_json::Value = serde_json::from_str(&body).unwrap();
        let span = |name: &str| {
            let spans = trace.get("spans").and_then(|v| v.as_array()).unwrap();
            let span = spans.iter().find(|s| s.get("name").unwrap().as_str() == Some(name));
            let field = |key: &str| span.unwrap().get(key).and_then(|v| v.as_u64()).unwrap();
            (field("start_unix_us"), field("start_unix_us") + field("duration_us"))
        };
        let (root, queue_wait, read) = (span("request"), span("queue_wait"), span("read"));
        assert!(queue_wait.1 - queue_wait.0 >= 250_000, "queue wait {queue_wait:?}");
        assert!(root.0 <= queue_wait.0 && read.1 <= root.1, "{root:?} {queue_wait:?} {read:?}");
        server.shutdown();
    }

    #[test]
    fn wait_returns_after_remote_shutdown_request() {
        let server = Arc::new(Server::bind(test_config()).unwrap());
        let addr = server.local_addr();
        let waiter = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.wait())
        };
        let response = wire::request(&addr.to_string(), "POST", "/v1/shutdown", &[], b"").unwrap();
        assert_eq!(response.status, 202, "{response:?}");
        waiter.join().unwrap();
    }
}
