//! The resident disambiguation server: accept loop, admission control,
//! request handling, and the drain-then-exit shutdown state machine.
//!
//! # Architecture
//!
//! One blocking acceptor thread plus one thread per connection, capped by
//! [`ServerConfig::max_connections`]. Control endpoints (`/healthz`,
//! `/metrics`, `/shutdown`) are answered immediately on the connection
//! thread — they can never be starved by queued work. `/disambiguate`
//! passes through an **admission semaphore**: [`ServerConfig::workers`]
//! permits bound concurrent engine work, and at most
//! [`ServerConfig::queue`] further requests may wait for a permit. A
//! request that finds the wait queue full is turned away with `429` and a
//! `Retry-After` header — backpressure is explicit, not an unbounded
//! queue hiding latency.
//!
//! Each admitted request builds a throwaway [`BatchEngine`] for its
//! per-request configuration (radius/measure/process query parameters).
//! Engines are cheap; the warm state — the sense-pair similarity cache
//! and context-vector table — lives in one [`SharedCache`] injected into
//! every engine, so cross-request (and cross-configuration, keyed by
//! similarity-weight fingerprint) reuse is what makes the resident
//! service faster than cold batch starts.
//!
//! # Shutdown state machine
//!
//! ```text
//! Running --(POST /shutdown | SIGINT | handle.shutdown())--> Draining --> Stopped
//! ```
//!
//! Draining means: the acceptor wakes (via a loopback self-connect) and
//! stops accepting; idle keep-alive connections close within one read
//! quantum (the `idle_abort` hook of [`http::Conn::read_request`]);
//! requests already read or waiting on admission run to completion; new
//! `/disambiguate` requests on surviving connections get `503` +
//! `Retry-After`. When the last connection thread exits, the server
//! flushes a final metrics snapshot and [`Server::run`] returns.
//!
//! # Memory watermarks
//!
//! The shared cache is the only state that grows with traffic, so memory
//! pressure is governed by watermarking its accounted bytes
//! ([`SharedCache::bytes`]):
//!
//! ```text
//!                 bytes >= soft: trim cold segments, degraded = true
//! Normal <-----> Degraded        (degraded clears at bytes <= soft/2)
//!                 bytes >= hard: shed /disambiguate with 503 + Retry-After,
//!                                trim until below the soft watermark
//! ```
//!
//! The soft watermark degrades quality-of-service (colder cache → slower
//! requests) but keeps serving; `/healthz` reports `degraded: true` so
//! load balancers can steer traffic away. The hard watermark sheds the
//! offending admission *and* trims, so pressure clears by the very next
//! request — shedding is a transient, not a death spiral. Both default
//! to off (`0`); they are enforced at admission time on the same path as
//! the queue-full and draining rejections.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use runtime::trace::json_string;
use runtime::{BatchEngine, CacheBudget, ResourceLimits, SharedCache, XsdfError};
use semnet::SemanticNetwork;
use xsdf::{DisambiguationProcess, ThresholdPolicy, VectorSimilarity, XsdfConfig};

use crate::http::{self, Conn, HttpError, ReadOpts, Request, Response};
use crate::report;
use crate::stats::ServerStats;

/// `Retry-After` seconds suggested on 429/503 rejections.
const RETRY_AFTER_SECS: u32 = 1;

/// Server lifecycle states (stored in an atomic).
const RUNNING: usize = 0;
const DRAINING: usize = 1;
const STOPPED: usize = 2;

/// Everything tunable about a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8737` (port 0 picks a free port).
    pub addr: String,
    /// Concurrent engine permits. `0` means one per available core.
    pub workers: usize,
    /// Bounded wait queue: requests allowed to wait for a permit before
    /// new ones are rejected with 429. `0` means `4 × workers`.
    pub queue: usize,
    /// Connection cap; further connections get an immediate 503.
    pub max_connections: usize,
    /// Baseline pipeline configuration; per-request query parameters
    /// override individual fields.
    pub base: XsdfConfig,
    /// Per-request resource limits (enforced by the engine). `max_bytes`
    /// is also the HTTP body ceiling: a request declaring a larger
    /// `Content-Length` is refused with 413 before its body is read.
    pub limits: ResourceLimits,
    /// Per-request deadline (maps to a `deadline` error kind / 504).
    pub deadline: Option<Duration>,
    /// Stream a slow-document report to stderr for requests at or over
    /// this engine-time threshold (the `--slow-ms` of batch mode).
    pub slow: Option<Duration>,
    /// Keep-alive idle timeout before a quiet connection is closed.
    pub idle_timeout: Duration,
    /// Read deadline for a started request.
    pub read_timeout: Duration,
    /// Poll quantum of the connection read loop: the upper bound on how
    /// long an idle connection takes to notice a drain.
    pub quantum: Duration,
    /// Capacity budget for the shared similarity/vector cache
    /// (`--cache-entries` / `--cache-bytes`; default unbounded).
    pub cache_budget: CacheBudget,
    /// Soft memory watermark in cache bytes: at or above it the server
    /// trims cold cache segments and reports `degraded: true` in
    /// `/healthz` (cleared once bytes fall to half the watermark).
    /// `0` = off.
    pub mem_soft: u64,
    /// Hard memory watermark in cache bytes: at or above it new
    /// `/disambiguate` admissions are shed with 503 + `Retry-After`
    /// while the cache is trimmed back below the soft watermark.
    /// `0` = off.
    pub mem_hard: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8737".to_string(),
            workers: 0,
            queue: 0,
            max_connections: 64,
            base: XsdfConfig::default(),
            limits: ResourceLimits::unlimited(),
            deadline: None,
            slow: None,
            idle_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_secs(10),
            quantum: Duration::from_millis(100),
            cache_budget: CacheBudget::unbounded(),
            mem_soft: 0,
            mem_hard: 0,
        }
    }
}

/// Resolves a `--threads`-style count: `0` means one per available core.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    }
}

/// The admission semaphore: `permits` concurrent workers plus a bounded
/// wait queue. Rejection is immediate (no partial wait) so backpressure
/// reaches clients while the information is still current.
struct Admission {
    permits: usize,
    queue_cap: usize,
    state: Mutex<AdmissionState>,
    available: Condvar,
}

struct AdmissionState {
    available: usize,
    waiting: usize,
}

impl Admission {
    fn new(permits: usize, queue_cap: usize) -> Self {
        Self {
            permits,
            queue_cap,
            state: Mutex::new(AdmissionState {
                available: permits,
                waiting: 0,
            }),
            available: Condvar::new(),
        }
    }

    /// Takes a permit, waiting in the bounded queue if necessary.
    /// `false` means the queue was full and the request must be rejected.
    fn acquire(&self) -> bool {
        let mut st = self.state.lock().unwrap();
        if st.available > 0 {
            st.available -= 1;
            return true;
        }
        if st.waiting >= self.queue_cap {
            return false;
        }
        st.waiting += 1;
        while st.available == 0 {
            st = self.available.wait(st).unwrap();
        }
        st.waiting -= 1;
        st.available -= 1;
        true
    }

    fn release(&self) {
        let mut st = self.state.lock().unwrap();
        st.available += 1;
        drop(st);
        self.available.notify_one();
    }

    /// Requests currently waiting for a permit.
    fn depth(&self) -> usize {
        self.state.lock().unwrap().waiting
    }

    /// Permits currently held (busy workers).
    fn busy(&self) -> usize {
        self.permits - self.state.lock().unwrap().available
    }
}

/// A remote control for a bound server: initiate shutdown from another
/// thread (a signal watcher, a test) without touching the socket the
/// server owns.
#[derive(Clone, Copy)]
pub struct ServerHandle<'a> {
    state: &'a AtomicUsize,
    addr: SocketAddr,
}

impl ServerHandle<'_> {
    /// Begins the drain (idempotent). Wakes the acceptor so
    /// [`Server::run`] can return once in-flight work completes.
    pub fn shutdown(&self) {
        initiate_drain(self.state, self.addr);
    }

    /// Whether the server has left the running state.
    pub fn is_draining(&self) -> bool {
        self.state.load(Ordering::SeqCst) != RUNNING
    }

    /// Whether [`Server::run`] has returned.
    pub fn is_stopped(&self) -> bool {
        self.state.load(Ordering::SeqCst) == STOPPED
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// Flips `Running → Draining` and pokes the acceptor awake with a
/// throwaway loopback connection.
fn initiate_drain(state: &AtomicUsize, addr: SocketAddr) {
    if state
        .compare_exchange(RUNNING, DRAINING, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
    {
        // Best-effort: if the connect fails the acceptor is already awake
        // (or gone).
        let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
    }
}

/// What a finished server reports back to the CLI.
#[derive(Debug)]
pub struct ServerSummary {
    /// The final metrics snapshot (the same JSON `GET /metrics` served).
    pub metrics_json: String,
    /// Disambiguation documents processed (success or failure).
    pub documents: usize,
    /// Documents that failed.
    pub failed: usize,
    /// Total HTTP responses sent.
    pub responses: u64,
    /// Total connections accepted.
    pub connections: u64,
}

/// A bound, resident disambiguation server. Construct with
/// [`Server::bind`], then call [`Server::run`] (blocking until drained).
pub struct Server<'sn> {
    sn: &'sn SemanticNetwork,
    config: ServerConfig,
    /// Taken by [`Server::run`], which closes it when the acceptor stops.
    listener: Mutex<Option<TcpListener>>,
    addr: SocketAddr,
    workers: usize,
    state: AtomicUsize,
    admission: Admission,
    /// When the server started (the `/metrics` uptime epoch).
    started: Instant,
    stats: Mutex<ServerStats>,
    cache: Arc<SharedCache>,
    /// Sticky soft-watermark flag (see the module-level state machine).
    degraded: AtomicBool,
    conns_active: AtomicUsize,
    conns_total: AtomicU64,
    req_seq: AtomicU64,
}

impl<'sn> Server<'sn> {
    /// Binds the listener and sizes the admission semaphore. The server
    /// is not serving until [`Server::run`].
    pub fn bind(sn: &'sn SemanticNetwork, config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = resolve_threads(config.workers);
        let queue_cap = if config.queue == 0 {
            workers * 4
        } else {
            config.queue
        };
        Ok(Self {
            sn,
            listener: Mutex::new(Some(listener)),
            addr,
            workers,
            state: AtomicUsize::new(RUNNING),
            admission: Admission::new(workers, queue_cap),
            started: Instant::now(),
            stats: Mutex::new(ServerStats::default()),
            cache: Arc::new(SharedCache::with_budget(config.cache_budget)),
            degraded: AtomicBool::new(false),
            conns_active: AtomicUsize::new(0),
            conns_total: AtomicU64::new(0),
            req_seq: AtomicU64::new(0),
            config,
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Worker permits after `0 = auto` resolution.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Bounded admission-queue capacity after `0 = auto` resolution.
    pub fn queue_capacity(&self) -> usize {
        self.admission.queue_cap
    }

    /// A control handle usable from other threads.
    pub fn handle(&self) -> ServerHandle<'_> {
        ServerHandle {
            state: &self.state,
            addr: self.addr,
        }
    }

    fn draining(&self) -> bool {
        self.state.load(Ordering::SeqCst) != RUNNING
    }

    /// Updates the sticky degraded flag from the current cache footprint:
    /// set at or above the soft watermark, cleared once bytes fall to
    /// half of it (hysteresis, so the flag doesn't flap around the
    /// threshold). Called from every pressure check and from `/healthz`,
    /// so probes see fresh state even on an idle server.
    fn refresh_degraded(&self, bytes: u64) -> bool {
        let soft = self.config.mem_soft;
        if soft == 0 {
            return false;
        }
        if bytes >= soft {
            self.degraded.store(true, Ordering::Relaxed);
        } else if bytes <= soft / 2 {
            self.degraded.store(false, Ordering::Relaxed);
        }
        self.degraded.load(Ordering::Relaxed)
    }

    /// The watermark check on the `/disambiguate` admission path.
    /// Returns a 503 shed response when the hard watermark is breached;
    /// otherwise trims (soft watermark) as needed and admits. Trimming
    /// happens on the rejected/admitted request's own thread — the
    /// server has no background janitor to die or fall behind.
    fn apply_pressure(&self) -> Option<Response> {
        let (soft, hard) = (self.config.mem_soft, self.config.mem_hard);
        if soft == 0 && hard == 0 {
            return None;
        }
        let bytes = self.cache.bytes();
        self.refresh_degraded(bytes);
        // Trim target: just below the soft watermark (or half the hard
        // one if no soft is configured), so one trim clears hard
        // pressure but leaves the warmest, still-useful entries.
        let target = if soft > 0 {
            soft.saturating_mul(3) / 4
        } else {
            hard / 2
        };
        if hard > 0 && bytes >= hard {
            self.degraded.store(true, Ordering::Relaxed);
            self.cache.trim_to(target);
            let mut stats = self.stats.lock().unwrap();
            stats.rejected_pressure += 1;
            stats.cache_trims += 1;
            return Some(overloaded_response(503, "pressure"));
        }
        if soft > 0 && bytes >= soft {
            self.cache.trim_to(target);
            self.stats.lock().unwrap().cache_trims += 1;
        }
        None
    }

    /// Serves until drained: accepts connections, spawns one scoped
    /// thread per connection, and returns the final summary once a
    /// shutdown request (or [`ServerHandle::shutdown`]) has drained all
    /// in-flight work.
    ///
    /// # Panics
    ///
    /// If called a second time: the first run closed the listener.
    pub fn run(&self) -> ServerSummary {
        let listener = self
            .listener
            .lock()
            .expect("listener lock poisoned: it is held only for this take")
            .take()
            .expect("Server::run called twice");
        std::thread::scope(|scope| {
            loop {
                let stream = match listener.accept() {
                    Ok((stream, _peer)) => stream,
                    Err(_) if self.draining() => break,
                    Err(_) => continue,
                };
                if self.draining() {
                    // Usually the shutdown wake itself; either way no new
                    // work is accepted past this point.
                    break;
                }
                if self.conns_active.load(Ordering::SeqCst) >= self.config.max_connections {
                    self.stats.lock().unwrap().rejected_over_capacity += 1;
                    self.respond_and_close(stream, overloaded_response(503, "over_capacity"));
                    continue;
                }
                self.conns_active.fetch_add(1, Ordering::SeqCst);
                self.conns_total.fetch_add(1, Ordering::SeqCst);
                scope.spawn(move || {
                    self.handle_connection(stream);
                    self.conns_active.fetch_sub(1, Ordering::SeqCst);
                });
            }
            // Close the door before the drain barrier: the kernel resets
            // connections it queued after the acceptor stopped and refuses
            // new ones, instead of leaving them waiting on a listener that
            // nobody accepts from.
            drop(listener);
            // Scope exit joins every connection thread: the drain barrier.
        });
        self.state.store(STOPPED, Ordering::SeqCst);
        let summary = {
            let stats = self.stats.lock().unwrap();
            ServerSummary {
                metrics_json: self.metrics_json_locked(&stats),
                documents: stats.engine.documents,
                failed: stats.engine.failures.total(),
                responses: stats.http.values().sum(),
                connections: self.conns_total.load(Ordering::SeqCst),
            }
        };
        summary
    }

    /// Best-effort single response on a connection we will not keep.
    fn respond_and_close(&self, stream: TcpStream, response: Response) {
        let mut conn = Conn::new(stream);
        self.stats.lock().unwrap().record_status(response.status);
        let _ = conn.write_response(&response.closing());
    }

    /// The keep-alive loop of one connection.
    fn handle_connection(&self, stream: TcpStream) {
        let mut conn = Conn::new(stream);
        loop {
            let idle_abort = || self.draining();
            let opts = ReadOpts {
                idle_timeout: self.config.idle_timeout,
                read_timeout: self.config.read_timeout,
                quantum: self.config.quantum,
                max_header_bytes: http::DEFAULT_MAX_HEADER_BYTES,
                max_body_bytes: self.config.limits.max_bytes,
                idle_abort: Some(&idle_abort),
            };
            match conn.read_request(&opts) {
                Ok(None) => break, // idle close, remote close, or drain
                Err(HttpError::Io(_)) => break,
                Err(e) => {
                    let response = Response::json(
                        e.status(),
                        error_body(protocol_error_kind(&e), &e.message()),
                    )
                    .closing();
                    self.stats.lock().unwrap().record_status(response.status);
                    let _ = conn.write_response(&response);
                    break;
                }
                Ok(Some(request)) => {
                    let close = request.close || self.draining();
                    let mut response = self.dispatch(&request);
                    response.close = response.close || close;
                    let closing = response.close;
                    self.stats.lock().unwrap().record_status(response.status);
                    if conn.write_response(&response).is_err() || closing {
                        break;
                    }
                }
            }
        }
    }

    /// Routes one request.
    fn dispatch(&self, request: &Request) -> Response {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => self.handle_healthz(),
            ("GET", "/metrics") => self.handle_metrics(),
            ("POST", "/shutdown") => self.handle_shutdown(),
            ("POST", "/disambiguate") => self.handle_disambiguate(request),
            (_, "/healthz") | (_, "/metrics") => method_not_allowed("GET"),
            (_, "/shutdown") | (_, "/disambiguate") => method_not_allowed("POST"),
            _ => Response::json(
                404,
                error_body("not_found", &format!("no route {:?}", request.path)),
            ),
        }
    }

    /// Liveness *and* readiness in one probe: `status` summarizes for
    /// humans, `ready` is what a load balancer should gate on (false
    /// while draining or shedding at the hard watermark), and `degraded`
    /// flags soft-watermark pressure — up, but slower than usual.
    fn handle_healthz(&self) -> Response {
        let started = Instant::now();
        let bytes = self.cache.bytes();
        let degraded = self.refresh_degraded(bytes);
        let shedding = self.config.mem_hard > 0 && bytes >= self.config.mem_hard;
        let draining = self.draining();
        let ready = !draining && !shedding;
        let state = if draining {
            "draining"
        } else if degraded || shedding {
            "degraded"
        } else {
            "ok"
        };
        let uptime_ms = self.started.elapsed().as_secs_f64() * 1e3;
        let body = format!(
            "{{\"status\":\"{state}\",\"ready\":{ready},\"degraded\":{degraded},\
             \"uptime_ms\":{uptime_ms:?},\"cache_bytes\":{bytes}}}\n"
        );
        self.stats
            .lock()
            .unwrap()
            .ep_healthz
            .record(started.elapsed());
        Response::json(200, body)
    }

    fn handle_metrics(&self) -> Response {
        let started = Instant::now();
        let mut stats = self.stats.lock().unwrap();
        let json = self.metrics_json_locked(&stats);
        stats.ep_metrics.record(started.elapsed());
        drop(stats);
        Response::json(200, json + "\n")
    }

    /// Renders the full `/metrics` object from already-locked stats. The
    /// uptime is the snapshot's wall clock, so `docs_per_sec` reads as
    /// sustained lifetime throughput.
    fn metrics_json_locked(&self, stats: &ServerStats) -> String {
        let uptime = self.started.elapsed();
        let mut snapshot = stats.engine.clone();
        snapshot.threads = self.workers;
        snapshot.wall_clock = uptime;
        snapshot.read_cache_gauges(&self.cache);
        let state = match self.state.load(Ordering::SeqCst) {
            RUNNING => "running",
            DRAINING => "draining",
            _ => "stopped",
        };
        let gauges = [
            ("server_state".to_string(), format!("\"{state}\"")),
            (
                "connections_active".to_string(),
                self.conns_active.load(Ordering::SeqCst).to_string(),
            ),
            (
                "connections_total".to_string(),
                self.conns_total.load(Ordering::SeqCst).to_string(),
            ),
            (
                "requests_total".to_string(),
                stats.http.values().sum::<u64>().to_string(),
            ),
            (
                "queue_depth".to_string(),
                self.admission.depth().to_string(),
            ),
            (
                "queue_capacity".to_string(),
                self.admission.queue_cap.to_string(),
            ),
            (
                "workers_busy".to_string(),
                self.admission.busy().to_string(),
            ),
            (
                "degraded".to_string(),
                self.degraded.load(Ordering::Relaxed).to_string(),
            ),
            (
                "mem_soft_bytes".to_string(),
                self.config.mem_soft.to_string(),
            ),
            (
                "mem_hard_bytes".to_string(),
                self.config.mem_hard.to_string(),
            ),
        ];
        snapshot.to_json_extended(&stats.extras(uptime, &gauges))
    }

    fn handle_shutdown(&self) -> Response {
        initiate_drain(&self.state, self.addr);
        Response::json(200, "{\"status\":\"draining\"}\n".to_string()).closing()
    }

    fn handle_disambiguate(&self, request: &Request) -> Response {
        let received = Instant::now();
        if self.draining() {
            self.stats.lock().unwrap().rejected_draining += 1;
            return overloaded_response(503, "draining");
        }
        if let Some(shed) = self.apply_pressure() {
            return shed;
        }
        let config = match request_config(&self.config.base, request) {
            Ok(config) => config,
            Err(message) => {
                return Response::json(400, error_body("bad_request", &message));
            }
        };
        let body = match runtime::utf8_document(&request.body) {
            Ok(body) => body,
            Err(error) => {
                let mut stats = self.stats.lock().unwrap();
                stats.engine.count_document(Some(&error));
                return Response::json(400, error_body(error.kind(), &error.to_string()));
            }
        };

        let admission_start = Instant::now();
        if !self.admission.acquire() {
            self.stats.lock().unwrap().rejected_queue_full += 1;
            return overloaded_response(429, "overloaded");
        }
        let queue_wait = admission_start.elapsed();

        let mut engine = BatchEngine::new(self.sn, config)
            .threads(1)
            .limits(self.config.limits)
            .shared_cache(Arc::clone(&self.cache))
            .tracing(self.config.slow.is_some());
        if let Some(deadline) = self.config.deadline {
            engine = engine.deadline(deadline);
        }
        let outcome = engine.process_document_observed(body);
        self.admission.release();

        let request_id = self.req_seq.fetch_add(1, Ordering::SeqCst);
        {
            let mut stats = self.stats.lock().unwrap();
            stats.engine.merge(&outcome.metrics);
            stats.ep_disambiguate.record(received.elapsed());
            stats.queue_wait.record(queue_wait);
        }
        if let (Some(threshold), Some(span)) = (self.config.slow, &outcome.span) {
            if span.duration() >= threshold {
                eprint!(
                    "{}\n{}",
                    report::slow_header(1, threshold),
                    report::slow_span_report(&format!("req-{request_id}"), span)
                );
            }
        }

        match outcome.result {
            Ok(result) => {
                // The same bytes `xsdf batch --annotate` prints for this
                // document: annotated XML plus the trailing newline.
                let mut body = result.semantic_tree.to_annotated_xml();
                body.push('\n');
                Response::new(200)
                    .header("X-Xsdf-Nodes", result.reports.len().to_string())
                    .header("X-Xsdf-Targets", result.targets().count().to_string())
                    .header("X-Xsdf-Assigned", result.assigned_count().to_string())
                    .body("application/xml", body)
            }
            Err(error) => Response::json(
                status_for(&error),
                error_body(error.kind(), &error.to_string()),
            ),
        }
    }
}

/// HTTP status for each [`XsdfError`] kind.
fn status_for(error: &XsdfError) -> u16 {
    match error {
        XsdfError::Parse(_) => 400,
        XsdfError::LimitExceeded { .. } => 413,
        XsdfError::DeadlineExceeded { .. } => 504,
        XsdfError::Panicked { .. } => 500,
        XsdfError::Cancelled => 503,
    }
}

/// Kind tag for HTTP-layer read errors, aligned with the engine taxonomy
/// where one exists (an oversized body is the same `limit` kind the
/// engine's own byte ceiling reports).
fn protocol_error_kind(error: &HttpError) -> &'static str {
    match error {
        HttpError::BodyTooLarge { .. } => "limit",
        HttpError::Timeout => "timeout",
        _ => "bad_request",
    }
}

/// A 429/503 backpressure response with `Retry-After`.
fn overloaded_response(status: u16, kind: &str) -> Response {
    let message = match kind {
        "overloaded" => "admission queue full; retry later",
        "draining" => "server is draining; retry against a fresh instance",
        "pressure" => "shedding under memory pressure; retry shortly",
        _ => "over connection capacity; retry later",
    };
    Response::json(status, error_body(kind, message))
        .header("Retry-After", RETRY_AFTER_SECS.to_string())
        .closing()
}

/// The structured error body: `{"error":{"kind":...,"message":...}}`.
fn error_body(kind: &str, message: &str) -> String {
    format!(
        "{{\"error\":{{\"kind\":{},\"message\":{}}}}}\n",
        json_string(kind),
        json_string(message)
    )
}

fn method_not_allowed(allow: &str) -> Response {
    Response::json(
        405,
        error_body("method_not_allowed", &format!("use {allow}")),
    )
    .header("Allow", allow)
}

/// Parses a disambiguation process name, as `--process` and `?process=`
/// take it: `concept`, `context` or `combined` (equal weights).
pub fn parse_process(value: &str) -> Option<DisambiguationProcess> {
    match value {
        "concept" => Some(DisambiguationProcess::ConceptBased),
        "context" => Some(DisambiguationProcess::ContextBased),
        "combined" => Some(DisambiguationProcess::Combined {
            concept: 0.5,
            context: 0.5,
        }),
        _ => None,
    }
}

/// What [`parse_threshold`] accepts, for error messages.
pub const THRESHOLD_VALUES: &str = "expected auto or a number in [0, 1]";

/// Parses an ambiguity threshold, as `--threshold` and `?threshold=` take
/// it: `auto`, or a number in [0, 1]. `NaN` and the infinities are outside
/// the range.
pub fn parse_threshold(value: &str) -> Option<ThresholdPolicy> {
    if value == "auto" {
        return Some(ThresholdPolicy::Auto);
    }
    let t: f64 = value.parse().ok()?;
    (0.0..=1.0)
        .contains(&t)
        .then_some(ThresholdPolicy::Fixed(t))
}

/// Applies per-request query parameters over the server's baseline
/// configuration. Unknown parameters are rejected — silent typos would
/// otherwise serve results under the wrong configuration.
fn request_config(base: &XsdfConfig, request: &Request) -> Result<XsdfConfig, String> {
    let mut config = base.clone();
    for (key, value) in &request.query {
        match key.as_str() {
            "radius" => {
                config.radius = value
                    .parse()
                    .map_err(|_| format!("bad radius value {value:?}"))?;
            }
            "process" => {
                config.process =
                    parse_process(value).ok_or_else(|| format!("bad process value {value:?}"))?;
            }
            "measure" => {
                config.vector_similarity = match value.as_str() {
                    "cosine" => VectorSimilarity::Cosine,
                    "jaccard" => VectorSimilarity::Jaccard,
                    "pearson" => VectorSimilarity::Pearson,
                    other => return Err(format!("bad measure value {other:?}")),
                };
            }
            "threshold" => {
                config.threshold = parse_threshold(value)
                    .ok_or_else(|| format!("bad threshold value {value:?}: {THRESHOLD_VALUES}"))?;
            }
            "structure" => {
                config.structure_and_content = match value.as_str() {
                    "only" => false,
                    "content" => true,
                    other => return Err(format!("bad structure value {other:?}")),
                };
            }
            other => return Err(format!("unknown query parameter {other:?}")),
        }
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req_with_query(query: &[(&str, &str)]) -> Request {
        Request {
            method: "POST".into(),
            path: "/disambiguate".into(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            headers: Vec::new(),
            body: Vec::new(),
            close: false,
        }
    }

    #[test]
    fn query_parameters_override_base_config() {
        let base = XsdfConfig::default();
        let config = request_config(
            &base,
            &req_with_query(&[
                ("radius", "3"),
                ("process", "combined"),
                ("measure", "jaccard"),
                ("threshold", "auto"),
                ("structure", "only"),
            ]),
        )
        .unwrap();
        assert_eq!(config.radius, 3);
        assert!(matches!(
            config.process,
            DisambiguationProcess::Combined { .. }
        ));
        assert_eq!(config.vector_similarity, VectorSimilarity::Jaccard);
        assert!(matches!(config.threshold, ThresholdPolicy::Auto));
        assert!(!config.structure_and_content);
    }

    #[test]
    fn bad_and_unknown_query_parameters_are_rejected() {
        let base = XsdfConfig::default();
        for query in [
            [("radius", "not-a-number")],
            [("process", "quantum")],
            [("measure", "manhattan")],
            [("threshold", "1.5")],
            [("structure", "both")],
            [("prune", "exact")], // the scoring loop is always exact
            [("raduis", "2")],    // typo must not silently pass
        ] {
            assert!(
                request_config(&base, &req_with_query(&query)).is_err(),
                "{query:?} should be rejected"
            );
        }
    }

    #[test]
    fn threshold_parser_takes_auto_or_the_unit_range() {
        assert!(matches!(
            parse_threshold("auto"),
            Some(ThresholdPolicy::Auto)
        ));
        for value in ["0", "0.5", "1"] {
            assert!(
                matches!(parse_threshold(value), Some(ThresholdPolicy::Fixed(_))),
                "{value}"
            );
        }
        for value in ["1.5", "-1", "nan", "inf", "", "half"] {
            assert!(parse_threshold(value).is_none(), "{value}");
        }
    }

    #[test]
    fn admission_grants_queue_and_rejects() {
        let admission = Admission::new(1, 1);
        assert!(admission.acquire(), "first permit is immediate");
        assert_eq!(admission.busy(), 1);
        // One waiter fits; started on another thread because acquire
        // blocks.
        let admission = std::sync::Arc::new(admission);
        let waiter = {
            let admission = Arc::clone(&admission);
            std::thread::spawn(move || admission.acquire())
        };
        // Wait until the waiter is registered.
        while admission.depth() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // The queue (capacity 1) is now full: an immediate reject.
        assert!(!admission.acquire(), "queue full must reject");
        admission.release();
        assert!(waiter.join().unwrap(), "waiter gets the released permit");
        admission.release();
        assert_eq!(admission.busy(), 0);
        assert_eq!(admission.depth(), 0);
    }

    #[test]
    fn error_bodies_are_structured_json() {
        let body = error_body("deadline", "deadline of 5.0 ms exceeded after 9.0 ms");
        assert!(body.starts_with("{\"error\":{\"kind\":\"deadline\""));
        assert!(body.ends_with("}\n"));
        let escaped = error_body("parse", "bad \"quote\"");
        assert!(escaped.contains("bad \\\"quote\\\""));
    }

    #[test]
    fn xsdf_error_kinds_map_to_stable_statuses() {
        assert_eq!(
            status_for(&XsdfError::Panicked {
                message: "boom".into()
            }),
            500
        );
        assert_eq!(status_for(&XsdfError::Cancelled), 503);
        assert_eq!(
            status_for(&XsdfError::DeadlineExceeded {
                budget: Duration::from_millis(1),
                elapsed: Duration::from_millis(2),
            }),
            504
        );
    }
}
