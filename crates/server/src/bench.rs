//! `xsdf bench-serve`: a closed-loop load generator against a running
//! `xsdf serve` instance.
//!
//! Closed-loop means each of the N connections keeps exactly one request
//! in flight: send, wait for the response, record, send the next. That
//! measures *sustained* service latency under a fixed concurrency level —
//! there is no open-loop arrival queue hiding server slowness as client
//! wait time. The run has two phases: an untimed warmup (populating the
//! server's shared similarity cache — the whole point of a resident
//! service) and a timed measurement window, reported as sustained
//! docs/sec plus the latency distribution of the warm steady state.
//!
//! The corpus is the same fixed generated set the batch benchmark replays
//! (`corpus::Corpus::generate_small(sn, 11, 2)`), so `BENCH_serve.json`
//! is directly comparable to `BENCH_batch.json`'s warm per-document
//! numbers.
//!
//! # Backpressure-aware client
//!
//! The server sheds load explicitly (429 queue-full, 503 pressure/drain)
//! with a `Retry-After` header. A shed is the protocol working, not a
//! failure, so the client honors it: jittered backoff around the server's
//! hint, a bounded retry budget per request, and separate `sheds` /
//! `retries` counters in the report. Only an exhausted budget (or a real
//! transport/HTTP failure) counts as an error.
//!
//! # Soak mode
//!
//! [`run_soak`] sends a fixed number of requests over a *streaming*
//! corpus (`corpus::stream`) — each worker generates fresh documents
//! from its strided slice of one seeded document stream instead of
//! replaying a fixed set — while a sampler thread
//! polls `GET /metrics` (and, when self-hosted, `/proc/self/status` RSS)
//! on an interval. The sample series goes into `BENCH_soak.json`, which
//! is how the repo proves a byte-bounded cache holds `cache_bytes ≤ budget`
//! for an entire sustained run while RSS stays flat.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use runtime::{CacheBudget, Histogram};

use crate::http;

/// Warm per-document p50 of the batch engine (`doc_latency_p50_ms` in
/// `BENCH_batch.json`): the reference the served latency is compared
/// against. The acceptance bar for the resident service is staying
/// within 3× of this.
pub const BATCH_WARM_DOC_P50_MS: f64 = 0.425983;

/// Load-generator phases, shared with worker threads through an atomic.
const WARMUP: usize = 0;
const MEASURE: usize = 1;
const STOP: usize = 2;

/// Everything tunable about one bench run.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Address of the running server, e.g. `127.0.0.1:8737`.
    pub addr: String,
    /// Concurrent closed-loop connections.
    pub connections: usize,
    /// Untimed warmup phase (cache population).
    pub warmup: Duration,
    /// Timed measurement window.
    pub duration: Duration,
    /// Raw query string appended to `/disambiguate` (empty for server
    /// defaults), e.g. `radius=2&process=concept`.
    pub query: String,
}

/// What one bench run measured.
#[derive(Debug)]
pub struct BenchReport {
    /// Connections that generated load.
    pub connections: usize,
    /// Distinct corpus documents replayed round-robin.
    pub corpus_docs: usize,
    /// Successful requests during warmup (not in the latency figures).
    pub warmup_requests: u64,
    /// Successful requests inside the measurement window.
    pub requests: u64,
    /// Failed requests (non-200 or transport errors) inside the window.
    /// A shed request only lands here after its retry budget is spent.
    pub errors: u64,
    /// 429/503 shed responses received (any phase).
    pub sheds: u64,
    /// Retries performed after honoring `Retry-After` (any phase).
    pub retries: u64,
    /// Length of the measurement window.
    pub elapsed: Duration,
    /// Per-request latency over the measurement window.
    pub latency: Histogram,
}

impl BenchReport {
    /// Sustained successful requests per second over the window.
    pub fn docs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.requests as f64 / secs
        }
    }

    /// The report as the `BENCH_serve.json` object. `mode` is `"quick"`
    /// or `"full"` so readers know whether the numbers are a smoke test
    /// or a committed measurement.
    pub fn to_json(&self, mode: &str) -> String {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let p50_ms = ms(self.latency.p50());
        let fields: Vec<(&str, String)> = vec![
            ("bench", "\"serve_closed_loop\"".to_string()),
            ("mode", format!("\"{mode}\"")),
            ("connections", self.connections.to_string()),
            ("corpus_docs", self.corpus_docs.to_string()),
            ("warmup_requests", self.warmup_requests.to_string()),
            ("requests", self.requests.to_string()),
            ("errors", self.errors.to_string()),
            ("sheds", self.sheds.to_string()),
            ("retries", self.retries.to_string()),
            ("elapsed_ms", json_f64(ms(self.elapsed))),
            ("docs_per_sec", json_f64(self.docs_per_sec())),
            ("latency_p50_ms", json_f64(p50_ms)),
            ("latency_p90_ms", json_f64(ms(self.latency.p90()))),
            ("latency_p99_ms", json_f64(ms(self.latency.p99()))),
            ("latency_max_ms", json_f64(ms(self.latency.max()))),
            ("latency_mean_ms", json_f64(ms(self.latency.mean()))),
            ("batch_warm_p50_ms", json_f64(BATCH_WARM_DOC_P50_MS)),
            (
                "p50_vs_batch_warm",
                json_f64(if BATCH_WARM_DOC_P50_MS > 0.0 {
                    p50_ms / BATCH_WARM_DOC_P50_MS
                } else {
                    f64::NAN
                }),
            ),
        ];
        let mut out = String::from("{\n");
        for (i, (key, value)) in fields.iter().enumerate() {
            out.push_str("  \"");
            out.push_str(key);
            out.push_str("\": ");
            out.push_str(value);
            if i + 1 < fields.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("}\n");
        out
    }
}

/// The fixed bench corpus, serialized compact — the same documents (and
/// serialization) the batch benchmark replays.
pub fn corpus_documents() -> Vec<String> {
    let sn = semnet::mini_wordnet();
    corpus::Corpus::generate_small(sn, 11, 2)
        .documents()
        .iter()
        .map(|d| xmltree::serialize::to_string_compact(&d.doc))
        .collect()
}

/// What one worker thread counted.
#[derive(Default)]
struct WorkerTally {
    warmup_requests: u64,
    requests: u64,
    errors: u64,
    sheds: u64,
    retries: u64,
    latency: Histogram,
}

/// Retries allowed per request when the server sheds with 429/503.
const RETRY_BUDGET: u32 = 4;

/// Cap on a single honored `Retry-After` interval, so a misbehaving
/// server can't park the client forever.
const MAX_BACKOFF: Duration = Duration::from_secs(2);

/// Deterministic xorshift64* PRNG for backoff jitter: std-only, seeded
/// per worker, so two clients shed at the same instant don't retry in
/// lockstep (and a given worker's schedule is reproducible).
struct Jitter(u64);

impl Jitter {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Sleeps a jittered backoff honoring the server's `Retry-After` hint:
/// uniform in `[hint/2, hint]`, capped at [`MAX_BACKOFF`], sliced into
/// short naps so a stop signal is never outwaited.
fn backoff(retry_after_secs: Option<u64>, jitter: &mut Jitter, stop: &dyn Fn() -> bool) {
    let base = Duration::from_secs(retry_after_secs.unwrap_or(1).max(1)).min(MAX_BACKOFF);
    let base_ms = base.as_millis() as u64;
    let ms = base_ms / 2 + jitter.next() % (base_ms / 2 + 1);
    let mut slept = 0;
    while slept < ms && !stop() {
        let slice = (ms - slept).min(25);
        std::thread::sleep(Duration::from_millis(slice));
        slept += slice;
    }
}

/// What one request ultimately came to, after retries.
enum Attempt {
    /// 200, with the winning attempt's latency.
    Ok(Duration),
    /// Still shed after the whole retry budget.
    Shed,
    /// Transport failure or an unexpected HTTP status.
    Error,
    /// The stop signal fired mid-retry; nothing to record.
    Stopped,
}

/// Sends one document through the closed loop, reconnecting as needed and
/// honoring `Retry-After` on 429/503 up to [`RETRY_BUDGET`] retries.
#[allow(clippy::too_many_arguments)]
fn send_with_retries(
    conn: &mut Option<(TcpStream, Vec<u8>)>,
    addr: &str,
    target: &str,
    xml: &str,
    sheds: &mut u64,
    retries: &mut u64,
    jitter: &mut Jitter,
    stop: &dyn Fn() -> bool,
) -> Attempt {
    let mut attempts = 0;
    loop {
        if stop() {
            return Attempt::Stopped;
        }
        if conn.is_none() {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    *conn = Some((stream, Vec::new()));
                }
                Err(_) => return Attempt::Error,
            }
        }
        // invariant: just ensured above
        let (stream, carry) = conn.as_mut().unwrap();
        let started = Instant::now();
        match http::client_roundtrip(
            stream,
            carry,
            "POST",
            target,
            &[("Content-Type", "application/xml")],
            xml.as_bytes(),
        ) {
            Ok(response) => {
                let retry_after = response
                    .header("retry-after")
                    .and_then(|v| v.trim().parse::<u64>().ok());
                if response.close {
                    *conn = None;
                }
                match response.status {
                    200 => return Attempt::Ok(started.elapsed()),
                    429 | 503 => {
                        *sheds += 1;
                        if attempts >= RETRY_BUDGET {
                            return Attempt::Shed;
                        }
                        attempts += 1;
                        *retries += 1;
                        backoff(retry_after, jitter, stop);
                    }
                    _ => return Attempt::Error,
                }
            }
            Err(_) => {
                *conn = None;
                return Attempt::Error;
            }
        }
    }
}

/// Runs the closed loop: N connections replay the corpus through a
/// warmup phase and a measured window against the server at
/// `config.addr`.
pub fn run_bench(config: &BenchConfig) -> Result<BenchReport, String> {
    let docs = corpus_documents();
    if docs.is_empty() {
        return Err("empty bench corpus".into());
    }
    let target = if config.query.is_empty() {
        "/disambiguate".to_string()
    } else {
        format!("/disambiguate?{}", config.query)
    };
    let phase = AtomicUsize::new(WARMUP);
    let connections = config.connections.max(1);

    let mut tallies: Vec<WorkerTally> = Vec::new();
    let mut elapsed = Duration::ZERO;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|worker| {
                let phase = &phase;
                let docs = &docs;
                let target = &target;
                let addr = config.addr.as_str();
                scope.spawn(move || worker_loop(addr, target, docs, worker, phase))
            })
            .collect();
        std::thread::sleep(config.warmup);
        let window = Instant::now();
        phase.store(MEASURE, Ordering::SeqCst);
        std::thread::sleep(config.duration);
        phase.store(STOP, Ordering::SeqCst);
        elapsed = window.elapsed();
        for handle in handles {
            // A worker that panicked still must not sink the run silently.
            match handle.join() {
                Ok(tally) => tallies.push(tally),
                Err(_) => tallies.push(WorkerTally {
                    errors: 1,
                    ..WorkerTally::default()
                }),
            }
        }
    });

    let mut report = BenchReport {
        connections,
        corpus_docs: docs.len(),
        warmup_requests: 0,
        requests: 0,
        errors: 0,
        sheds: 0,
        retries: 0,
        elapsed,
        latency: Histogram::new(),
    };
    for tally in &tallies {
        report.warmup_requests += tally.warmup_requests;
        report.requests += tally.requests;
        report.errors += tally.errors;
        report.sheds += tally.sheds;
        report.retries += tally.retries;
        report.latency.merge(&tally.latency);
    }
    if report.requests == 0 && report.warmup_requests == 0 {
        return Err(format!(
            "no request ever succeeded against {} ({} errors) — is the server up?",
            config.addr, report.errors
        ));
    }
    Ok(report)
}

/// One closed-loop connection: connect (and reconnect on failure), then
/// send-one-await-one until the stop phase, honoring server backpressure
/// via [`send_with_retries`].
fn worker_loop(
    addr: &str,
    target: &str,
    docs: &[String],
    worker: usize,
    phase: &AtomicUsize,
) -> WorkerTally {
    let mut tally = WorkerTally::default();
    let mut jitter = Jitter::new(worker as u64 + 1);
    // Stagger the round-robin start so workers don't all hit the same
    // document in lockstep.
    let mut next_doc = worker;
    let mut conn: Option<(TcpStream, Vec<u8>)> = None;
    let stop = || phase.load(Ordering::SeqCst) == STOP;
    while !stop() {
        let xml = &docs[next_doc % docs.len()];
        next_doc += 1;
        let attempt = send_with_retries(
            &mut conn,
            addr,
            target,
            xml,
            &mut tally.sheds,
            &mut tally.retries,
            &mut jitter,
            &stop,
        );
        // Classification uses the phase at completion time, like the
        // pre-retry client did.
        match attempt {
            Attempt::Ok(latency) => match phase.load(Ordering::SeqCst) {
                MEASURE => {
                    tally.requests += 1;
                    tally.latency.record(latency);
                }
                WARMUP => tally.warmup_requests += 1,
                _ => {}
            },
            Attempt::Shed | Attempt::Error => {
                if phase.load(Ordering::SeqCst) == MEASURE {
                    tally.errors += 1;
                }
                if matches!(attempt, Attempt::Error) {
                    // Don't hot-spin against a dead or unreachable server.
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
            Attempt::Stopped => break,
        }
    }
    tally
}

/// Everything tunable about one soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Address of the running server, e.g. `127.0.0.1:8737`.
    pub addr: String,
    /// Concurrent closed-loop connections.
    pub connections: usize,
    /// Total requests to issue across all connections.
    pub requests: u64,
    /// Interval between `/metrics` samples.
    pub sample_every: Duration,
    /// Raw query string appended to `/disambiguate` (empty for server
    /// defaults).
    pub query: String,
    /// The server runs in this process (self-hosted bench), so
    /// `/proc/self/status` RSS describes *its* memory too.
    pub rss_self: bool,
}

/// One point on the soak time series, scraped from live `/metrics`.
#[derive(Debug, Clone)]
pub struct SoakSample {
    /// Offset from soak start.
    pub t: Duration,
    /// Resident set size of the serving process, when observable
    /// (self-hosted on Linux); `None` renders as JSON `null`.
    pub rss_bytes: Option<u64>,
    /// Live `cache_bytes` gauge — the value the byte budget bounds.
    pub cache_bytes: u64,
    /// Live pair-table entry count.
    pub cache_entries: u64,
    /// Live vector-table entry count.
    pub vector_entries: u64,
    /// Cumulative evictions.
    pub cache_evictions: u64,
    /// Cumulative documents processed.
    pub documents: u64,
}

/// What one soak run measured: the closed-loop tallies plus the sampled
/// gauge series that proves the budget held.
#[derive(Debug)]
pub struct SoakReport {
    /// Connections that generated load.
    pub connections: usize,
    /// Successful requests.
    pub requests: u64,
    /// Failed requests (budget-exhausted sheds included).
    pub errors: u64,
    /// 429/503 shed responses received.
    pub sheds: u64,
    /// Retries performed after honoring `Retry-After`.
    pub retries: u64,
    /// Wall-clock length of the run.
    pub elapsed: Duration,
    /// Per-request latency.
    pub latency: Histogram,
    /// The cache budget the server ran under (0 = unbounded).
    pub budget: CacheBudget,
    /// The sampled gauge series, oldest first.
    pub samples: Vec<SoakSample>,
}

impl SoakReport {
    /// Sustained successful requests per second.
    pub fn docs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.requests as f64 / secs
        }
    }

    /// Highest `cache_bytes` any sample observed — the number CI checks
    /// against the byte budget.
    pub fn cache_bytes_max(&self) -> u64 {
        self.samples
            .iter()
            .map(|s| s.cache_bytes)
            .max()
            .unwrap_or(0)
    }

    /// The report as the `BENCH_soak.json` object.
    pub fn to_json(&self, mode: &str) -> String {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |n| n.to_string());
        let last = self.samples.last();
        let mut samples = String::from("[");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                samples.push(',');
            }
            samples.push_str(&format!(
                "\n    {{\"t_ms\": {}, \"rss_bytes\": {}, \"cache_bytes\": {}, \
                 \"cache_entries\": {}, \"vector_entries\": {}, \
                 \"cache_evictions\": {}, \"documents\": {}}}",
                json_f64(ms(s.t)),
                opt(s.rss_bytes),
                s.cache_bytes,
                s.cache_entries,
                s.vector_entries,
                s.cache_evictions,
                s.documents,
            ));
        }
        samples.push_str("\n  ]");
        let fields: Vec<(&str, String)> = vec![
            ("bench", "\"serve_soak\"".to_string()),
            ("mode", format!("\"{mode}\"")),
            ("connections", self.connections.to_string()),
            ("requests", self.requests.to_string()),
            ("errors", self.errors.to_string()),
            ("sheds", self.sheds.to_string()),
            ("retries", self.retries.to_string()),
            ("elapsed_ms", json_f64(ms(self.elapsed))),
            ("docs_per_sec", json_f64(self.docs_per_sec())),
            ("latency_p50_ms", json_f64(ms(self.latency.p50()))),
            ("latency_p99_ms", json_f64(ms(self.latency.p99()))),
            ("latency_max_ms", json_f64(ms(self.latency.max()))),
            ("cache_entries_budget", self.budget.max_entries.to_string()),
            ("cache_bytes_budget", self.budget.max_bytes.to_string()),
            ("cache_bytes_max", self.cache_bytes_max().to_string()),
            (
                "cache_bytes_final",
                last.map_or(0, |s| s.cache_bytes).to_string(),
            ),
            (
                "cache_entries_final",
                last.map_or(0, |s| s.cache_entries).to_string(),
            ),
            (
                "evictions_total",
                last.map_or(0, |s| s.cache_evictions).to_string(),
            ),
            (
                "rss_first_bytes",
                opt(self.samples.first().and_then(|s| s.rss_bytes)),
            ),
            (
                "rss_max_bytes",
                opt(self.samples.iter().filter_map(|s| s.rss_bytes).max()),
            ),
            ("rss_final_bytes", opt(last.and_then(|s| s.rss_bytes))),
            ("samples", samples),
        ];
        let mut out = String::from("{\n");
        for (i, (key, value)) in fields.iter().enumerate() {
            out.push_str("  \"");
            out.push_str(key);
            out.push_str("\": ");
            out.push_str(value);
            if i + 1 < fields.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("}\n");
        out
    }
}

/// Runs the soak: N closed-loop connections push `config.requests` fresh
/// streaming-corpus documents through the server while a sampler thread
/// records the gauge series. `budget` is echoed into the report so the
/// artifact is self-describing.
pub fn run_soak(config: &SoakConfig, budget: CacheBudget) -> Result<SoakReport, String> {
    let target = if config.query.is_empty() {
        "/disambiguate".to_string()
    } else {
        format!("/disambiguate?{}", config.query)
    };
    let connections = config.connections.max(1);
    let total = config.requests.max(1);
    let issued = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let started = Instant::now();

    let mut tallies: Vec<WorkerTally> = Vec::new();
    let mut samples: Vec<SoakSample> = Vec::new();
    let mut elapsed = Duration::ZERO;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|worker| {
                let issued = &issued;
                let target = &target;
                let addr = config.addr.as_str();
                scope.spawn(move || soak_worker(addr, target, worker, connections, total, issued))
            })
            .collect();
        let sampler = scope.spawn(|| {
            sample_loop(
                &config.addr,
                config.sample_every,
                config.rss_self,
                started,
                &done,
            )
        });
        for handle in handles {
            match handle.join() {
                Ok(tally) => tallies.push(tally),
                Err(_) => tallies.push(WorkerTally {
                    errors: 1,
                    ..WorkerTally::default()
                }),
            }
        }
        elapsed = started.elapsed();
        done.store(true, Ordering::SeqCst);
        samples = sampler.join().unwrap_or_default();
    });

    let mut report = SoakReport {
        connections,
        requests: 0,
        errors: 0,
        sheds: 0,
        retries: 0,
        elapsed,
        latency: Histogram::new(),
        budget,
        samples,
    };
    for tally in &tallies {
        report.requests += tally.requests;
        report.errors += tally.errors;
        report.sheds += tally.sheds;
        report.retries += tally.retries;
        report.latency.merge(&tally.latency);
    }
    if report.requests == 0 {
        return Err(format!(
            "no soak request ever succeeded against {} ({} errors) — is the server up?",
            config.addr, report.errors
        ));
    }
    Ok(report)
}

/// The stream seed every soak worker draws from: one shared streaming
/// corpus, partitioned by stride.
const SOAK_STREAM_SEED: u64 = 0x50AC;

/// One soak connection: claims requests from the shared counter and
/// feeds each a *fresh* document from the streaming corpus
/// (`corpus::stream`). Worker `w` walks positions `w, w + connections,
/// w + 2·connections, …` — a strided partition of one seeded stream —
/// so no two workers, and no two requests, ever replay the same
/// document; that keeps the cache key space growing, which is what
/// exercises eviction. Exactly one generated document is alive per
/// worker at any instant.
fn soak_worker(
    addr: &str,
    target: &str,
    worker: usize,
    connections: usize,
    total: u64,
    issued: &AtomicU64,
) -> WorkerTally {
    let sn = semnet::mini_wordnet();
    let mut tally = WorkerTally::default();
    let mut jitter = Jitter::new(0x50AC + worker as u64);
    let mut conn: Option<(TcpStream, Vec<u8>)> = None;
    let mut pos = worker as u64;
    // The request count bounds the loop, so workers never need a stop
    // signal — every claimed request resolves to exactly one outcome.
    let stop = || false;
    while issued.fetch_add(1, Ordering::SeqCst) < total {
        let doc = corpus::stream::document_at(sn, SOAK_STREAM_SEED, pos);
        let xml = xmltree::serialize::to_string_compact(&doc.doc);
        pos += connections as u64;
        match send_with_retries(
            &mut conn,
            addr,
            target,
            &xml,
            &mut tally.sheds,
            &mut tally.retries,
            &mut jitter,
            &stop,
        ) {
            Attempt::Ok(latency) => {
                tally.requests += 1;
                tally.latency.record(latency);
            }
            Attempt::Shed => tally.errors += 1,
            Attempt::Error => {
                tally.errors += 1;
                std::thread::sleep(Duration::from_millis(10));
            }
            Attempt::Stopped => break,
        }
    }
    tally
}

/// Scrapes `/metrics` on an interval until `done`, then takes one final
/// post-run sample so the series always ends with the settled state.
fn sample_loop(
    addr: &str,
    every: Duration,
    rss_self: bool,
    started: Instant,
    done: &AtomicBool,
) -> Vec<SoakSample> {
    let mut samples = Vec::new();
    let mut conn: Option<(TcpStream, Vec<u8>)> = None;
    loop {
        if let Some(sample) = take_sample(addr, &mut conn, rss_self, started) {
            samples.push(sample);
        }
        if done.load(Ordering::SeqCst) {
            return samples;
        }
        // Sliced sleep so shutdown isn't outwaited by a long interval.
        let mut slept = Duration::ZERO;
        while slept < every && !done.load(Ordering::SeqCst) {
            let slice = (every - slept).min(Duration::from_millis(25));
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

/// One `/metrics` scrape turned into a [`SoakSample`]. Returns `None`
/// (and drops the connection) on any transport or HTTP hiccup — a soak
/// tolerates missing points, it just needs the series.
fn take_sample(
    addr: &str,
    conn: &mut Option<(TcpStream, Vec<u8>)>,
    rss_self: bool,
    started: Instant,
) -> Option<SoakSample> {
    if conn.is_none() {
        let stream = TcpStream::connect(addr).ok()?;
        stream.set_nodelay(true).ok();
        *conn = Some((stream, Vec::new()));
    }
    // invariant: just ensured above
    let (stream, carry) = conn.as_mut().unwrap();
    let response = match http::client_roundtrip(stream, carry, "GET", "/metrics", &[], b"") {
        Ok(response) if response.status == 200 => response,
        _ => {
            *conn = None;
            return None;
        }
    };
    if response.close {
        *conn = None;
    }
    let body = String::from_utf8_lossy(&response.body).into_owned();
    Some(SoakSample {
        t: started.elapsed(),
        rss_bytes: if rss_self { rss_self_bytes() } else { None },
        cache_bytes: json_u64(&body, "cache_bytes")?,
        cache_entries: json_u64(&body, "cache_entries")?,
        vector_entries: json_u64(&body, "vector_entries")?,
        cache_evictions: json_u64(&body, "cache_evictions")?,
        documents: json_u64(&body, "documents")?,
    })
}

/// Pulls one unsigned integer out of a flat JSON object by key. The
/// `/metrics` body is a single-level object with unique keys, so a
/// substring scan for `"key":` is unambiguous (`cache_bytes` vs
/// `cache_bytes_peak` differ before the colon).
fn json_u64(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Resident set size of this process, from `/proc/self/status` `VmRSS`
/// (kB → bytes). `None` off Linux or if the field is missing.
pub fn rss_self_bytes() -> Option<u64> {
    proc_status_kb("VmRSS:").map(|kb| kb * 1024)
}

/// Lifetime peak resident set size of this process, from
/// `/proc/self/status` `VmHWM` (kB → bytes) — the kernel's own high
/// watermark, so it catches spikes between point samples. `None` off
/// Linux or if the field is missing.
pub fn rss_peak_bytes() -> Option<u64> {
    proc_status_kb("VmHWM:").map(|kb| kb * 1024)
}

/// One kB-denominated field out of `/proc/self/status`.
fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_nonempty_and_stable() {
        let docs = corpus_documents();
        assert!(!docs.is_empty());
        assert_eq!(docs, corpus_documents(), "generation is deterministic");
    }

    #[test]
    fn report_json_has_the_committed_schema() {
        let mut latency = Histogram::new();
        for ms in [1u64, 2, 3] {
            latency.record(Duration::from_millis(ms));
        }
        let report = BenchReport {
            connections: 2,
            corpus_docs: 8,
            warmup_requests: 10,
            requests: 3,
            errors: 0,
            sheds: 2,
            retries: 1,
            elapsed: Duration::from_millis(300),
            latency,
        };
        assert!((report.docs_per_sec() - 10.0).abs() < 1e-9);
        let json = report.to_json("quick");
        for key in [
            "bench",
            "mode",
            "connections",
            "corpus_docs",
            "warmup_requests",
            "requests",
            "errors",
            "sheds",
            "retries",
            "elapsed_ms",
            "docs_per_sec",
            "latency_p50_ms",
            "latency_p90_ms",
            "latency_p99_ms",
            "latency_max_ms",
            "latency_mean_ms",
            "batch_warm_p50_ms",
            "p50_vs_batch_warm",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
        }
        assert!(json.contains("\"bench\": \"serve_closed_loop\""));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn soak_report_json_has_the_committed_schema() {
        let mut latency = Histogram::new();
        latency.record(Duration::from_millis(2));
        let report = SoakReport {
            connections: 2,
            requests: 40,
            errors: 0,
            sheds: 3,
            retries: 3,
            elapsed: Duration::from_millis(500),
            latency,
            budget: CacheBudget {
                max_entries: 0,
                max_bytes: 65536,
            },
            samples: vec![
                SoakSample {
                    t: Duration::from_millis(0),
                    rss_bytes: Some(1_000_000),
                    cache_bytes: 100,
                    cache_entries: 5,
                    vector_entries: 2,
                    cache_evictions: 0,
                    documents: 1,
                },
                SoakSample {
                    t: Duration::from_millis(250),
                    rss_bytes: None,
                    cache_bytes: 60000,
                    cache_entries: 50,
                    vector_entries: 20,
                    cache_evictions: 7,
                    documents: 40,
                },
            ],
        };
        assert_eq!(report.cache_bytes_max(), 60000);
        let json = report.to_json("quick");
        for key in [
            "bench",
            "mode",
            "connections",
            "requests",
            "errors",
            "sheds",
            "retries",
            "elapsed_ms",
            "docs_per_sec",
            "latency_p50_ms",
            "latency_p99_ms",
            "latency_max_ms",
            "cache_entries_budget",
            "cache_bytes_budget",
            "cache_bytes_max",
            "cache_bytes_final",
            "cache_entries_final",
            "evictions_total",
            "rss_first_bytes",
            "rss_max_bytes",
            "rss_final_bytes",
            "samples",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
        }
        assert!(json.contains("\"bench\": \"serve_soak\""));
        assert!(json.contains("\"cache_bytes_budget\": 65536"));
        assert!(json.contains("\"cache_bytes_max\": 60000"));
        assert!(json.contains("\"evictions_total\": 7"));
        // The second sample has no RSS reading: nullable, not zero.
        assert!(json.contains("\"rss_bytes\": null"));
        assert!(json.contains("\"rss_final_bytes\": null"));
        assert!(json.contains("\"rss_max_bytes\": 1000000"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn json_u64_extracts_flat_metric_keys_unambiguously() {
        let body = r#"{"cache_bytes": 4096,"cache_bytes_peak": 8192,"documents":12}"#;
        assert_eq!(json_u64(body, "cache_bytes"), Some(4096));
        assert_eq!(json_u64(body, "cache_bytes_peak"), Some(8192));
        assert_eq!(json_u64(body, "documents"), Some(12));
        assert_eq!(json_u64(body, "missing"), None);
    }

    #[test]
    fn backoff_returns_promptly_when_stopped() {
        let mut jitter = Jitter::new(9);
        let started = Instant::now();
        backoff(Some(60), &mut jitter, &|| true);
        assert!(started.elapsed() < Duration::from_millis(200));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn rss_is_observable_on_linux() {
        let rss = rss_self_bytes().expect("VmRSS readable");
        assert!(rss > 0);
        let peak = rss_peak_bytes().expect("VmHWM readable");
        assert!(peak >= rss / 2, "peak {peak} implausibly below rss {rss}");
    }
}
