//! # xsdf-server
//!
//! The resident disambiguation service for XSDF: keep one warm
//! [`runtime::SharedCache`] alive across requests and serve the pipeline
//! of *Resolving XML Semantic Ambiguity* (EDBT 2015) over a minimal,
//! std-only HTTP/1.1 endpoint.
//!
//! The batch engine amortizes sense-pair scoring across the documents of
//! *one* invocation; a resident service amortizes it across *all*
//! invocations. The modules:
//!
//! * [`http`] — a deliberately small HTTP/1.1 reader/writer over blocking
//!   `TcpStream`s: request parsing with header/body ceilings, keep-alive,
//!   `Expect: 100-continue`, and quantum-sliced reads so a draining server
//!   can wake idle connections without an async runtime;
//! * [`service`] — the server itself ([`Server`]): a blocking accept loop,
//!   thread-per-connection handling, admission control with a bounded
//!   wait queue (429/503 + `Retry-After` under overload), per-request
//!   deadlines and resource limits mapped onto the [`runtime::XsdfError`]
//!   taxonomy as structured JSON errors, and a drain-then-exit shutdown
//!   state machine (`Running → Draining → Stopped`);
//! * [`stats`] — the serving-layer counters ([`stats::ServerStats`]):
//!   per-endpoint latency histograms, queue-wait distribution, HTTP status
//!   tallies, and the engine aggregates folded in from each
//!   [`runtime::DocOutcome`], exported through
//!   [`runtime::MetricsSnapshot::to_json_extended`] as one flat JSON
//!   object on `GET /metrics`;
//! * [`mod@bench`] — the process's peak resident set size, which
//!   benchmark reports quote;
//! * [`report`] — the slow-document report formatter shared byte-for-byte
//!   between `xsdf batch --slow-ms` and the server's live slow-request
//!   stream;
//! * [`signal`] — the crate's one `unsafe` corner: a SIGINT handler over
//!   raw `libc` FFI giving both `xsdf batch` and `xsdf serve` graceful
//!   first-interrupt drain and hard second-interrupt exit.
//!
//! The `xsdf` CLI binary lives here (not in `xsdf-runtime`) because the
//! `serve` command needs this crate, which itself depends on the runtime.
//!
//! Protocol sketch:
//!
//! ```text
//! POST /disambiguate?radius=2&process=combined   body: the XML document
//!   200 annotated XML (byte-identical to `xsdf batch --annotate`)
//!   4xx/5xx {"error":{"kind":"parse"|"limit"|"deadline"|..., "message": ...}}
//! GET  /metrics    engine + serving-layer metrics as one JSON object
//! GET  /healthz    {"status":"ok","uptime_ms":...}
//! POST /shutdown   begin drain; in-flight requests finish, then exit
//! ```

#![warn(missing_docs)]

pub mod bench;
pub mod http;
pub mod report;
pub mod service;
pub mod signal;
pub mod stats;

pub use service::{Server, ServerConfig, ServerHandle, ServerSummary};
