//! # xsdf-runtime
//!
//! The parallel batch-disambiguation engine for XSDF: everything needed to
//! push *many* XML documents through the pipeline of *Resolving XML
//! Semantic Ambiguity* (EDBT 2015) at once.
//!
//! The modules:
//!
//! * [`executor`] — a worker pool over `std::thread` that fans a batch of
//!   documents across cores and reassembles results in input order
//!   ([`BatchEngine`]), so output is byte-identical regardless of thread
//!   count;
//! * [`cache`] — a 16-way sharded, thread-safe concept-pair similarity
//!   cache ([`SharedCache`]) shared by all workers through
//!   [`semsim::SimilarityCache`]: sense pairs scored for one document are
//!   free for every other;
//! * [`error`] — the per-document failure taxonomy ([`XsdfError`]): parse
//!   errors, resource-limit overruns, missed deadlines, caught panics, and
//!   fail-fast cancellations, each a value in the document's result slot;
//! * [`limits`] — ceilings on what one document may consume
//!   ([`ResourceLimits`]), enforced up front (bytes, depth) and via
//!   cooperative budget checks inside the pipeline (nodes, targets,
//!   sense pairs);
//! * [`fault`] — cfg-gated fault-injection failpoints for chaos tests
//!   (`failpoints` feature; zero-cost when disabled);
//! * [`metrics`] — per-stage wall-clock timings, throughput, per-kind
//!   failure counts, cache hit/miss accounting, and per-stage latency
//!   percentiles ([`MetricsSnapshot`]), dumpable as JSON;
//! * [`hist`] — the log-bucketed latency [`Histogram`] behind those
//!   percentiles: HdrHistogram-style buckets, lock-free per-worker
//!   recording, deterministic element-wise merge;
//! * [`shard`] — the [`ShardReport`] wire format the multi-process
//!   sharded batch driver uses to ship each worker process's metrics
//!   (histograms included, losslessly) to the merging parent;
//! * [`trace`] — per-document observability ([`Trace`], [`DocSpan`]):
//!   stage spans against the batch epoch, cache deltas, most-missed
//!   concepts, exported as JSON Lines or the Chrome trace-event format
//!   (enable with [`BatchEngine::tracing`]).
//!
//! The engine's failure model is strict per-document isolation: a document
//! that is malformed, too big, too slow, or that outright *panics* turns
//! into an `Err` in its own result slot while every other document in the
//! batch completes normally.
//!
//! The crate is std-only. Serial callers should keep using
//! [`xsdf::Xsdf`] directly — its default single-threaded cache has no
//! synchronization overhead.
//!
//! ```
//! use runtime::BatchEngine;
//! use xsdf::XsdfConfig;
//!
//! let engine = BatchEngine::new(semnet::mini_wordnet(), XsdfConfig::default()).threads(2);
//! let report = engine.run(&["<cast><star>Kelly</star></cast>"; 4]);
//! assert!(report.results.iter().all(|r| r.is_ok()));
//! println!("{}", report.metrics.to_json());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod executor;
pub mod fault;
pub mod hist;
pub mod limits;
pub mod metrics;
pub mod shard;
pub mod trace;

pub use cache::{CacheBudget, SharedCache, TallyCache};
pub use error::{utf8_document, XsdfError};
pub use executor::{BatchEngine, BatchReport, DocOutcome};
pub use hist::Histogram;
pub use limits::ResourceLimits;
pub use metrics::{FailureCounts, MetricsSnapshot, PerStage, Stage, StageLatency, StageTimings};
pub use shard::ShardReport;
pub use trace::{DocSpan, StageSpan, Trace};
