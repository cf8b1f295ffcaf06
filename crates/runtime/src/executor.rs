//! The batch executor: a fault-isolating worker pool fanning documents
//! across cores.
//!
//! Each worker owns a [`CombinedSimilarity`] scoring through the engine's
//! one [`SharedCache`] (via a per-run [`TallyCache`] view), so sense pairs
//! computed for any document are reused by every other. Workers pull jobs
//! off a shared counter (dynamic load balancing — documents vary widely in
//! size) and return their results tagged with the input index, which
//! places them in input order, so output is deterministic regardless of
//! thread count or scheduling. Scores themselves are
//! thread-count-independent too: the cache only memoizes a pure function
//! of the concept pair.
//!
//! Failure is always per-document: a panic anywhere in one document's
//! pipeline is caught at the document boundary ([`std::panic::catch_unwind`])
//! and becomes [`XsdfError::Panicked`] in that document's slot while its
//! batch neighbors complete; resource overruns and deadline overruns
//! ([`ResourceLimits`], [`ResourceLimits::deadline`]) surface the same way
//! as [`XsdfError::LimitExceeded`] / [`XsdfError::DeadlineExceeded`].

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use semnet::SemanticNetwork;
use semsim::{CombinedSimilarity, PairKey};
use xsdf::{DisambiguationResult, Xsdf, XsdfConfig};

use crate::cache::{SharedCache, TallyCache};
use crate::error::XsdfError;
use crate::fault;
use crate::limits::ResourceLimits;
use crate::metrics::{MetricsSnapshot, Stage};
use crate::trace::{DocSpan, StageSpan, Trace, TOP_MISS_CONCEPTS};

/// One worker's scoring measure plus its share of the run's records: the
/// metrics it accumulated and the spans it traced.
struct Worker {
    id: usize,
    sim: CombinedSimilarity<TallyCache>,
    metrics: MetricsSnapshot,
    spans: Vec<DocSpan>,
}

impl Worker {
    /// The worker's records, with the per-run cache and kernel tallies
    /// read off its measure once its share of the run is done.
    fn finish(mut self) -> (MetricsSnapshot, Vec<DocSpan>) {
        let (m, cache) = (&mut self.metrics, self.sim.cache());
        (m.cache_hits, m.cache_misses) = (cache.hits(), cache.misses());
        (m.vectors_built, m.vectors_reused) = (cache.vector_misses(), cache.vector_hits());
        m.gloss_pairs_scored = self.sim.gloss_pairs_scored();
        (self.metrics, self.spans)
    }
}

/// One document on its way through the stages: the worker metrics its
/// stages record into, and its span, filled in as the document goes so it
/// is as complete as possible even when a stage errors or panics partway
/// through.
struct DocRun<'a> {
    xml: &'a str,
    epoch: Instant,
    metrics: &'a mut MetricsSnapshot,
    span: DocSpan,
}

impl DocRun<'_> {
    /// Runs one pipeline stage: its failpoint, then `work` under a timer
    /// whose reading lands in the stage sum, the stage histogram and the
    /// document's span.
    fn stage<T>(&mut self, stage: Stage, work: impl FnOnce() -> T) -> T {
        fault::hit(stage.name(), self.xml);
        let started = Instant::now();
        let out = work();
        let took = started.elapsed();
        self.metrics.stages[stage] += took;
        self.metrics.latency.stages[stage].record(took);
        self.span.stages[stage as usize] = Some(StageSpan {
            start: started.duration_since(self.epoch),
            duration: took,
        });
        out
    }
}

/// The outcome of one batch run: per-document results in input order plus
/// a metrics snapshot.
#[derive(Debug)]
pub struct BatchReport {
    /// One entry per input document, in input order. Documents that fail —
    /// malformed XML, resource overrun, deadline, even a panic — yield
    /// `Err` without affecting their neighbors.
    pub results: Vec<Result<DisambiguationResult, XsdfError>>,
    /// Timings, throughput, failure counts, and cache accounting for this
    /// run.
    pub metrics: MetricsSnapshot,
    /// Per-document spans, present when [`BatchEngine::tracing`] is on.
    /// Sorted by input index regardless of worker scheduling.
    pub trace: Option<Trace>,
}

/// The outcome of one document processed outside a batch
/// ([`BatchEngine::process_document_observed`]): the result plus the
/// observability record a resident service needs to keep live metrics.
#[derive(Debug)]
pub struct DocOutcome {
    /// The document's result, exactly as a batch slot would hold it.
    pub result: Result<DisambiguationResult, XsdfError>,
    /// The trace span, present when [`BatchEngine::tracing`] is on.
    pub span: Option<DocSpan>,
    /// This document's share of the run metrics: its counters, stage
    /// timings and latency samples. The run-level fields (`threads`,
    /// `wall_clock`, the cache gauges) are left for the aggregator.
    pub metrics: MetricsSnapshot,
}

/// A reusable parallel batch-disambiguation engine with panic isolation
/// and per-document resource limits, the deadline among them.
///
/// ```
/// use runtime::{BatchEngine, ResourceLimits};
/// use xsdf::XsdfConfig;
///
/// let engine = BatchEngine::new(semnet::mini_wordnet(), XsdfConfig::default())
///     .threads(2)
///     .limits(ResourceLimits::unlimited().max_nodes(10_000));
/// let docs = ["<cast><star>Kelly</star></cast>", "<films><picture/></films>"];
/// let report = engine.run(&docs);
/// assert_eq!(report.results.len(), 2);
/// assert!(report.results.iter().all(|r| r.is_ok()));
/// ```
pub struct BatchEngine<'sn> {
    xsdf: Xsdf<'sn>,
    threads: usize,
    cache: Arc<SharedCache>,
    limits: ResourceLimits,
    fail_fast: bool,
    tracing: bool,
    cancel: Option<&'sn AtomicBool>,
}

impl<'sn> BatchEngine<'sn> {
    /// An engine over the given network and pipeline configuration, with
    /// one worker per available core, no resource limits, and keep-going
    /// failure handling.
    pub fn new(sn: &'sn SemanticNetwork, config: XsdfConfig) -> Self {
        Self {
            xsdf: Xsdf::new(sn, config),
            threads: default_threads(),
            cache: Arc::new(SharedCache::new()),
            limits: ResourceLimits::unlimited(),
            fail_fast: false,
            tracing: false,
            cancel: None,
        }
    }

    /// Sets the worker count. `0` restores the default (available cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            default_threads()
        } else {
            threads
        };
        self
    }

    /// Sets the per-document resource limits, the wall-clock deadline
    /// ([`ResourceLimits::deadline`]) among them.
    pub fn limits(mut self, limits: ResourceLimits) -> Self {
        self.limits = limits;
        self
    }

    /// In fail-fast mode the engine stops *scheduling* documents after the
    /// first failure; already-running documents finish, and unscheduled
    /// ones report [`XsdfError::Cancelled`]. Default is keep-going: every
    /// document is always attempted.
    pub fn fail_fast(mut self, fail_fast: bool) -> Self {
        self.fail_fast = fail_fast;
        self
    }

    /// Attaches an external cancellation flag, checked before each
    /// document is scheduled. Raising the flag (typically from a signal
    /// handler or another thread) stops the engine from starting new
    /// documents: already-running documents finish normally, and every
    /// unscheduled slot reports [`XsdfError::Cancelled`]. Unlike
    /// [`BatchEngine::fail_fast`], cancellation does not require any
    /// document to have failed first.
    pub fn cancel_flag(mut self, flag: &'sn AtomicBool) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Replaces the engine's similarity/vector cache with an existing
    /// shared one, so several engines — e.g. one per request
    /// configuration in a long-lived server — pool their warm state.
    /// Safe across configurations: pair scores are keyed by a weights
    /// fingerprint and context vectors by `(concept, radius)`, so entries
    /// computed under one configuration are never served to an
    /// incompatible one.
    pub fn shared_cache(mut self, cache: Arc<SharedCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Replaces the engine's cache with a fresh one enforcing `budget`
    /// (see [`crate::CacheBudget`]). Eviction never changes results —
    /// entries are pure functions of their keys, so a bounded run is
    /// byte-identical to an unbounded one, only colder.
    pub fn cache_budget(mut self, budget: crate::CacheBudget) -> Self {
        self.cache = Arc::new(SharedCache::with_budget(budget));
        self
    }

    /// Enables per-document span collection: the report's
    /// [`BatchReport::trace`] becomes `Some`, with one [`DocSpan`] per
    /// attempted document (stage timings, cache delta, most-missed
    /// concepts). Latency histograms are always on; tracing adds only the
    /// span records and per-document cache-miss key capture. Results are
    /// byte-identical with tracing on or off. Default off.
    pub fn tracing(mut self, tracing: bool) -> Self {
        self.tracing = tracing;
        self
    }

    /// The shared similarity cache. It outlives individual runs: a second
    /// [`BatchEngine::run`] starts warm.
    pub fn cache(&self) -> &Arc<SharedCache> {
        &self.cache
    }

    /// The underlying pipeline.
    pub fn xsdf(&self) -> &Xsdf<'sn> {
        &self.xsdf
    }

    /// Disambiguates a batch of XML source strings.
    ///
    /// Results come back in input order. Cache hit/miss counts in the
    /// returned metrics cover exactly this run (each worker tallies its
    /// own lookups, so concurrent runs sharing the engine's cache do not
    /// skew each other); `cache_entries` is the cumulative table size
    /// afterwards, which concurrent runs *do* grow together.
    pub fn run(&self, docs: &[&str]) -> BatchReport {
        let started = Instant::now();
        let threads = self.threads.clamp(1, docs.len().max(1));
        let mut report = self.execute(docs, threads, started);
        report.metrics.threads = threads;
        report.metrics.wall_clock = started.elapsed();
        report.metrics.read_cache_gauges(&self.cache);
        report
    }

    /// The one worker loop behind [`BatchEngine::run`] and
    /// [`BatchEngine::process_document_observed`]: `threads` workers (one
    /// inline, more on scoped threads) take indices off a shared counter
    /// and return their `(index, outcome)` pairs, metrics and spans. A slot
    /// never scheduled reports [`XsdfError::Cancelled`]. The run-level
    /// metric fields (`threads`, `wall_clock`, cache gauges) are the
    /// caller's.
    fn execute(&self, docs: &[&str], threads: usize, epoch: Instant) -> BatchReport {
        let next = AtomicUsize::new(0);
        let cancelled = AtomicBool::new(false);
        let work = |id| {
            let mut worker = self.worker(id);
            let mut outcomes = Vec::new();
            while !self.should_stop(&cancelled) {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= docs.len() {
                    break;
                }
                outcomes.push((i, self.run_one(&mut worker, i, docs[i], epoch, &cancelled)));
            }
            (outcomes, worker.finish())
        };
        let shares = if threads == 1 {
            vec![work(0)]
        } else {
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads)
                    .map(|id| scope.spawn(move || work(id)))
                    .collect();
                workers
                    .into_iter()
                    // invariant: `run_one` catches every document's panic,
                    // so a worker thread always returns its share
                    .map(|worker| worker.join().expect("worker thread panicked"))
                    .collect()
            })
        };

        let mut slots: Vec<Option<Result<DisambiguationResult, XsdfError>>> =
            (0..docs.len()).map(|_| None).collect();
        let mut metrics = MetricsSnapshot::default();
        let mut spans = Vec::new();
        for (outcomes, (share_metrics, mut share_spans)) in shares {
            for (i, outcome) in outcomes {
                slots[i] = Some(outcome);
            }
            metrics.merge(&share_metrics);
            spans.append(&mut share_spans);
        }
        let results = slots
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    metrics.count_document(Some(&XsdfError::Cancelled));
                    Err(XsdfError::Cancelled)
                })
            })
            .collect();
        // The span streams arrive in whatever order workers drained the
        // queue; sorting by input index makes the merged trace
        // deterministic for a given batch and thread count.
        let trace = self.tracing.then(|| {
            spans.sort_by_key(|s| s.doc);
            Trace { spans, threads }
        });
        BatchReport {
            results,
            metrics,
            trace,
        }
    }

    /// Disambiguates a single document under the engine's limits, with
    /// panic isolation. This is `run(&[xml])` without the batch
    /// scaffolding; the CLI uses it for `xsdf disambiguate`.
    pub fn process_document(&self, xml: &str) -> Result<DisambiguationResult, XsdfError> {
        self.process_document_observed(xml).result
    }

    /// Like [`BatchEngine::process_document`], but also returns what the
    /// runtime observed: the trace span (when [`BatchEngine::tracing`] is
    /// on) and this document's exact cache/kernel accounting. This is the
    /// per-request entry point for resident services, which aggregate the
    /// outcomes into live metrics instead of reading a whole-batch
    /// [`MetricsSnapshot`].
    pub fn process_document_observed(&self, xml: &str) -> DocOutcome {
        let BatchReport {
            mut results,
            metrics,
            trace,
        } = self.execute(&[xml], 1, Instant::now());
        DocOutcome {
            // invariant: `execute` returns one result per input document
            result: results.pop().expect("one result per document"),
            span: trace.and_then(|mut trace| trace.spans.pop()),
            metrics,
        }
    }

    /// Whether the engine should stop scheduling further documents:
    /// fail-fast after an internal failure, or an external cancel.
    fn should_stop(&self, internal: &AtomicBool) -> bool {
        (self.fail_fast && internal.load(Ordering::Relaxed))
            || self.cancel.is_some_and(|c| c.load(Ordering::Relaxed))
    }

    fn worker(&self, id: usize) -> Worker {
        Worker {
            id,
            sim: CombinedSimilarity::with_cache(
                self.xsdf.config().similarity,
                TallyCache::new(Arc::clone(&self.cache)),
            ),
            metrics: MetricsSnapshot::default(),
            spans: Vec::new(),
        }
    }

    /// Runs one document with the panic boundary: a panic anywhere in the
    /// pipeline (or an injected failpoint panic) is caught here and
    /// becomes a per-document [`XsdfError::Panicked`]. Also counts the
    /// document and its failure kind, records the end-to-end latency and,
    /// when tracing is on, the span, and in fail-fast mode raises the
    /// cancellation flag.
    fn run_one(
        &self,
        worker: &mut Worker,
        doc: usize,
        xml: &str,
        epoch: Instant,
        cancelled: &AtomicBool,
    ) -> Result<DisambiguationResult, XsdfError> {
        let cache = worker.sim.cache();
        let (hits_before, misses_before) = (cache.hits(), cache.misses());
        if self.tracing {
            cache.begin_miss_recording();
        }
        let mut run = DocRun {
            xml,
            epoch,
            metrics: &mut worker.metrics,
            span: DocSpan {
                doc,
                worker: worker.id,
                start: epoch.elapsed(),
                bytes: xml.len(),
                ..DocSpan::default()
            },
        };
        // AssertUnwindSafe: the metrics, the span, and the tally cache are
        // only ever advanced by whole, already-completed increments (Cell
        // sets, Duration additions), and a torn shared-cache shard is
        // audited in `SharedCache` (poison recovery over idempotent pure
        // scores) — so observing them after an unwind cannot expose a
        // broken invariant.
        let outcome =
            match catch_unwind(AssertUnwindSafe(|| self.process_one(&mut run, &worker.sim))) {
                Ok(outcome) => outcome,
                Err(payload) => Err(XsdfError::Panicked {
                    message: panic_message(payload),
                }),
            };
        let mut span = run.span;
        span.end = epoch.elapsed();
        worker.metrics.latency.doc.record(span.duration());
        worker.metrics.count_document(outcome.as_ref().err());
        if outcome.is_err() && self.fail_fast {
            cancelled.store(true, Ordering::Relaxed);
        }
        if self.tracing {
            let cache = worker.sim.cache();
            span.outcome = outcome.as_ref().map_or_else(|e| e.kind(), |_| "ok");
            span.error = outcome.as_ref().err().map(|e| e.to_string());
            span.cache_hits = cache.hits() - hits_before;
            span.cache_misses = cache.misses() - misses_before;
            span.top_miss_concepts =
                top_miss_concepts(self.xsdf.network(), &cache.take_missed_pairs());
            worker.spans.push(span);
        }
        outcome
    }

    /// The four-stage pipeline for one document, with limit and deadline
    /// checks at every stage boundary (and, via the guard, inside the
    /// scoring loop). Wraps [`BatchEngine::process_stages`] so the guard's
    /// sense-pair and pruning counts land in the metrics on success *and*
    /// error exits (a panic loses them — the guard unwinds with the stack).
    fn process_one(
        &self,
        run: &mut DocRun<'_>,
        sim: &CombinedSimilarity<TallyCache>,
    ) -> Result<DisambiguationResult, XsdfError> {
        let guard = self.limits.guard();
        let outcome = self.process_stages(run, sim, &guard);
        run.span.sense_pairs = guard.pairs_scored();
        run.metrics.sense_pairs += guard.pairs_scored();
        run.metrics.candidates_pruned += guard.candidates_pruned();
        outcome
    }

    fn process_stages(
        &self,
        run: &mut DocRun<'_>,
        sim: &CombinedSimilarity<TallyCache>,
        guard: &xsdf::guard::Guard,
    ) -> Result<DisambiguationResult, XsdfError> {
        let xml = run.xml;
        if let Some(max) = self.limits.max_bytes {
            if xml.len() > max {
                return Err(XsdfError::LimitExceeded {
                    which: xsdf::LimitKind::Bytes,
                    limit: max as u64,
                    actual: xml.len() as u64,
                });
            }
        }
        let doc = run.stage(Stage::Parse, || self.limits.parse(xml))?;
        guard.check_deadline()?;
        let tree = run.stage(Stage::Preprocess, || self.xsdf.build_tree(&doc));
        run.span.nodes = tree.len();
        let ambiguities = run.stage(Stage::Select, || self.xsdf.select_guarded(&tree, guard))?;
        run.span.targets = ambiguities.iter().filter(|a| a.selected).count();
        let result = run.stage(Stage::Disambiguate, || {
            self.xsdf
                .disambiguate_selected_guarded(&tree, &ambiguities, sim, guard)
        })?;
        run.span.assigned = result.assigned_count();

        run.metrics.nodes += run.span.nodes;
        run.metrics.targets += run.span.targets;
        run.metrics.assigned += run.span.assigned;
        Ok(result)
    }
}

/// Tallies how often each concept appears in a document's missed cache
/// pairs and keeps the most frequent — the "what would warming help"
/// signal for slow-document reports. Count descending, key ascending, at
/// most [`TOP_MISS_CONCEPTS`] entries.
fn top_miss_concepts(sn: &SemanticNetwork, missed: &[PairKey]) -> Vec<(String, u64)> {
    let mut counts: HashMap<semnet::ConceptId, u64> = HashMap::new();
    for &(_, a, b) in missed {
        *counts.entry(a).or_insert(0) += 1;
        if b != a {
            *counts.entry(b).or_insert(0) += 1;
        }
    }
    let mut items: Vec<(String, u64)> = counts
        .into_iter()
        .map(|(id, n)| (sn.concept(id).key.clone(), n))
        .collect();
    items.sort_by(|x, y| y.1.cmp(&x.1).then_with(|| x.0.cmp(&y.0)));
    items.truncate(TOP_MISS_CONCEPTS);
    items
}

/// Renders a caught panic payload: `&str` and `String` payloads (the
/// overwhelmingly common cases, produced by `panic!` with a message) come
/// through verbatim, anything else gets a placeholder.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use semnet::mini_wordnet;
    use std::time::Duration;
    use xsdf::LimitKind;

    const DOC: &str = r#"<films>
        <picture title="Rear Window">
            <cast><star>Stewart</star><star>Kelly</star></cast>
        </picture>
    </films>"#;

    #[test]
    fn batch_preserves_input_order_and_isolates_errors() {
        let engine = BatchEngine::new(mini_wordnet(), XsdfConfig::default()).threads(2);
        let docs = [DOC, "<not-xml", DOC, "<cast/>"];
        let report = engine.run(&docs);
        assert_eq!(report.results.len(), 4);
        assert!(report.results[0].is_ok());
        assert!(report.results[1].is_err());
        assert!(report.results[2].is_ok());
        assert!(report.results[3].is_ok());
        assert_eq!(report.metrics.failures.total(), 1);
        assert_eq!(report.metrics.failures.parse, 1);
        assert_eq!(report.metrics.documents, 4);
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = BatchEngine::new(mini_wordnet(), XsdfConfig::default());
        let report = engine.run(&[]);
        assert!(report.results.is_empty());
        assert_eq!(report.metrics.documents, 0);
        assert_eq!(report.metrics.docs_per_sec(), 0.0);
    }

    #[test]
    fn shared_cache_warms_across_documents() {
        let engine = BatchEngine::new(mini_wordnet(), XsdfConfig::default()).threads(1);
        let first = engine.run(&[DOC]);
        let cold_misses = first.metrics.cache_misses;
        assert!(cold_misses > 0, "first document must compute similarities");
        // The same document again: every pair is already cached.
        let second = engine.run(&[DOC]);
        assert_eq!(second.metrics.cache_misses, 0);
        assert!(second.metrics.cache_hits > 0);
        assert!(second.metrics.cache_hit_rate() > 0.99);
    }

    #[test]
    fn threads_zero_means_default() {
        let engine = BatchEngine::new(mini_wordnet(), XsdfConfig::default()).threads(0);
        let report = engine.run(&[DOC, DOC]);
        assert!(report.metrics.threads >= 1);
    }

    #[test]
    fn byte_limit_rejects_before_parsing() {
        let engine = BatchEngine::new(mini_wordnet(), XsdfConfig::default())
            .threads(1)
            .limits(ResourceLimits::unlimited().max_bytes(8));
        let report = engine.run(&[DOC, "<a/>"]);
        match &report.results[0] {
            Err(XsdfError::LimitExceeded { which, .. }) => assert_eq!(*which, LimitKind::Bytes),
            other => panic!("expected byte limit, got {other:?}"),
        }
        assert!(report.results[1].is_ok(), "tiny neighbor still processed");
        assert_eq!(report.metrics.failures.limit, 1);
    }

    #[test]
    fn zero_deadline_fails_every_document_gracefully() {
        let engine = BatchEngine::new(mini_wordnet(), XsdfConfig::default())
            .threads(2)
            .limits(ResourceLimits::unlimited().deadline(Duration::ZERO));
        let report = engine.run(&[DOC, DOC, DOC]);
        assert_eq!(report.metrics.failures.deadline, 3);
        for result in &report.results {
            assert!(matches!(result, Err(XsdfError::DeadlineExceeded { .. })));
        }
    }

    #[test]
    fn fail_fast_cancels_unscheduled_documents_serially() {
        let engine = BatchEngine::new(mini_wordnet(), XsdfConfig::default())
            .threads(1)
            .fail_fast(true);
        let docs = [DOC, "<broken", DOC, DOC];
        let report = engine.run(&docs);
        assert!(report.results[0].is_ok());
        assert!(matches!(report.results[1], Err(XsdfError::Parse(_))));
        assert!(matches!(report.results[2], Err(XsdfError::Cancelled)));
        assert!(matches!(report.results[3], Err(XsdfError::Cancelled)));
        assert_eq!(report.metrics.failures.cancelled, 2);
        assert_eq!(report.metrics.failures.total(), 3);
    }

    #[test]
    fn external_cancel_flag_stops_scheduling() {
        // The inline worker and a two-thread pool run the same loop.
        for threads in [1, 2] {
            let flag = AtomicBool::new(true);
            let engine = BatchEngine::new(mini_wordnet(), XsdfConfig::default())
                .threads(threads)
                .cancel_flag(&flag);
            // Raised before the run: nothing is scheduled at all.
            let report = engine.run(&[DOC, DOC, DOC]);
            assert!(report
                .results
                .iter()
                .all(|r| matches!(r, Err(XsdfError::Cancelled))));
            assert_eq!(report.metrics.failures.cancelled, 3, "{threads} threads");
            assert_eq!(report.metrics.threads, threads);
            // Lowered again: the same engine processes normally.
            flag.store(false, Ordering::Relaxed);
            let report = engine.run(&[DOC, DOC]);
            assert!(
                report.results.iter().all(|r| r.is_ok()),
                "{threads} threads"
            );
            assert_eq!(report.metrics.threads, threads);
        }
    }

    #[test]
    fn shared_cache_injection_pools_warm_state_across_engines() {
        let first = BatchEngine::new(mini_wordnet(), XsdfConfig::default()).threads(1);
        first.run(&[DOC]);
        let warm = Arc::clone(first.cache());
        // A brand-new engine over the same network, given the first
        // engine's cache, starts fully warm.
        let second = BatchEngine::new(mini_wordnet(), XsdfConfig::default())
            .threads(1)
            .shared_cache(warm);
        let report = second.run(&[DOC]);
        assert_eq!(report.metrics.cache_misses, 0);
        assert!(report.metrics.cache_hits > 0);
    }

    #[test]
    fn process_document_observed_returns_span_and_cache_delta() {
        let engine = BatchEngine::new(mini_wordnet(), XsdfConfig::default()).tracing(true);
        let outcome = engine.process_document_observed(DOC);
        assert!(outcome.result.is_ok());
        let span = outcome.span.expect("tracing produces a span");
        assert_eq!(span.outcome, "ok");
        assert!(span.nodes > 0);
        assert_eq!(span.cache_misses, outcome.metrics.cache_misses);
        assert!(outcome.metrics.cache_misses > 0, "cold run must miss");
        // A second observed run over the same engine is fully warm.
        let warm = engine.process_document_observed(DOC);
        assert_eq!(warm.metrics.cache_misses, 0);
        assert!(warm.metrics.cache_hits > 0);
        // Without tracing there is no span, but accounting still works.
        let untraced = BatchEngine::new(mini_wordnet(), XsdfConfig::default());
        let outcome = untraced.process_document_observed(DOC);
        assert!(outcome.result.is_ok());
        assert!(outcome.span.is_none());
    }

    #[test]
    fn pruning_counters_reach_batch_metrics_and_doc_outcomes() {
        let engine = BatchEngine::new(mini_wordnet(), XsdfConfig::default()).threads(1);
        let report = engine.run(&[DOC]);
        assert!(report.results[0].is_ok());
        assert!(
            report.metrics.candidates_pruned > 0,
            "the exact early exit must abandon candidates on a polysemous document"
        );
        let outcome = engine.process_document_observed(DOC);
        assert!(outcome.result.is_ok());
        assert_eq!(
            outcome.metrics.candidates_pruned,
            report.metrics.candidates_pruned
        );
    }

    #[test]
    fn process_document_applies_limits() {
        let engine = BatchEngine::new(mini_wordnet(), XsdfConfig::default())
            .limits(ResourceLimits::unlimited().max_nodes(2));
        assert!(engine.process_document("<cast/>").is_ok());
        let err = engine.process_document(DOC).unwrap_err();
        assert_eq!(err.kind(), "limit");
    }
}
