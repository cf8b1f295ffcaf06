//! The batch executor: a fault-isolating worker pool fanning documents
//! across cores.
//!
//! Each worker owns a [`CombinedSimilarity`] scoring through the engine's
//! one [`SharedCache`] (via a per-run [`TallyCache`] view), so sense pairs
//! computed for any document are reused by every other. Workers pull jobs
//! off a shared counter (dynamic load balancing — documents vary widely in
//! size) and send results back over a channel tagged with the input index;
//! the collector reassembles them in input order, so output is
//! deterministic regardless of thread count or scheduling. Scores
//! themselves are thread-count-independent too: the cache only memoizes a
//! pure function of the concept pair.
//!
//! Failure is always per-document: a panic anywhere in one document's
//! pipeline is caught at the document boundary ([`std::panic::catch_unwind`])
//! and becomes [`XsdfError::Panicked`] in that document's slot while its
//! batch neighbors complete; resource overruns ([`ResourceLimits`]) and
//! deadline overruns ([`BatchEngine::deadline`]) surface the same way as
//! [`XsdfError::LimitExceeded`] / [`XsdfError::DeadlineExceeded`].

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use semnet::SemanticNetwork;
use semsim::{CombinedSimilarity, PairKey, SimilarityCache};
use xsdf::guard::Deadline;
use xsdf::{DisambiguationResult, Xsdf, XsdfConfig};

use crate::cache::{SharedCache, TallyCache};
use crate::error::XsdfError;
use crate::fault;
use crate::limits::ResourceLimits;
use crate::metrics::{FailureCounts, MetricsSnapshot, StageLatency, StageTimings};
use crate::trace::{DocSpan, StageSpan, Trace, TOP_MISS_CONCEPTS};

/// Per-worker accumulator, merged into the batch metrics at the end.
#[derive(Default)]
struct WorkerStats {
    stages: StageTimings,
    latency: StageLatency,
    spans: Vec<DocSpan>,
    nodes: usize,
    targets: usize,
    assigned: usize,
    failures: FailureCounts,
    cache_hits: u64,
    cache_misses: u64,
    gloss_pairs_scored: u64,
    vectors_built: u64,
    vectors_reused: u64,
    candidates_pruned: u64,
}

impl WorkerStats {
    fn merge(&mut self, other: &mut WorkerStats) {
        self.stages.merge(&other.stages);
        self.latency.merge(&other.latency);
        self.spans.append(&mut other.spans);
        self.nodes += other.nodes;
        self.targets += other.targets;
        self.assigned += other.assigned;
        self.failures.merge(&other.failures);
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.gloss_pairs_scored += other.gloss_pairs_scored;
        self.vectors_built += other.vectors_built;
        self.vectors_reused += other.vectors_reused;
        self.candidates_pruned += other.candidates_pruned;
    }

    /// Reads the per-run kernel/cache tallies off a worker's measure once
    /// its share of the batch is done.
    fn collect_cache(&mut self, sim: &CombinedSimilarity<TallyCache>) {
        self.cache_hits = sim.cache().hits();
        self.cache_misses = sim.cache().misses();
        self.gloss_pairs_scored = sim.gloss_pairs_scored();
        self.vectors_built = sim.cache().vector_misses();
        self.vectors_reused = sim.cache().vector_hits();
    }
}

/// What a worker observed about the document it is currently running,
/// written progressively so the trace span is as complete as possible even
/// when a stage errors or panics partway through.
#[derive(Default)]
struct DocMarks {
    stages: [Option<StageSpan>; 4],
    nodes: usize,
    targets: usize,
    assigned: usize,
    sense_pairs: u64,
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
    /// Similarity-cache lookups by this document that hit.
    pub cache_hits: u64,
    /// Similarity-cache lookups by this document that missed.
    pub cache_misses: u64,
    /// Concept pairs pushed through the extended-gloss-overlap kernel.
    pub gloss_pairs_scored: u64,
    /// Context vectors built from scratch.
    pub vectors_built: u64,
    /// Context vectors served from the shared vector table.
    pub vectors_reused: u64,
    /// Candidates the scoring loop's exact early exit abandoned mid-scan
    /// (`xsdf::prune`).
    pub candidates_pruned: u64,
}

/// A reusable parallel batch-disambiguation engine with panic isolation,
/// per-document resource limits, and deadlines.
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
    deadline: Option<Duration>,
    fail_fast: bool,
    tracing: bool,
    cancel: Option<&'sn AtomicBool>,
}

impl<'sn> BatchEngine<'sn> {
    /// An engine over the given network and pipeline configuration, with
    /// one worker per available core, no resource limits, no deadline, and
    /// keep-going failure handling.
    pub fn new(sn: &'sn SemanticNetwork, config: XsdfConfig) -> Self {
        Self {
            xsdf: Xsdf::new(sn, config),
            threads: default_threads(),
            cache: Arc::new(SharedCache::new()),
            limits: ResourceLimits::unlimited(),
            deadline: None,
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

    /// Sets the per-document resource limits.
    pub fn limits(mut self, limits: ResourceLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Sets a per-document wall-clock deadline. Each document gets its own
    /// budget, started when a worker picks it up; overrunning documents
    /// return [`XsdfError::DeadlineExceeded`] at the next cooperative
    /// check. Necessarily time-dependent, so which documents trip is not
    /// deterministic — only that no document stalls a worker forever.
    pub fn deadline(mut self, per_document: Duration) -> Self {
        self.deadline = Some(per_document);
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
    /// fingerprint and context vectors by `(concept, radius, relation
    /// filter)`, so entries computed under one configuration are never
    /// served to an incompatible one.
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

        let mut slots: Vec<Option<Result<DisambiguationResult, XsdfError>>> =
            (0..docs.len()).map(|_| None).collect();
        let mut totals = WorkerStats::default();
        let cancelled = AtomicBool::new(false);

        if threads <= 1 {
            let sim = self.worker_measure();
            let mut stats = WorkerStats::default();
            for (i, (slot, xml)) in slots.iter_mut().zip(docs).enumerate() {
                if self.should_stop(&cancelled) {
                    break;
                }
                *slot = Some(self.run_one(i, 0, xml, started, &sim, &mut stats, &cancelled));
            }
            stats.collect_cache(&sim);
            totals = stats;
        } else {
            let next = AtomicUsize::new(0);
            let (result_tx, result_rx) = mpsc::channel();
            let (stats_tx, stats_rx) = mpsc::channel();
            std::thread::scope(|scope| {
                for worker in 0..threads {
                    let result_tx = result_tx.clone();
                    let stats_tx = stats_tx.clone();
                    let next = &next;
                    let cancelled = &cancelled;
                    scope.spawn(move || {
                        let sim = self.worker_measure();
                        let mut stats = WorkerStats::default();
                        loop {
                            if self.should_stop(cancelled) {
                                break;
                            }
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= docs.len() {
                                break;
                            }
                            let outcome = self
                                .run_one(i, worker, docs[i], started, &sim, &mut stats, cancelled);
                            if result_tx.send((i, outcome)).is_err() {
                                // The collector is gone (it panicked or was
                                // dropped early). Nobody can use further
                                // results; stop quietly instead of
                                // panicking a second thread.
                                break;
                            }
                        }
                        stats.collect_cache(&sim);
                        // Same rationale as above: a dead collector must
                        // not take the worker down with it.
                        let _ = stats_tx.send(stats);
                    });
                }
                drop(result_tx);
                drop(stats_tx);
                // Collect on the scope's owning thread while workers run.
                for (i, outcome) in result_rx {
                    slots[i] = Some(outcome);
                }
                for mut stats in stats_rx {
                    totals.merge(&mut stats);
                }
            });
        }

        // Slots never scheduled (fail-fast cancellation) report as such.
        let mut results = Vec::with_capacity(slots.len());
        for slot in slots {
            results.push(slot.unwrap_or_else(|| {
                totals.failures.cancelled += 1;
                Err(XsdfError::Cancelled)
            }));
        }
        // The span streams arrive in whatever order workers drained the
        // queue; sorting by input index makes the merged trace
        // deterministic for a given batch and thread count.
        let trace = if self.tracing {
            let mut spans = std::mem::take(&mut totals.spans);
            spans.sort_by_key(|s| s.doc);
            Some(Trace { spans, threads })
        } else {
            None
        };
        let metrics = MetricsSnapshot {
            threads,
            documents: docs.len(),
            failed_documents: totals.failures.total(),
            failures: totals.failures,
            nodes: totals.nodes,
            targets: totals.targets,
            assigned: totals.assigned,
            stages: totals.stages,
            latency: totals.latency,
            wall_clock: started.elapsed(),
            cache_hits: totals.cache_hits,
            cache_misses: totals.cache_misses,
            cache_entries: self.cache.len(),
            cache_evictions: self.cache.evictions(),
            cache_bytes: self.cache.bytes(),
            cache_bytes_peak: self.cache.bytes_peak(),
            gloss_pairs_scored: totals.gloss_pairs_scored,
            vectors_built: totals.vectors_built,
            vectors_reused: totals.vectors_reused,
            vector_entries: self.cache.vectors_len(),
            candidates_pruned: totals.candidates_pruned,
        };
        BatchReport {
            results,
            metrics,
            trace,
        }
    }

    /// Disambiguates a single document under the engine's limits and
    /// deadline, with panic isolation. This is `run(&[xml])` without the
    /// batch scaffolding; the CLI uses it for `xsdf disambiguate`.
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
        let sim = self.worker_measure();
        let mut stats = WorkerStats::default();
        let cancelled = AtomicBool::new(false);
        let result = self.run_one(0, 0, xml, Instant::now(), &sim, &mut stats, &cancelled);
        stats.collect_cache(&sim);
        DocOutcome {
            result,
            span: stats.spans.pop(),
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            gloss_pairs_scored: stats.gloss_pairs_scored,
            vectors_built: stats.vectors_built,
            vectors_reused: stats.vectors_reused,
            candidates_pruned: stats.candidates_pruned,
        }
    }

    /// Whether the engine should stop scheduling further documents:
    /// fail-fast after an internal failure, or an external cancel.
    fn should_stop(&self, internal: &AtomicBool) -> bool {
        (self.fail_fast && internal.load(Ordering::Relaxed))
            || self.cancel.is_some_and(|c| c.load(Ordering::Relaxed))
    }

    fn worker_measure(&self) -> CombinedSimilarity<TallyCache> {
        CombinedSimilarity::with_cache(
            self.xsdf.config().similarity,
            TallyCache::new(Arc::clone(&self.cache)),
        )
    }

    /// Runs one document with the panic boundary: a panic anywhere in the
    /// pipeline (or an injected failpoint panic) is caught here and
    /// becomes a per-document [`XsdfError::Panicked`]. Also records the
    /// failure kind, the end-to-end latency, the trace span when tracing
    /// is on, and, in fail-fast mode, raises the cancellation flag.
    #[allow(clippy::too_many_arguments)]
    fn run_one(
        &self,
        doc: usize,
        worker: usize,
        xml: &str,
        epoch: Instant,
        sim: &CombinedSimilarity<TallyCache>,
        stats: &mut WorkerStats,
        cancelled: &AtomicBool,
    ) -> Result<DisambiguationResult, XsdfError> {
        let start = epoch.elapsed();
        let (hits_before, misses_before) = (sim.cache().hits(), sim.cache().misses());
        if self.tracing {
            sim.cache().begin_miss_recording();
        }
        let mut marks = DocMarks::default();
        // AssertUnwindSafe: `stats`, `marks`, and the tally cache are only
        // ever advanced by whole, already-completed increments (Cell sets,
        // Duration additions), and a torn shared-cache shard is audited in
        // `SharedCache` (poison recovery over idempotent pure scores) — so
        // observing them after an unwind cannot expose a broken invariant.
        let outcome = match catch_unwind(AssertUnwindSafe(|| {
            self.process_one(xml, epoch, sim, stats, &mut marks)
        })) {
            Ok(outcome) => outcome,
            Err(payload) => Err(XsdfError::Panicked {
                message: panic_message(payload),
            }),
        };
        let end = epoch.elapsed();
        stats.latency.doc.record(end.saturating_sub(start));
        if let Err(e) = &outcome {
            stats.failures.record(e);
            if self.fail_fast {
                cancelled.store(true, Ordering::Relaxed);
            }
        }
        if self.tracing {
            let missed = sim.cache().take_missed_pairs();
            stats.spans.push(DocSpan {
                doc,
                worker,
                start,
                end,
                bytes: xml.len(),
                outcome: match &outcome {
                    Ok(_) => "ok",
                    Err(e) => e.kind(),
                },
                error: outcome.as_ref().err().map(|e| e.to_string()),
                nodes: marks.nodes,
                targets: marks.targets,
                assigned: marks.assigned,
                sense_pairs: marks.sense_pairs,
                cache_hits: sim.cache().hits() - hits_before,
                cache_misses: sim.cache().misses() - misses_before,
                stages: marks.stages,
                top_miss_concepts: top_miss_concepts(self.xsdf.network(), &missed),
            });
        }
        outcome
    }

    /// The four-stage pipeline for one document, with limit and deadline
    /// checks at every stage boundary (and, via the guard, inside the
    /// scoring loop). Wraps [`BatchEngine::process_stages`] so the guard's
    /// sense-pair count lands in the marks on success *and* error exits
    /// (a panic loses it — the guard unwinds with the stack).
    fn process_one(
        &self,
        xml: &str,
        epoch: Instant,
        sim: &CombinedSimilarity<TallyCache>,
        stats: &mut WorkerStats,
        marks: &mut DocMarks,
    ) -> Result<DisambiguationResult, XsdfError> {
        let guard = self.limits.guard(self.deadline.map(Deadline::after));
        let outcome = self.process_stages(xml, epoch, sim, stats, marks, &guard);
        marks.sense_pairs = guard.pairs_scored();
        stats.candidates_pruned += guard.candidates_pruned();
        outcome
    }

    fn process_stages(
        &self,
        xml: &str,
        epoch: Instant,
        sim: &CombinedSimilarity<TallyCache>,
        stats: &mut WorkerStats,
        marks: &mut DocMarks,
        guard: &xsdf::guard::Guard,
    ) -> Result<DisambiguationResult, XsdfError> {
        fault::hit("parse", xml);
        if let Some(max) = self.limits.max_bytes {
            if xml.len() > max {
                return Err(XsdfError::LimitExceeded {
                    which: xsdf::LimitKind::Bytes,
                    limit: max as u64,
                    actual: xml.len() as u64,
                });
            }
        }
        let stage_start = epoch.elapsed();
        let t = Instant::now();
        let parsed = self.limits.parse(xml);
        let took = t.elapsed();
        stats.stages.parse += took;
        stats.latency.parse.record(took);
        marks.stages[0] = Some(StageSpan {
            start: stage_start,
            duration: took,
        });
        let doc = parsed?;
        guard.check_deadline()?;

        fault::hit("preprocess", xml);
        let stage_start = epoch.elapsed();
        let t = Instant::now();
        let tree = self.xsdf.build_tree(&doc);
        let took = t.elapsed();
        stats.stages.preprocess += took;
        stats.latency.preprocess.record(took);
        marks.stages[1] = Some(StageSpan {
            start: stage_start,
            duration: took,
        });
        marks.nodes = tree.len();

        fault::hit("select", xml);
        let stage_start = epoch.elapsed();
        let t = Instant::now();
        let selected = self.xsdf.select_guarded(&tree, guard);
        let took = t.elapsed();
        stats.stages.select += took;
        stats.latency.select.record(took);
        marks.stages[2] = Some(StageSpan {
            start: stage_start,
            duration: took,
        });
        let ambiguities = selected?;
        marks.targets = ambiguities.iter().filter(|a| a.selected).count();

        fault::hit("disambiguate", xml);
        let stage_start = epoch.elapsed();
        let t = Instant::now();
        let scored = self
            .xsdf
            .disambiguate_selected_guarded(&tree, &ambiguities, sim, guard);
        let took = t.elapsed();
        stats.stages.disambiguate += took;
        stats.latency.disambiguate.record(took);
        marks.stages[3] = Some(StageSpan {
            start: stage_start,
            duration: took,
        });
        let result = scored?;
        marks.assigned = result.assigned_count();

        stats.nodes += tree.len();
        stats.targets += marks.targets;
        stats.assigned += marks.assigned;
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
        assert_eq!(report.metrics.failed_documents, 1);
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
            .deadline(Duration::ZERO);
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
        assert_eq!(report.metrics.failed_documents, 3);
    }

    #[test]
    fn external_cancel_flag_stops_scheduling() {
        let flag = AtomicBool::new(true);
        let engine = BatchEngine::new(mini_wordnet(), XsdfConfig::default())
            .threads(1)
            .cancel_flag(&flag);
        // Raised before the run: nothing is scheduled at all.
        let report = engine.run(&[DOC, DOC, DOC]);
        assert!(report
            .results
            .iter()
            .all(|r| matches!(r, Err(XsdfError::Cancelled))));
        assert_eq!(report.metrics.failures.cancelled, 3);
        // Lowered again: the same engine processes normally.
        flag.store(false, Ordering::Relaxed);
        let report = engine.run(&[DOC]);
        assert!(report.results[0].is_ok());
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
        assert_eq!(span.cache_misses, outcome.cache_misses);
        assert!(outcome.cache_misses > 0, "cold run must miss");
        // A second observed run over the same engine is fully warm.
        let warm = engine.process_document_observed(DOC);
        assert_eq!(warm.cache_misses, 0);
        assert!(warm.cache_hits > 0);
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
        assert_eq!(outcome.candidates_pruned, report.metrics.candidates_pruned);
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
