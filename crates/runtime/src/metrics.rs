//! Runtime metrics: per-stage wall-clock timings, throughput, and cache
//! accounting for a batch run.
//!
//! The snapshot is a plain struct so callers can assert on it in tests; the
//! JSON rendering is hand-rolled (this crate is std-only) and stable:
//! key order matches the field order documented on [`MetricsSnapshot`].

use std::time::Duration;

use crate::error::XsdfError;
use crate::hist::Histogram;

/// Per-kind failure tally for one batch run, mirroring the
/// [`XsdfError`] taxonomy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureCounts {
    /// Documents that were not well-formed XML.
    pub parse: usize,
    /// Documents that exceeded a resource limit.
    pub limit: usize,
    /// Documents that ran past their deadline.
    pub deadline: usize,
    /// Documents whose processing panicked (caught at the document
    /// boundary).
    pub panic: usize,
    /// Documents skipped because a fail-fast batch was cancelled first.
    pub cancelled: usize,
}

impl FailureCounts {
    /// Total failed documents across all kinds.
    pub fn total(&self) -> usize {
        self.parse + self.limit + self.deadline + self.panic + self.cancelled
    }

    /// Tallies one failure under its kind.
    pub fn record(&mut self, err: &XsdfError) {
        match err {
            XsdfError::Parse(_) => self.parse += 1,
            XsdfError::LimitExceeded { .. } => self.limit += 1,
            XsdfError::DeadlineExceeded { .. } => self.deadline += 1,
            XsdfError::Panicked { .. } => self.panic += 1,
            XsdfError::Cancelled => self.cancelled += 1,
        }
    }

    /// Element-wise sum of another tally into this one.
    pub fn merge(&mut self, other: &FailureCounts) {
        self.parse += other.parse;
        self.limit += other.limit;
        self.deadline += other.deadline;
        self.panic += other.panic;
        self.cancelled += other.cancelled;
    }
}

/// Cumulative time spent in each pipeline stage, summed across workers.
///
/// Sums are of per-document CPU time, so with `N` busy workers the stage
/// totals can legitimately exceed [`MetricsSnapshot::wall_clock`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// XML parsing (`xmltree::parse`).
    pub parse: Duration,
    /// Tree building + linguistic pre-processing.
    pub preprocess: Duration,
    /// Target selection (ambiguity degrees + threshold).
    pub select: Duration,
    /// Candidate scoring + sense assignment.
    pub disambiguate: Duration,
}

impl StageTimings {
    /// Sum of all stage times.
    pub fn total(&self) -> Duration {
        self.parse + self.preprocess + self.select + self.disambiguate
    }

    /// Element-wise sum of another timing set into this one.
    pub fn merge(&mut self, other: &StageTimings) {
        self.parse += other.parse;
        self.preprocess += other.preprocess;
        self.select += other.select;
        self.disambiguate += other.disambiguate;
    }
}

/// Per-document latency distributions, one histogram per pipeline stage
/// plus the end-to-end (`doc`) distribution.
///
/// Where [`StageTimings`] sums stage time across the batch, these record
/// each document's *individual* stage durations, so tail latency (p99, a
/// single pathological document) is visible instead of averaged away.
/// Failed documents contribute to the stages they completed and to `doc`;
/// stages they never reached record nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageLatency {
    /// Per-document XML parsing latency.
    pub parse: Histogram,
    /// Per-document tree building + linguistic pre-processing latency.
    pub preprocess: Histogram,
    /// Per-document target-selection latency.
    pub select: Histogram,
    /// Per-document scoring + sense-assignment latency.
    pub disambiguate: Histogram,
    /// Per-document end-to-end latency (pickup to completion).
    pub doc: Histogram,
}

impl StageLatency {
    /// The five distributions with their JSON/report names.
    pub fn groups(&self) -> [(&'static str, &Histogram); 5] {
        [
            ("parse", &self.parse),
            ("preprocess", &self.preprocess),
            ("select", &self.select),
            ("disambiguate", &self.disambiguate),
            ("doc", &self.doc),
        ]
    }

    /// Element-wise merge of every distribution in `other` into this one.
    pub fn merge(&mut self, other: &StageLatency) {
        self.parse.merge(&other.parse);
        self.preprocess.merge(&other.preprocess);
        self.select.merge(&other.select);
        self.disambiguate.merge(&other.disambiguate);
        self.doc.merge(&other.doc);
    }
}

/// A point-in-time view of one batch run.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Worker threads used.
    pub threads: usize,
    /// Documents submitted.
    pub documents: usize,
    /// Documents that failed for any reason (the sum of
    /// [`MetricsSnapshot::failures`]).
    pub failed_documents: usize,
    /// Failed documents broken down by [`XsdfError`] kind.
    pub failures: FailureCounts,
    /// Tree nodes across successfully processed documents.
    pub nodes: usize,
    /// Nodes selected as disambiguation targets.
    pub targets: usize,
    /// Targets that received a sense.
    pub assigned: usize,
    /// Per-stage timings (summed across workers).
    pub stages: StageTimings,
    /// Per-document latency distributions (per stage and end-to-end),
    /// merged across workers.
    pub latency: StageLatency,
    /// End-to-end elapsed time of the batch.
    pub wall_clock: Duration,
    /// Similarity-cache lookups that hit.
    pub cache_hits: u64,
    /// Similarity-cache lookups that missed.
    pub cache_misses: u64,
    /// Distinct concept pairs cached at the end of the run.
    pub cache_entries: usize,
    /// Entries evicted from the shared cache over its lifetime (0 when
    /// the cache is unbounded and never trimmed).
    pub cache_evictions: u64,
    /// Accounted bytes currently held by the shared cache (both tables).
    pub cache_bytes: u64,
    /// Lifetime high watermark of `cache_bytes`.
    pub cache_bytes_peak: u64,
    /// Concept pairs that went through the extended-gloss-overlap kernel
    /// (cache misses only; hits never rescore).
    pub gloss_pairs_scored: u64,
    /// Concept context vectors built from scratch (vector-table misses).
    pub vectors_built: u64,
    /// Concept context vectors served from the shared vector table.
    pub vectors_reused: u64,
    /// Distinct concept context vectors cached at the end of the run.
    pub vector_entries: usize,
    /// Candidate senses (or compound sense pairs) the scoring loop's
    /// exact early exit abandoned mid-scan (`xsdf::prune`): each provably
    /// could not beat its target's leader.
    pub candidates_pruned: u64,
}

impl MetricsSnapshot {
    /// Merges another run's snapshot into this one — the aggregation the
    /// sharded batch driver performs over its worker processes' reports.
    ///
    /// All counters sum; stage timings, failure tallies, and latency
    /// histograms merge element-wise (the same commutative, associative
    /// merge the in-process executor uses across worker threads, so the
    /// result is independent of shard count and arrival order). Two
    /// fields are not sums: `threads` takes the maximum (shards run
    /// concurrently, each with its own pool), and `wall_clock` takes the
    /// maximum (concurrent shards overlap; a caller measuring the true
    /// end-to-end elapsed time should overwrite it afterwards). The
    /// cache gauges (`cache_entries`, `cache_bytes`, `cache_bytes_peak`,
    /// `vector_entries`) sum because each process owns a disjoint cache.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.threads = self.threads.max(other.threads);
        self.documents += other.documents;
        self.failed_documents += other.failed_documents;
        self.failures.merge(&other.failures);
        self.nodes += other.nodes;
        self.targets += other.targets;
        self.assigned += other.assigned;
        self.stages.merge(&other.stages);
        self.latency.merge(&other.latency);
        self.wall_clock = self.wall_clock.max(other.wall_clock);
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_entries += other.cache_entries;
        self.cache_evictions += other.cache_evictions;
        self.cache_bytes += other.cache_bytes;
        self.cache_bytes_peak += other.cache_bytes_peak;
        self.gloss_pairs_scored += other.gloss_pairs_scored;
        self.vectors_built += other.vectors_built;
        self.vectors_reused += other.vectors_reused;
        self.vector_entries += other.vector_entries;
        self.candidates_pruned += other.candidates_pruned;
    }

    /// *Successful* documents processed per wall-clock second — failed
    /// documents are excluded from the numerator. The subtraction
    /// saturates: `MetricsSnapshot` is a plain public struct, so an
    /// externally constructed (or future merge-path) snapshot with
    /// `failed_documents > documents` reports `0.0` instead of panicking
    /// in debug builds or emitting a garbage rate in release.
    pub fn docs_per_sec(&self) -> f64 {
        per_second(
            self.documents.saturating_sub(self.failed_documents),
            self.wall_clock,
        )
    }

    /// Tree nodes processed per wall-clock second. Like
    /// [`MetricsSnapshot::docs_per_sec`], this counts successes only:
    /// [`MetricsSnapshot::nodes`] accumulates over successfully processed
    /// documents.
    pub fn nodes_per_sec(&self) -> f64 {
        per_second(self.nodes, self.wall_clock)
    }

    /// `hits / (hits + misses)`, or 0 when nothing was looked up.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// The snapshot as a pretty-printed JSON object.
    ///
    /// Durations are reported in (fractional) milliseconds under `_ms`
    /// keys; derived rates are included so downstream dashboards need no
    /// arithmetic.
    pub fn to_json(&self) -> String {
        self.to_json_extended(&[])
    }

    /// The snapshot as JSON with caller-supplied fields appended after the
    /// snapshot's own — how a resident service extends the engine metrics
    /// with its serving-layer counters (uptime, queue depth, per-endpoint
    /// latency) while keeping one flat, dashboard-friendly object. Each
    /// `extra` entry is a `(key, rendered JSON value)` pair; keys should
    /// not collide with the snapshot's documented keys.
    pub fn to_json_extended(&self, extra: &[(String, String)]) -> String {
        let mut out = String::from("{\n");
        let mut fields: Vec<(String, String)> = Vec::new();
        let mut field = |key: &str, value: String| fields.push((key.to_string(), value));
        for (key, value) in [
            ("threads", self.threads.to_string()),
            ("documents", self.documents.to_string()),
            ("failed_documents", self.failed_documents.to_string()),
            ("failed_parse", self.failures.parse.to_string()),
            ("failed_limit", self.failures.limit.to_string()),
            ("failed_deadline", self.failures.deadline.to_string()),
            ("failed_panic", self.failures.panic.to_string()),
            ("failed_cancelled", self.failures.cancelled.to_string()),
            ("nodes", self.nodes.to_string()),
            ("targets", self.targets.to_string()),
            ("assigned", self.assigned.to_string()),
            ("parse_ms", json_f64(ms(self.stages.parse))),
            ("preprocess_ms", json_f64(ms(self.stages.preprocess))),
            ("select_ms", json_f64(ms(self.stages.select))),
            ("disambiguate_ms", json_f64(ms(self.stages.disambiguate))),
            ("wall_clock_ms", json_f64(ms(self.wall_clock))),
            ("docs_per_sec", json_f64(self.docs_per_sec())),
            ("nodes_per_sec", json_f64(self.nodes_per_sec())),
            ("cache_hits", self.cache_hits.to_string()),
            ("cache_misses", self.cache_misses.to_string()),
            ("cache_hit_rate", json_f64(self.cache_hit_rate())),
            ("cache_entries", self.cache_entries.to_string()),
            ("cache_evictions", self.cache_evictions.to_string()),
            ("cache_bytes", self.cache_bytes.to_string()),
            ("cache_bytes_peak", self.cache_bytes_peak.to_string()),
            ("gloss_pairs_scored", self.gloss_pairs_scored.to_string()),
            ("vectors_built", self.vectors_built.to_string()),
            ("vectors_reused", self.vectors_reused.to_string()),
            ("vector_entries", self.vector_entries.to_string()),
            ("candidates_pruned", self.candidates_pruned.to_string()),
        ] {
            field(key, value);
        }
        // Per-document latency percentiles, per stage and end-to-end.
        for (name, hist) in self.latency.groups() {
            field(&format!("{name}_p50_ms"), json_f64(ms(hist.p50())));
            field(&format!("{name}_p90_ms"), json_f64(ms(hist.p90())));
            field(&format!("{name}_p99_ms"), json_f64(ms(hist.p99())));
            field(&format!("{name}_max_ms"), json_f64(ms(hist.max())));
        }
        fields.extend(extra.iter().cloned());
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
        out.push('}');
        out
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn per_second(count: usize, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs == 0.0 {
        0.0
    } else {
        count as f64 / secs
    }
}

/// JSON-safe float rendering: finite values keep a decimal marker, the
/// rest degrade to `null` (mirrors serde_json).
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

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            threads: 4,
            documents: 10,
            failed_documents: 1,
            failures: FailureCounts {
                parse: 1,
                ..FailureCounts::default()
            },
            nodes: 900,
            targets: 300,
            assigned: 250,
            stages: StageTimings {
                parse: Duration::from_millis(5),
                preprocess: Duration::from_millis(10),
                select: Duration::from_millis(15),
                disambiguate: Duration::from_millis(70),
            },
            latency: {
                let mut latency = StageLatency::default();
                for doc_ms in [1u64, 2, 3, 4, 30] {
                    latency.doc.record(Duration::from_millis(doc_ms));
                    latency.parse.record(Duration::from_micros(doc_ms * 10));
                }
                latency
            },
            wall_clock: Duration::from_millis(30),
            cache_hits: 75,
            cache_misses: 25,
            cache_entries: 25,
            cache_evictions: 3,
            cache_bytes: 4096,
            cache_bytes_peak: 8192,
            gloss_pairs_scored: 25,
            vectors_built: 12,
            vectors_reused: 48,
            vector_entries: 12,
            candidates_pruned: 7,
        }
    }

    #[test]
    fn derived_rates() {
        let m = sample();
        assert!((m.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert!((m.docs_per_sec() - 300.0).abs() < 1e-9);
        assert!((m.nodes_per_sec() - 30000.0).abs() < 1e-9);
        assert_eq!(m.stages.total(), Duration::from_millis(100));
    }

    #[test]
    fn zero_division_is_quiet() {
        let m = MetricsSnapshot {
            wall_clock: Duration::ZERO,
            cache_hits: 0,
            cache_misses: 0,
            ..sample()
        };
        assert_eq!(m.docs_per_sec(), 0.0);
        assert_eq!(m.cache_hit_rate(), 0.0);
    }

    #[test]
    fn json_has_all_keys() {
        let json = sample().to_json();
        for key in [
            "threads",
            "documents",
            "failed_documents",
            "failed_parse",
            "failed_limit",
            "failed_deadline",
            "failed_panic",
            "failed_cancelled",
            "nodes",
            "targets",
            "assigned",
            "parse_ms",
            "preprocess_ms",
            "select_ms",
            "disambiguate_ms",
            "wall_clock_ms",
            "docs_per_sec",
            "nodes_per_sec",
            "cache_hits",
            "cache_misses",
            "cache_hit_rate",
            "cache_entries",
            "cache_evictions",
            "cache_bytes",
            "cache_bytes_peak",
            "gloss_pairs_scored",
            "vectors_built",
            "vectors_reused",
            "vector_entries",
            "candidates_pruned",
        ] {
            assert!(
                json.contains(&format!("\"{key}\":")),
                "missing {key} in {json}"
            );
        }
        // Latency percentile keys: every stage and the end-to-end group.
        for group in ["parse", "preprocess", "select", "disambiguate", "doc"] {
            for stat in ["p50", "p90", "p99", "max"] {
                let key = format!("\"{group}_{stat}_ms\":");
                assert!(json.contains(&key), "missing {key} in {json}");
            }
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"cache_hit_rate\": 0.75"));
        assert!(json.contains("\"failed_parse\": 1"));
        // The doc histogram's exact max surfaces unapproximated.
        assert!(json.contains("\"doc_max_ms\": 30.0"), "{json}");
    }

    #[test]
    fn docs_per_sec_saturates_on_inconsistent_counts() {
        // `MetricsSnapshot` is a plain public struct: nothing stops an
        // external caller (or a future merge path) from building one with
        // more failures than documents. The rate must degrade to 0, not
        // panic in debug or report a huge garbage value in release.
        let m = MetricsSnapshot {
            documents: 2,
            failed_documents: 5,
            ..sample()
        };
        assert_eq!(m.docs_per_sec(), 0.0);
    }

    #[test]
    fn snapshot_merge_sums_counters_and_maxes_wall_clock() {
        let mut a = sample();
        let b = MetricsSnapshot {
            threads: 2,
            documents: 7,
            failed_documents: 2,
            failures: FailureCounts {
                parse: 1,
                limit: 1,
                ..FailureCounts::default()
            },
            wall_clock: Duration::from_millis(50),
            ..sample()
        };
        let a0 = a.clone();
        a.merge(&b);
        assert_eq!(a.documents, a0.documents + 7);
        assert_eq!(a.failed_documents, a0.failed_documents + 2);
        assert_eq!(a.failures.total(), a.failed_documents);
        assert_eq!(a.nodes, a0.nodes * 2);
        assert_eq!(a.threads, 4, "threads is a max, not a sum");
        assert_eq!(
            a.wall_clock,
            Duration::from_millis(50),
            "wall clock is a max"
        );
        assert_eq!(a.stages.parse, a0.stages.parse * 2);
        assert_eq!(a.latency.doc.count(), a0.latency.doc.count() * 2);
        assert_eq!(a.cache_bytes, a0.cache_bytes * 2);

        // Merge order does not matter (commutativity at the field level).
        let mut ba = b.clone();
        ba.merge(&a0);
        assert_eq!(ba, a);
    }

    #[test]
    fn failure_counts_tally_by_kind() {
        let mut counts = FailureCounts::default();
        counts.record(&XsdfError::Cancelled);
        counts.record(&XsdfError::Panicked {
            message: "boom".into(),
        });
        counts.record(&XsdfError::Panicked {
            message: "boom again".into(),
        });
        assert_eq!(counts.panic, 2);
        assert_eq!(counts.cancelled, 1);
        assert_eq!(counts.total(), 3);
        let mut merged = FailureCounts {
            parse: 1,
            ..FailureCounts::default()
        };
        merged.merge(&counts);
        assert_eq!(merged.total(), 4);
    }
}
