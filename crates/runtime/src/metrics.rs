//! Runtime metrics: per-stage wall-clock timings, throughput, and cache
//! accounting for a batch run.
//!
//! [`MetricsSnapshot`] is the one per-run record that `batch`, `batch
//! --shards` and `serve` report. Each of its fields is declared once, as a
//! row of a `record!` table with its doc line and merge rule; the rows
//! generate the struct, [`MetricsSnapshot::merge`], the JSON rendering
//! and the [`crate::ShardReport`] codec, so adding a counter is one row.
//! The JSON is hand-rolled (this crate is std-only); its keys follow the
//! rows, and README's "Observability" table documents every one.

use std::ops::{Index, IndexMut};
use std::time::Duration;

use semsim::SimilarityCache;

use crate::cache::SharedCache;
use crate::error::XsdfError;
use crate::hist::Histogram;
use crate::shard::ReportLines;

/// The four pipeline stages of §3, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// XML parsing (`xmltree::parse`).
    Parse,
    /// Tree building + linguistic pre-processing.
    Preprocess,
    /// Target selection (ambiguity degrees + threshold).
    Select,
    /// Candidate scoring + sense assignment.
    Disambiguate,
}

impl Stage {
    /// Every stage, in execution order.
    pub const ALL: [Stage; 4] = [
        Stage::Parse,
        Stage::Preprocess,
        Stage::Select,
        Stage::Disambiguate,
    ];

    /// The stage's name in metric keys, trace events and failpoints.
    pub fn name(self) -> &'static str {
        ["parse", "preprocess", "select", "disambiguate"][self as usize]
    }
}

/// One value per pipeline stage, in [`Stage::ALL`] order; index it by
/// [`Stage`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerStage<T>(pub [T; 4]);

impl<T> Index<Stage> for PerStage<T> {
    type Output = T;
    fn index(&self, stage: Stage) -> &T {
        &self.0[stage as usize]
    }
}

impl<T> IndexMut<Stage> for PerStage<T> {
    fn index_mut(&mut self, stage: Stage) -> &mut T {
        &mut self.0[stage as usize]
    }
}

/// Cumulative time spent in each pipeline stage, summed across workers.
///
/// Sums are of per-document CPU time, so with `N` busy workers the stage
/// totals can legitimately exceed [`MetricsSnapshot::wall_clock`].
pub type StageTimings = PerStage<Duration>;

impl StageTimings {
    /// Sum of all stage times.
    pub fn total(&self) -> Duration {
        self.0.iter().sum()
    }
}

/// A field's rendered `(key, value)` pairs.
type Entries = Vec<(String, String)>;

/// How a record field merges under the `sum` rule, renders as `(key,
/// value)` entries — JSON values, or shard-report values on the `wire` —
/// and decodes from a shard report. A record keys its fields
/// `<prefix><field name>` and a [`PerStage`] keys its values by stage
/// name; any other value renders under the key it is given.
pub(crate) trait Field: Sized {
    /// Element-wise addition: the `sum` merge rule.
    fn add(&mut self, other: &Self);
    /// Appends the field's entries under `key`.
    fn entries(&self, key: &str, wire: bool, out: &mut Entries);
    /// Reads the field back from a shard report.
    fn decode(key: &str, report: &mut ReportLines<'_>) -> Result<Self, String>;
}

macro_rules! count_field {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            fn add(&mut self, other: &Self) {
                *self += other;
            }
            fn entries(&self, key: &str, _: bool, out: &mut Entries) {
                out.push((key.to_string(), self.to_string()));
            }
            fn decode(key: &str, report: &mut ReportLines<'_>) -> Result<Self, String> {
                report.parse(key)
            }
        }
    )*};
}

count_field!(usize, u64);

/// Milliseconds in JSON (`<key>_ms`), exact nanoseconds on the wire
/// (`<key>_ns`).
impl Field for Duration {
    fn add(&mut self, other: &Self) {
        *self += *other;
    }
    fn entries(&self, key: &str, wire: bool, out: &mut Entries) {
        out.push(if wire {
            (format!("{key}_ns"), self.as_nanos().to_string())
        } else {
            (format!("{key}_ms"), json_f64(self.as_secs_f64() * 1e3))
        });
    }
    fn decode(key: &str, report: &mut ReportLines<'_>) -> Result<Self, String> {
        report.parse(&format!("{key}_ns")).map(Duration::from_nanos)
    }
}

/// Percentiles in JSON (`<key>_p50_ms` … `<key>_max_ms`), the lossless
/// [`Histogram::encode`] form on the wire (`hist_<key>`).
impl Field for Histogram {
    fn add(&mut self, other: &Self) {
        self.merge(other);
    }
    fn entries(&self, key: &str, wire: bool, out: &mut Entries) {
        if wire {
            out.push((format!("hist_{key}"), self.encode()));
        } else {
            out.extend(self.percentile_entries(key));
        }
    }
    fn decode(key: &str, report: &mut ReportLines<'_>) -> Result<Self, String> {
        let key = format!("hist_{key}");
        Histogram::decode(report.take(&key)?).ok_or_else(|| format!("bad histogram for {key}"))
    }
}

/// Each stage's value under the stage's name.
impl<T: Field + Default> Field for PerStage<T> {
    fn add(&mut self, other: &Self) {
        for stage in Stage::ALL {
            self[stage].add(&other[stage]);
        }
    }
    fn entries(&self, _: &str, wire: bool, out: &mut Entries) {
        for stage in Stage::ALL {
            self[stage].entries(stage.name(), wire, out);
        }
    }
    fn decode(_: &str, report: &mut ReportLines<'_>) -> Result<Self, String> {
        let mut values = Self::default();
        for stage in Stage::ALL {
            values[stage] = T::decode(stage.name(), report)?;
        }
        Ok(values)
    }
}

impl Histogram {
    /// The JSON entries `--metrics` reports for a latency distribution:
    /// `<key>_p50_ms`, `<key>_p90_ms`, `<key>_p99_ms` and `<key>_max_ms`.
    pub fn percentile_entries(&self, key: &str) -> Vec<(String, String)> {
        let mut out = Vec::new();
        let stats = [self.p50(), self.p90(), self.p99(), self.max()];
        for (stat, value) in ["p50", "p90", "p99", "max"].into_iter().zip(stats) {
            value.entries(&format!("{key}_{stat}"), false, &mut out);
        }
        out
    }
}

/// The `sum` merge rule.
fn sum<T: Field>(mine: &mut T, theirs: &T) {
    mine.add(theirs);
}

/// The `max` merge rule.
fn max<T: Ord + Copy>(mine: &mut T, theirs: &T) {
    *mine = (*mine).max(*theirs);
}

/// Declares a record: a struct whose fields are each declared once, as a
/// row with a doc line, a type and a merge rule (`sum` or `max`). The rows
/// generate the struct, its `merge` and its [`Field`] impl — entries and
/// decode in row order, each field keyed `<prefix><field name>`.
macro_rules! record {
    (
        $(#[$attr:meta])*
        pub struct $record:ident, keys $prefix:literal {
            $($(#[$doc:meta])+ $name:ident: $ty:ty = $rule:ident,)+
        }
    ) => {
        $(#[$attr])*
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct $record {
            $($(#[$doc])+ pub $name: $ty,)+
        }

        impl $record {
            /// Merges `other` into this record, each field by its rule.
            pub fn merge(&mut self, other: &Self) {
                $($rule(&mut self.$name, &other.$name);)+
            }
        }

        impl Field for $record {
            fn add(&mut self, other: &Self) {
                self.merge(other);
            }
            fn entries(&self, _: &str, wire: bool, out: &mut Entries) {
                $(self.$name.entries(concat!($prefix, stringify!($name)), wire, out);)+
            }
            fn decode(_: &str, report: &mut ReportLines<'_>) -> Result<Self, String> {
                Ok(Self {
                    $($name: Field::decode(concat!($prefix, stringify!($name)), report)?,)+
                })
            }
        }
    };
}

record! {
    /// Per-kind failure tally for one batch run, mirroring the
    /// [`XsdfError`] taxonomy.
    #[derive(Copy, Eq)]
    pub struct FailureCounts, keys "failed_" {
        /// Documents that were not well-formed XML.
        parse: usize = sum,
        /// Documents that exceeded a resource limit.
        limit: usize = sum,
        /// Documents that ran past their deadline.
        deadline: usize = sum,
        /// Documents whose processing panicked (caught at the document boundary).
        panic: usize = sum,
        /// Documents skipped because a fail-fast batch was cancelled first.
        cancelled: usize = sum,
    }
}

impl FailureCounts {
    /// Total failed documents across all kinds. The pattern names every
    /// field, so a new failure kind does not compile until it is counted
    /// here too.
    pub fn total(&self) -> usize {
        let Self {
            parse,
            limit,
            deadline,
            panic,
            cancelled,
        } = *self;
        parse + limit + deadline + panic + cancelled
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
}

record! {
    /// Per-document latency distributions, one histogram per pipeline
    /// stage plus the end-to-end (`doc`) distribution.
    ///
    /// Where [`StageTimings`] sums stage time across the batch, these
    /// record each document's *individual* stage durations, so tail
    /// latency (p99, a single pathological document) is visible instead of
    /// averaged away. Failed documents contribute to the stages they
    /// completed and to `doc`; stages they never reached record nothing.
    #[derive(Eq)]
    pub struct StageLatency, keys "" {
        /// Per-document latency of each stage.
        stages: PerStage<Histogram> = sum,
        /// Per-document end-to-end latency (pickup to completion).
        doc: Histogram = sum,
    }
}

record! {
    /// A point-in-time view of one run: `batch`, `batch --shards` and
    /// `serve` all report this one record.
    ///
    /// [`MetricsSnapshot::merge`] is the executor's merge across worker
    /// threads, the sharded driver's across worker processes and the
    /// server's across requests. Every rule is commutative and
    /// associative, so the result is independent of thread count, shard
    /// count and arrival order; a caller measuring the true end-to-end
    /// time overwrites `wall_clock` afterwards. The cache gauges read the
    /// cache at the end of the run and sum across shards, since each shard
    /// process owns its cache.
    pub struct MetricsSnapshot, keys "" {
        /// Worker threads used (concurrent shards: the largest pool).
        threads: usize = max,
        /// Documents submitted.
        documents: usize = sum,
        /// Failed documents by [`XsdfError`] kind.
        failures: FailureCounts = sum,
        /// Tree nodes across successfully processed documents.
        nodes: usize = sum,
        /// Nodes selected as disambiguation targets.
        targets: usize = sum,
        /// Targets that received a sense.
        assigned: usize = sum,
        /// Sense-pair evaluation units drawn from the guard (failed documents included).
        sense_pairs: u64 = sum,
        /// Per-stage timings (summed across workers).
        stages: StageTimings = sum,
        /// End-to-end elapsed time (concurrent shards overlap: the longest).
        wall_clock: Duration = max,
        /// Similarity-cache lookups that hit.
        cache_hits: u64 = sum,
        /// Similarity-cache lookups that missed.
        cache_misses: u64 = sum,
        /// Gauge: distinct concept pairs cached.
        cache_entries: usize = sum,
        /// Gauge: entries evicted from the shared cache over its lifetime.
        cache_evictions: u64 = sum,
        /// Gauge: accounted bytes held by the shared cache (both tables).
        cache_bytes: u64 = sum,
        /// Gauge: lifetime high watermark of `cache_bytes`.
        cache_bytes_peak: u64 = sum,
        /// Concept pairs scored by the extended-gloss-overlap kernel (cache misses only).
        gloss_pairs_scored: u64 = sum,
        /// Concept context vectors built from scratch (vector-table misses).
        vectors_built: u64 = sum,
        /// Concept context vectors served from the shared vector table.
        vectors_reused: u64 = sum,
        /// Gauge: distinct concept context vectors cached.
        vector_entries: usize = sum,
        /// Candidates the scoring loop's exact early exit abandoned (`xsdf::prune`).
        candidates_pruned: u64 = sum,
        /// Per-document latency distributions (per stage and end to end).
        latency: StageLatency = sum,
    }
}

impl MetricsSnapshot {
    /// Counts one finished document, and its failure kind when it failed.
    pub fn count_document(&mut self, failure: Option<&XsdfError>) {
        self.documents += 1;
        if let Some(err) = failure {
            self.failures.record(err);
        }
    }

    /// Reads the cache gauges off the shared cache the run scored through.
    pub fn read_cache_gauges(&mut self, cache: &SharedCache) {
        self.cache_entries = cache.len();
        self.cache_evictions = cache.evictions();
        self.cache_bytes = cache.bytes();
        self.cache_bytes_peak = cache.bytes_peak();
        self.vector_entries = cache.vectors_len();
    }

    /// *Successful* documents processed per wall-clock second — failed
    /// documents are excluded from the numerator. The subtraction
    /// saturates: `MetricsSnapshot` is a plain public struct, so an
    /// externally constructed snapshot with more failures than documents
    /// reports `0.0` instead of panicking in debug builds or emitting a
    /// garbage rate in release.
    pub fn docs_per_sec(&self) -> f64 {
        per_second(
            self.documents.saturating_sub(self.failures.total()),
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
    /// keys; derived values (the failure total and the rates) follow the
    /// fields, so downstream dashboards need no arithmetic.
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
        let mut fields = Vec::new();
        self.entries("", false, &mut fields);
        let failed = self.failures.total().to_string();
        fields.push(("failed_documents".to_string(), failed));
        for (key, rate) in [
            ("docs_per_sec", self.docs_per_sec()),
            ("nodes_per_sec", self.nodes_per_sec()),
            ("cache_hit_rate", self.cache_hit_rate()),
        ] {
            fields.push((key.to_string(), json_f64(rate)));
        }
        fields.extend(extra.iter().cloned());
        let body: Vec<String> = fields
            .iter()
            .map(|(key, value)| format!("  \"{key}\": {value}"))
            .collect();
        format!("{{\n{}\n}}", body.join(",\n"))
    }
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
pub(crate) fn json_f64(x: f64) -> String {
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
            failures: FailureCounts {
                parse: 1,
                ..FailureCounts::default()
            },
            nodes: 900,
            targets: 300,
            assigned: 250,
            sense_pairs: 400,
            stages: PerStage([5, 10, 15, 70].map(Duration::from_millis)),
            latency: {
                let mut latency = StageLatency::default();
                for doc_ms in [1u64, 2, 3, 4, 30] {
                    latency.doc.record(Duration::from_millis(doc_ms));
                    latency.stages[Stage::Parse].record(Duration::from_micros(doc_ms * 10));
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
            "sense_pairs",
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
    fn readme_key_table_matches_the_json_keys() {
        let readme = include_str!("../../../README.md");
        let mut rows = readme
            .lines()
            .skip_while(|line| !line.starts_with("| key | unit | merge | meaning |"))
            .skip(2)
            .take_while(|line| line.starts_with('|'));
        let mut documented: Vec<&str> = Vec::new();
        for row in &mut rows {
            let key_cell = row.split('|').nth(1).expect("a key cell");
            documented.extend(key_cell.split('`').skip(1).step_by(2));
        }
        let json = MetricsSnapshot::default().to_json();
        let mut emitted: Vec<&str> = json
            .lines()
            .filter_map(|line| line.trim_start().strip_prefix('"')?.split('"').next())
            .collect();
        assert_eq!(emitted.len(), 51, "{json}");
        documented.sort_unstable();
        emitted.sort_unstable();
        assert_eq!(
            documented, emitted,
            "README's Observability key table must list exactly the keys of MetricsSnapshot::to_json"
        );
    }

    #[test]
    fn docs_per_sec_saturates_on_inconsistent_counts() {
        // `MetricsSnapshot` is a plain public struct: nothing stops an
        // external caller from building one with more failures than
        // documents. The rate must degrade to 0, not panic in debug or
        // report a huge garbage value in release.
        let m = MetricsSnapshot {
            documents: 2,
            failures: FailureCounts {
                parse: 5,
                ..FailureCounts::default()
            },
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
        assert_eq!(a.failures.total(), a0.failures.total() + 2);
        assert_eq!(a.nodes, a0.nodes * 2);
        assert_eq!(a.threads, 4, "threads is a max, not a sum");
        assert_eq!(
            a.wall_clock,
            Duration::from_millis(50),
            "wall clock is a max"
        );
        assert_eq!(a.stages[Stage::Parse], a0.stages[Stage::Parse] * 2);
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
