//! Shard reports: the wire format between the sharded batch driver's
//! worker processes and the parent that merges them.
//!
//! `xsdf batch --shards N` re-invokes itself once per shard over a
//! partition of the inputs. Each child serializes its final
//! [`MetricsSnapshot`] into a [`ShardReport`] — a versioned, line-based
//! text file (one `key value` pair per line, histograms in their
//! [`Histogram::encode`] form) — and the parent folds the reports
//! together with [`MetricsSnapshot::merge`]. Everything travels
//! losslessly: the merged histograms, stage timings, and counters are
//! exactly what a single process over all inputs would have produced,
//! independent of shard count (wall-clock and thread count excepted —
//! those are concurrency maxima, documented on the merge).
//!
//! The format is deliberately not JSON: it is written and parsed by the
//! two ends of a pipe we fully control, a version header makes skew
//! detectable, and hand-rolled line parsing keeps this crate std-only.

use std::time::Duration;

use crate::hist::Histogram;
use crate::metrics::{FailureCounts, MetricsSnapshot, StageLatency, StageTimings};

/// The header line every report starts with; bump the version when the
/// field set changes so a parent never merges a report written by a
/// different binary layout.
const HEADER: &str = "xsdf-shard-report v2";

/// One worker process's complete metrics, as shipped to the merging
/// parent.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// The shard's final engine metrics.
    pub metrics: MetricsSnapshot,
}

impl ShardReport {
    /// Wraps a snapshot for transport.
    pub fn new(metrics: MetricsSnapshot) -> Self {
        Self { metrics }
    }

    /// Serializes the report into its line-based text form (trailing
    /// newline included).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let m = &self.metrics;
        let mut out = String::new();
        let _ = writeln!(out, "{HEADER}");
        let _ = writeln!(out, "threads {}", m.threads);
        let _ = writeln!(out, "documents {}", m.documents);
        let _ = writeln!(out, "failed_documents {}", m.failed_documents);
        let _ = writeln!(out, "failed_parse {}", m.failures.parse);
        let _ = writeln!(out, "failed_limit {}", m.failures.limit);
        let _ = writeln!(out, "failed_deadline {}", m.failures.deadline);
        let _ = writeln!(out, "failed_panic {}", m.failures.panic);
        let _ = writeln!(out, "failed_cancelled {}", m.failures.cancelled);
        let _ = writeln!(out, "nodes {}", m.nodes);
        let _ = writeln!(out, "targets {}", m.targets);
        let _ = writeln!(out, "assigned {}", m.assigned);
        let _ = writeln!(out, "stage_parse_ns {}", m.stages.parse.as_nanos());
        let _ = writeln!(
            out,
            "stage_preprocess_ns {}",
            m.stages.preprocess.as_nanos()
        );
        let _ = writeln!(out, "stage_select_ns {}", m.stages.select.as_nanos());
        let _ = writeln!(
            out,
            "stage_disambiguate_ns {}",
            m.stages.disambiguate.as_nanos()
        );
        let _ = writeln!(out, "wall_clock_ns {}", m.wall_clock.as_nanos());
        let _ = writeln!(out, "cache_hits {}", m.cache_hits);
        let _ = writeln!(out, "cache_misses {}", m.cache_misses);
        let _ = writeln!(out, "cache_entries {}", m.cache_entries);
        let _ = writeln!(out, "cache_evictions {}", m.cache_evictions);
        let _ = writeln!(out, "cache_bytes {}", m.cache_bytes);
        let _ = writeln!(out, "cache_bytes_peak {}", m.cache_bytes_peak);
        let _ = writeln!(out, "gloss_pairs_scored {}", m.gloss_pairs_scored);
        let _ = writeln!(out, "vectors_built {}", m.vectors_built);
        let _ = writeln!(out, "vectors_reused {}", m.vectors_reused);
        let _ = writeln!(out, "vector_entries {}", m.vector_entries);
        let _ = writeln!(out, "candidates_pruned {}", m.candidates_pruned);
        let _ = writeln!(out, "hist_parse {}", m.latency.parse.encode());
        let _ = writeln!(out, "hist_preprocess {}", m.latency.preprocess.encode());
        let _ = writeln!(out, "hist_select {}", m.latency.select.encode());
        let _ = writeln!(out, "hist_disambiguate {}", m.latency.disambiguate.encode());
        let _ = writeln!(out, "hist_doc {}", m.latency.doc.encode());
        out
    }

    /// Parses a report from its [`ShardReport::to_text`] form.
    ///
    /// Strict by design — this is an internal protocol, so any deviation
    /// (wrong header, missing/duplicate/unknown key, malformed value)
    /// means binary skew or a truncated file, and the parent must fail
    /// the whole run rather than merge garbage. The error string names
    /// the offending line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(HEADER) => {}
            Some(other) => return Err(format!("bad shard report header: {other:?}")),
            None => return Err("empty shard report".to_string()),
        }
        let mut fields: Vec<(&str, &str)> = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed shard report line: {line:?}"))?;
            if fields.iter().any(|&(k, _)| k == key) {
                return Err(format!("duplicate shard report key: {key}"));
            }
            fields.push((key, value));
        }
        let mut used = vec![false; fields.len()];
        let mut raw = |key: &str| -> Result<&str, String> {
            let at = fields
                .iter()
                .position(|&(k, _)| k == key)
                .ok_or_else(|| format!("missing shard report key: {key}"))?;
            used[at] = true;
            Ok(fields[at].1)
        };
        macro_rules! num {
            ($key:literal) => {
                raw($key)?
                    .parse()
                    .map_err(|_| format!("bad value for {}", $key))?
            };
        }
        macro_rules! ns {
            ($key:literal) => {
                Duration::from_nanos(num!($key))
            };
        }
        macro_rules! hist {
            ($key:literal) => {
                Histogram::decode(raw($key)?)
                    .ok_or_else(|| format!("bad histogram for {}", $key))?
            };
        }
        let metrics = MetricsSnapshot {
            threads: num!("threads"),
            documents: num!("documents"),
            failed_documents: num!("failed_documents"),
            failures: FailureCounts {
                parse: num!("failed_parse"),
                limit: num!("failed_limit"),
                deadline: num!("failed_deadline"),
                panic: num!("failed_panic"),
                cancelled: num!("failed_cancelled"),
            },
            nodes: num!("nodes"),
            targets: num!("targets"),
            assigned: num!("assigned"),
            stages: StageTimings {
                parse: ns!("stage_parse_ns"),
                preprocess: ns!("stage_preprocess_ns"),
                select: ns!("stage_select_ns"),
                disambiguate: ns!("stage_disambiguate_ns"),
            },
            latency: StageLatency {
                parse: hist!("hist_parse"),
                preprocess: hist!("hist_preprocess"),
                select: hist!("hist_select"),
                disambiguate: hist!("hist_disambiguate"),
                doc: hist!("hist_doc"),
            },
            wall_clock: ns!("wall_clock_ns"),
            cache_hits: num!("cache_hits"),
            cache_misses: num!("cache_misses"),
            cache_entries: num!("cache_entries"),
            cache_evictions: num!("cache_evictions"),
            cache_bytes: num!("cache_bytes"),
            cache_bytes_peak: num!("cache_bytes_peak"),
            gloss_pairs_scored: num!("gloss_pairs_scored"),
            vectors_built: num!("vectors_built"),
            vectors_reused: num!("vectors_reused"),
            vector_entries: num!("vector_entries"),
            candidates_pruned: num!("candidates_pruned"),
        };
        if let Some(at) = used.iter().position(|&u| !u) {
            return Err(format!("unknown shard report key: {}", fields[at].0));
        }
        Ok(Self { metrics })
    }

    /// Merges a sequence of shard reports into one snapshot via
    /// [`MetricsSnapshot::merge`]. Returns `None` for an empty sequence.
    pub fn merge_all<'a, I>(reports: I) -> Option<MetricsSnapshot>
    where
        I: IntoIterator<Item = &'a ShardReport>,
    {
        let mut reports = reports.into_iter();
        let mut merged = reports.next()?.metrics.clone();
        for report in reports {
            merged.merge(&report.metrics);
        }
        Some(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(seed: u64) -> MetricsSnapshot {
        let mut latency = StageLatency::default();
        for i in 0..seed * 3 + 1 {
            let ns = (seed + 1) * 1000 + i * 977;
            latency.parse.record(Duration::from_nanos(ns));
            latency.doc.record(Duration::from_nanos(ns * 4));
        }
        MetricsSnapshot {
            threads: 1 + seed as usize % 3,
            documents: 10 + seed as usize,
            failed_documents: seed as usize % 2,
            failures: FailureCounts {
                parse: seed as usize % 2,
                ..FailureCounts::default()
            },
            nodes: 100 * (seed as usize + 1),
            targets: 30,
            assigned: 28,
            stages: StageTimings {
                parse: Duration::from_micros(11 * (seed + 1)),
                preprocess: Duration::from_micros(7),
                select: Duration::from_micros(5),
                disambiguate: Duration::from_micros(90),
            },
            latency,
            wall_clock: Duration::from_millis(2 + seed),
            cache_hits: 5 * seed,
            cache_misses: seed,
            cache_entries: 4,
            cache_evictions: 0,
            cache_bytes: 1024,
            cache_bytes_peak: 2048,
            gloss_pairs_scored: seed,
            vectors_built: 2,
            vectors_reused: 9,
            vector_entries: 2,
            candidates_pruned: 1,
        }
    }

    #[test]
    fn roundtrips_losslessly() {
        for seed in 0..5 {
            let report = ShardReport::new(snapshot(seed));
            let back = ShardReport::from_text(&report.to_text()).expect("parses");
            assert_eq!(back, report);
        }
        // The all-zero snapshot (a shard that processed nothing).
        let zero = ShardReport::new(MetricsSnapshot {
            threads: 0,
            documents: 0,
            failed_documents: 0,
            failures: FailureCounts::default(),
            nodes: 0,
            targets: 0,
            assigned: 0,
            stages: StageTimings::default(),
            latency: StageLatency::default(),
            wall_clock: Duration::ZERO,
            cache_hits: 0,
            cache_misses: 0,
            cache_entries: 0,
            cache_evictions: 0,
            cache_bytes: 0,
            cache_bytes_peak: 0,
            gloss_pairs_scored: 0,
            vectors_built: 0,
            vectors_reused: 0,
            vector_entries: 0,
            candidates_pruned: 0,
        });
        assert_eq!(ShardReport::from_text(&zero.to_text()).unwrap(), zero);
    }

    #[test]
    fn merge_over_the_wire_equals_in_process_merge() {
        // The determinism argument for `--shards N`: shipping snapshots
        // through the text format and merging them is indistinguishable
        // from merging them in process, regardless of order.
        let parts: Vec<ShardReport> = (0..4).map(|s| ShardReport::new(snapshot(s))).collect();
        let direct = {
            let mut m = parts[0].metrics.clone();
            for p in &parts[1..] {
                m.merge(&p.metrics);
            }
            m
        };
        let wired: Vec<ShardReport> = parts
            .iter()
            .map(|p| ShardReport::from_text(&p.to_text()).unwrap())
            .collect();
        assert_eq!(ShardReport::merge_all(&wired), Some(direct.clone()));
        // Reversed arrival order: same merged snapshot.
        let reversed: Vec<ShardReport> = wired.iter().rev().cloned().collect();
        assert_eq!(ShardReport::merge_all(&reversed), Some(direct));
        assert_eq!(ShardReport::merge_all([].iter()), None);
    }

    #[test]
    fn rejects_skewed_or_truncated_reports() {
        let good = ShardReport::new(snapshot(1)).to_text();
        // Wrong header / empty input.
        assert!(ShardReport::from_text("").unwrap_err().contains("empty"));
        assert!(ShardReport::from_text("xsdf-shard-report v0\n")
            .unwrap_err()
            .contains("header"));
        // Truncation loses required keys.
        let truncated: String = good.lines().take(5).collect::<Vec<_>>().join("\n");
        assert!(ShardReport::from_text(&truncated)
            .unwrap_err()
            .contains("missing"));
        // Duplicate and unknown keys are both fatal.
        assert!(ShardReport::from_text(&format!("{good}documents 3\n"))
            .unwrap_err()
            .contains("duplicate"));
        assert!(ShardReport::from_text(&format!("{good}mystery 3\n"))
            .unwrap_err()
            .contains("unknown"));
        // Corrupt histogram text.
        let corrupt = good.replace("hist_doc ", "hist_doc x");
        assert!(ShardReport::from_text(&corrupt)
            .unwrap_err()
            .contains("hist_doc"));
    }
}
