//! Shard reports: the wire format between the sharded batch driver's
//! worker processes and the parent that merges them.
//!
//! `xsdf batch --shards N` re-invokes itself once per shard over a
//! partition of the inputs. Each child serializes its final
//! [`MetricsSnapshot`] into a [`ShardReport`] — a versioned, line-based
//! text file (one `key value` pair per line, histograms in their
//! [`crate::Histogram::encode`] form, the lines generated from the field
//! table in [`crate::metrics`]) — and the parent folds the reports
//! together with [`MetricsSnapshot::merge`]. Everything travels
//! losslessly: the merged histograms, stage timings, and counters are
//! exactly what a single process over all inputs would have produced,
//! independent of shard count (wall-clock and thread count excepted —
//! those are concurrency maxima, documented on the merge).
//!
//! The format is deliberately not JSON: it is written and parsed by the
//! two ends of a pipe we fully control, a version header makes skew
//! detectable, and hand-rolled line parsing keeps this crate std-only.

use std::collections::BTreeMap;

use crate::metrics::{Field, MetricsSnapshot};

/// The header line every report starts with; bump the version when the
/// field set changes so a parent never merges a report written by a
/// different binary layout.
const HEADER: &str = "xsdf-shard-report v3";

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
    /// newline included): the header, then each snapshot field's lines in
    /// declaration order.
    pub fn to_text(&self) -> String {
        let mut lines = Vec::new();
        self.metrics.entries("", true, &mut lines);
        let body: String = lines.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
        format!("{HEADER}\n{body}")
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
        let mut report = ReportLines(BTreeMap::new());
        for line in lines.filter(|line| !line.is_empty()) {
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed shard report line: {line:?}"))?;
            if report.0.insert(key, (value, false)).is_some() {
                return Err(format!("duplicate shard report key: {key}"));
            }
        }
        let metrics = MetricsSnapshot::decode("", &mut report)?;
        if let Some((key, _)) = report.0.iter().find(|(_, &(_, taken))| !taken) {
            return Err(format!("unknown shard report key: {key}"));
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

/// The `key value` lines of one report by key, each marked once a field
/// takes it; the lines no field took are unknown keys.
pub(crate) struct ReportLines<'a>(BTreeMap<&'a str, (&'a str, bool)>);

impl<'a> ReportLines<'a> {
    /// The raw value under `key`.
    pub(crate) fn take(&mut self, key: &str) -> Result<&'a str, String> {
        let (value, taken) =
            (self.0.get_mut(key)).ok_or_else(|| format!("missing shard report key: {key}"))?;
        *taken = true;
        Ok(*value)
    }

    /// The value under `key`, parsed.
    pub(crate) fn parse<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, String> {
        self.take(key)?
            .parse()
            .map_err(|_| format!("bad value for {key}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{FailureCounts, PerStage, Stage, StageLatency};
    use std::time::Duration;

    fn snapshot(seed: u64) -> MetricsSnapshot {
        let mut latency = StageLatency::default();
        for i in 0..seed * 3 + 1 {
            let ns = (seed + 1) * 1000 + i * 977;
            latency.stages[Stage::Parse].record(Duration::from_nanos(ns));
            latency.doc.record(Duration::from_nanos(ns * 4));
        }
        MetricsSnapshot {
            threads: 1 + seed as usize % 3,
            documents: 10 + seed as usize,
            failures: FailureCounts {
                parse: seed as usize % 2,
                ..FailureCounts::default()
            },
            nodes: 100 * (seed as usize + 1),
            targets: 30,
            assigned: 28,
            sense_pairs: 40 * seed,
            stages: PerStage([11 * (seed + 1), 7, 5, 90].map(Duration::from_micros)),
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
        let zero = ShardReport::new(MetricsSnapshot::default());
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
