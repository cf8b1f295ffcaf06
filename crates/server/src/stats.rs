//! Live serving-layer counters, folded together with the engine's own
//! aggregates into one flat `/metrics` JSON object.
//!
//! The batch runtime already knows how to describe a run
//! ([`runtime::MetricsSnapshot`]); a resident server is just a run that
//! never ends. So `/metrics` is built by filling a `MetricsSnapshot` from
//! the accumulated per-request [`runtime::DocOutcome`]s (stage timings,
//! latency histograms, failure kinds, cache accounting) and appending the
//! serving-layer extras — uptime, connection and queue gauges, rejection
//! counters, HTTP status tallies, and per-endpoint latency percentiles —
//! through [`MetricsSnapshot::to_json_extended`]. Dashboards see one
//! schema whether they scrape a batch report or a live server.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use runtime::{
    DocOutcome, FailureCounts, Histogram, MetricsSnapshot, SharedCache, StageLatency, StageTimings,
};
use semsim::SimilarityCache;

/// Everything the serving layer counts. One instance lives behind the
/// server's mutex; handlers lock, record, and unlock around each request.
#[derive(Debug)]
pub struct ServerStats {
    /// When the server started (the `/metrics` uptime epoch).
    pub started: Instant,
    /// Disambiguation documents attempted (success or failure).
    pub documents: usize,
    /// Failed documents by [`runtime::XsdfError`] kind.
    pub failures: FailureCounts,
    /// Tree nodes across successful documents.
    pub nodes: usize,
    /// Selected disambiguation targets across successful documents.
    pub targets: usize,
    /// Targets that received a sense.
    pub assigned: usize,
    /// Sense pairs scored (the guard's tick count), summed.
    pub sense_pairs: u64,
    /// Per-stage CPU time summed across requests.
    pub stages: StageTimings,
    /// Per-document latency distributions (per stage + end-to-end),
    /// engine time only — queue wait is tracked separately.
    pub latency: StageLatency,
    /// Similarity-cache hits summed across requests.
    pub cache_hits: u64,
    /// Similarity-cache misses summed across requests.
    pub cache_misses: u64,
    /// Gloss-overlap kernel invocations summed across requests.
    pub gloss_pairs_scored: u64,
    /// Context vectors built from scratch, summed.
    pub vectors_built: u64,
    /// Context vectors reused from the shared table, summed.
    pub vectors_reused: u64,
    /// Candidates the scoring loop's exact early exit abandoned, summed.
    pub candidates_pruned: u64,
    /// End-to-end `/disambiguate` latency (queue wait + engine).
    pub ep_disambiguate: Histogram,
    /// `GET /metrics` latency.
    pub ep_metrics: Histogram,
    /// `GET /healthz` latency.
    pub ep_healthz: Histogram,
    /// Time requests spent waiting for a worker permit.
    pub queue_wait: Histogram,
    /// Responses by HTTP status code.
    pub http: BTreeMap<u16, u64>,
    /// `/disambiguate` requests turned away with 429 (wait queue full).
    pub rejected_queue_full: u64,
    /// Connections turned away with 503 while draining.
    pub rejected_draining: u64,
    /// Connections turned away with 503 at the connection cap.
    pub rejected_over_capacity: u64,
    /// `/disambiguate` requests shed with 503 at the hard memory
    /// watermark.
    pub rejected_pressure: u64,
    /// Watermark-triggered cache trims (soft or hard).
    pub cache_trims: u64,
}

impl ServerStats {
    /// Fresh counters with the uptime epoch at `now`.
    pub fn new(started: Instant) -> Self {
        Self {
            started,
            documents: 0,
            failures: FailureCounts::default(),
            nodes: 0,
            targets: 0,
            assigned: 0,
            sense_pairs: 0,
            stages: StageTimings::default(),
            latency: StageLatency::default(),
            cache_hits: 0,
            cache_misses: 0,
            gloss_pairs_scored: 0,
            vectors_built: 0,
            vectors_reused: 0,
            candidates_pruned: 0,
            ep_disambiguate: Histogram::new(),
            ep_metrics: Histogram::new(),
            ep_healthz: Histogram::new(),
            queue_wait: Histogram::new(),
            http: BTreeMap::new(),
            rejected_queue_full: 0,
            rejected_draining: 0,
            rejected_over_capacity: 0,
            rejected_pressure: 0,
            cache_trims: 0,
        }
    }

    /// Tallies one response status.
    pub fn record_status(&mut self, status: u16) {
        *self.http.entry(status).or_insert(0) += 1;
    }

    /// Folds one `/disambiguate` outcome into the counters. `total` is
    /// the end-to-end request time (queue wait included), `queue_wait`
    /// the slice spent waiting for a worker permit.
    pub fn record_outcome(&mut self, outcome: &DocOutcome, total: Duration, queue_wait: Duration) {
        self.documents += 1;
        self.ep_disambiguate.record(total);
        self.queue_wait.record(queue_wait);
        self.cache_hits += outcome.cache_hits;
        self.cache_misses += outcome.cache_misses;
        self.gloss_pairs_scored += outcome.gloss_pairs_scored;
        self.vectors_built += outcome.vectors_built;
        self.vectors_reused += outcome.vectors_reused;
        self.candidates_pruned += outcome.candidates_pruned;
        if let Err(e) = &outcome.result {
            self.failures.record(e);
        }
        if let Some(span) = &outcome.span {
            self.latency.doc.record(span.duration());
            self.sense_pairs += span.sense_pairs;
            if span.outcome == "ok" {
                self.nodes += span.nodes;
                self.targets += span.targets;
                self.assigned += span.assigned;
            }
            // Stage slices land in both the summed timings and the
            // per-stage latency histograms, exactly as a batch records
            // them.
            let sums = [
                &mut self.stages.parse,
                &mut self.stages.preprocess,
                &mut self.stages.select,
                &mut self.stages.disambiguate,
            ];
            let hists = [
                &mut self.latency.parse,
                &mut self.latency.preprocess,
                &mut self.latency.select,
                &mut self.latency.disambiguate,
            ];
            for ((slice, sum), hist) in span.stages.iter().zip(sums).zip(hists) {
                if let Some(stage) = slice {
                    *sum += stage.duration;
                    hist.record(stage.duration);
                }
            }
        }
    }

    /// The engine-shaped part of `/metrics`: a [`MetricsSnapshot`] whose
    /// `wall_clock` is the server's uptime, so `docs_per_sec` reads as
    /// sustained lifetime throughput.
    pub fn snapshot(&self, workers: usize, cache: &SharedCache) -> MetricsSnapshot {
        MetricsSnapshot {
            threads: workers,
            documents: self.documents,
            failed_documents: self.failures.total(),
            failures: self.failures,
            nodes: self.nodes,
            targets: self.targets,
            assigned: self.assigned,
            stages: self.stages,
            latency: self.latency.clone(),
            wall_clock: self.started.elapsed(),
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            cache_entries: cache.len(),
            cache_evictions: cache.evictions(),
            cache_bytes: cache.bytes(),
            cache_bytes_peak: cache.bytes_peak(),
            gloss_pairs_scored: self.gloss_pairs_scored,
            vectors_built: self.vectors_built,
            vectors_reused: self.vectors_reused,
            vector_entries: cache.vectors_len(),
            candidates_pruned: self.candidates_pruned,
        }
    }

    /// The serving-layer extras appended after the snapshot's own keys.
    /// Gauges the stats struct cannot see (state, connections, queue
    /// depth) come in through `gauges` as ready-made `(key, value)`
    /// pairs.
    pub fn extras(&self, gauges: &[(String, String)]) -> Vec<(String, String)> {
        let mut extras: Vec<(String, String)> = gauges.to_vec();
        extras.push((
            "uptime_ms".into(),
            format!("{:?}", self.started.elapsed().as_secs_f64() * 1e3),
        ));
        extras.push(("sense_pairs".into(), self.sense_pairs.to_string()));
        extras.push((
            "rejected_queue_full".into(),
            self.rejected_queue_full.to_string(),
        ));
        extras.push((
            "rejected_draining".into(),
            self.rejected_draining.to_string(),
        ));
        extras.push((
            "rejected_over_capacity".into(),
            self.rejected_over_capacity.to_string(),
        ));
        extras.push((
            "rejected_pressure".into(),
            self.rejected_pressure.to_string(),
        ));
        extras.push(("cache_trims".into(), self.cache_trims.to_string()));
        for (name, hist) in [
            ("endpoint_disambiguate", &self.ep_disambiguate),
            ("endpoint_metrics", &self.ep_metrics),
            ("endpoint_healthz", &self.ep_healthz),
            ("queue_wait", &self.queue_wait),
        ] {
            extras.push((format!("{name}_requests"), hist.count().to_string()));
            for (stat, value) in [
                ("p50", hist.p50()),
                ("p90", hist.p90()),
                ("p99", hist.p99()),
                ("max", hist.max()),
            ] {
                extras.push((
                    format!("{name}_{stat}_ms"),
                    format!("{:?}", value.as_secs_f64() * 1e3),
                ));
            }
        }
        for (status, count) in &self.http {
            extras.push((format!("http_{status}"), count.to_string()));
        }
        extras
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime::{BatchEngine, ResourceLimits};
    use xsdf::XsdfConfig;

    fn outcome(xml: &str) -> DocOutcome {
        BatchEngine::new(semnet::mini_wordnet(), XsdfConfig::default())
            .threads(1)
            .limits(ResourceLimits::unlimited())
            .tracing(true)
            .process_document_observed(xml)
    }

    #[test]
    fn outcomes_accumulate_into_snapshot() {
        let mut stats = ServerStats::new(Instant::now());
        let ok = outcome("<cast><star>Kelly</star></cast>");
        assert!(ok.result.is_ok());
        stats.record_outcome(&ok, Duration::from_millis(3), Duration::from_millis(1));
        let bad = outcome("<a></b>");
        assert!(bad.result.is_err());
        stats.record_outcome(&bad, Duration::from_millis(1), Duration::ZERO);

        let cache = SharedCache::new();
        cache.store(
            (
                semsim::WeightsFingerprint(7),
                semnet::ConceptId(0),
                semnet::ConceptId(0),
            ),
            0.5,
        );
        let snap = stats.snapshot(2, &cache);
        assert_eq!(snap.documents, 2);
        assert_eq!(snap.failed_documents, 1);
        assert_eq!(snap.failures.parse, 1);
        assert!(snap.nodes > 0, "ok doc contributes nodes");
        assert_eq!(snap.threads, 2);
        assert_eq!(snap.cache_entries, 1);
        assert_eq!(snap.vector_entries, 0);
        assert!(snap.cache_bytes > 0, "accounted bytes must be visible");
        assert_eq!(snap.cache_bytes_peak, snap.cache_bytes);
        assert_eq!(snap.cache_evictions, 0);
        assert_eq!(snap.latency.doc.count(), 2);
        assert!(snap.stages.total() > Duration::ZERO);
        assert_eq!(stats.ep_disambiguate.count(), 2);
        assert_eq!(stats.queue_wait.count(), 2);
        assert_eq!(
            snap.candidates_pruned,
            ok.candidates_pruned + bad.candidates_pruned
        );
    }

    #[test]
    fn pruned_outcomes_surface_in_snapshot() {
        let pruned = BatchEngine::new(semnet::mini_wordnet(), XsdfConfig::default())
            .threads(1)
            .tracing(true)
            .process_document_observed(
                "<films><picture><cast><star>Stewart</star><star>Kelly</star></cast></picture></films>",
            );
        assert!(pruned.result.is_ok());
        let mut stats = ServerStats::new(Instant::now());
        stats.record_outcome(&pruned, Duration::from_millis(2), Duration::ZERO);
        let snap = stats.snapshot(1, &SharedCache::new());
        assert!(snap.candidates_pruned > 0, "pruned request must be counted");
        assert_eq!(snap.candidates_pruned, pruned.candidates_pruned);
    }

    #[test]
    fn extras_render_into_flat_metrics_json() {
        let mut stats = ServerStats::new(Instant::now());
        stats.record_status(200);
        stats.record_status(200);
        stats.record_status(429);
        stats.rejected_queue_full = 1;
        let gauges = [("server_state".to_string(), "\"running\"".to_string())];
        let json = stats
            .snapshot(1, &SharedCache::new())
            .to_json_extended(&stats.extras(&gauges));
        for key in [
            "server_state",
            "uptime_ms",
            "sense_pairs",
            "rejected_queue_full",
            "rejected_draining",
            "rejected_over_capacity",
            "rejected_pressure",
            "cache_trims",
            "cache_evictions",
            "cache_bytes",
            "cache_bytes_peak",
            "endpoint_disambiguate_p99_ms",
            "endpoint_metrics_requests",
            "endpoint_healthz_p50_ms",
            "queue_wait_max_ms",
            "candidates_pruned",
            "http_200",
            "http_429",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
        }
        assert!(json.contains("\"http_200\": 2"));
        assert!(json.contains("\"server_state\": \"running\""));
    }
}
