//! Live serving-layer counters, folded together with the engine's own
//! record into one flat `/metrics` JSON object.
//!
//! The batch runtime already knows how to describe a run
//! ([`runtime::MetricsSnapshot`]); a resident server is just a run that
//! never ends. So every `/disambiguate` outcome merges its
//! [`runtime::DocOutcome::metrics`] into one engine snapshot, and
//! `/metrics` renders that snapshot with the serving-layer extras —
//! uptime, connection and queue gauges, rejection counters, HTTP status
//! tallies, and per-endpoint latency percentiles — appended through
//! [`runtime::MetricsSnapshot::to_json_extended`]. Dashboards see one
//! schema whether they scrape a batch report or a live server.

use std::collections::BTreeMap;
use std::time::Duration;

use runtime::{Histogram, MetricsSnapshot};

/// Everything the server counts. One instance lives behind the server's
/// mutex; handlers lock, record, and unlock around each request.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// The engine's record: every `/disambiguate` outcome merges into it.
    /// Every other field is the serving layer's own.
    pub engine: MetricsSnapshot,
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
    /// `/disambiguate` requests refused with 503 while draining.
    pub rejected_draining: u64,
    /// Connections turned away with 503 at the connection cap.
    pub rejected_over_capacity: u64,
}

impl ServerStats {
    /// Tallies one response status.
    pub fn record_status(&mut self, status: u16) {
        *self.http.entry(status).or_insert(0) += 1;
    }

    /// The serving-layer extras appended after the snapshot's own keys.
    /// Gauges the stats struct cannot see (state, connections, queue
    /// depth) come in through `gauges` as ready-made `(key, value)` pairs.
    pub fn extras(&self, uptime: Duration, gauges: &[(String, String)]) -> Vec<(String, String)> {
        let mut extras: Vec<(String, String)> = gauges.to_vec();
        extras.push((
            "uptime_ms".into(),
            format!("{:?}", uptime.as_secs_f64() * 1e3),
        ));
        for (key, count) in [
            ("rejected_queue_full", self.rejected_queue_full),
            ("rejected_draining", self.rejected_draining),
            ("rejected_over_capacity", self.rejected_over_capacity),
        ] {
            extras.push((key.into(), count.to_string()));
        }
        for (name, hist) in [
            ("endpoint_disambiguate", &self.ep_disambiguate),
            ("endpoint_metrics", &self.ep_metrics),
            ("endpoint_healthz", &self.ep_healthz),
            ("queue_wait", &self.queue_wait),
        ] {
            extras.push((format!("{name}_requests"), hist.count().to_string()));
            extras.extend(hist.percentile_entries(name));
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
    use runtime::{BatchEngine, DocOutcome, SharedCache};
    use semsim::SimilarityCache;
    use xsdf::XsdfConfig;

    fn outcome(xml: &str) -> DocOutcome {
        BatchEngine::new(semnet::mini_wordnet(), XsdfConfig::default())
            .threads(1)
            .process_document_observed(xml)
    }

    #[test]
    fn outcomes_accumulate_into_snapshot() {
        let mut stats = ServerStats::default();
        let ok = outcome("<cast><star>Kelly</star></cast>");
        assert!(ok.result.is_ok());
        stats.engine.merge(&ok.metrics);
        let bad = outcome("<a></b>");
        assert!(bad.result.is_err());
        stats.engine.merge(&bad.metrics);

        let cache = SharedCache::new();
        cache.store(
            (
                semsim::WeightsFingerprint(7),
                semnet::ConceptId(0),
                semnet::ConceptId(0),
            ),
            0.5,
        );
        let mut snap = stats.engine.clone();
        snap.read_cache_gauges(&cache);
        assert_eq!(snap.documents, 2);
        assert_eq!(snap.failures.total(), 1);
        assert_eq!(snap.failures.parse, 1);
        assert!(snap.nodes > 0, "ok doc contributes nodes");
        assert_eq!(snap.sense_pairs, ok.metrics.sense_pairs);
        assert_eq!(snap.cache_entries, 1);
        assert_eq!(snap.vector_entries, 0);
        assert!(snap.cache_bytes > 0, "accounted bytes must be visible");
        assert_eq!(snap.cache_bytes_peak, snap.cache_bytes);
        assert_eq!(snap.cache_evictions, 0);
        assert_eq!(snap.latency.doc.count(), 2);
        assert!(snap.stages.total() > Duration::ZERO);
        assert_eq!(
            snap.candidates_pruned,
            ok.metrics.candidates_pruned + bad.metrics.candidates_pruned
        );
    }

    #[test]
    fn pruned_outcomes_surface_in_snapshot() {
        let pruned = outcome(
            "<films><picture><cast><star>Stewart</star><star>Kelly</star></cast></picture></films>",
        );
        assert!(pruned.result.is_ok());
        let mut stats = ServerStats::default();
        stats.engine.merge(&pruned.metrics);
        assert!(
            stats.engine.candidates_pruned > 0,
            "pruned request must be counted"
        );
        assert_eq!(stats.engine, pruned.metrics);
    }

    #[test]
    fn extras_render_into_flat_metrics_json() {
        let mut stats = ServerStats::default();
        stats.record_status(200);
        stats.record_status(200);
        stats.record_status(429);
        stats.rejected_queue_full = 1;
        let gauges = [("server_state".to_string(), "\"running\"".to_string())];
        let json = stats
            .engine
            .to_json_extended(&stats.extras(Duration::ZERO, &gauges));
        for key in [
            "server_state",
            "uptime_ms",
            "sense_pairs",
            "rejected_queue_full",
            "rejected_draining",
            "rejected_over_capacity",
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
