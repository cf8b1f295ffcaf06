//! Per-document trace spans: what happened to each document of a batch,
//! when, on which worker, and why it was slow.
//!
//! The aggregate [`crate::MetricsSnapshot`] answers "how did the batch
//! do"; a [`Trace`] answers "which document burned the budget". Each
//! worker records one [`DocSpan`] per document it attempts — stage start
//! offsets and durations against the shared batch epoch, byte/node/target
//! counts, this document's exact cache hit/miss delta, and the outcome
//! (success or the [`crate::XsdfError`] kind) — and the engine merges the
//! per-worker streams deterministically by input index. Two exports:
//!
//! * [`Trace::to_jsonl`] — one JSON object per document, in input order,
//!   for ad-hoc `jq`/pandas analysis;
//! * [`Trace::to_chrome_trace`] — the Chrome trace-event format, loadable
//!   in Perfetto or `chrome://tracing`, one track per worker with nested
//!   per-stage slices.
//!
//! Timestamps are wall-clock offsets, so they vary run to run; the
//! determinism guarantee is structural: same batch, same thread count →
//! same spans in the same order with the same per-document counters
//! (only `start`/`duration` fields differ).

use std::time::Duration;

use crate::metrics::{json_f64, Stage};

/// One pipeline stage's slice of a document span: when it started
/// (relative to the batch epoch) and how long it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpan {
    /// Start offset from the batch epoch.
    pub start: Duration,
    /// Stage duration.
    pub duration: Duration,
}

/// Everything the runtime observed about one document of a batch.
///
/// A stage slice is `None` when the stage never ran (an earlier stage
/// failed, or a panic cut the document short mid-stage).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DocSpan {
    /// Input index of the document in the batch.
    pub doc: usize,
    /// Worker (track) that processed it, `0 .. threads`.
    pub worker: usize,
    /// Start offset of the document from the batch epoch.
    pub start: Duration,
    /// End offset of the document from the batch epoch.
    pub end: Duration,
    /// Raw XML size in bytes.
    pub bytes: usize,
    /// `"ok"` or the [`crate::XsdfError::kind`] tag.
    pub outcome: &'static str,
    /// Human-readable error for failed documents.
    pub error: Option<String>,
    /// Tree nodes (0 until the preprocess stage completes).
    pub nodes: usize,
    /// Selected disambiguation targets.
    pub targets: usize,
    /// Targets that received a sense.
    pub assigned: usize,
    /// Sense pairs scored for this document (the guard's tick count).
    pub sense_pairs: u64,
    /// Similarity-cache lookups by this document that hit.
    pub cache_hits: u64,
    /// Similarity-cache lookups by this document that missed.
    pub cache_misses: u64,
    /// Per-stage slices, indexed by [`Stage`].
    pub stages: [Option<StageSpan>; 4],
    /// The concepts this document missed the cache for most often, as
    /// `(concept key, miss count)` — the "what would warming help" signal
    /// for slow-document reports. Sorted by count descending, key
    /// ascending; at most [`TOP_MISS_CONCEPTS`] entries.
    pub top_miss_concepts: Vec<(String, u64)>,
}

/// How many of a document's most-missed concepts a span retains.
pub const TOP_MISS_CONCEPTS: usize = 5;

impl DocSpan {
    /// End-to-end duration of the document (all stages plus the
    /// per-document bookkeeping between them).
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }

    /// The stage slices that actually ran, with their names.
    pub fn stages(&self) -> impl Iterator<Item = (&'static str, StageSpan)> + '_ {
        Stage::ALL
            .iter()
            .zip(&self.stages)
            .filter_map(|(stage, span)| span.map(|s| (stage.name(), s)))
    }

    /// This span as one JSON object (a single JSON Lines record).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        push_field(&mut out, "doc", &self.doc.to_string());
        push_field(&mut out, "worker", &self.worker.to_string());
        push_field(&mut out, "start_us", &json_f64(us(self.start)));
        push_field(&mut out, "duration_us", &json_f64(us(self.duration())));
        push_field(&mut out, "bytes", &self.bytes.to_string());
        push_field(&mut out, "outcome", &json_string(self.outcome));
        if let Some(error) = &self.error {
            push_field(&mut out, "error", &json_string(error));
        }
        push_field(&mut out, "nodes", &self.nodes.to_string());
        push_field(&mut out, "targets", &self.targets.to_string());
        push_field(&mut out, "assigned", &self.assigned.to_string());
        push_field(&mut out, "sense_pairs", &self.sense_pairs.to_string());
        push_field(&mut out, "cache_hits", &self.cache_hits.to_string());
        push_field(&mut out, "cache_misses", &self.cache_misses.to_string());
        for (name, stage) in self.stages() {
            push_field(
                &mut out,
                &format!("{name}_start_us"),
                &json_f64(us(stage.start)),
            );
            push_field(
                &mut out,
                &format!("{name}_us"),
                &json_f64(us(stage.duration)),
            );
        }
        if !self.top_miss_concepts.is_empty() {
            let items: Vec<String> = self
                .top_miss_concepts
                .iter()
                .map(|(key, n)| format!("[{},{n}]", json_string(key)))
                .collect();
            push_field(
                &mut out,
                "top_miss_concepts",
                &format!("[{}]", items.join(",")),
            );
        }
        out.push('}');
        out
    }
}

/// The merged span stream of one batch run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// One span per attempted document, sorted by input index. Documents
    /// cancelled before being scheduled (fail-fast) have no span.
    pub spans: Vec<DocSpan>,
    /// Worker count of the run (the number of Chrome trace tracks).
    pub threads: usize,
}

impl Trace {
    /// The span stream as JSON Lines: one object per document, in input
    /// order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            out.push_str(&span.to_json());
            out.push('\n');
        }
        out
    }

    /// The span stream in Chrome trace-event format (the JSON Object
    /// Format: `{"traceEvents": [...]}`), loadable in Perfetto or
    /// `chrome://tracing`. One track (`tid`) per worker; each document
    /// contributes one enclosing `doc` slice plus one nested slice per
    /// completed stage. Timestamps are microsecond offsets from the batch
    /// epoch.
    pub fn to_chrome_trace(&self) -> String {
        let mut events: Vec<String> = Vec::new();
        for worker in 0..self.threads.max(1) {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{worker},\
                 \"args\":{{\"name\":\"worker-{worker}\"}}}}"
            ));
        }
        for span in &self.spans {
            let mut args = format!(
                "{{\"doc\":{},\"outcome\":{},\"bytes\":{},\"nodes\":{},\"targets\":{},\
                 \"assigned\":{},\"sense_pairs\":{},\"cache_hits\":{},\"cache_misses\":{}}}",
                span.doc,
                json_string(span.outcome),
                span.bytes,
                span.nodes,
                span.targets,
                span.assigned,
                span.sense_pairs,
                span.cache_hits,
                span.cache_misses,
            );
            events.push(chrome_event(
                &format!("doc {} ({})", span.doc, span.outcome),
                span.worker,
                span.start,
                span.duration(),
                &args,
            ));
            args = format!("{{\"doc\":{}}}", span.doc);
            for (name, stage) in span.stages() {
                events.push(chrome_event(
                    name,
                    span.worker,
                    stage.start,
                    stage.duration,
                    &args,
                ));
            }
        }
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }

    /// Spans whose end-to-end duration is at least `threshold`, slowest
    /// first (ties broken by input index, so the order is deterministic
    /// for identical timings).
    pub fn slow_docs(&self, threshold: Duration) -> Vec<&DocSpan> {
        let mut slow: Vec<&DocSpan> = self
            .spans
            .iter()
            .filter(|s| s.duration() >= threshold)
            .collect();
        slow.sort_by(|a, b| b.duration().cmp(&a.duration()).then(a.doc.cmp(&b.doc)));
        slow
    }
}

/// One complete ("X") trace event.
fn chrome_event(name: &str, tid: usize, start: Duration, duration: Duration, args: &str) -> String {
    format!(
        "{{\"name\":{},\"cat\":\"xsdf\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\
         \"ts\":{},\"dur\":{},\"args\":{args}}}",
        json_string(name),
        json_f64(us(start)),
        json_f64(us(duration)),
    )
}

fn push_field(out: &mut String, key: &str, value: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(value);
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A JSON string literal with the mandatory escapes.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_span(doc: usize, total_us: u64) -> DocSpan {
        let start = Duration::from_micros(10 * doc as u64);
        DocSpan {
            doc,
            worker: doc % 2,
            start,
            end: start + Duration::from_micros(total_us),
            bytes: 128,
            outcome: "ok",
            error: None,
            nodes: 9,
            targets: 4,
            assigned: 3,
            sense_pairs: 17,
            cache_hits: 5,
            cache_misses: 2,
            stages: [
                Some(StageSpan {
                    start,
                    duration: Duration::from_micros(total_us / 4),
                }),
                Some(StageSpan {
                    start: start + Duration::from_micros(total_us / 4),
                    duration: Duration::from_micros(total_us / 4),
                }),
                None,
                Some(StageSpan {
                    start: start + Duration::from_micros(total_us / 2),
                    duration: Duration::from_micros(total_us / 2),
                }),
            ],
            top_miss_concepts: vec![("cast.actors".into(), 4), ("star.performer".into(), 2)],
        }
    }

    #[test]
    fn jsonl_has_one_line_per_span_with_stage_fields() {
        let trace = Trace {
            spans: vec![sample_span(0, 100), sample_span(1, 200)],
            threads: 2,
        };
        let jsonl = trace.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"parse_us\":"));
            assert!(line.contains("\"disambiguate_us\":"));
            assert!(
                !line.contains("\"select_us\":"),
                "skipped stage must be absent"
            );
            assert!(
                line.contains("\"top_miss_concepts\":[[\"cast.actors\",4],[\"star.performer\",2]]")
            );
        }
        assert!(lines[0].contains("\"doc\":0"));
        assert!(lines[1].contains("\"doc\":1"));
    }

    #[test]
    fn chrome_trace_has_worker_tracks_and_nested_slices() {
        let trace = Trace {
            spans: vec![sample_span(0, 100)],
            threads: 2,
        };
        let chrome = trace.to_chrome_trace();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"name\":\"worker-0\""));
        assert!(chrome.contains("\"name\":\"worker-1\""));
        assert!(chrome.contains("\"name\":\"doc 0 (ok)\""));
        assert!(chrome.contains("\"name\":\"parse\""));
        assert!(chrome.contains("\"ph\":\"X\""));
        // 2 metadata + 1 doc + 3 completed stages.
        assert_eq!(chrome.matches("\"ph\":").count(), 6);
    }

    #[test]
    fn slow_docs_filters_and_sorts_slowest_first() {
        let trace = Trace {
            spans: vec![sample_span(0, 50), sample_span(1, 500), sample_span(2, 200)],
            threads: 1,
        };
        let slow = trace.slow_docs(Duration::from_micros(100));
        let docs: Vec<usize> = slow.iter().map(|s| s.doc).collect();
        assert_eq!(docs, [1, 2]);
        assert!(trace.slow_docs(Duration::ZERO).len() == 3);
    }

    #[test]
    fn error_spans_escape_cleanly() {
        let mut span = sample_span(0, 10);
        span.outcome = "panic";
        span.error = Some("payload with \"quotes\" and\nnewline".into());
        let json = span.to_json();
        assert!(json.contains("\"error\":\"payload with \\\"quotes\\\" and\\nnewline\""));
    }
}
