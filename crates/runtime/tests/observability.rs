//! The observability layer end to end: every attempted document gets one
//! complete span per completed stage, the merged trace is deterministic in
//! structure, latency histograms cover the whole batch, and — the part
//! that lets tracing stay on in production — enabling it never changes the
//! batch output.

use std::time::Duration;

use runtime::{BatchEngine, XsdfError};
use xsdf::{DisambiguationResult, XsdfConfig};

fn fingerprint(result: &DisambiguationResult) -> String {
    let mut out = result.semantic_tree.to_annotated_xml();
    for report in &result.reports {
        if let Some((choice, score)) = &report.chosen {
            out.push_str(&format!("\n{} {:?} {:?}", report.label, choice, score));
        }
    }
    out
}

fn corpus_xml(seed: u64, per_dataset: usize) -> Vec<String> {
    let sn = semnet::mini_wordnet();
    corpus::Corpus::generate_small(sn, seed, per_dataset)
        .documents()
        .iter()
        .map(|d| xmltree::serialize::to_string_pretty(&d.doc))
        .collect()
}

#[test]
fn tracing_never_changes_batch_results() {
    // The acceptance bar: byte-identical results at 1, 2, and 8 threads,
    // tracing on and off.
    let sn = semnet::mini_wordnet();
    let sources = corpus_xml(42, 2);
    let docs: Vec<&str> = sources.iter().map(String::as_str).collect();

    let reference: Vec<String> = BatchEngine::new(sn, XsdfConfig::default())
        .threads(1)
        .run(&docs)
        .results
        .iter()
        .map(|r| fingerprint(r.as_ref().unwrap()))
        .collect();

    for threads in [1, 2, 8] {
        for tracing in [false, true] {
            let engine = BatchEngine::new(sn, XsdfConfig::default())
                .threads(threads)
                .tracing(tracing);
            let report = engine.run(&docs);
            let got: Vec<String> = report
                .results
                .iter()
                .map(|r| fingerprint(r.as_ref().unwrap()))
                .collect();
            assert_eq!(
                reference, got,
                "results diverged at {threads} threads, tracing={tracing}"
            );
            assert_eq!(report.trace.is_some(), tracing);
        }
    }
}

#[test]
fn every_document_gets_a_complete_span_per_stage() {
    let sn = semnet::mini_wordnet();
    let sources = corpus_xml(7, 2);
    let docs: Vec<&str> = sources.iter().map(String::as_str).collect();

    for threads in [1, 2, 8] {
        let engine = BatchEngine::new(sn, XsdfConfig::default())
            .threads(threads)
            .tracing(true);
        let report = engine.run(&docs);
        let trace = report.trace.expect("tracing was enabled");
        assert_eq!(trace.threads, report.metrics.threads);
        assert_eq!(trace.spans.len(), docs.len());
        for (i, span) in trace.spans.iter().enumerate() {
            assert_eq!(span.doc, i, "spans sorted by input index");
            assert!(span.worker < report.metrics.threads);
            assert_eq!(span.outcome, "ok");
            assert_eq!(span.bytes, docs[i].len());
            assert!(span.nodes > 0);
            // All four stages ran; each slice nests inside the document.
            assert_eq!(span.stages().count(), 4, "doc {i}");
            for (name, stage) in span.stages() {
                assert!(stage.start >= span.start, "{name} starts before doc {i}");
                assert!(
                    stage.start + stage.duration <= span.end,
                    "{name} outlives doc {i}"
                );
            }
            assert!(span.sense_pairs > 0, "doc {i} scored sense pairs");
        }
        // The per-document cache deltas add up to the batch totals.
        let hits: u64 = trace.spans.iter().map(|s| s.cache_hits).sum();
        let misses: u64 = trace.spans.iter().map(|s| s.cache_misses).sum();
        assert_eq!(hits, report.metrics.cache_hits);
        assert_eq!(misses, report.metrics.cache_misses);
    }
}

#[test]
fn failed_documents_still_get_spans_with_their_error_kind() {
    let sn = semnet::mini_wordnet();
    let docs = [
        "<cast><star>Kelly</star></cast>",
        "<broken",
        "<cast><star>Stewart</star></cast>",
    ];
    let engine = BatchEngine::new(sn, XsdfConfig::default())
        .threads(1)
        .tracing(true);
    let report = engine.run(&docs);
    let trace = report.trace.unwrap();
    assert_eq!(trace.spans.len(), 3);
    assert_eq!(trace.spans[0].outcome, "ok");
    let bad = &trace.spans[1];
    assert_eq!(bad.outcome, "parse");
    assert!(bad.error.is_some());
    // The parse stage ran (and failed); nothing after it did.
    assert!(bad.stages[0].is_some());
    assert!(bad.stages[1].is_none() && bad.stages[2].is_none() && bad.stages[3].is_none());
    assert_eq!(trace.spans[2].outcome, "ok");
}

#[test]
fn cancelled_documents_have_no_span() {
    let sn = semnet::mini_wordnet();
    let docs = ["<cast><star>Kelly</star></cast>", "<broken", "<a/>", "<b/>"];
    let engine = BatchEngine::new(sn, XsdfConfig::default())
        .threads(1)
        .tracing(true)
        .fail_fast(true);
    let report = engine.run(&docs);
    assert!(matches!(report.results[2], Err(XsdfError::Cancelled)));
    let trace = report.trace.unwrap();
    // Only the two attempted documents (ok + parse failure) have spans.
    let traced: Vec<usize> = trace.spans.iter().map(|s| s.doc).collect();
    assert_eq!(traced, [0, 1]);
}

#[test]
fn exports_are_well_formed_and_cover_every_span() {
    let sn = semnet::mini_wordnet();
    let sources = corpus_xml(3, 1);
    let docs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let engine = BatchEngine::new(sn, XsdfConfig::default())
        .threads(2)
        .tracing(true);
    let report = engine.run(&docs);
    let trace = report.trace.unwrap();

    let jsonl = trace.to_jsonl();
    assert_eq!(jsonl.lines().count(), docs.len());
    for (i, line) in jsonl.lines().enumerate() {
        assert!(line.starts_with('{') && line.ends_with('}'), "line {i}");
        assert!(line.contains(&format!("\"doc\":{i}")));
        assert!(line.contains("\"disambiguate_us\":"));
    }

    let chrome = trace.to_chrome_trace();
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.trim_end().ends_with("]}"));
    // One track-name event per worker, one doc slice per document, four
    // stage slices per (fully processed) document.
    for worker in 0..trace.threads {
        assert!(chrome.contains(&format!("\"worker-{worker}\"")));
    }
    let complete_events = chrome.matches("\"ph\":\"X\"").count();
    assert_eq!(complete_events, docs.len() * 5);
}

#[test]
fn latency_histograms_cover_every_document_even_without_tracing() {
    let sn = semnet::mini_wordnet();
    let sources = corpus_xml(11, 1);
    let docs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let engine = BatchEngine::new(sn, XsdfConfig::default()).threads(2);
    let report = engine.run(&docs);
    assert!(report.trace.is_none(), "tracing defaults to off");
    let latency = &report.metrics.latency;
    let stages = runtime::Stage::ALL.map(|stage| (stage.name(), &latency.stages[stage]));
    for (name, hist) in stages.into_iter().chain([("doc", &latency.doc)]) {
        assert_eq!(hist.count(), docs.len() as u64, "{name} histogram count");
        assert!(hist.p50() <= hist.p90() && hist.p90() <= hist.p99());
        assert!(hist.p99() <= hist.max());
    }
    // Stage latencies nest inside the end-to-end distribution.
    assert!(latency.stages[runtime::Stage::Parse].max() <= latency.doc.max());
    // The percentile keys surface in the JSON dump.
    let json = report.metrics.to_json();
    for key in [
        "doc_p50_ms",
        "doc_p99_ms",
        "disambiguate_p90_ms",
        "parse_max_ms",
    ] {
        assert!(json.contains(key), "missing {key}");
    }
}

#[test]
fn slow_docs_respects_threshold_and_reports_stage_breakdown() {
    let sn = semnet::mini_wordnet();
    let sources = corpus_xml(5, 1);
    let docs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let engine = BatchEngine::new(sn, XsdfConfig::default())
        .threads(1)
        .tracing(true);
    let report = engine.run(&docs);
    let trace = report.trace.unwrap();
    // Threshold zero: everything is "slow", slowest first.
    let all = trace.slow_docs(Duration::ZERO);
    assert_eq!(all.len(), docs.len());
    for pair in all.windows(2) {
        assert!(pair[0].duration() >= pair[1].duration());
    }
    // An impossible threshold: nothing qualifies.
    assert!(trace.slow_docs(Duration::from_secs(3600)).is_empty());
    // A cold run misses the cache, so the slowest document names the
    // concepts that would benefit from warming.
    assert!(all.iter().any(|s| !s.top_miss_concepts.is_empty()));
}
