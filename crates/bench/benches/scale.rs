//! Streaming scale-out benchmark: pushes progressively larger slices of
//! the seeded document stream through the `xsdf-runtime` batch engine
//! and reports throughput, tail latency, and memory at each size.
//!
//! The corpus never exists as a list: documents are generated lazily
//! from `(seed, position)` via [`corpus::stream::document_at`] and fed
//! to the engine in fixed-size chunks, so a 10⁵-document run holds one
//! chunk of XML at a time — the point of the measurement is that the
//! memory column stays flat while the document column grows 100×.
//!
//! Like the other plain harnesses here (`harness = false` + custom
//! `main`), it emits a machine-readable `BENCH_scale.json` at the
//! workspace root. CI runs it in quick mode (`XSDF_BENCH_QUICK=1`, tiny
//! sizes) as a smoke test that the harness runs and the JSON schema
//! holds; the committed numbers come from a full run.

use runtime::{BatchEngine, MetricsSnapshot};
use std::hint::black_box;
use std::time::Instant;
use xsdf::XsdfConfig;

/// Documents per generate-serialize-run chunk. Bounds resident XML to
/// one chunk regardless of the total corpus size.
const CHUNK_DOCS: usize = 256;

/// The stream seed: distinct from the soak harness's seed so the two
/// workloads stay independently reproducible.
const SCALE_STREAM_SEED: u64 = 0x5CA1E;

struct SizeResult {
    documents: usize,
    elapsed_s: f64,
    docs_per_sec: f64,
    nodes_per_sec: f64,
    doc_p50_ms: f64,
    doc_p99_ms: f64,
    rss_bytes: u64,
    peak_rss_bytes: u64,
}

/// Runs `documents` stream positions through one warm engine in
/// `CHUNK_DOCS`-document chunks, merging per-chunk metrics exactly the
/// way the sharded driver merges per-process reports.
fn run_size(engine: &BatchEngine, sn: &semnet::SemanticNetwork, documents: usize) -> SizeResult {
    let started = Instant::now();
    let mut merged: Option<MetricsSnapshot> = None;
    let mut pos = 0u64;
    while (pos as usize) < documents {
        let take = CHUNK_DOCS.min(documents - pos as usize);
        let chunk: Vec<String> = (0..take)
            .map(|i| {
                let doc = corpus::stream::document_at(sn, SCALE_STREAM_SEED, pos + i as u64);
                xmltree::serialize::to_string_compact(&doc.doc)
            })
            .collect();
        let refs: Vec<&str> = chunk.iter().map(String::as_str).collect();
        let report = engine.run(&refs);
        assert_eq!(
            report.metrics.failures.total(),
            0,
            "generated documents must all process"
        );
        black_box(&report.results);
        match &mut merged {
            None => merged = Some(report.metrics),
            Some(m) => m.merge(&report.metrics),
        }
        pos += take as u64;
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    let metrics = merged.expect("at least one chunk ran");
    let doc_hist = &metrics.latency.doc;
    SizeResult {
        documents,
        elapsed_s,
        docs_per_sec: documents as f64 / elapsed_s,
        nodes_per_sec: metrics.nodes as f64 / elapsed_s,
        doc_p50_ms: doc_hist.p50().as_secs_f64() * 1e3,
        doc_p99_ms: doc_hist.p99().as_secs_f64() * 1e3,
        rss_bytes: server::bench::rss_self_bytes().unwrap_or(0),
        peak_rss_bytes: server::bench::rss_peak_bytes().unwrap_or(0),
    }
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let quick = std::env::var_os("XSDF_BENCH_QUICK").is_some();
    let sizes: &[usize] = if quick {
        &[50, 100, 200]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let sn = semnet::mini_wordnet();
    let engine = BatchEngine::new(sn, XsdfConfig::default()).threads(cores);

    eprintln!(
        "scale_streaming_batch: sizes {sizes:?}, {cores} threads, chunk {CHUNK_DOCS}, {} mode",
        if quick { "quick" } else { "full" }
    );

    let mut results: Vec<SizeResult> = Vec::new();
    for &documents in sizes {
        let r = run_size(&engine, sn, documents);
        eprintln!(
            "  {documents:>7} docs: {:8.1} docs/s, {:9.0} nodes/s, p50 {:6.3} ms, \
             p99 {:6.3} ms, rss {:5.1} MB (peak {:5.1} MB), {:7.1} s",
            r.docs_per_sec,
            r.nodes_per_sec,
            r.doc_p50_ms,
            r.doc_p99_ms,
            r.rss_bytes as f64 / 1e6,
            r.peak_rss_bytes as f64 / 1e6,
            r.elapsed_s
        );
        results.push(r);
    }

    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"scale_streaming_batch\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    out.push_str(&format!("  \"threads\": {cores},\n"));
    out.push_str(&format!("  \"chunk_docs\": {CHUNK_DOCS},\n"));
    out.push_str(&format!("  \"seed\": {SCALE_STREAM_SEED},\n"));
    out.push_str("  \"sizes\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"documents\": {}, \"elapsed_s\": {}, \"docs_per_sec\": {}, \
             \"nodes_per_sec\": {}, \"doc_p50_ms\": {}, \"doc_p99_ms\": {}, \
             \"rss_mb\": {}, \"peak_rss_mb\": {}}}{}\n",
            r.documents,
            json_f64(r.elapsed_s),
            json_f64(r.docs_per_sec),
            json_f64(r.nodes_per_sec),
            json_f64(r.doc_p50_ms),
            json_f64(r.doc_p99_ms),
            json_f64(r.rss_bytes as f64 / 1e6),
            json_f64(r.peak_rss_bytes as f64 / 1e6),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");

    let path = std::env::var("XSDF_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_scale.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&path, &out).expect("write BENCH_scale.json");
    eprintln!("wrote {path}");
    print!("{out}");
}
