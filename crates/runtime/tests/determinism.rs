//! The engine's determinism guarantee: batch output — chosen senses,
//! scores, and serialized semantic trees — is byte-identical to a plain
//! serial loop over [`xsdf::Xsdf`], whatever the thread count.
//!
//! This holds because (a) results are reassembled by input index, and
//! (b) the shared cache only memoizes a pure function of the concept pair,
//! so which worker computes a score first cannot change its value.

use runtime::BatchEngine;
use xsdf::{DisambiguationResult, Xsdf, XsdfConfig};

/// A byte-exact rendering of everything the engine promises to keep
/// stable: the annotated tree plus every chosen sense with its full-
/// precision score.
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
fn parallel_batch_is_byte_identical_to_serial_loop() {
    let sn = semnet::mini_wordnet();
    let sources = corpus_xml(42, 2);
    assert!(
        sources.len() >= 10,
        "want a real batch, got {}",
        sources.len()
    );
    let docs: Vec<&str> = sources.iter().map(String::as_str).collect();

    // The reference: the ordinary single-document API in a plain loop.
    let xsdf = Xsdf::new(sn, XsdfConfig::default());
    let serial: Vec<String> = docs
        .iter()
        .map(|xml| fingerprint(&xsdf.disambiguate_str(xml).unwrap()))
        .collect();

    for threads in [1, 2, 8] {
        let engine = BatchEngine::new(sn, XsdfConfig::default()).threads(threads);
        let report = engine.run(&docs);
        let batch: Vec<String> = report
            .results
            .iter()
            .map(|r| fingerprint(r.as_ref().expect("corpus documents parse")))
            .collect();
        assert_eq!(serial, batch, "batch with {threads} threads diverged");
    }
}

#[test]
fn repeated_runs_on_a_warm_cache_stay_identical() {
    // Cached and freshly computed scores must agree bit-for-bit.
    let sn = semnet::mini_wordnet();
    let sources = corpus_xml(7, 1);
    let docs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let engine = BatchEngine::new(sn, XsdfConfig::default()).threads(4);
    let cold: Vec<String> = engine
        .run(&docs)
        .results
        .iter()
        .map(|r| fingerprint(r.as_ref().unwrap()))
        .collect();
    let warm: Vec<String> = engine
        .run(&docs)
        .results
        .iter()
        .map(|r| fingerprint(r.as_ref().unwrap()))
        .collect();
    assert_eq!(cold, warm);
}

#[test]
fn metrics_account_for_the_whole_batch() {
    let sn = semnet::mini_wordnet();
    let sources = corpus_xml(3, 1);
    let docs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let engine = BatchEngine::new(sn, XsdfConfig::default()).threads(2);
    let report = engine.run(&docs);
    let m = &report.metrics;

    assert_eq!(m.documents, docs.len());
    assert_eq!(m.failures.total(), 0);
    let expected_nodes: usize = report
        .results
        .iter()
        .map(|r| r.as_ref().unwrap().reports.len())
        .sum();
    assert_eq!(m.nodes, expected_nodes);
    let expected_assigned: usize = report
        .results
        .iter()
        .map(|r| r.as_ref().unwrap().assigned_count())
        .sum();
    assert_eq!(m.assigned, expected_assigned);
    assert!(m.targets >= m.assigned);
    assert!(m.cache_misses > 0, "a cold cache must miss");
    assert!(
        m.cache_hits > 0,
        "documents share vocabulary; some pairs must be reused"
    );
    // Two workers can race to compute the same pair (both miss, both
    // store the identical value), so entries can only be bounded by misses.
    assert!(m.cache_entries > 0);
    assert!(m.cache_entries as u64 <= m.cache_misses);
    assert!(m.stages[runtime::Stage::Disambiguate] > std::time::Duration::ZERO);
    assert!(m.wall_clock > std::time::Duration::ZERO);
}
