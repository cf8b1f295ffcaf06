//! Serial loop vs. the `xsdf-runtime` batch engine over a corpus of
//! generated documents, reporting cold-cache and warm-cache timings
//! against the committed pre-precomputation baseline.
//!
//! Unlike the criterion benches, this is a plain harness (`harness =
//! false` + custom `main`) so it can emit a machine-readable
//! `BENCH_batch.json` at the workspace root: the `before` block is the
//! baseline measured at the commit just before the precomputed-gloss /
//! vector-cache work landed, the `after` block is re-measured on every
//! run, and `speedup_*` ratios compare the two. CI runs it in quick mode
//! (`XSDF_BENCH_QUICK=1`) as a smoke test that the harness still runs and
//! the JSON stays parseable; the committed numbers come from a full run.

use runtime::BatchEngine;
use std::hint::black_box;
use std::time::Instant;
use xsdf::{Xsdf, XsdfConfig};

/// Baseline medians (ms) measured at commit `e4b80ee` — the tree just
/// before gloss precomputation, id-based overlap, and the shared vector
/// table — on the same 32-document batch with the same harness settings.
const BEFORE_COMMIT: &str = "e4b80ee";
const BEFORE_SERIAL_MS: f64 = 1021.0;
const BEFORE_COLD_1_THREAD_MS: f64 = 338.083;
const BEFORE_WARM_MS: f64 = 15.621;

/// At least 32 documents, cycling the small generated corpus.
fn batch_xml(min_docs: usize) -> Vec<String> {
    let sn = semnet::mini_wordnet();
    let base: Vec<String> = corpus::Corpus::generate_small(sn, 11, 2)
        .documents()
        .iter()
        .map(|d| xmltree::serialize::to_string_compact(&d.doc))
        .collect();
    base.iter()
        .cycle()
        .take(min_docs.max(base.len()))
        .cloned()
        .collect()
}

/// A deliberately polysemous batch: every label is a multi-sense
/// mini-WordNet word (cast/star/track/picture plus a compound), so
/// candidate lists are as wide as the network allows and the scoring
/// loop's exact early exit has leaders to defend. The generated corpus
/// above mixes in unambiguous structure; this one measures pruning where
/// it matters.
fn polysemous_xml(min_docs: usize) -> Vec<String> {
    let templates = [
        "<films><picture><cast><star>Stewart</star><star>Kelly</star></cast>\
         <plot>a photographer spies on his neighbors</plot></picture></films>",
        "<cd><title/><artist/><company/><track/><track/></cd>",
        "<films><star_picture/><cast><star>Kelly</star></cast><track/></films>",
        "<picture><cast><star/><star/></cast><plot/><track/></picture>",
    ];
    templates
        .iter()
        .map(|s| s.to_string())
        .cycle()
        .take(min_docs.max(templates.len()))
        .collect()
}

/// A WordNet-scale synthetic network: `n` noun concepts under one root in
/// an 8-ary hypernym tree (WordNet's noun taxonomy averages branching in
/// the single digits), each with one unique lemma, one lemma shared with
/// ~3 siblings (so the word index has real multi-sense entries), and a
/// ~15-word gloss that gives the gloss-artifact build genuine
/// tokenization and extended-gloss work. Everything is a pure function of
/// `i`, so the network — and its snapshot — is bit-reproducible across
/// runs and machines.
fn synthetic_wordnet(n: usize) -> semnet::SemanticNetwork {
    use semnet::{NetworkBuilder, PartOfSpeech};
    let mut b = NetworkBuilder::new();
    b.concept(
        "entity.n",
        &["entity"],
        "the root of the synthetic wordnet scale taxonomy used by the cold start benchmark",
        1000,
        PartOfSpeech::Noun,
    );
    let shared = (n / 3).max(1);
    for i in 0..n {
        let key = format!("syn{i}.n");
        let parent = if i < 8 {
            "entity.n".to_string()
        } else {
            format!("syn{}.n", i / 8 - 1)
        };
        let unique = format!("term{i}");
        let common = format!("word{}", i % shared);
        let gloss = format!(
            "a synthetic concept number {i} of the scale benchmark whose gloss mentions \
             word{} and term{} so the artifact build tokenizes realistic sentences",
            (i + 7) % shared,
            (i + 13) % n,
        );
        b.noun(
            &key,
            &[&unique, &common],
            &gloss,
            (i % 1000) as u32 + 1,
            &parent,
        );
    }
    b.build().expect("synthetic wordnet is well-formed")
}

/// Median wall-clock of `iters` timed runs (after `warmup` untimed ones).
fn median_ms(warmup: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
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
    let (warmup, iters) = if quick { (0, 1) } else { (2, 7) };

    let sn = semnet::mini_wordnet();
    let sources = batch_xml(32);
    let docs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());

    eprintln!(
        "batch_32_docs: {} docs, {} cores, {} mode ({} warmup + {} timed)",
        docs.len(),
        cores,
        if quick { "quick" } else { "full" },
        warmup,
        iters
    );

    // Serial reference: one pipeline, one document at a time.
    let serial_ms = median_ms(warmup, iters, || {
        let xsdf = Xsdf::new(sn, XsdfConfig::default());
        for xml in &docs {
            black_box(xsdf.disambiguate_str(xml).unwrap());
        }
    });
    eprintln!("  serial_xsdf_loop        {serial_ms:10.3} ms");

    // Cold cache: a fresh engine (empty shared tables) every iteration.
    let cold_1_thread_ms = median_ms(warmup, iters, || {
        let engine = BatchEngine::new(sn, XsdfConfig::default()).threads(1);
        black_box(engine.run(&docs));
    });
    eprintln!("  runtime_1_thread (cold) {cold_1_thread_ms:10.3} ms");

    let cold_n_threads_ms = median_ms(warmup, iters, || {
        let engine = BatchEngine::new(sn, XsdfConfig::default()).threads(cores);
        black_box(engine.run(&docs));
    });
    eprintln!("  runtime_{cores}_threads (cold) {cold_n_threads_ms:10.3} ms");

    // Warm cache: one engine reused, shared tables populated by a first
    // untimed run.
    let warm_engine = BatchEngine::new(sn, XsdfConfig::default()).threads(cores);
    warm_engine.run(&docs);
    let warm_ms = median_ms(warmup, iters, || {
        black_box(warm_engine.run(&docs));
    });
    eprintln!("  runtime_{cores}_threads (warm) {warm_ms:10.3} ms");

    // The scoring loop's exact early exit, cold, one thread, over the
    // polysemous batch. Every document gets a *fresh* engine: the early
    // exit saves similarity evaluations, and a warm shared cache hides
    // exactly that work (a cycled batch would run warm from document 5
    // on and dilute the measurement ~8x).
    let poly_sources = polysemous_xml(4);
    let poly_docs: Vec<&str> = poly_sources.iter().map(String::as_str).collect();
    // Radius 3: the widest spheres the conformance sweep covers, so each
    // candidate carries the most context entries and an abandoned
    // candidate forfeits the most work.
    let pruned_config = XsdfConfig {
        radius: 3,
        ..XsdfConfig::default()
    };
    // The per-iteration wall clock here is a few ms, so scheduler noise
    // swamps a 7-sample median; triple the samples for this timing.
    let prune_iters = iters * 3;
    let pruned_cold_ms = median_ms(warmup, prune_iters, || {
        for doc in &poly_docs {
            let engine = BatchEngine::new(sn, pruned_config.clone()).threads(1);
            black_box(engine.run(&[*doc]));
        }
    });
    eprintln!("  polysemous pruned   (cold) {pruned_cold_ms:7.3} ms");
    let pruned_report = BatchEngine::new(sn, pruned_config)
        .threads(1)
        .run(&poly_docs);
    let candidates_pruned = pruned_report.metrics.candidates_pruned;
    assert!(
        candidates_pruned > 0,
        "the exact early exit must fire on the polysemous batch"
    );
    eprintln!("  candidates_pruned          {candidates_pruned:7}");

    // The early exit targets the dimension mini-WordNet cannot produce:
    // wide candidate lists. A 48-way ambiguous target
    // (`corpus::pathological::hyper_polysemous_network`) measures it in
    // the regime it is designed for; fresh engines per run keep the
    // saved similarity evaluations from hiding in a warm cache, and each
    // timed sample batches several runs so it is not sub-millisecond.
    let (hyper_sn, hyper_doc) = corpus::pathological::hyper_polysemous_network();
    // Threshold 0.2 selects only the 48-way target (polysemy factor 1.0)
    // and leaves the two-sense context labels (factor ~1/47) unselected,
    // so the timing isolates the wide candidate list.
    let hyper_config = XsdfConfig {
        threshold: xsdf::ThresholdPolicy::Fixed(0.2),
        ..XsdfConfig::default()
    };
    let hyper_reps = 20;
    let hyper_pruned_cold_ms = median_ms(warmup, prune_iters, || {
        for _ in 0..hyper_reps {
            let engine = BatchEngine::new(&hyper_sn, hyper_config.clone()).threads(1);
            black_box(engine.run(&[hyper_doc]));
        }
    });
    eprintln!("  hyper-polysemous pruned   (cold) {hyper_pruned_cold_ms:7.3} ms");
    let hyper_report = BatchEngine::new(&hyper_sn, hyper_config)
        .threads(1)
        .run(&[hyper_doc]);
    let hyper_candidates_pruned = hyper_report.metrics.candidates_pruned;
    assert!(
        hyper_candidates_pruned > 0,
        "the exact early exit must fire on the hyper-polysemous document"
    );
    eprintln!("  hyper candidates_pruned          {hyper_candidates_pruned:7}");

    // Per-document latency distribution: one instrumented cold 1-thread
    // run, read off the engine's always-on latency histograms.
    let latency_report = BatchEngine::new(sn, XsdfConfig::default())
        .threads(1)
        .run(&docs);
    let doc_hist = &latency_report.metrics.latency.doc;
    let doc_p50_ms = doc_hist.p50().as_secs_f64() * 1e3;
    let doc_p99_ms = doc_hist.p99().as_secs_f64() * 1e3;
    eprintln!("  per-doc cold p50        {doc_p50_ms:10.3} ms");
    eprintln!("  per-doc cold p99        {doc_p99_ms:10.3} ms");

    // Cold start: rebuilding the network from its text export (parse +
    // validation + the full gloss-artifact build — what every process
    // paid before compiled snapshots) vs. decoding the snapshot (one
    // validated read, artifacts arriving pre-built). Measured on the
    // builtin MiniWordNet and on a WordNet-scale synthetic network; the
    // loaded network is spot-checked against the rebuild each iteration
    // so the speedup never comes from skipped work.
    let cs_iters = if quick { 1 } else { 5 };
    let coldstart = |sn: &semnet::SemanticNetwork| -> (f64, f64, usize) {
        let text = semnet::format::to_text(sn);
        let snap = semnet::snapshot::encode(sn);
        let rebuild_ms = median_ms(warmup.min(1), cs_iters, || {
            let rebuilt = semnet::format::from_text(&text).expect("text export parses");
            black_box(rebuilt.gloss_artifacts());
            black_box(&rebuilt);
        });
        let load_ms = median_ms(warmup.min(1), cs_iters, || {
            let loaded = semnet::snapshot::decode(&snap).expect("snapshot decodes");
            black_box(loaded.gloss_artifacts());
            assert_eq!(loaded.len(), sn.len());
            assert_eq!(loaded.total_frequency(), sn.total_frequency());
            black_box(&loaded);
        });
        (rebuild_ms, load_ms, snap.len())
    };
    let (cs_mini_rebuild_ms, cs_mini_load_ms, _) = coldstart(sn);
    eprintln!("  coldstart mini  rebuild {cs_mini_rebuild_ms:10.3} ms");
    eprintln!("  coldstart mini  load    {cs_mini_load_ms:10.3} ms");
    let synth_concepts = if quick { 8_000 } else { 117_000 };
    let synth = synthetic_wordnet(synth_concepts);
    let (cs_synth_rebuild_ms, cs_synth_load_ms, cs_synth_bytes) = coldstart(&synth);
    eprintln!("  coldstart synth({synth_concepts}) rebuild {cs_synth_rebuild_ms:10.3} ms");
    eprintln!("  coldstart synth({synth_concepts}) load    {cs_synth_load_ms:10.3} ms");
    eprintln!(
        "  coldstart synth speedup {:10.1}x ({cs_synth_bytes} snapshot bytes)",
        cs_synth_rebuild_ms / cs_synth_load_ms
    );

    let fields: Vec<(&str, String)> = vec![
        ("bench", "\"batch_32_docs\"".to_string()),
        (
            "mode",
            format!("\"{}\"", if quick { "quick" } else { "full" }),
        ),
        ("documents", docs.len().to_string()),
        ("threads", cores.to_string()),
        ("iters", iters.to_string()),
        ("before_commit", format!("\"{BEFORE_COMMIT}\"")),
        ("before_serial_ms", json_f64(BEFORE_SERIAL_MS)),
        ("before_cold_1_thread_ms", json_f64(BEFORE_COLD_1_THREAD_MS)),
        ("before_warm_ms", json_f64(BEFORE_WARM_MS)),
        ("after_serial_ms", json_f64(serial_ms)),
        ("after_cold_1_thread_ms", json_f64(cold_1_thread_ms)),
        ("after_cold_n_threads_ms", json_f64(cold_n_threads_ms)),
        ("after_warm_ms", json_f64(warm_ms)),
        ("doc_latency_p50_ms", json_f64(doc_p50_ms)),
        ("doc_latency_p99_ms", json_f64(doc_p99_ms)),
        ("speedup_serial", json_f64(BEFORE_SERIAL_MS / serial_ms)),
        (
            "speedup_cold_1_thread",
            json_f64(BEFORE_COLD_1_THREAD_MS / cold_1_thread_ms),
        ),
        ("speedup_warm", json_f64(BEFORE_WARM_MS / warm_ms)),
        ("pruned_cold_ms", json_f64(pruned_cold_ms)),
        ("candidates_pruned", candidates_pruned.to_string()),
        ("hyper_polysemy", "48".to_string()),
        ("hyper_pruned_cold_ms", json_f64(hyper_pruned_cold_ms)),
        (
            "hyper_candidates_pruned",
            hyper_candidates_pruned.to_string(),
        ),
        ("coldstart_mini_rebuild_ms", json_f64(cs_mini_rebuild_ms)),
        ("coldstart_mini_load_ms", json_f64(cs_mini_load_ms)),
        (
            "coldstart_mini_speedup",
            json_f64(cs_mini_rebuild_ms / cs_mini_load_ms),
        ),
        ("coldstart_synth_concepts", synth_concepts.to_string()),
        ("coldstart_synth_rebuild_ms", json_f64(cs_synth_rebuild_ms)),
        ("coldstart_synth_load_ms", json_f64(cs_synth_load_ms)),
        (
            "coldstart_synth_speedup",
            json_f64(cs_synth_rebuild_ms / cs_synth_load_ms),
        ),
        ("coldstart_synth_snapshot_bytes", cs_synth_bytes.to_string()),
    ];
    let mut out = String::from("{\n");
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
    out.push_str("}\n");

    let path = std::env::var("XSDF_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_batch.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&path, &out).expect("write BENCH_batch.json");
    eprintln!("wrote {path}");
    print!("{out}");
}
