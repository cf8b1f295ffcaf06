//! The traced run: per-layer metrics, each named after the module it
//! belongs to.
//!
//! The benchmark replays the workload's documents through the layers'
//! public functions on one worker, recording a span around each call:
//! `xmltree::parse`, `Xsdf::build_tree` (lingproc pre-processing),
//! `Xsdf::select_guarded`, `Xsdf::disambiguate_selected_guarded` and
//! `SemanticTree::to_annotated_xml`, scoring through a `TallyCache` over
//! a `SharedCache` with the workload's budget. One worker makes every
//! work counter a pure function of the seed; the replay runs several
//! times from a fresh cache and the counters must repeat exactly.
//!
//! Around that replay it measures, from outside the program: snapshot
//! decode, the similarity kernels on the replay's missed pairs, warm
//! lookup cost, `BatchEngine::run` overhead over its own stage sum, and
//! HTTP overhead of an in-process server over the same document stream.

use std::cell::RefCell;
use std::hint::black_box;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use runtime::{BatchEngine, SharedCache, TallyCache};
use semnet::{ConceptId, SemanticNetwork};
use semsim::{CombinedSimilarity, LocalCache, PairKey, SimilarityCache, SparseVector, VectorKey};
use xsdf::{Guard, Xsdf};

use crate::e2e::{body_matches, server_config};
use crate::report::{median, Metric, Outcome};
use crate::spans::Spans;
use crate::workload::{Inputs, Workload, THREADS};

/// Cold replays (each traced and untraced); timings are their medians.
const REPS: usize = 3;

/// Snapshot decodes behind `semnet.snapshot.decode_ms`.
const DECODE_REPS: usize = 15;

/// The stage spans, in pipeline order. Their self times must add up to
/// the traced wall time within [`RECONCILE_TOLERANCE`].
const STAGES: [&str; 5] = [
    "xmltree.parse",
    "lingproc.build_tree",
    "xsdf.select",
    "xsdf.disambiguate",
    "xmltree.serialize",
];

/// Largest share of a traced pass's wall time that may fall outside the
/// stage spans (loop overhead, span recording, dropping results).
const RECONCILE_TOLERANCE: f64 = 0.05;

/// Pair lookups recorded for the lookup-cost replay (a prefix of the warm
/// pass's lookup sequence, bounding its memory).
const LOOKUP_SAMPLE: usize = 400_000;

/// Work done by one pass. Every field is exact for a given seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counters {
    parse_bytes: u64,
    nodes: u64,
    targets: u64,
    sense_pairs: u64,
    pair_hits: u64,
    pair_misses: u64,
    vector_hits: u64,
    vector_misses: u64,
    gloss_pairs: u64,
    evictions: u64,
    bytes_peak: u64,
}

struct Pass {
    wall: Duration,
    outputs: Vec<Option<String>>,
    counters: Counters,
}

/// Runs `f` in a stage span when tracing, bare otherwise.
struct Tracer<'a> {
    spans: Option<&'a mut Spans>,
    doc: u32,
    root: u32,
}

impl Tracer<'_> {
    fn stage<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self.spans.as_deref_mut() {
            Some(spans) => spans.scope(name, self.doc, self.root, f),
            None => f(),
        }
    }
}

/// One document through the public stage calls, in the executor's order.
fn run_doc<C: SimilarityCache>(
    xsdf: &Xsdf,
    sim: &CombinedSimilarity<C>,
    xml: &str,
    t: &mut Tracer,
    work: &mut Counters,
) -> Option<String> {
    work.parse_bytes += xml.len() as u64;
    let doc = t.stage("xmltree.parse", || xmltree::parse(xml)).ok()?;
    let tree = t.stage("lingproc.build_tree", || xsdf.build_tree(&doc));
    work.nodes += tree.len() as u64;
    let guard = Guard::unlimited();
    let selected = t
        .stage("xsdf.select", || xsdf.select_guarded(&tree, &guard))
        .ok()?;
    work.targets += selected.iter().filter(|a| a.selected).count() as u64;
    let result = t
        .stage("xsdf.disambiguate", || {
            xsdf.disambiguate_selected_guarded(&tree, &selected, sim, &guard)
        })
        .ok()?;
    work.sense_pairs += guard.pairs_scored();
    Some(t.stage("xmltree.serialize", || {
        result.semantic_tree.to_annotated_xml()
    }))
}

/// Every document once, in order, on this thread.
fn pass<C: SimilarityCache>(
    xsdf: &Xsdf,
    sim: &CombinedSimilarity<C>,
    docs: &[String],
    mut spans: Option<&mut Spans>,
) -> Pass {
    let mut work = Counters::default();
    let mut outputs = Vec::with_capacity(docs.len());
    let started = Instant::now();
    for (i, xml) in docs.iter().enumerate() {
        let doc = i as u32;
        let root = spans.as_deref_mut().map(|s| s.open("doc", doc, None));
        let mut tracer = Tracer {
            spans: spans.as_deref_mut(),
            doc,
            root: root.unwrap_or(0),
        };
        outputs.push(run_doc(xsdf, sim, xml, &mut tracer, &mut work));
        if let (Some(s), Some(root)) = (spans.as_deref_mut(), root) {
            s.close(root);
        }
    }
    Pass {
        wall: started.elapsed(),
        outputs,
        counters: work,
    }
}

/// A fresh cache with the workload's budget and a tally over it.
fn fresh_measure(w: &Workload) -> (Arc<SharedCache>, CombinedSimilarity<TallyCache>) {
    let cache = Arc::new(SharedCache::with_budget(w.budget));
    let sim = CombinedSimilarity::with_cache(w.config.similarity, TallyCache::new(cache.clone()));
    (cache, sim)
}

/// Adds the cache and kernel counters a pass left on its measure.
fn with_cache_counters(
    mut c: Counters,
    sim: &CombinedSimilarity<TallyCache>,
    cache: &SharedCache,
) -> Counters {
    let tally = sim.cache();
    c.pair_hits = tally.hits();
    c.pair_misses = tally.misses();
    c.vector_hits = tally.vector_hits();
    c.vector_misses = tally.vector_misses();
    c.gloss_pairs = sim.gloss_pairs_scored();
    c.evictions = cache.evictions();
    c.bytes_peak = cache.bytes_peak();
    c
}

/// Per-stage self time (ns) of a traced pass, in [`STAGES`] order.
fn stage_self_ns(spans: &Spans) -> [u64; STAGES.len()] {
    let totals = spans.self_times();
    STAGES.map(|stage| {
        totals
            .iter()
            .find(|(name, _)| *name == stage)
            .map_or(0, |(_, ns)| *ns)
    })
}

/// Sum of stage spans per document (ns), indexed by document.
fn per_doc_stage_ns(spans: &Spans, docs: usize) -> Vec<u64> {
    let mut sums = vec![0u64; docs];
    for s in spans.spans().iter().filter(|s| s.parent.is_some()) {
        sums[s.doc as usize] += s.end_ns - s.start_ns;
    }
    sums
}

/// A pass-through cache that records the pair keys looked up, so the
/// lookup sequence can be replayed and timed in isolation.
struct Recording<C> {
    inner: C,
    keys: RefCell<Vec<PairKey>>,
}

impl<C: SimilarityCache> SimilarityCache for Recording<C> {
    fn lookup(&self, key: PairKey) -> Option<f64> {
        let mut keys = self.keys.borrow_mut();
        if keys.len() < LOOKUP_SAMPLE {
            keys.push(key);
        }
        self.inner.lookup(key)
    }
    fn store(&self, key: PairKey, value: f64) {
        self.inner.store(key, value)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn lookup_vector(&self, key: VectorKey) -> Option<Arc<SparseVector>> {
        self.inner.lookup_vector(key)
    }
    fn store_vector(&self, key: VectorKey, value: Arc<SparseVector>) {
        self.inner.store_vector(key, value)
    }
    fn vectors_len(&self) -> usize {
        self.inner.vectors_len()
    }
}

/// Median ns per lookup of `keys` through `cache`.
fn lookup_ns(keys: &[PairKey], cache: &impl SimilarityCache) -> f64 {
    if keys.is_empty() {
        return 0.0;
    }
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for &key in keys {
                black_box(cache.lookup(black_box(key)));
            }
            t.elapsed().as_nanos() as f64 / keys.len() as f64
        })
        .collect();
    median(&samples)
}

/// Median total µs one kernel spends on `pairs`.
fn kernel_us(
    sn: &SemanticNetwork,
    pairs: &[PairKey],
    kernel: fn(&SemanticNetwork, ConceptId, ConceptId) -> f64,
) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for &(_, a, b) in pairs {
                black_box(kernel(sn, black_box(a), black_box(b)));
            }
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

pub fn run(w: &Workload, inputs: &Inputs, snapshot: &[u8], seed: u64) -> Result<Outcome, String> {
    let n = inputs.docs.len();
    let per_doc_ms = |ns: f64| ns / n as f64 / 1e6;
    let mut attempted = 0usize;
    let mut failed = 0usize;

    // semnet.snapshot: the decode every set-up pays.
    let mut decode_ms = Vec::with_capacity(DECODE_REPS);
    let mut decoded = None;
    for _ in 0..DECODE_REPS {
        let t = Instant::now();
        let sn = semnet::snapshot::decode(snapshot).map_err(|e| format!("snapshot: {e}"))?;
        decode_ms.push(t.elapsed().as_secs_f64() * 1e3);
        decoded = Some(sn);
    }
    let sn = decoded.expect("DECODE_REPS > 0");
    let xsdf = Xsdf::new(&sn, w.config.clone());

    // Cold replays, traced and untraced in alternating order.
    let mut exact: Option<Counters> = None;
    let mut stage_ms: Vec<[f64; STAGES.len()]> = Vec::new();
    let mut unattributed = Vec::new();
    let mut traced_s = Vec::new();
    let mut untraced_s = Vec::new();
    let mut doc_stage_ns: Vec<Vec<u64>> = Vec::new();
    let mut missed = Vec::new();
    let mut last_traced = None;
    for rep in 0..REPS {
        for traced in [rep % 2 == 0, rep % 2 == 1] {
            let (cache, sim) = fresh_measure(w);
            if !traced {
                let p = pass(&xsdf, &sim, &inputs.docs, None);
                attempted += n;
                failed += inputs.mismatches(&p.outputs);
                untraced_s.push(p.wall.as_secs_f64());
                continue;
            }
            sim.cache().begin_miss_recording();
            let mut spans = Spans::with_capacity(n * (STAGES.len() + 1));
            let p = pass(&xsdf, &sim, &inputs.docs, Some(&mut spans));
            attempted += n;
            failed += inputs.mismatches(&p.outputs);
            traced_s.push(p.wall.as_secs_f64());
            let counters = with_cache_counters(p.counters, &sim, &cache);
            match exact {
                None => exact = Some(counters),
                Some(first) if first != counters => {
                    return Err(format!(
                        "work counters differ between replays of one seed:\n{first:?}\n{counters:?}"
                    ))
                }
                Some(_) => {}
            }
            missed = sim.cache().take_missed_pairs();
            let stage_ns = stage_self_ns(&spans);
            let attributed: u64 = stage_ns.iter().sum();
            let wall_ns = p.wall.as_nanos() as f64;
            unattributed.push((wall_ns - attributed as f64) / wall_ns);
            stage_ms.push(stage_ns.map(|ns| per_doc_ms(ns as f64)));
            doc_stage_ns.push(per_doc_stage_ns(&spans, n));
            last_traced = Some((cache, spans));
        }
    }
    let c = exact.expect("REPS > 0");
    let (warm_cache, spans) = last_traced.expect("REPS > 0");
    if missed.len() as u64 != c.pair_misses {
        return Err(format!(
            "miss log holds {} pairs but the tally counted {} misses",
            missed.len(),
            c.pair_misses
        ));
    }
    let worst = unattributed.iter().cloned().fold(0.0, f64::max);
    if worst > RECONCILE_TOLERANCE {
        return Err(format!(
            "stage self times leave {:.1}% of the traced wall unattributed (tolerance {:.0}%)",
            worst * 100.0,
            RECONCILE_TOLERANCE * 100.0
        ));
    }
    let stage = |i: usize| median(&stage_ms.iter().map(|s| s[i]).collect::<Vec<_>>());

    // Warm replay over the last traced replay's cache: what a second
    // batch on a reused engine pays.
    let warm_sim =
        CombinedSimilarity::with_cache(w.config.similarity, TallyCache::new(warm_cache.clone()));
    let mut warm_spans = Spans::with_capacity(n * (STAGES.len() + 1));
    let warm = pass(&xsdf, &warm_sim, &inputs.docs, Some(&mut warm_spans));
    attempted += n;
    failed += inputs.mismatches(&warm.outputs);
    let warm_stage_ns = stage_self_ns(&warm_spans);

    // Lookup cost: replay the warm pass's pair lookups through the shared
    // cache, and through a plain single-threaded map holding the same
    // entries for comparison.
    let recording = CombinedSimilarity::with_cache(
        w.config.similarity,
        Recording {
            inner: TallyCache::new(warm_cache.clone()),
            keys: RefCell::new(Vec::new()),
        },
    );
    let rec = pass(&xsdf, &recording, &inputs.docs, None);
    attempted += n;
    failed += inputs.mismatches(&rec.outputs);
    let keys = recording.cache().keys.take();
    let shared_ns = lookup_ns(&keys, &TallyCache::new(warm_cache.clone()));
    let local = LocalCache::new();
    for &key in &keys {
        if let Some(v) = warm_cache.lookup(key) {
            local.store(key, v);
        }
    }
    let local_ns = lookup_ns(&keys, &local);

    // semsim kernels on the replay's own missed pairs.
    let wu_palmer_us = kernel_us(&sn, &missed, semsim::wu_palmer);
    let lin_us = kernel_us(&sn, &missed, semsim::lin);
    let gloss_us = kernel_us(&sn, &missed, semsim::extended_gloss_overlap);

    // runtime.executor: BatchEngine::run wall × threads over the stage sum
    // the engine itself reports, at the workload's thread count.
    let docs = inputs.doc_refs();
    let mut executor_ratio = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let engine = BatchEngine::new(&sn, w.config.clone())
            .threads(THREADS)
            .cache_budget(w.budget);
        let t = Instant::now();
        let report = engine.run(&docs);
        let wall = t.elapsed().as_secs_f64();
        let outputs: Vec<Option<String>> = report
            .results
            .iter()
            .map(|r| r.as_ref().ok().map(|d| d.semantic_tree.to_annotated_xml()))
            .collect();
        attempted += n;
        failed += inputs.mismatches(&outputs);
        executor_ratio.push(wall * THREADS as f64 / report.metrics.stages.total().as_secs_f64());
    }

    // server: the same documents, in the same order, through a one-worker
    // server with the workload's configuration and budget, so its cache
    // evolves exactly as the replay's did.
    let roundtrip_ms = serve_one_by_one(w, &sn, inputs, &mut failed)?;
    attempted += n;
    let overhead_ms: Vec<f64> = roundtrip_ms
        .iter()
        .enumerate()
        .map(|(i, rt)| {
            let stage_sum = median(
                &doc_stage_ns
                    .iter()
                    .map(|rep| rep[i] as f64 / 1e6)
                    .collect::<Vec<_>>(),
            );
            rt - stage_sum
        })
        .collect();

    write_spans(w, seed, &spans);
    eprintln!(
        "{}: exact counters (repeat across {REPS} replays): parse_bytes nodes targets \
         sense_pairs pair_hits pair_misses vector_hits vector_misses gloss_pairs_scored \
         evictions bytes_peak; reconciliation: unattributed {:.2}% worst (tolerance {:.0}%)",
        w.name,
        worst * 100.0,
        RECONCILE_TOLERANCE * 100.0
    );

    let lookups = c.pair_hits + c.pair_misses;
    let warm_doc_ms = warm.wall.as_secs_f64() * 1e3 / n as f64;
    let metrics = vec![
        m("semnet.snapshot.decode_ms", median(&decode_ms), "ms"),
        m("xmltree.parse_ms", stage(0), "ms"),
        m("xmltree.parse_bytes", c.parse_bytes as f64, "bytes"),
        m("lingproc.build_tree_ms", stage(1), "ms"),
        m("lingproc.nodes", c.nodes as f64, "count"),
        m("xsdf.select_ms", stage(2), "ms"),
        m("xsdf.targets", c.targets as f64, "count"),
        m("xsdf.disambiguate_ms", stage(3), "ms"),
        m("xsdf.sense_pairs", c.sense_pairs as f64, "count"),
        m("xmltree.serialize_ms", stage(4), "ms"),
        m("runtime.cache.pair_lookups", lookups as f64, "count"),
        m("runtime.cache.pair_hits", c.pair_hits as f64, "count"),
        m("runtime.cache.pair_misses", c.pair_misses as f64, "count"),
        m(
            "runtime.cache.pair_hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                c.pair_hits as f64 / lookups as f64
            },
            "ratio",
        ),
        m("runtime.cache.vector_hits", c.vector_hits as f64, "count"),
        m(
            "runtime.cache.vector_misses",
            c.vector_misses as f64,
            "count",
        ),
        m("runtime.cache.evictions", c.evictions as f64, "count"),
        m("runtime.cache.bytes_peak", c.bytes_peak as f64, "bytes"),
        m("runtime.cache.lookup_ns", shared_ns, "ns"),
        m("runtime.cache.lookup_ns_local", local_ns, "ns"),
        m("semsim.gloss_pairs_scored", c.gloss_pairs as f64, "count"),
        m("semsim.kernel.wu_palmer_us", wu_palmer_us / n as f64, "us"),
        m("semsim.kernel.lin_us", lin_us / n as f64, "us"),
        m("semsim.kernel.gloss_us", gloss_us / n as f64, "us"),
        m("server.http_overhead_ms", median(&overhead_ms), "ms"),
        m(
            "runtime.executor.overhead_ratio",
            median(&executor_ratio),
            "ratio",
        ),
        m(
            "trace.overhead_ratio",
            median(&traced_s) / median(&untraced_s),
            "ratio",
        ),
        m("trace.unattributed_share", median(&unattributed), "ratio"),
        m("warm.doc_ms", warm_doc_ms, "ms"),
        m(
            "warm.disambiguate_ms",
            per_doc_ms(warm_stage_ns[3] as f64),
            "ms",
        ),
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Sends every document once over one keep-alive connection to a
/// one-worker in-process server and returns each round trip in ms.
/// Wrong or missing bodies are added to `failed`.
fn serve_one_by_one(
    w: &Workload,
    sn: &SemanticNetwork,
    inputs: &Inputs,
    failed: &mut usize,
) -> Result<Vec<f64>, String> {
    let server = server::Server::bind(sn, server_config(w, 1)).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::scope(|s| {
        let serving = s.spawn(|| server.run());
        let result = (|| {
            let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).ok();
            let mut carry = Vec::new();
            let mut roundtrips = Vec::with_capacity(inputs.docs.len());
            for (xml, want) in inputs.docs.iter().zip(&inputs.expected) {
                let t = Instant::now();
                let response = server::http::client_roundtrip(
                    &mut stream,
                    &mut carry,
                    "POST",
                    "/disambiguate",
                    &[("Content-Type", "application/xml")],
                    xml.as_bytes(),
                )
                .map_err(|e| format!("request: {e}"))?;
                roundtrips.push(t.elapsed().as_secs_f64() * 1e3);
                let ok = response.status == 200 && body_matches(&response.body, want);
                *failed += usize::from(!ok);
            }
            Ok(roundtrips)
        })();
        handle.shutdown();
        serving
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        result
    })
}

/// Writes the last traced cold replay's spans as JSON Lines under
/// `perfbench/out/`. Best effort: the metrics do not depend on it.
fn write_spans(w: &Workload, seed: u64, spans: &Spans) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{seed}.spans.jsonl", w.name));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_jsonl()));
    match written {
        Ok(()) => eprintln!(
            "{}: {} spans -> {}",
            w.name,
            spans.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("{}: cannot write spans to {}: {e}", w.name, path.display()),
    }
}
