//! Chaos tests: fault injection through `runtime::fault` failpoints.
//!
//! Compiled only with `--features failpoints`; CI runs them as a dedicated
//! job. Every test uses *marker-targeted* actions (`PanicIf`/`DelayIf`)
//! so which documents fail is a property of the documents, not of thread
//! scheduling — the same batch must produce the same report shape at 1, 2,
//! and 8 threads.
#![cfg(feature = "failpoints")]

use std::sync::Mutex;
use std::time::Duration;

use corpus::pathological;
use runtime::fault::{self, FaultAction};
use runtime::{BatchEngine, CacheBudget, ResourceLimits, XsdfError};
use semnet::mini_wordnet;
use xsdf::XsdfConfig;

const HEALTHY: &str = "<films><picture><cast><star>Kelly</star></cast></picture></films>";
const PANIC_MARKER: &str = "CHAOS_PANIC";
const SLOW_MARKER: &str = "CHAOS_SLOW";

/// The failpoint registry is process-global, so tests that mutate it must
/// not interleave. Serializes each test body and guarantees a clean
/// registry (and a quiet panic hook) around it.
fn with_failpoints(points: &[(&str, FaultAction)], body: impl FnOnce()) {
    static LOCK: Mutex<()> = Mutex::new(());
    let _serial = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    // Injected panics are expected; silence the default per-panic banner
    // so the test output stays readable.
    std::panic::set_hook(Box::new(|_| {}));
    fault::clear();
    for (stage, action) in points {
        fault::set(stage, action.clone());
    }
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    fault::clear();
    let _ = std::panic::take_hook(); // reinstate the default hook
    if let Err(payload) = outcome {
        std::panic::resume_unwind(payload);
    }
}

fn engine() -> BatchEngine<'static> {
    BatchEngine::new(mini_wordnet(), XsdfConfig::default())
}

#[test]
fn a_panic_at_every_stage_is_isolated_at_every_thread_count() {
    let marked = pathological::with_marker(HEALTHY, PANIC_MARKER);
    let docs = [HEALTHY, &marked, HEALTHY, &marked, &marked, HEALTHY];
    for stage in ["parse", "preprocess", "select", "disambiguate"] {
        with_failpoints(
            &[(stage, FaultAction::PanicIf(PANIC_MARKER.into()))],
            || {
                for threads in [1usize, 2, 8] {
                    let report = engine().threads(threads).run(&docs);
                    assert_eq!(report.results.len(), docs.len());
                    for (i, (doc, result)) in docs.iter().zip(&report.results).enumerate() {
                        if doc.contains(PANIC_MARKER) {
                            match result {
                                Err(XsdfError::Panicked { message }) => assert!(
                                    message.contains(stage),
                                    "stage {stage}, doc {i}: unexpected message {message:?}"
                                ),
                                other => {
                                    panic!("stage {stage}, doc {i}: expected panic, got {other:?}")
                                }
                            }
                        } else {
                            assert!(
                            result.is_ok(),
                            "stage {stage}, doc {i}, {threads} threads: healthy neighbor failed"
                        );
                        }
                    }
                    assert_eq!(report.metrics.failures.panic, 3, "stage {stage}");
                    assert_eq!(report.metrics.failures.total(), 3, "stage {stage}");
                }
            },
        );
    }
}

#[test]
fn acceptance_mix_16_of_32_survive_identically_at_all_thread_counts() {
    // The ISSUE's acceptance batch: 32 documents — 8 panic via failpoints,
    // 4 exceed a resource limit, 4 exceed their deadline — and the 16
    // healthy ones complete with byte-identical output at 1, 2, and 8
    // threads, with per-kind counts in the metrics.
    let panicky = pathological::with_marker(HEALTHY, PANIC_MARKER);
    let slow = pathological::with_marker(HEALTHY, SLOW_MARKER);
    let deep = pathological::deep_nesting(64);
    let mut docs: Vec<String> = Vec::new();
    for i in 0..32 {
        docs.push(match i % 8 {
            0 | 4 => panicky.clone(),
            1 => deep.clone(),
            5 => slow.clone(),
            _ => HEALTHY.to_string(),
        });
    }
    let views: Vec<&str> = docs.iter().map(String::as_str).collect();

    with_failpoints(
        &[
            ("disambiguate", FaultAction::PanicIf(PANIC_MARKER.into())),
            (
                "select",
                FaultAction::DelayIf(SLOW_MARKER.into(), Duration::from_millis(400)),
            ),
        ],
        || {
            let mut reference: Option<Vec<Option<String>>> = None;
            for threads in [1usize, 2, 8] {
                let report = engine()
                    .threads(threads)
                    .limits(
                        ResourceLimits::unlimited()
                            .max_depth(16)
                            .deadline(Duration::from_millis(150)),
                    )
                    .run(&views);

                let failures = report.metrics.failures;
                assert_eq!(failures.panic, 8, "{threads} threads");
                assert_eq!(failures.limit, 4, "{threads} threads");
                assert_eq!(failures.deadline, 4, "{threads} threads");
                assert_eq!(failures.parse, 0, "{threads} threads");
                assert_eq!(failures.cancelled, 0, "{threads} threads");
                assert_eq!(report.metrics.failures.total(), 16, "{threads} threads");

                let annotated: Vec<Option<String>> = report
                    .results
                    .iter()
                    .map(|r| {
                        r.as_ref()
                            .ok()
                            .map(|res| res.semantic_tree.to_annotated_xml())
                    })
                    .collect();
                assert_eq!(
                    annotated.iter().filter(|a| a.is_some()).count(),
                    16,
                    "{threads} threads"
                );
                match &reference {
                    None => reference = Some(annotated),
                    Some(reference) => assert_eq!(
                        reference, &annotated,
                        "Ok outputs diverged at {threads} threads"
                    ),
                }
            }
        },
    );
}

#[test]
fn unconditional_parse_panic_fails_the_whole_batch_without_killing_it() {
    with_failpoints(&[("parse", FaultAction::Panic)], || {
        let report = engine().threads(2).run(&[HEALTHY, HEALTHY, HEALTHY]);
        assert_eq!(report.metrics.failures.panic, 3);
        for result in &report.results {
            assert!(matches!(result, Err(XsdfError::Panicked { .. })));
        }
    });
}

#[test]
fn injected_delay_trips_the_deadline_only_on_marked_documents() {
    let slow = pathological::with_marker(HEALTHY, SLOW_MARKER);
    with_failpoints(
        &[(
            "select",
            FaultAction::DelayIf(SLOW_MARKER.into(), Duration::from_millis(300)),
        )],
        || {
            let report = engine()
                .threads(2)
                .limits(ResourceLimits::unlimited().deadline(Duration::from_millis(100)))
                .run(&[HEALTHY, &slow, HEALTHY]);
            assert!(report.results[0].is_ok());
            match &report.results[1] {
                Err(XsdfError::DeadlineExceeded { budget, elapsed }) => {
                    assert_eq!(*budget, Duration::from_millis(100));
                    assert!(*elapsed >= Duration::from_millis(100));
                }
                other => panic!("expected deadline, got {other:?}"),
            }
            assert!(report.results[2].is_ok());
            assert_eq!(report.metrics.failures.deadline, 1);
        },
    );
}

#[test]
fn fail_fast_cancels_after_an_injected_panic() {
    let panicky = pathological::with_marker(HEALTHY, PANIC_MARKER);
    with_failpoints(
        &[("parse", FaultAction::PanicIf(PANIC_MARKER.into()))],
        || {
            let docs: Vec<&str> = std::iter::once(panicky.as_str())
                .chain(std::iter::repeat_n(HEALTHY, 15))
                .collect();
            let report = engine().threads(1).fail_fast(true).run(&docs);
            assert!(matches!(report.results[0], Err(XsdfError::Panicked { .. })));
            assert_eq!(report.metrics.failures.panic, 1);
            assert_eq!(report.metrics.failures.cancelled, 15);
            for result in &report.results[1..] {
                assert!(matches!(result, Err(XsdfError::Cancelled)));
            }
        },
    );
}

/// A corpus batch that scores enough distinct pairs (and, under the
/// combined process, context vectors) to keep a tiny budget evicting
/// throughout the run.
fn eviction_corpus() -> Vec<String> {
    corpus::Corpus::generate_small(mini_wordnet(), 11, 1)
        .documents()
        .iter()
        .map(|d| xmltree::serialize::to_string_pretty(&d.doc))
        .collect()
}

/// Both cache tables in play: pair scores and shared context vectors.
fn combined_config() -> XsdfConfig {
    XsdfConfig {
        process: xsdf::DisambiguationProcess::Combined {
            concept: 0.5,
            context: 0.5,
        },
        ..XsdfConfig::default()
    }
}

#[test]
fn delayed_evictions_racing_reads_stay_byte_identical() {
    // Stretch the eviction critical section so concurrent readers and
    // writers pile up against mid-eviction shards at 8 threads; output
    // must still match the unbounded (never-evicting) run byte for byte.
    let sources = eviction_corpus();
    let docs: Vec<&str> = sources.iter().map(String::as_str).collect();
    with_failpoints(
        &[("cache-evict", FaultAction::Delay(Duration::from_millis(1)))],
        || {
            let annotated = |report: &runtime::BatchReport| -> Vec<String> {
                report
                    .results
                    .iter()
                    .map(|r| r.as_ref().unwrap().semantic_tree.to_annotated_xml())
                    .collect()
            };
            // Unbounded never evicts, so the delay failpoint never fires
            // here — this is the clean reference.
            let reference = annotated(
                &BatchEngine::new(mini_wordnet(), combined_config())
                    .threads(8)
                    .run(&docs),
            );
            let engine = BatchEngine::new(mini_wordnet(), combined_config())
                .threads(8)
                .cache_budget(CacheBudget {
                    max_entries: 64,
                    max_bytes: 0,
                });
            let report = engine.run(&docs);
            assert!(
                report.metrics.cache_evictions > 0,
                "the budget must actually trigger the raced evictions"
            );
            assert_eq!(
                reference,
                annotated(&report),
                "eviction races changed output"
            );
        },
    );
}

#[test]
fn a_panic_mid_eviction_is_isolated_and_the_cache_recovers() {
    // `cache-evict` fires (before any mutation) while the shard write
    // lock is held, so an injected panic poisons the shard at the worst
    // moment. The document that tripped it fails alone; once the fault is
    // gone the same engine — same poisoned-then-recovered cache — keeps
    // serving with byte accounting intact.
    let sources = eviction_corpus();
    let docs: Vec<&str> = sources.iter().map(String::as_str).collect();
    for table in ["pair", "vector"] {
        with_failpoints(
            &[("cache-evict", FaultAction::PanicIf(table.into()))],
            || {
                let budget = CacheBudget {
                    max_entries: 32,
                    max_bytes: 0,
                };
                let engine = BatchEngine::new(mini_wordnet(), combined_config())
                    .threads(2)
                    .cache_budget(budget);
                let first = engine.run(&docs);
                assert_eq!(first.results.len(), docs.len());
                assert!(
                    first.metrics.failures.panic > 0,
                    "table {table}: a tight budget must trip the eviction failpoint"
                );
                // Disarm the fault and rerun on the SAME engine: recovered
                // shards must serve correctly and the budget must hold.
                fault::set("cache-evict", FaultAction::PanicIf("NEVER".into()));
                let second = engine.run(&docs);
                for (i, result) in second.results.iter().enumerate() {
                    assert!(result.is_ok(), "table {table}, doc {i}: did not recover");
                }
                assert_eq!(second.metrics.failures.total(), 0, "table {table}");
                // Accounting survived the poisoning: entries within the
                // budget on both tables (each capped at max_entries).
                assert!(
                    second.metrics.cache_entries <= budget.max_entries,
                    "{table}"
                );
                assert!(
                    second.metrics.vector_entries <= budget.max_entries,
                    "{table}"
                );
            },
        );
    }
}

#[test]
fn shared_cache_survives_panicking_neighbors() {
    // Panics fire mid-pipeline while healthy documents score through the
    // same shared cache; a poisoned shard must not cascade.
    let panicky = pathological::with_marker(HEALTHY, PANIC_MARKER);
    with_failpoints(
        &[("disambiguate", FaultAction::PanicIf(PANIC_MARKER.into()))],
        || {
            let engine = engine().threads(8);
            let docs: Vec<&str> = (0..32)
                .map(|i| {
                    if i % 2 == 0 {
                        panicky.as_str()
                    } else {
                        HEALTHY
                    }
                })
                .collect();
            let first = engine.run(&docs);
            assert_eq!(first.metrics.failures.panic, 16);
            // A second run on the same engine still works and reuses the
            // warm cache.
            let second = engine.run(&[HEALTHY]);
            assert!(second.results[0].is_ok());
            assert_eq!(
                second.metrics.cache_misses, 0,
                "cache stays usable and warm"
            );
        },
    );
}
