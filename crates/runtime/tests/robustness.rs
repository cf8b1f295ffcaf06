//! Deterministic regression tests for the fault-tolerance layer: resource
//! limits, deadlines, fail-fast, and error accounting — everything that
//! does not require injected faults (those live in `tests/chaos.rs` behind
//! the `failpoints` feature).

use std::time::{Duration, Instant};

use corpus::pathological;
use runtime::{BatchEngine, ResourceLimits, XsdfError};
use semnet::mini_wordnet;
use xsdf::{LimitKind, XsdfConfig};

fn engine() -> BatchEngine<'static> {
    BatchEngine::new(mini_wordnet(), XsdfConfig::default())
}

/// A small healthy document every test can rely on succeeding.
const HEALTHY: &str = "<films><picture><cast><star>Kelly</star></cast></picture></films>";

#[test]
fn byte_limit_trips_on_entity_heavy_documents() {
    let fat = pathological::entity_heavy(200);
    let engine = engine()
        .threads(2)
        .limits(ResourceLimits::unlimited().max_bytes(4 << 10));
    let report = engine.run(&[HEALTHY, &fat]);
    assert!(report.results[0].is_ok());
    match &report.results[1] {
        Err(XsdfError::LimitExceeded {
            which: LimitKind::Bytes,
            limit,
            actual,
        }) => {
            assert_eq!(*limit, 4 << 10);
            assert_eq!(*actual, fat.len() as u64);
        }
        other => panic!("expected byte limit, got {other:?}"),
    }
    assert_eq!(report.metrics.failures.limit, 1);
    assert_eq!(report.metrics.failures.total(), 1);
}

#[test]
fn node_limit_trips_on_mega_fanout() {
    let wide = pathological::mega_fanout(400);
    let engine = engine()
        .threads(2)
        .limits(ResourceLimits::unlimited().max_nodes(100));
    let report = engine.run(&[&wide, HEALTHY]);
    match &report.results[0] {
        Err(XsdfError::LimitExceeded {
            which: LimitKind::Nodes,
            limit: 100,
            actual,
        }) => assert!(*actual > 400),
        other => panic!("expected node limit, got {other:?}"),
    }
    assert!(report.results[1].is_ok());
}

#[test]
fn depth_limit_is_a_limit_error_not_a_parse_error() {
    let deep = pathological::deep_nesting(64);
    let engine = engine()
        .threads(1)
        .limits(ResourceLimits::unlimited().max_depth(16));
    let report = engine.run(&[&deep]);
    match &report.results[0] {
        Err(XsdfError::LimitExceeded {
            which: LimitKind::Depth,
            limit: 16,
            ..
        }) => {}
        other => panic!("expected depth limit, got {other:?}"),
    }
    assert_eq!(report.metrics.failures.limit, 1);
    assert_eq!(
        report.metrics.failures.parse, 0,
        "depth is a limit, not a parse failure"
    );
}

#[test]
fn parser_default_depth_guard_still_classifies_as_limit() {
    // Even with no configured limits, the parser's own stack-overflow
    // guard (256) reports through the same taxonomy.
    let very_deep = pathological::deep_nesting(300);
    let report = engine().threads(1).run(&[&very_deep]);
    match &report.results[0] {
        Err(XsdfError::LimitExceeded {
            which: LimitKind::Depth,
            limit: 256,
            ..
        }) => {}
        other => panic!("expected depth limit, got {other:?}"),
    }
}

#[test]
fn a_raised_depth_limit_stops_at_the_ceiling() {
    // `max_depth` above the ceiling is capped, so the parser still stops
    // at 256 levels instead of recursing until the stack overflows.
    let very_deep = pathological::deep_nesting(300);
    let engine = engine()
        .threads(1)
        .limits(ResourceLimits::unlimited().max_depth(1_000_000));
    match engine.process_document(&very_deep) {
        Err(XsdfError::LimitExceeded {
            which: LimitKind::Depth,
            limit: 256,
            ..
        }) => {}
        other => panic!("expected depth limit, got {other:?}"),
    }
}

#[test]
fn a_document_at_the_depth_ceiling_runs_the_whole_pipeline_on_a_2_mib_stack() {
    // `deep_nesting(n)` wraps n sections in one root: 256 levels in all.
    let xml = pathological::deep_nesting(runtime::limits::MAX_DEPTH as usize - 1);
    let annotated = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let result = engine()
                .threads(1)
                .process_document(&xml)
                .expect("the ceiling itself is accepted");
            result.semantic_tree.to_annotated_xml()
        })
        .unwrap()
        .join()
        .expect("no stack overflow at the ceiling");
    assert_eq!(annotated.matches("label=\"section\"").count(), 255);
}

#[test]
fn target_limit_trips_on_hyper_polysemous_documents() {
    let poly = pathological::hyper_polysemous(8);
    let engine = engine()
        .threads(1)
        .limits(ResourceLimits::unlimited().max_targets(10));
    let report = engine.run(&[&poly]);
    match &report.results[0] {
        Err(XsdfError::LimitExceeded {
            which: LimitKind::Targets,
            limit: 10,
            actual,
        }) => assert!(*actual > 10),
        other => panic!("expected target limit, got {other:?}"),
    }
}

#[test]
fn sense_pair_budget_trips_inside_the_scoring_loop() {
    let poly = pathological::hyper_polysemous(8);
    let engine = engine()
        .threads(1)
        .limits(ResourceLimits::unlimited().max_sense_pairs(25));
    let report = engine.run(&[&poly]);
    match &report.results[0] {
        Err(XsdfError::LimitExceeded {
            which: LimitKind::SensePairs,
            limit: 25,
            actual: 26,
        }) => {}
        other => panic!("expected sense-pair limit, got {other:?}"),
    }
}

#[test]
fn zero_deadline_reports_budget_and_elapsed() {
    let engine = engine()
        .threads(1)
        .limits(ResourceLimits::unlimited().deadline(Duration::ZERO));
    let report = engine.run(&[HEALTHY]);
    match &report.results[0] {
        Err(XsdfError::DeadlineExceeded { budget, .. }) => {
            assert_eq!(*budget, Duration::ZERO);
        }
        other => panic!("expected deadline, got {other:?}"),
    }
    assert_eq!(report.metrics.failures.deadline, 1);
}

#[test]
fn wide_documents_answer_near_their_deadline() {
    // ~30k nodes under one root. Target selection is linear in the tree
    // size and the deadline is re-checked per target, so the document
    // returns within a small multiple of its deadline, not after a pass
    // quadratic in its width. The deadline leaves room for parsing and
    // building the tree (about 0.5 s in a debug build), so selection
    // always runs before it expires.
    let wide = pathological::mega_fanout(10_000);
    let engine = engine()
        .threads(1)
        .limits(ResourceLimits::unlimited().deadline(Duration::from_secs(2)));
    let started = Instant::now();
    let report = engine.run(&[wide.as_str()]);
    let elapsed = started.elapsed();
    match &report.results[0] {
        Ok(_) | Err(XsdfError::DeadlineExceeded { .. }) => {}
        other => panic!("expected a result or a deadline error, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(20),
        "a 2 s deadline took {elapsed:?}"
    );
}

#[test]
fn generous_limits_change_nothing() {
    // A fully limited engine whose ceilings are far above the documents
    // must produce byte-identical output to an unlimited one.
    let limited = engine().threads(1).limits(
        ResourceLimits::unlimited()
            .max_bytes(1 << 20)
            .max_nodes(100_000)
            .max_depth(200)
            .max_targets(10_000)
            .max_sense_pairs(10_000_000)
            .deadline(Duration::from_secs(60)),
    );
    let unlimited = engine().threads(1);
    let docs = [HEALTHY, &pathological::hyper_polysemous(2)];
    let a = limited.run(&docs);
    let b = unlimited.run(&docs);
    for (x, y) in a.results.iter().zip(&b.results) {
        let (x, y) = (
            x.as_ref().expect("limited ok"),
            y.as_ref().expect("unlimited ok"),
        );
        assert_eq!(
            x.semantic_tree.to_annotated_xml(),
            y.semantic_tree.to_annotated_xml()
        );
    }
}

#[test]
fn mixed_batch_is_deterministic_across_thread_counts() {
    // Failures induced purely by limits (no timing, no failpoints): the
    // whole report must agree at 1, 2, and 8 threads.
    let deep = pathological::deep_nesting(64);
    let wide = pathological::mega_fanout(400);
    let poly = pathological::hyper_polysemous(8);
    let mut docs = Vec::new();
    for _ in 0..4 {
        docs.push(HEALTHY.to_string());
        docs.push(deep.clone());
        docs.push(wide.clone());
        docs.push(poly.clone());
    }
    let views: Vec<&str> = docs.iter().map(String::as_str).collect();
    let limits = ResourceLimits::unlimited()
        .max_depth(16)
        .max_nodes(100)
        .max_targets(10);

    let reference = engine().threads(1).limits(limits).run(&views);
    assert_eq!(reference.metrics.failures.limit, 12);
    assert_eq!(reference.metrics.failures.total(), 12);
    for threads in [2, 8] {
        let report = engine().threads(threads).limits(limits).run(&views);
        assert_eq!(report.metrics.failures, reference.metrics.failures);
        for (i, (a, b)) in reference.results.iter().zip(&report.results).enumerate() {
            match (a, b) {
                (Ok(x), Ok(y)) => assert_eq!(
                    x.semantic_tree.to_annotated_xml(),
                    y.semantic_tree.to_annotated_xml(),
                    "doc {i} diverged at {threads} threads"
                ),
                (Err(x), Err(y)) => assert_eq!(x, y, "doc {i} error diverged"),
                _ => panic!("doc {i}: ok/err split across thread counts"),
            }
        }
    }
}

#[test]
fn fail_fast_still_reports_every_slot() {
    let engine = engine()
        .threads(4)
        .limits(ResourceLimits::unlimited().max_nodes(100))
        .fail_fast(true);
    let wide = pathological::mega_fanout(400);
    let docs: Vec<&str> = std::iter::once(wide.as_str())
        .chain(std::iter::repeat_n(HEALTHY, 15))
        .collect();
    let report = engine.run(&docs);
    // Exactly one slot per input, every slot filled with Ok or a typed
    // error; scheduling decides *how many* got cancelled, not the shape.
    assert_eq!(report.results.len(), docs.len());
    assert!(report.metrics.failures.limit >= 1);
    assert_eq!(
        report.metrics.failures.total(),
        report.results.iter().filter(|r| r.is_err()).count()
    );
    assert_eq!(
        report.metrics.failures.cancelled,
        report
            .results
            .iter()
            .filter(|r| matches!(r, Err(XsdfError::Cancelled)))
            .count()
    );
}

#[test]
fn error_kinds_render_for_operators() {
    // The CLI prints `[kind] message`; make sure the pieces exist for
    // every variant an operator can see.
    let deep = pathological::deep_nesting(64);
    let engine = engine()
        .threads(1)
        .limits(ResourceLimits::unlimited().max_depth(16));
    let report = engine.run(&["<broken", &deep]);
    let parse = report.results[0].as_ref().unwrap_err();
    assert_eq!(parse.kind(), "parse");
    assert!(!parse.to_string().is_empty());
    let limit = report.results[1].as_ref().unwrap_err();
    assert_eq!(limit.kind(), "limit");
    assert!(limit.to_string().contains("depth"));
}
