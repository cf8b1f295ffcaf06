//! Metamorphic invariants: properties that must hold between *runs* of
//! the optimized pipeline rather than against the reference formulas —
//! caching, threading, sphere growth, label renaming, and the
//! serialize→reparse round trip must all be behavior-preserving.

use conformance::harness::network;
use semsim::{CombinedSimilarity, LocalCache};
use xmltree::serialize::to_string_compact;
use xsdf::config::VectorSimilarity;
use xsdf::sphere::{xml_context_vector, xml_sphere};
use xsdf::{DisambiguationResult, Xsdf};

use conformance::harness::{cases, nucleus};
use conformance::reference::sphere as ref_sph;

/// Bitwise equality of two disambiguation results: same nodes in the same
/// order, same labels, ambiguity bits, selection flags, candidate counts,
/// and chosen (sense, score-bits) pairs. Caching and threading claim
/// *bit-for-bit* reproducibility, so no tolerance is applied.
fn assert_results_identical(a: &DisambiguationResult, b: &DisambiguationResult, ctx: &str) {
    assert_eq!(a.reports.len(), b.reports.len(), "{ctx}: report count");
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(ra.node, rb.node, "{ctx}: node order");
        assert_eq!(ra.label, rb.label, "{ctx}: label of {:?}", ra.node);
        assert_eq!(
            ra.ambiguity.to_bits(),
            rb.ambiguity.to_bits(),
            "{ctx}: ambiguity of {:?}: {} vs {}",
            ra.node,
            ra.ambiguity,
            rb.ambiguity
        );
        assert_eq!(
            ra.selected, rb.selected,
            "{ctx}: selection of {:?}",
            ra.node
        );
        assert_eq!(
            ra.candidates, rb.candidates,
            "{ctx}: candidate count of {:?}",
            ra.node
        );
        let key = |c: &Option<(xsdf::SenseChoice, f64)>| c.map(|(s, f)| (s, f.to_bits()));
        assert_eq!(
            key(&ra.chosen),
            key(&rb.chosen),
            "{ctx}: chosen sense of {:?}",
            ra.node
        );
    }
}

/// Caching must be score-invisible: the cacheless run, a cold shared-cache
/// run, and a warm re-run over the same cache all produce bit-identical
/// reports.
#[test]
fn cache_on_off_and_warm_runs_are_bitwise_identical() {
    let sn = network();
    let all = cases(sn);
    for case in nucleus(&all, 5) {
        let ctx = case.context();
        let xsdf = Xsdf::new(sn, case.config());
        let tree = xsdf.build_tree(&case.doc);
        let baseline = xsdf.disambiguate_tree(&tree);
        let cached = CombinedSimilarity::with_cache(case.config().similarity, LocalCache::new());
        let cold = xsdf.disambiguate_tree_with(&tree, &cached);
        let warm = xsdf.disambiguate_tree_with(&tree, &cached);
        assert_results_identical(&baseline, &cold, &format!("{ctx} cache cold"));
        assert_results_identical(&baseline, &warm, &format!("{ctx} cache warm"));
    }
}

/// Thread count must be result-invisible: batch runs at 1, 2 and 8
/// threads produce bit-identical reports in the submission order.
#[test]
fn batch_thread_counts_are_bitwise_identical() {
    let sn = network();
    let all = cases(sn);
    let subset = nucleus(&all, 5);
    let sources: Vec<String> = subset.iter().map(|c| to_string_compact(&c.doc)).collect();
    let docs: Vec<&str> = sources.iter().map(String::as_str).collect();
    // One config for the whole batch (batch runs share a pipeline).
    let run = |threads: usize| {
        runtime::BatchEngine::new(sn, subset[0].config())
            .threads(threads)
            .run(&docs)
            .results
    };
    let one = run(1);
    assert_eq!(one.len(), subset.len());
    for threads in [2usize, 8] {
        for ((case, want), got) in subset.iter().zip(&one).zip(&run(threads)) {
            assert_results_identical(
                want.as_ref().expect("conformance case parses"),
                got.as_ref().expect("conformance case parses"),
                &format!("{} threads 1 vs {threads}", case.context()),
            );
        }
    }
}

/// Eviction must be score-invisible too: batch runs under tiny entry and
/// byte budgets — evicting constantly, at 1, 2, and 8 threads — are
/// bit-identical to the cacheless serial reference. A bounded cache may
/// change when scores are recomputed, never what they are.
#[test]
fn bounded_cache_eviction_is_bitwise_invisible() {
    let sn = network();
    let all = cases(sn);
    let subset = nucleus(&all, 5);
    // One config for the whole batch (batch runs share a pipeline).
    let xsdf = Xsdf::new(sn, subset[0].config());
    let sources: Vec<String> = subset.iter().map(|c| to_string_compact(&c.doc)).collect();
    let docs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let reference: Vec<DisambiguationResult> = subset
        .iter()
        .map(|c| xsdf.disambiguate_tree(&xsdf.build_tree(&c.doc)))
        .collect();
    let budgets = [
        runtime::CacheBudget {
            max_entries: 4,
            max_bytes: 0,
        },
        runtime::CacheBudget {
            max_entries: 0,
            max_bytes: 8 * 1024,
        },
    ];
    for budget in budgets {
        for threads in [1usize, 2, 8] {
            let engine = runtime::BatchEngine::new(sn, subset[0].config())
                .threads(threads)
                .cache_budget(budget);
            let report = engine.run(&docs);
            assert!(
                report.metrics.cache_evictions > 0,
                "budget {budget:?} must actually evict for this test to bite"
            );
            for ((case, result), want) in subset.iter().zip(&report.results).zip(&reference) {
                let got = result.as_ref().expect("conformance case parses");
                assert_results_identical(
                    want,
                    got,
                    &format!("{} budget {budget:?} threads {threads}", case.context()),
                );
            }
        }
    }
}

/// Definition 5: spheres are nested in the radius — `S_r(x) ⊆ S_{r+1}(x)`
/// with unchanged distances — and the context vector's support can only
/// grow with them. Checked on both implementations.
#[test]
fn spheres_grow_monotonically_with_radius() {
    let sn = network();
    let all = cases(sn);
    for case in nucleus(&all, 7) {
        let ctx = case.context();
        let xsdf = Xsdf::new(sn, case.config());
        let tree = xsdf.build_tree(&case.doc);
        for node in tree.preorder() {
            let mut prev_len = 0usize;
            for radius in 0..=3u32 {
                let sphere = xml_sphere(&tree, node, radius);
                let reference = ref_sph::xml_sphere(&tree, node, radius);
                let mut opt_sorted: Vec<_> = sphere.clone();
                opt_sorted.sort_unstable();
                let mut ref_sorted = reference;
                ref_sorted.sort_unstable();
                assert_eq!(
                    opt_sorted, ref_sorted,
                    "{ctx}: sphere of {node:?} at radius {radius}"
                );
                assert!(
                    sphere.len() >= prev_len,
                    "{ctx}: sphere of {node:?} shrank at radius {radius}"
                );
                if radius > 0 {
                    let smaller = xml_sphere(&tree, node, radius - 1);
                    for (n, d) in &smaller {
                        assert_eq!(
                            sphere.iter().find(|(m, _)| m == n).map(|(_, d)| d),
                            Some(d),
                            "{ctx}: distance of {n:?} changed from radius {} to {radius}",
                            radius - 1
                        );
                    }
                }
                prev_len = sphere.len();
            }
        }
    }
}

/// Label renaming is a structural no-op: under an injective relabeling,
/// structural ambiguity components, sphere shapes, and XML context
/// vectors (modulo renamed dimensions) are bit-identical — none of them
/// may depend on what the labels *say*, only on where they sit.
#[test]
fn injective_relabeling_preserves_structural_quantities() {
    let sn = network();
    let all = cases(sn);
    for case in nucleus(&all, 7) {
        let ctx = case.context();
        let xsdf = Xsdf::new(sn, case.config());
        let tree = xsdf.build_tree(&case.doc);
        // The suffix keeps the map injective: distinct labels stay
        // distinct, and no renamed label collides with an original.
        let rename = |l: &str| format!("{l}\u{1F}renamed");
        let renamed = tree.relabeled(rename);
        assert_eq!(tree.len(), renamed.len(), "{ctx}: node count");
        for node in tree.preorder() {
            assert_eq!(
                tree.depth(node),
                renamed.depth(node),
                "{ctx}: depth of {node:?}"
            );
            assert_eq!(
                tree.density(node),
                renamed.density(node),
                "{ctx}: density of {node:?}"
            );
            let a = xml_sphere(&tree, node, case.radius);
            let b = xml_sphere(&renamed, node, case.radius);
            assert_eq!(a, b, "{ctx}: sphere of {node:?}");
            let va = xml_context_vector(sn, &tree, node, case.radius);
            let vb = xml_context_vector(sn, &renamed, node, case.radius);
            assert_eq!(va.len(), vb.len(), "{ctx}: vector support of {node:?}");
            for (label, w) in va.iter() {
                let r = vb.get(&rename(label));
                assert_eq!(
                    w.to_bits(),
                    r.to_bits(),
                    "{ctx}: weight of {label:?} at {node:?}: {w} vs {r}"
                );
            }
        }
    }
}

/// Serialize→reparse is a fixpoint: the compact serialization reparses to
/// a document that serializes identically, builds an identical tree, and
/// disambiguates to bit-identical reports.
#[test]
fn serialize_reparse_is_a_fixpoint() {
    let sn = network();
    let all = cases(sn);
    for (i, case) in all.iter().enumerate() {
        let ctx = case.context();
        let s1 = to_string_compact(&case.doc);
        let doc2 = xmltree::parse(&s1)
            .unwrap_or_else(|e| panic!("{ctx}: serialized document must reparse: {e:?}"));
        let s2 = to_string_compact(&doc2);
        assert_eq!(s1, s2, "{ctx}: serialization fixpoint");
        let xsdf = Xsdf::new(sn, case.config());
        let t1 = xsdf.build_tree(&case.doc);
        let t2 = xsdf.build_tree(&doc2);
        assert_eq!(t1.len(), t2.len(), "{ctx}: rebuilt tree size");
        for node in t1.preorder() {
            assert_eq!(t1.label(node), t2.label(node), "{ctx}: label of {node:?}");
            assert_eq!(
                t1.node(node).kind,
                t2.node(node).kind,
                "{ctx}: kind of {node:?}"
            );
            assert_eq!(
                t1.parent(node),
                t2.parent(node),
                "{ctx}: parent of {node:?}"
            );
        }
        // Full-pipeline agreement on a subset (the rebuilt tree is equal
        // node for node, so scoring only needs spot confirmation).
        if i % 9 == 0 {
            let r1 = xsdf.disambiguate_tree(&t1);
            let r2 = xsdf.disambiguate_tree(&t2);
            assert_results_identical(&r1, &r2, &format!("{ctx} reparse"));
        }
    }
}

/// The three vector measures are symmetric and bounded to `[0, 1]` on
/// every real vector pair the sweep produces — the range contract the
/// combined score (Equation 13) relies on.
#[test]
fn vector_measures_are_symmetric_and_bounded() {
    let sn = network();
    let all = cases(sn);
    for case in nucleus(&all, 7) {
        let ctx = case.context();
        let xsdf = Xsdf::new(sn, case.config());
        let tree = xsdf.build_tree(&case.doc);
        let root = xml_context_vector(sn, &tree, tree.root(), case.radius);
        for node in tree.preorder() {
            let v = xml_context_vector(sn, &tree, node, case.radius);
            for measure in [
                VectorSimilarity::Cosine,
                VectorSimilarity::Jaccard,
                VectorSimilarity::Pearson,
            ] {
                let ab = measure.apply(v.vector(), root.vector());
                let ba = measure.apply(root.vector(), v.vector());
                // Jaccard accumulates the union in argument order, so
                // symmetry holds to the ulp, not bitwise.
                assert!(
                    (ab - ba).abs() <= 1e-12,
                    "{ctx}: {measure:?} asymmetric at {node:?}: {ab} vs {ba}"
                );
                assert!(
                    (0.0..=1.0).contains(&ab),
                    "{ctx}: {measure:?} out of range at {node:?}: {ab}"
                );
            }
        }
    }
}
