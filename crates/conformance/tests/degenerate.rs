//! Degenerate-input differentials: the corners where a formula's
//! denominator, sphere, or candidate list collapses — single-node trees,
//! radius-0 spheres, fully unknown labels, and compound labels with one
//! unknown token. Each input runs through **both** implementations and
//! must agree exactly like the main sweep does.

use conformance::harness::network;
use semsim::SimilarityWeights;
use xsdf::ambiguity::select_targets;
use xsdf::config::{AmbiguityWeights, ThresholdPolicy, VectorSimilarity, XsdfConfig};
use xsdf::senses::{candidates_for_label, SenseCandidates};
use xsdf::sphere::{xml_context_vector, xml_sphere};
use xsdf::Xsdf;

use conformance::reference::{
    ambiguity as ref_amb, preprocess as ref_pre, scoring as ref_score, similarity as ref_sim,
    sphere as ref_sph,
};

const TOL: f64 = 1e-12;

/// Runs one document through the full pipeline and the full reference,
/// asserting per-node agreement on degrees, vectors, and final choices.
fn assert_full_agreement(xml: &str, cfg: XsdfConfig, ctx: &str) {
    let sn = network();
    let doc = xmltree::parse(xml).unwrap_or_else(|e| panic!("{ctx}: must parse: {e:?}"));
    let xsdf = Xsdf::new(sn, cfg.clone());
    let tree = xsdf.build_tree(&doc);
    let w = cfg.ambiguity_weights;
    for node in tree.preorder() {
        let opt = xsdf::ambiguity::ambiguity_degree(sn, &tree, node, w);
        let reference = ref_amb::ambiguity_degree(sn, &tree, node, w);
        assert!(
            (opt - reference).abs() <= TOL,
            "{ctx}: degree of {:?}: {opt} vs {reference}",
            tree.label(node)
        );
        let ov = xml_context_vector(sn, &tree, node, cfg.radius);
        let rv = ref_sph::xml_context_vector(&tree, node, cfg.radius);
        assert_eq!(ov.len(), rv.len(), "{ctx}: vector support of {node:?}");
        for (label, weight) in ov.iter() {
            let r = rv.get(label).copied().unwrap_or(f64::NAN);
            assert!(
                (weight - r).abs() <= TOL,
                "{ctx}: vector dim {label:?} of {node:?}: {weight} vs {r}"
            );
        }
    }
    let result = xsdf.disambiguate_tree(&tree);
    let mut sim = |a, b| ref_sim::combined_similarity(sn, cfg.similarity, a, b);
    for report in &result.reports {
        let reference = ref_score::score_target(sn, &tree, report.node, &cfg, &mut sim);
        let opt = report.chosen;
        match (opt, reference) {
            (None, None) => {}
            (Some((oc, os)), Some((rc, rs))) => {
                assert_eq!(oc, rc, "{ctx}: chosen sense at {:?}", report.label);
                assert!(
                    (os - rs).abs() <= TOL,
                    "{ctx}: chosen score at {:?}: {os} vs {rs}",
                    report.label
                );
            }
            (o, r) => panic!(
                "{ctx}: choice presence at {:?}: {o:?} vs {r:?}",
                report.label
            ),
        }
    }
}

/// A single-node tree: depth 0, density 0, an empty sphere at any radius,
/// and a context vector holding only the center.
#[test]
fn single_node_tree_agrees_through_both_implementations() {
    let sn = network();
    let doc = xmltree::parse("<star/>").unwrap();
    let xsdf = Xsdf::new(sn, XsdfConfig::default());
    let tree = xsdf.build_tree(&doc);
    assert_eq!(tree.len(), 1, "single-element document builds one node");
    let root = tree.root();
    for radius in 0..=3 {
        assert!(xml_sphere(&tree, root, radius).is_empty());
        assert!(ref_sph::xml_sphere(&tree, root, radius).is_empty());
        // |S| = 1 ⇒ scale = 2/(1+1) = 1, center at Struct(0) = 1.
        let v = xml_context_vector(sn, &tree, root, radius);
        assert_eq!(v.len(), 1);
        assert_eq!(v.get("star"), 1.0);
    }
    for cfg in [
        XsdfConfig::default(),
        XsdfConfig {
            radius: 0,
            ..XsdfConfig::default()
        },
    ] {
        assert_full_agreement("<star/>", cfg, "single-node");
    }
}

/// Radius 0 degenerates every sphere to the center ring `R_0 = {x}`:
/// concept scores lose all context terms and context vectors compare the
/// bare label dimensions — but both implementations must still agree.
#[test]
fn radius_zero_spheres_agree_through_both_implementations() {
    for measure in [
        VectorSimilarity::Cosine,
        VectorSimilarity::Jaccard,
        VectorSimilarity::Pearson,
    ] {
        let cfg = XsdfConfig {
            radius: 0,
            vector_similarity: measure,
            ..XsdfConfig::default()
        };
        assert_full_agreement(
            "<cast><star>Kelly</star><director>Stanley</director></cast>",
            cfg,
            &format!("radius-0 {measure:?}"),
        );
    }
}

/// A label no normalization chain can resolve: `Unknown` candidates, a
/// polysemy component of zero, and no chosen sense — on both sides.
#[test]
fn unknown_labels_agree_through_both_implementations() {
    let sn = network();
    assert!(matches!(
        candidates_for_label(sn, "zorbleflux"),
        SenseCandidates::Unknown
    ));
    assert!(matches!(
        ref_pre::candidates_for_label(sn, "zorbleflux"),
        ref_pre::RefCandidates::Unknown
    ));
    let xml = "<zorbleflux><star>Kelly</star><blarfwig/></zorbleflux>";
    assert_full_agreement(xml, XsdfConfig::default(), "unknown-labels");
    // Unknown labels are never selected as targets, under either policy.
    let doc = xmltree::parse(xml).unwrap();
    let xsdf = Xsdf::new(sn, XsdfConfig::default());
    let tree = xsdf.build_tree(&doc);
    for policy in [ThresholdPolicy::Fixed(0.0), ThresholdPolicy::Auto] {
        let w = AmbiguityWeights::equal();
        let opt = select_targets(sn, &tree, w, policy);
        let reference = ref_amb::select_targets(sn, &tree, w, policy);
        for (o, r) in opt.iter().zip(&reference) {
            assert_eq!(
                o.selected,
                r.selected,
                "selection of {:?}",
                tree.label(o.node)
            );
            if tree.label(o.node).contains("zorble") || tree.label(o.node).contains("blarf") {
                assert!(
                    !o.selected,
                    "unknown label {:?} selected",
                    tree.label(o.node)
                );
            }
        }
    }
}

/// Compound labels where exactly one token is known exercise the
/// one-sided fallback (and its keep-first tie-break) in both orders:
/// known-first (`star_zorble`) and known-second (`zorble_star`).
#[test]
fn compound_with_one_unknown_token_agrees_through_both_implementations() {
    let sn = network();
    for tag in ["star_zorble", "zorble_star"] {
        // Pre-processing splits the tag into tokens and stores the
        // space-joined compound label in the tree.
        let label = tag.replace('_', " ");
        let label = label.as_str();
        let opt = candidates_for_label(sn, label);
        let reference = ref_pre::candidates_for_label(sn, label);
        match (&opt, &reference) {
            (
                SenseCandidates::Compound { first, second },
                ref_pre::RefCandidates::Compound {
                    first: rf,
                    second: rs,
                },
            ) => {
                assert_eq!(first, rf, "{label}: first token senses");
                assert_eq!(second, rs, "{label}: second token senses");
                assert!(
                    first.is_empty() != second.is_empty(),
                    "{label}: exactly one side must be unknown (got {} and {})",
                    first.len(),
                    second.len()
                );
            }
            other => panic!("{label}: expected compound on both sides, got {other:?}"),
        }
        let xml = format!("<cast><{tag}>Kelly</{tag}><director/></cast>");
        assert_full_agreement(&xml, XsdfConfig::default(), &format!("compound {tag}"));
    }
}

/// The degenerate similarity inputs themselves: identity pairs score 1,
/// and the combined measure stays within `[0, 1]` for every weight split,
/// reference and optimized alike.
#[test]
fn identity_and_bounds_hold_on_degenerate_similarity_inputs() {
    let sn = network();
    let senses = sn.senses("star");
    assert!(!senses.is_empty(), "mini_wordnet must know star");
    let weights = SimilarityWeights::equal();
    let sim = semsim::CombinedSimilarity::new(weights);
    for &s in senses {
        let o = sim.similarity(sn, s, s);
        let r = ref_sim::combined_similarity(sn, weights, s, s);
        assert!((o - 1.0).abs() <= TOL, "optimized identity: {o}");
        assert!((r - 1.0).abs() <= TOL, "reference identity: {r}");
    }
}
