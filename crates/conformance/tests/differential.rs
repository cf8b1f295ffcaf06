//! The differential oracle: the optimized pipeline against the
//! straight-from-the-paper reference, over the corpus sweep.
//!
//! Tier A (every document in the sweep): pre-processing, sense
//! candidates, ambiguity degrees and selection, XML context vectors,
//! and the vector measures.
//!
//! Tier B (a deterministic nucleus of the sweep): the full naive scoring
//! formulas — Definitions 8–10, Equations 10, 12 and 13 — against
//! `ConceptContext`, `ContextVectorScorer`, and the pipeline's final
//! sense choices. The naive references re-derive ancestor maps, gloss
//! token lists and cumulative frequencies per call, so this tier samples
//! targets instead of sweeping every node.
//!
//! Agreement is `≤ 1e-12` everywhere a float is compared (the reference
//! accumulates sums in different orders than the optimized path), and
//! discrete (exact) for token lists, candidate lists, selection flags
//! and sense choices.

use std::collections::HashMap;

use conformance::harness::network;
use conformance::harness::{cases, nucleus};
use conformance::reference::{ambiguity as ref_amb, preprocess as ref_pre};
use conformance::reference::{scoring as ref_score, similarity as ref_sim, sphere as ref_sph};
use semnet::{ConceptId, SemanticNetwork};
use semsim::{CombinedSimilarity, SimilarityWeights};
use xmltree::tree::ValueTokenizer;
use xmltree::{DocNode, XmlTree};
use xsdf::ambiguity::select_targets;
use xsdf::concept_based::ConceptContext;
use xsdf::config::{AmbiguityWeights, ThresholdPolicy, VectorSimilarity};
use xsdf::context_based::ContextVectorScorer;
use xsdf::guard::Guard;
use xsdf::senses::{
    candidates_for_label, disambiguation_candidates, LingTokenizer, SenseCandidates,
};
use xsdf::sphere::{xml_context_vector, LabelledVector};
use xsdf::Xsdf;

const TOL: f64 = 1e-12;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL
}

/// Compares an optimized sparse vector against a reference vector.
fn assert_vectors_match(opt: &LabelledVector, reference: &ref_sph::RefVector, ctx: &str) {
    assert_eq!(opt.len(), reference.len(), "{ctx}: dimension count");
    for (label, w) in opt.iter() {
        let r = reference.get(label).copied().unwrap_or(f64::NAN);
        assert!(close(w, r), "{ctx}: dimension {label:?}: {w} vs {r}");
    }
}

fn ref_candidates_match(opt: &SenseCandidates, reference: &ref_pre::RefCandidates) -> bool {
    match (opt, reference) {
        (SenseCandidates::Unknown, ref_pre::RefCandidates::Unknown) => true,
        (SenseCandidates::Single(a), ref_pre::RefCandidates::Single(b)) => a == b,
        (
            SenseCandidates::Compound { first, second },
            ref_pre::RefCandidates::Compound {
                first: rf,
                second: rs,
            },
        ) => first == rf && second == rs,
        _ => false,
    }
}

/// Tier A: every element/attribute name and every text value in every
/// document processes identically through the reference pipeline and the
/// `LingTokenizer`, and every resulting tree label resolves to the same
/// sense-candidate lists.
#[test]
fn preprocessing_and_candidates_agree_across_sweep() {
    let sn = network();
    let tokenizer = LingTokenizer::new(sn);
    for case in &cases(sn) {
        let ctx = case.context();
        for id in case.doc.all_nodes() {
            match case.doc.node(id) {
                DocNode::Element { name, attributes } => {
                    let opt = tokenizer.normalize_label(name);
                    let reference = ref_pre::label_for_tag_name(sn, name);
                    assert_eq!(opt, reference, "{ctx}: element name {name:?}");
                    for attr in attributes {
                        let opt = tokenizer.normalize_label(&attr.name);
                        let reference = ref_pre::label_for_tag_name(sn, &attr.name);
                        assert_eq!(opt, reference, "{ctx}: attribute name {:?}", attr.name);
                        let opt_tokens = tokenizer.tokenize_value(&attr.value);
                        let ref_tokens = ref_pre::process_text_value(sn, &attr.value);
                        assert_eq!(
                            opt_tokens, ref_tokens,
                            "{ctx}: attribute value {:?}",
                            attr.value
                        );
                    }
                }
                DocNode::Text(text) | DocNode::CData(text) => {
                    let opt_tokens = tokenizer.tokenize_value(text);
                    let ref_tokens = ref_pre::process_text_value(sn, text);
                    assert_eq!(opt_tokens, ref_tokens, "{ctx}: text value {text:?}");
                }
                DocNode::Comment(_) | DocNode::ProcessingInstruction { .. } => {}
            }
        }
        // Sense candidates over the processed labels of the built tree,
        // both raw (Definition 3's polysemy input) and noun-filtered
        // (the disambiguation inputs).
        let xsdf = Xsdf::new(sn, case.config());
        let tree = xsdf.build_tree(&case.doc);
        for node in tree.preorder() {
            let label = tree.label(node);
            let opt = candidates_for_label(sn, label);
            let reference = ref_pre::candidates_for_label(sn, label);
            assert!(
                ref_candidates_match(&opt, &reference),
                "{ctx}: candidates for label {label:?}: {opt:?} vs {reference:?}"
            );
            let kind = tree.node(node).kind;
            let opt = disambiguation_candidates(sn, label, kind);
            let reference = ref_pre::disambiguation_candidates(sn, label, kind);
            assert!(
                ref_candidates_match(&opt, &reference),
                "{ctx}: disambiguation candidates for {label:?} ({kind:?})"
            );
        }
    }
}

/// Tier A: ambiguity degrees (Definition 3) and target selection under
/// both threshold policies agree on every node of every document.
#[test]
fn ambiguity_degrees_and_selection_agree_across_sweep() {
    let sn = network();
    let w = AmbiguityWeights::equal();
    assert_eq!(
        ref_amb::max_polysemy(sn),
        sn.max_polysemy(),
        "max polysemy normalizer"
    );
    for case in &cases(sn) {
        let ctx = case.context();
        let xsdf = Xsdf::new(sn, case.config());
        let tree = xsdf.build_tree(&case.doc);
        for node in tree.preorder() {
            assert_eq!(
                ref_amb::depth(&tree, node),
                tree.depth(node),
                "{ctx}: depth of {node:?}"
            );
            assert_eq!(
                ref_amb::density(&tree, node),
                tree.density(node),
                "{ctx}: density of {node:?}"
            );
            let opt = xsdf::ambiguity::ambiguity_degree(sn, &tree, node, w);
            let reference = ref_amb::ambiguity_degree(sn, &tree, node, w);
            assert!(
                close(opt, reference),
                "{ctx}: degree of {node:?} ({:?}): {opt} vs {reference}",
                tree.label(node)
            );
        }
        for policy in [
            ThresholdPolicy::Fixed(0.0),
            ThresholdPolicy::Fixed(0.3),
            ThresholdPolicy::Auto,
        ] {
            let opt = select_targets(sn, &tree, w, policy);
            let reference = ref_amb::select_targets(sn, &tree, w, policy);
            let threshold = ref_amb::resolve_threshold(sn, &tree, w, policy);
            assert_eq!(opt.len(), reference.len(), "{ctx}: selection length");
            for (o, r) in opt.iter().zip(&reference) {
                assert_eq!(o.node, r.node, "{ctx}: selection order");
                assert!(
                    close(o.degree, r.degree),
                    "{ctx} {policy:?}: degree {:?}: {} vs {}",
                    o.node,
                    o.degree,
                    r.degree
                );
                // At the exact threshold boundary a last-ulp difference
                // in the two mean computations could legitimately flip
                // the flag; away from it the flags must agree.
                if (o.degree - threshold).abs() > 1e-9 {
                    assert_eq!(
                        o.selected, r.selected,
                        "{ctx} {policy:?}: selection flag of {:?} (degree {}, threshold {})",
                        o.node, o.degree, threshold
                    );
                }
            }
        }
    }
}

/// Tier A: XML context vectors (Definitions 6–7) agree on every node at
/// the case's radius, and the three vector measures of footnote 10 agree
/// on real vector pairs.
#[test]
fn xml_context_vectors_and_measures_agree_across_sweep() {
    let sn = network();
    for case in &cases(sn) {
        let ctx = case.context();
        let xsdf = Xsdf::new(sn, case.config());
        let tree = xsdf.build_tree(&case.doc);
        let root_opt = xml_context_vector(sn, &tree, tree.root(), case.radius);
        let ref_root = ref_sph::xml_context_vector(&tree, tree.root(), case.radius);
        for node in tree.preorder() {
            let opt = xml_context_vector(sn, &tree, node, case.radius);
            let reference = ref_sph::xml_context_vector(&tree, node, case.radius);
            assert_vectors_match(&opt, &reference, &format!("{ctx}: vector of {node:?}"));

            // Measure agreement on the (node, root) vector pair.
            let ref_node = reference;
            for measure in [
                VectorSimilarity::Cosine,
                VectorSimilarity::Jaccard,
                VectorSimilarity::Pearson,
            ] {
                let o = measure.apply(opt.vector(), root_opt.vector());
                let r = ref_sim::apply_measure(measure, &ref_node, &ref_root);
                assert!(
                    close(o, r),
                    "{ctx}: {measure:?} of ({node:?}, root): {o} vs {r}"
                );
            }
        }
    }
}

/// Sampled concept pairs for the similarity differential: a deterministic
/// stride over the full pair space.
fn sample_pairs(
    sn: &SemanticNetwork,
    stride_a: usize,
    stride_b: usize,
) -> Vec<(ConceptId, ConceptId)> {
    let all: Vec<ConceptId> = sn.all_concepts().collect();
    let mut out = Vec::new();
    for (i, &a) in all.iter().enumerate().step_by(stride_a) {
        for (j, &b) in all.iter().enumerate().step_by(stride_b) {
            let _ = (i, j);
            out.push((a, b));
        }
    }
    out
}

/// Tier B: the three constituent similarity measures and their
/// Definition 9 combinations agree with the naive per-call references on
/// a deterministic sample of concept pairs.
#[test]
fn similarity_measures_agree_on_sampled_pairs() {
    let sn = network();
    // The lowest-common-subsumer search both taxonomy measures read, exact:
    // on the dense sample plus every pair touching a concept with two or
    // more upward edges, where the minimal distance depends on the path.
    let multi: Vec<ConceptId> = sn
        .all_concepts()
        .filter(|&c| sn.edges(c).iter().filter(|(k, _)| k.is_upward()).count() >= 2)
        .collect();
    assert!(!multi.is_empty(), "the network has multiple inheritance");
    let mut pairs = sample_pairs(sn, 2, 3);
    for &m in &multi {
        pairs.extend(sn.all_concepts().flat_map(|c| [(m, c), (c, m)]));
    }
    for (a, b) in pairs {
        let o = semnet::graph::common_subsumer(sn, a, b).map(|s| (s.lcs, s.dist_a, s.dist_b));
        let r = ref_sim::lowest_common_subsumer(sn, a, b).map(|lcs| {
            let dist = |c| ref_sim::ancestors_with_distance(sn, c)[&lcs];
            (lcs, dist(a), dist(b))
        });
        assert_eq!(o, r, "common_subsumer({a:?}, {b:?})");
    }
    // Edge and node measures are cheap enough for a dense sample.
    for (a, b) in sample_pairs(sn, 2, 3) {
        let o = semsim::wu_palmer(sn, a, b);
        let r = ref_sim::wu_palmer(sn, a, b);
        assert!(close(o, r), "wu_palmer({a:?}, {b:?}): {o} vs {r}");
        let o = semsim::lin(sn, a, b);
        let r = ref_sim::lin(sn, a, b);
        assert!(close(o, r), "lin({a:?}, {b:?}): {o} vs {r}");
    }
    // The naive gloss reference re-tokenizes per call: sparser sample.
    for (a, b) in sample_pairs(sn, 5, 7) {
        let o = semsim::extended_gloss_overlap(sn, a, b);
        let r = ref_sim::extended_gloss_overlap(sn, a, b);
        assert!(close(o, r), "gloss({a:?}, {b:?}): {o} vs {r}");
    }
    for weights in [
        SimilarityWeights::equal(),
        SimilarityWeights::edge_only(),
        SimilarityWeights::node_only(),
        SimilarityWeights::gloss_only(),
        SimilarityWeights::new(0.5, 0.3, 0.2).unwrap(),
    ] {
        let sim = CombinedSimilarity::new(weights);
        for (a, b) in sample_pairs(sn, 7, 11) {
            let o = sim.similarity(sn, a, b);
            let r = ref_sim::combined_similarity(sn, weights, a, b);
            assert!(
                close(o, r),
                "combined({weights:?}, {a:?}, {b:?}): {o} vs {r}"
            );
        }
    }
}

/// Up to `limit` selected targets of a result, evenly spaced.
fn sample_targets(xsdf: &Xsdf, tree: &XmlTree, limit: usize) -> Vec<xmltree::NodeId> {
    let selected: Vec<xmltree::NodeId> = xsdf
        .select_guarded(tree, &Guard::unlimited())
        .expect("an unlimited guard cannot trip")
        .into_iter()
        .filter(|na| na.selected)
        .map(|na| na.node)
        .collect();
    if selected.len() <= limit {
        return selected;
    }
    let step = selected.len().div_ceil(limit);
    selected.into_iter().step_by(step).collect()
}

/// A memoizing wrapper around the pure reference similarity — harness
/// plumbing only (the reference itself stays cache-free); it merely
/// avoids re-deriving the same pure pair value thousands of times while
/// the differential sweeps a document.
fn memo_sim<'a>(
    sn: &'a SemanticNetwork,
    weights: SimilarityWeights,
) -> impl FnMut(ConceptId, ConceptId) -> f64 + 'a {
    let mut memo: HashMap<(ConceptId, ConceptId), f64> = HashMap::new();
    move |a, b| {
        *memo
            .entry((a, b))
            .or_insert_with(|| ref_sim::combined_similarity(sn, weights, a, b))
    }
}

/// Tier B: the full scoring stack — Definition 8 / Equation 10 concept
/// scores, Definition 10 / Equation 12 context scores, and the pipeline's
/// final Equation 13 choices — agrees with the naive reference on sampled
/// targets of the sweep nucleus.
#[test]
fn full_scoring_and_choices_agree_on_nucleus() {
    let sn = network();
    let all = cases(sn);
    let stride = if conformance::harness::quick() { 7 } else { 11 };
    for case in nucleus(&all, stride) {
        let ctx = case.context();
        let cfg = case.config();
        let xsdf = Xsdf::new(sn, cfg.clone());
        let tree = xsdf.build_tree(&case.doc);
        let result = xsdf.disambiguate_tree(&tree);
        let mut sim = memo_sim(sn, cfg.similarity);
        for target in sample_targets(&xsdf, &tree, 4) {
            // Constituent scores, candidate by candidate.
            let opt_sim = CombinedSimilarity::new(cfg.similarity);
            let concept_ctx = ConceptContext::build(sn, &tree, target, cfg.radius);
            let scorer = ContextVectorScorer::build(sn, &tree, target, cfg.radius)
                .with_measure(cfg.vector_similarity);
            let label = tree.label(target);
            if let SenseCandidates::Single(senses) =
                disambiguation_candidates(sn, label, tree.node(target).kind)
            {
                for &s in &senses {
                    let o = concept_ctx.score_single(sn, &opt_sim, s);
                    let r =
                        ref_score::concept_score_single(sn, &tree, target, cfg.radius, s, &mut sim);
                    assert!(
                        close(o, r),
                        "{ctx}: Definition 8 score of {s:?} at {label:?}: {o} vs {r}"
                    );
                    let o = scorer.score_single(sn, s);
                    let r = ref_score::context_score_single(sn, &tree, target, &cfg, s);
                    assert!(
                        close(o, r),
                        "{ctx}: Definition 10 score of {s:?} at {label:?}: {o} vs {r}"
                    );
                }
            }
            // The final choice (Equation 13 plus tie-breaks and the
            // annotation gate).
            let opt_chosen = result
                .reports
                .iter()
                .find(|r| r.node == target)
                .and_then(|r| r.chosen);
            let ref_chosen = ref_score::score_target(sn, &tree, target, &cfg, &mut sim);
            match (opt_chosen, ref_chosen) {
                (None, None) => {}
                (Some((oc, os)), Some((rc, rs))) => {
                    assert_eq!(oc, rc, "{ctx}: chosen sense at {label:?}");
                    assert!(
                        close(os, rs),
                        "{ctx}: chosen score at {label:?}: {os} vs {rs}"
                    );
                }
                (o, r) => panic!("{ctx}: choice presence at {label:?}: {o:?} vs {r:?}"),
            }
        }
    }
}
