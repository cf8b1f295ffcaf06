//! Reference disambiguation scoring: the concept-based score (Definition
//! 8, Equation 10), the context-based score (Definition 10, Equation 12),
//! the combined score (Equation 13), and the target's final sense choice
//! with the pipeline's exact tie-breaking and annotation gate.

use semnet::{ConceptId, SemanticNetwork};
use xmltree::{NodeId, XmlTree};
use xsdf::config::XsdfConfig;
use xsdf::SenseChoice;

use super::preprocess::{disambiguation_candidates, RefCandidates};
use super::similarity::apply_measure;
use super::sphere::{
    compound_concept_context_vector, concept_context_vector, xml_context_vector, xml_sphere,
};

/// A pairwise concept similarity `Sim(s_p, s_q, S̄N)` — Definition 9, or
/// any stand-in the harness supplies (e.g. a memoizing wrapper around the
/// pure reference, to keep differential sweeps affordable without adding
/// caching to the reference itself).
pub type SimFn<'a> = dyn FnMut(ConceptId, ConceptId) -> f64 + 'a;

/// One sphere context node resolved for Definition 8: its vector weight
/// and candidate sense lists (two lists for a compound context label).
struct ContextEntry {
    weight: f64,
    senses: Vec<ConceptId>,
    second_senses: Option<Vec<ConceptId>>,
}

/// Resolves the sphere context entries and Definition 8's `|S_d(x)|` —
/// the center (ring `R_0 = {x}`) plus all context nodes. Context nodes
/// with no known senses contribute no entry but still count toward the
/// cardinality.
fn context_entries(
    sn: &SemanticNetwork,
    tree: &XmlTree,
    target: NodeId,
    radius: u32,
) -> (Vec<ContextEntry>, usize) {
    let sphere = xml_sphere(tree, target, radius);
    let vector = xml_context_vector(tree, target, radius);
    let cardinality = sphere.len() + 1;
    let mut entries = Vec::new();
    for (node, _) in sphere {
        let label = tree.label(node);
        let weight = vector.get(label).copied().unwrap_or(0.0);
        match disambiguation_candidates(sn, label, tree.node(node).kind) {
            RefCandidates::Unknown => {}
            RefCandidates::Single(senses) => entries.push(ContextEntry {
                weight,
                senses,
                second_senses: None,
            }),
            RefCandidates::Compound { first, second } => entries.push(ContextEntry {
                weight,
                senses: first,
                second_senses: Some(second),
            }),
        }
    }
    (entries, cardinality)
}

/// `Max_j Sim(candidate, s_j^i)` over one context entry's senses; a
/// compound context label averages its two tokens' best similarities,
/// falling back to the non-empty side when one token is unknown.
fn max_sim_with(entry: &ContextEntry, score_of: &mut dyn FnMut(ConceptId) -> f64) -> f64 {
    let best_first = entry
        .senses
        .iter()
        .map(|&s| score_of(s))
        .fold(0.0f64, f64::max);
    match &entry.second_senses {
        None => best_first,
        Some(second) => {
            let best_second = second.iter().map(|&s| score_of(s)).fold(0.0f64, f64::max);
            if entry.senses.is_empty() {
                best_second
            } else if second.is_empty() {
                best_first
            } else {
                (best_first + best_second) / 2.0
            }
        }
    }
}

/// `Concept_Score(s_p, S_d(x), S̄N)` of Definition 8.
pub fn concept_score_single(
    sn: &SemanticNetwork,
    tree: &XmlTree,
    target: NodeId,
    radius: u32,
    candidate: ConceptId,
    sim: &mut SimFn,
) -> f64 {
    let (entries, cardinality) = context_entries(sn, tree, target, radius);
    let total: f64 = entries
        .iter()
        .map(|e| max_sim_with(e, &mut |s| sim(candidate, s)) * e.weight)
        .sum();
    (total / cardinality as f64).clamp(0.0, 1.0)
}

/// `Concept_Score((s_p, s_q), S_d(x), S̄N)` of Equation 10: each context
/// comparison averages the two target token senses' similarities.
pub fn concept_score_pair(
    sn: &SemanticNetwork,
    tree: &XmlTree,
    target: NodeId,
    radius: u32,
    first: ConceptId,
    second: ConceptId,
    sim: &mut SimFn,
) -> f64 {
    let (entries, cardinality) = context_entries(sn, tree, target, radius);
    let total: f64 = entries
        .iter()
        .map(|e| max_sim_with(e, &mut |s| (sim(first, s) + sim(second, s)) / 2.0) * e.weight)
        .sum();
    (total / cardinality as f64).clamp(0.0, 1.0)
}

/// `Context_Score(s_p, S_d(x), SN)` of Definition 10: the vector measure
/// over the target's XML context vector and the candidate's semantic
/// context vector (all relation kinds crossed).
pub fn context_score_single(
    sn: &SemanticNetwork,
    tree: &XmlTree,
    target: NodeId,
    cfg: &XsdfConfig,
    candidate: ConceptId,
) -> f64 {
    let xml = xml_context_vector(tree, target, cfg.radius);
    let concept = concept_context_vector(sn, candidate, cfg.radius);
    apply_measure(cfg.vector_similarity, &xml, &concept)
}

/// `Context_Score((s_p, s_q))` over Equation 12's union-sphere vector.
pub fn context_score_pair(
    sn: &SemanticNetwork,
    tree: &XmlTree,
    target: NodeId,
    cfg: &XsdfConfig,
    first: ConceptId,
    second: ConceptId,
) -> f64 {
    let xml = xml_context_vector(tree, target, cfg.radius);
    let concept = compound_concept_context_vector(sn, first, second, cfg.radius);
    apply_measure(cfg.vector_similarity, &xml, &concept)
}

/// Scores every candidate sense of a selected target and returns the
/// winning sense with its Equation 13 combined score, mirroring the
/// pipeline's determinism contract exactly:
///
/// * `Single` candidates keep the **first** maximum;
/// * the compound one-token-unknown fallback keeps the **first** maximum
///   (it routes through the same single-sense loop as plain candidates —
///   a historical keep-last divergence here was a pipeline bug, fixed
///   together with this reference);
/// * compound pair loops keep the **first** maximum;
/// * the annotation gate admits the winner only when its score is
///   strictly above `min_score`, or the label has exactly one reading.
///
/// Requires `DistancePolicy::EdgeCount` (the paper's distance; weighted
/// policies are an engineering extension outside this reference).
pub fn score_target(
    sn: &SemanticNetwork,
    tree: &XmlTree,
    target: NodeId,
    cfg: &XsdfConfig,
    sim: &mut SimFn,
) -> Option<(SenseChoice, f64)> {
    assert_eq!(
        cfg.distance,
        xmltree::distance::DistancePolicy::EdgeCount,
        "the scoring reference covers the paper's edge-count distance only"
    );
    let (w_concept, w_context) = cfg.process.weights();
    let label = tree.label(target);
    let candidates = disambiguation_candidates(sn, label, tree.node(target).kind);
    let candidate_count = candidates.candidate_count();

    let combined_single = |s: ConceptId, sim: &mut SimFn| -> f64 {
        let c = if w_concept > 0.0 {
            concept_score_single(sn, tree, target, cfg.radius, s, sim)
        } else {
            0.0
        };
        let x = if w_context > 0.0 {
            context_score_single(sn, tree, target, cfg, s)
        } else {
            0.0
        };
        w_concept * c + w_context * x
    };

    let best = match &candidates {
        RefCandidates::Unknown => None,
        RefCandidates::Single(senses) => {
            let mut best: Option<(SenseChoice, f64)> = None;
            for &s in senses {
                let score = combined_single(s, sim);
                if best.is_none() || score > best.as_ref().unwrap().1 {
                    best = Some((SenseChoice::Single(s), score));
                }
            }
            best
        }
        RefCandidates::Compound { first, second } => {
            let one_sided = |senses: &[ConceptId], sim: &mut SimFn| {
                let mut best: Option<(SenseChoice, f64)> = None;
                for &s in senses {
                    let score = combined_single(s, sim);
                    if best.is_none() || score > best.as_ref().unwrap().1 {
                        best = Some((SenseChoice::Single(s), score));
                    }
                }
                best
            };
            if first.is_empty() {
                one_sided(second, sim)
            } else if second.is_empty() {
                one_sided(first, sim)
            } else {
                let mut best: Option<(SenseChoice, f64)> = None;
                for &a in first {
                    for &b in second {
                        let c = if w_concept > 0.0 {
                            concept_score_pair(sn, tree, target, cfg.radius, a, b, sim)
                        } else {
                            0.0
                        };
                        let x = if w_context > 0.0 {
                            context_score_pair(sn, tree, target, cfg, a, b)
                        } else {
                            0.0
                        };
                        let score = w_concept * c + w_context * x;
                        if best.is_none() || score > best.as_ref().unwrap().1 {
                            best = Some((SenseChoice::Pair(a, b), score));
                        }
                    }
                }
                best
            }
        }
    };

    best.filter(|&(_, score)| score > cfg.min_score || candidate_count == 1)
}
