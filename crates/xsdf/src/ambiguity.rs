//! The XML node ambiguity degree (Section 3.3): Propositions 1–3 and
//! Definition 3, with the compound-label special case and target selection.

use semnet::SemanticNetwork;
use xmltree::{NodeId, XmlTree};

use crate::config::{AmbiguityWeights, ThresholdPolicy};
use crate::senses::{candidates_for_label, SenseCandidates};

/// Proposition 1 — polysemy factor:
/// `(senses(ℓ) − 1) / (Max(senses(SN)) − 1) ∈ \[0, 1\]`.
///
/// Words unknown to the network have 0 senses; they are treated as
/// unambiguous (factor 0), since no sense can be assigned at all.
pub fn amb_polysemy(sense_count: usize, max_polysemy: usize) -> f64 {
    if max_polysemy <= 1 || sense_count == 0 {
        return 0.0;
    }
    (sense_count.saturating_sub(1)) as f64 / (max_polysemy - 1) as f64
}

/// Proposition 2 — depth factor: `1 − depth(x) / Max(depth(T)) ∈ \[0, 1\]`.
pub fn amb_depth(tree: &XmlTree, node: NodeId) -> f64 {
    let max = tree.max_depth();
    if max == 0 {
        return 1.0; // single-node tree: the root is maximally root-like
    }
    1.0 - tree.depth(node) as f64 / max as f64
}

/// Proposition 3 — density factor:
/// `1 − x.f̄ / Max(f̄an-out(T)) ∈ \[0, 1\]`, where `x.f̄` counts children with
/// distinct labels.
pub fn amb_density(tree: &XmlTree, node: NodeId) -> f64 {
    let max = tree.max_density();
    if max == 0 {
        return 1.0;
    }
    1.0 - tree.density(node) as f64 / max as f64
}

/// Definition 3 — the ambiguity degree of a node whose label has
/// `sense_count` senses:
///
/// ```text
///                    w_Pol · Amb_Polysemy
/// ───────────────────────────────────────────────────────────── ∈ \[0, 1\]
/// w_Depth·(1 − Amb_Depth) + w_Density·(1 − Amb_Density) + 1
/// ```
pub fn ambiguity_degree_raw(
    tree: &XmlTree,
    node: NodeId,
    sense_count: usize,
    max_polysemy: usize,
    w: AmbiguityWeights,
) -> f64 {
    let pol = amb_polysemy(sense_count, max_polysemy);
    let depth = amb_depth(tree, node);
    let density = amb_density(tree, node);
    let numerator = w.polysemy * pol;
    let denominator = w.depth * (1.0 - depth) + w.density * (1.0 - density) + 1.0;
    numerator / denominator
}

/// The ambiguity degree of a node, resolving its label's senses in `sn`.
/// For compound labels, the average of the two tokens' degrees (Section
/// 3.3's special case).
pub fn ambiguity_degree(
    sn: &SemanticNetwork,
    tree: &XmlTree,
    node: NodeId,
    w: AmbiguityWeights,
) -> f64 {
    let candidates = candidates_for_label(sn, tree.label(node));
    degree_of(tree, node, &candidates, sn.max_polysemy(), w)
}

/// [`ambiguity_degree`] over the node's already-resolved candidates.
fn degree_of(
    tree: &XmlTree,
    node: NodeId,
    candidates: &SenseCandidates,
    max_poly: usize,
    w: AmbiguityWeights,
) -> f64 {
    match candidates {
        SenseCandidates::Unknown => 0.0,
        SenseCandidates::Single(senses) => {
            ambiguity_degree_raw(tree, node, senses.len(), max_poly, w)
        }
        SenseCandidates::Compound { first, second } => {
            let a = ambiguity_degree_raw(tree, node, first.len(), max_poly, w);
            let b = ambiguity_degree_raw(tree, node, second.len(), max_poly, w);
            (a + b) / 2.0
        }
    }
}

/// One node's ambiguity assessment.
#[derive(Debug, Clone)]
pub struct NodeAmbiguity {
    /// The assessed node.
    pub node: NodeId,
    /// Its `Amb_Deg` value.
    pub degree: f64,
    /// Whether it meets the selection threshold.
    pub selected: bool,
}

/// Computes `Amb_Deg` for every node and selects targets per the threshold
/// policy (Section 3.3). Nodes with no candidate senses are never selected
/// — they cannot be assigned a concept.
///
/// Linear in the tree size: each node's label is resolved once, and the
/// Proposition 2–3 maxima are the tree's cached per-tree constants.
pub fn select_targets(
    sn: &SemanticNetwork,
    tree: &XmlTree,
    w: AmbiguityWeights,
    policy: ThresholdPolicy,
) -> Vec<NodeAmbiguity> {
    let max_poly = sn.max_polysemy();
    let degrees: Vec<(NodeId, f64, bool)> = tree
        .preorder()
        .map(|node| {
            let candidates = candidates_for_label(sn, tree.label(node));
            let degree = degree_of(tree, node, &candidates, max_poly, w);
            (node, degree, candidates.candidate_count() > 0)
        })
        .collect();

    let threshold = match policy {
        ThresholdPolicy::Fixed(t) => t,
        ThresholdPolicy::Auto => {
            let eligible: Vec<f64> = degrees
                .iter()
                .filter(|(_, _, has)| *has)
                .map(|&(_, d, _)| d)
                .collect();
            if eligible.is_empty() {
                0.0
            } else {
                eligible.iter().sum::<f64>() / eligible.len() as f64
            }
        }
    };

    degrees
        .into_iter()
        .map(|(node, degree, has_candidates)| NodeAmbiguity {
            node,
            degree,
            selected: has_candidates && degree >= threshold,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::senses::LingTokenizer;
    use semnet::mini_wordnet;
    use xmltree::tree::TreeBuilder;

    fn tree(xml: &str) -> XmlTree {
        let doc = xmltree::parse(xml).unwrap();
        TreeBuilder::with_tokenizer(LingTokenizer::new(mini_wordnet()))
            .build(&doc)
            .unwrap()
            .tree
    }

    fn find(t: &XmlTree, label: &str) -> NodeId {
        t.preorder().find(|&id| t.label(id) == label).unwrap()
    }

    #[test]
    fn polysemy_factor_bounds() {
        assert_eq!(amb_polysemy(1, 33), 0.0); // monosemous → unambiguous
        assert_eq!(amb_polysemy(33, 33), 1.0); // "head" → maximal
        assert_eq!(amb_polysemy(0, 33), 0.0); // unknown → unambiguous
        let mid = amb_polysemy(8, 33); // "state"
        assert!((mid - 7.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn depth_factor_decreases_down_the_tree() {
        let t = tree("<films><picture><cast><star/></cast></picture></films>");
        let root = t.root();
        let star = find(&t, "star");
        assert_eq!(amb_depth(&t, root), 1.0);
        assert_eq!(amb_depth(&t, star), 0.0);
        let cast = find(&t, "cast");
        assert!(amb_depth(&t, cast) > amb_depth(&t, star));
    }

    #[test]
    fn density_factor_rewards_distinct_children() {
        // Figure 5: "picture" with distinct children labels is less
        // ambiguous than "picture" with repeated ones. Proposition 3
        // normalizes within one tree, so both variants live in one document.
        let t = tree(
            "<r><picture><title/><director/><genre/></picture><picture><img/><img/><img/></picture></r>",
        );
        let pictures: Vec<_> = t
            .preorder()
            .filter(|&id| t.label(id) == "picture")
            .collect();
        let d_distinct = amb_density(&t, pictures[0]);
        let d_repeated = amb_density(&t, pictures[1]);
        assert!(
            d_distinct < d_repeated,
            "distinct children must lower the density factor: {d_distinct} vs {d_repeated}"
        );
    }

    #[test]
    fn degree_in_unit_interval() {
        let t = tree(
            "<films><picture title=\"Rear Window\"><cast><star>Kelly</star></cast><plot>spies</plot></picture></films>",
        );
        for node in t.preorder() {
            let d = ambiguity_degree(mini_wordnet(), &t, node, AmbiguityWeights::equal());
            assert!((0.0..=1.0).contains(&d), "Amb_Deg({}) = {d}", t.label(node));
        }
    }

    #[test]
    fn assumption4_monosemous_word_scores_zero_numerator() {
        // A label with exactly one sense has Amb_Polysemy = 0 → Amb_Deg = 0
        // regardless of depth and density (Assumption 4).
        let t = tree("<proceedings><treasurer/></proceedings>");
        let sn = mini_wordnet();
        let treasurer = find(&t, "treasurer");
        assert_eq!(sn.polysemy("treasurer"), 1);
        assert_eq!(
            ambiguity_degree(sn, &t, treasurer, AmbiguityWeights::equal()),
            0.0
        );
    }

    #[test]
    fn zero_polysemy_weight_zeroes_all_degrees() {
        // Section 3.3: w_Polysemy = 0 → every node has Amb_Deg = 0.
        let t = tree("<films><picture><cast/></picture></films>");
        let w = AmbiguityWeights::new(0.0, 1.0, 1.0);
        for node in t.preorder() {
            assert_eq!(ambiguity_degree(mini_wordnet(), &t, node, w), 0.0);
        }
    }

    #[test]
    fn deeper_node_with_same_label_is_less_ambiguous() {
        // Proposition 2 via Definition 3: the same label at two depths with
        // equal density (both "state" nodes have one distinct child).
        let t = tree("<state><a><b><state><x/></state></b></a></state>");
        let sn = mini_wordnet();
        let root = t.root();
        let deep = t
            .preorder()
            .skip(1)
            .find(|&id| t.label(id) == "state")
            .unwrap();
        let w = AmbiguityWeights::equal();
        assert!(
            ambiguity_degree(sn, &t, root, w) > ambiguity_degree(sn, &t, deep, w),
            "root occurrence must be more ambiguous"
        );
    }

    #[test]
    fn select_all_with_zero_threshold() {
        let t = tree("<films><picture><cast><star>Kelly</star></cast></picture></films>");
        let sn = mini_wordnet();
        let out = select_targets(
            sn,
            &t,
            AmbiguityWeights::equal(),
            ThresholdPolicy::Fixed(0.0),
        );
        // Every node whose label has senses is selected.
        for na in &out {
            let has = candidates_for_label(sn, t.label(na.node)).candidate_count() > 0;
            assert_eq!(na.selected, has, "label {}", t.label(na.node));
        }
    }

    #[test]
    fn high_threshold_selects_nothing() {
        let t = tree("<films><picture><cast/></picture></films>");
        let out = select_targets(
            mini_wordnet(),
            &t,
            AmbiguityWeights::equal(),
            ThresholdPolicy::Fixed(1.1),
        );
        assert!(out.iter().all(|na| !na.selected));
    }

    #[test]
    fn auto_threshold_selects_above_average() {
        let t = tree(
            "<films><picture><cast><star>Kelly</star><star>Stewart</star></cast><treasurer/></picture></films>",
        );
        let out = select_targets(
            mini_wordnet(),
            &t,
            AmbiguityWeights::equal(),
            ThresholdPolicy::Auto,
        );
        let selected: Vec<_> = out.iter().filter(|na| na.selected).collect();
        let unselected: Vec<_> = out
            .iter()
            .filter(|na| !na.selected && na.degree > 0.0)
            .collect();
        assert!(!selected.is_empty());
        // Every selected node is at least as ambiguous as every unselected one.
        for s in &selected {
            for u in &unselected {
                assert!(s.degree >= u.degree);
            }
        }
    }

    #[test]
    fn unknown_labels_never_selected() {
        let t = tree("<films><zorbleflux/></films>");
        let out = select_targets(
            mini_wordnet(),
            &t,
            AmbiguityWeights::equal(),
            ThresholdPolicy::Fixed(0.0),
        );
        let z = out
            .iter()
            .find(|na| t.label(na.node) == "zorbleflux")
            .unwrap();
        assert!(!z.selected);
        assert_eq!(z.degree, 0.0);
    }

    #[test]
    fn compound_degree_is_average() {
        let t = tree("<a><star_picture/></a>");
        let sn = mini_wordnet();
        let node = find(&t, "star picture");
        let w = AmbiguityWeights::equal();
        let d = ambiguity_degree(sn, &t, node, w);
        let ds = ambiguity_degree_raw(&t, node, sn.polysemy("star"), sn.max_polysemy(), w);
        let dp = ambiguity_degree_raw(&t, node, sn.polysemy("picture"), sn.max_polysemy(), w);
        assert!((d - (ds + dp) / 2.0).abs() < 1e-12);
    }
}
