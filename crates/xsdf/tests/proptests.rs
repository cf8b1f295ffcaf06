//! Property-based tests for the XSDF core: ambiguity-degree invariants,
//! context-vector laws, and pipeline totality on random documents.

use proptest::prelude::*;
use xmltree::tree::TreeBuilder;
use xmltree::XmlTree;
use xsdf::ambiguity::{ambiguity_degree, select_targets};
use xsdf::sphere::{xml_context_vector, xml_context_vector_weighted};
use xsdf::{AmbiguityWeights, DistancePolicy, LingTokenizer, ThresholdPolicy, Xsdf, XsdfConfig};

/// Random documents over the MiniWordNet vocabulary.
fn arb_tree() -> impl Strategy<Value = XmlTree> {
    let tags = [
        "films", "picture", "cast", "star", "title", "state", "address", "play", "act", "scene",
        "line", "price", "menu", "food", "club", "member", "zorble",
    ];
    proptest::collection::vec((0usize..40, 0usize..17, prop::bool::ANY), 1..30).prop_map(
        move |ops| {
            let sn = semnet::mini_wordnet();
            let mut doc = xmltree::Document::new();
            let root = doc.add_element(None, "root");
            let mut elems = vec![root];
            for (parent, tag, is_text) in ops {
                let parent = elems[parent % elems.len()];
                if is_text {
                    doc.add_text(parent, tags[tag]);
                } else {
                    let e = doc.add_element(Some(parent), tags[tag]);
                    elems.push(e);
                }
            }
            TreeBuilder::with_tokenizer(LingTokenizer::new(sn))
                .build(&doc)
                .unwrap()
                .tree
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Amb_Deg is always in \[0, 1\], and zeroing the polysemy weight zeroes
    /// every degree (Section 3.3).
    #[test]
    fn ambiguity_degree_bounds(tree in arb_tree()) {
        let sn = semnet::mini_wordnet();
        let zero_poly = AmbiguityWeights::new(0.0, 1.0, 1.0);
        for node in tree.preorder() {
            let d = ambiguity_degree(sn, &tree, node, AmbiguityWeights::equal());
            prop_assert!((0.0..=1.0).contains(&d));
            prop_assert_eq!(ambiguity_degree(sn, &tree, node, zero_poly), 0.0);
        }
    }

    /// Raising the threshold never selects more nodes, and the selected set
    /// is always the top of the ambiguity ordering.
    #[test]
    fn threshold_monotone(tree in arb_tree(), t1 in 0.0f64..0.5, dt in 0.0f64..0.5) {
        let sn = semnet::mini_wordnet();
        let w = AmbiguityWeights::equal();
        let low = select_targets(sn, &tree, w, ThresholdPolicy::Fixed(t1));
        let high = select_targets(sn, &tree, w, ThresholdPolicy::Fixed(t1 + dt));
        let n_low = low.iter().filter(|na| na.selected).count();
        let n_high = high.iter().filter(|na| na.selected).count();
        prop_assert!(n_high <= n_low);
        // Selection is threshold-consistent.
        for na in &high {
            if na.selected {
                prop_assert!(na.degree >= t1 + dt);
            }
        }
    }

    /// Context vector weights are in \[0, 1\] and sum over a label equals the
    /// scaled structural frequency (Definition 7's bounds).
    #[test]
    fn context_vector_bounds(tree in arb_tree(), radius in 1u32..4) {
        for center in tree.preorder() {
            let v = xml_context_vector(semnet::mini_wordnet(), &tree, center, radius);
            prop_assert!(!v.is_empty());
            for (label, w) in v.iter() {
                prop_assert!((0.0..=1.0).contains(&w), "w({label}) = {w}");
            }
            // The center's own label has positive weight.
            prop_assert!(v.get(tree.label(center)) > 0.0);
        }
    }

    /// The weighted context vector under EdgeCount equals the classic one.
    #[test]
    fn weighted_vector_consistency(tree in arb_tree(), radius in 1u32..4) {
        let center = tree.root();
        let a = xml_context_vector(semnet::mini_wordnet(), &tree, center, radius);
        let b = xml_context_vector_weighted(semnet::mini_wordnet(), &tree, center, radius, DistancePolicy::EdgeCount);
        for (label, w) in a.iter() {
            prop_assert!((w - b.get(label)).abs() < 1e-12);
        }
    }

    /// The full pipeline is total on random documents: never panics, every
    /// report node is in the tree, every assigned score is in \[0, 1\], and
    /// assigned senses are among the label's candidates.
    #[test]
    fn pipeline_total_and_consistent(tree in arb_tree(), radius in 1u32..4) {
        let sn = semnet::mini_wordnet();
        let xsdf = Xsdf::new(sn, XsdfConfig { radius, ..XsdfConfig::default() });
        let result = xsdf.disambiguate_tree(&tree);
        prop_assert_eq!(result.reports.len(), tree.len());
        for r in &result.reports {
            prop_assert!(r.node.index() < tree.len());
            if let Some((_, score)) = &r.chosen {
                prop_assert!((0.0..=1.0).contains(score));
                let sense = result.semantic_tree.sense(r.node).unwrap();
                prop_assert!(!sense.concept.is_empty());
            }
        }
        // Unknown labels are never annotated.
        for r in &result.reports {
            if r.label == "zorble" {
                prop_assert!(r.chosen.is_none());
            }
        }
    }

    /// Restricting to a node subset gives the same choices as the full run.
    #[test]
    fn restriction_consistency(tree in arb_tree()) {
        let sn = semnet::mini_wordnet();
        let xsdf = Xsdf::new(sn, XsdfConfig::default());
        let full = xsdf.disambiguate_tree(&tree);
        let subset: Vec<_> = tree.preorder().step_by(3).collect();
        let restricted = xsdf.disambiguate_nodes(&tree, &subset);
        for r in &restricted.reports {
            let full_r = &full.reports[r.node.index()];
            prop_assert_eq!(&r.chosen, &full_r.chosen, "node {:?}", r.node);
        }
    }
}
