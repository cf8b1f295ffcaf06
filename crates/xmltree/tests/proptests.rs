//! Property-based tests for the XML parser, serializer, and tree model.

use proptest::prelude::*;
use xsdf_xmltree::distance::{node_distance, sphere};
use xsdf_xmltree::serialize::{to_string_compact, to_string_pretty};
use xsdf_xmltree::tree::TreeBuilder;
use xsdf_xmltree::{parse, Document};

/// A recursive strategy generating random XML documents.
fn arb_document() -> impl Strategy<Value = Document> {
    // Generate a shape: a vector of (parent index, kind, name/text seed).
    // Kind: 0 = element, 1 = text, 2 = attribute.
    proptest::collection::vec((0usize..100, 0u8..3, 0usize..12), 0..40).prop_map(|ops| {
        let mut doc = Document::new();
        let root = doc.add_element(None, "root");
        let mut elems = vec![root];
        let names = [
            "movie", "title", "actor", "cast", "play", "state", "address", "year", "name", "genre",
            "price", "track",
        ];
        let mut attr_counter = 0usize;
        for (p, kind, seed) in ops {
            let parent = elems[p % elems.len()];
            match kind {
                0 => {
                    let e = doc.add_element(Some(parent), names[seed]);
                    elems.push(e);
                }
                1 => {
                    doc.add_text(parent, format!("value {seed} & <escaped>"));
                }
                _ => {
                    attr_counter += 1;
                    // Unique attribute names avoid duplicate-attribute errors.
                    let _ =
                        doc.add_attribute(parent, format!("a{attr_counter}"), format!("v{seed}"));
                }
            }
        }
        doc
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// serialize → parse preserves element count and total text.
    #[test]
    fn roundtrip_compact(doc in arb_document()) {
        let text = to_string_compact(&doc);
        let doc2 = parse(&text).unwrap();
        prop_assert_eq!(doc.element_count(), doc2.element_count());
        let root1 = doc.root_element().unwrap();
        let root2 = doc2.root_element().unwrap();
        prop_assert_eq!(doc.text_content(root1), doc2.text_content(root2));
    }

    /// Pretty serialization parses back to the same element structure.
    #[test]
    fn roundtrip_pretty_elements(doc in arb_document()) {
        let text = to_string_pretty(&doc);
        let doc2 = parse(&text).unwrap();
        prop_assert_eq!(doc.element_count(), doc2.element_count());
    }

    /// Trees built from arbitrary documents satisfy the structural invariants.
    #[test]
    fn built_trees_are_consistent(doc in arb_document()) {
        let tree = TreeBuilder::new().build(&doc).unwrap().tree;
        prop_assert!(tree.check_consistency().is_ok());
        // Depth of every node equals the length of its ancestor chain.
        for id in tree.preorder() {
            let chain = xsdf_xmltree::navigate::ancestors(&tree, id).count() as u32;
            prop_assert_eq!(tree.depth(id), chain);
        }
    }

    /// The per-tree maxima cached at build time equal a fresh scan, also
    /// after a relabeling that merges labels (which changes densities).
    #[test]
    fn cached_maxima_match_a_fresh_scan(doc in arb_document(), modulus in 1usize..6) {
        let tree = TreeBuilder::new().build(&doc).unwrap().tree;
        let merged = tree.relabeled(|l| format!("l{}", l.len() % modulus));
        let renamed = tree.relabeled(|l| format!("{l}_x"));
        for t in [&tree, &merged, &renamed] {
            let depth = t.preorder().map(|id| t.depth(id)).max().unwrap_or(0);
            let fan_out = t.preorder().map(|id| t.children(id).len()).max().unwrap_or(0);
            let density = t
                .preorder()
                .map(|id| {
                    let labels: std::collections::BTreeSet<&str> =
                        t.children(id).iter().map(|&c| t.label(c)).collect();
                    labels.len()
                })
                .max()
                .unwrap_or(0);
            prop_assert_eq!(t.max_depth(), depth);
            prop_assert_eq!(t.max_fan_out(), fan_out);
            prop_assert_eq!(t.max_density(), density);
        }
    }

    /// Node distance is a metric (symmetry + identity) and sphere distances
    /// agree with pairwise distances.
    #[test]
    fn distance_metric_properties(doc in arb_document()) {
        let tree = TreeBuilder::new().build(&doc).unwrap().tree;
        let nodes: Vec<_> = tree.preorder().collect();
        for &a in nodes.iter().take(8) {
            prop_assert_eq!(node_distance(&tree, a, a), 0);
            for &b in nodes.iter().take(8) {
                prop_assert_eq!(node_distance(&tree, a, b), node_distance(&tree, b, a));
            }
        }
        let center = nodes[nodes.len() / 2];
        for (n, d) in sphere(&tree, center, 3) {
            prop_assert_eq!(node_distance(&tree, center, n), d);
        }
    }

    /// Spheres grow monotonically with the radius and never contain the center.
    #[test]
    fn sphere_monotone(doc in arb_document(), r in 1u32..5) {
        let tree = TreeBuilder::new().build(&doc).unwrap().tree;
        let center = tree.root();
        let small = sphere(&tree, center, r).len();
        let big = sphere(&tree, center, r + 1).len();
        prop_assert!(big >= small);
        prop_assert!(sphere(&tree, center, r).iter().all(|&(n, _)| n != center));
    }

    /// Parsing arbitrary junk never panics (errors are fine).
    #[test]
    fn parser_never_panics(input in "\\PC{0,200}") {
        let _ = parse(&input);
    }

    /// Parsing XML-ish junk never panics.
    #[test]
    fn parser_never_panics_xmlish(input in "[<>a-z&;/\"= ]{0,100}") {
        let _ = parse(&input);
    }
}
