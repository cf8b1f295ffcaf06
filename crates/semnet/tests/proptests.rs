//! Property-based tests for the semantic network: builder validation,
//! format round-trips, and graph-query invariants.

use std::collections::BTreeMap;

use proptest::prelude::*;
use xsdf_semnet::graph::{
    ancestors, common_subsumer, concept_sphere, lowest_common_subsumer, taxonomy_path_length,
    RelationFilter,
};
use xsdf_semnet::{mini_wordnet, ConceptId, NetworkBuilder, PartOfSpeech, RelationKind};

/// A taxonomy of concepts `c0, c1, …` where concept `i` takes is-a
/// parents from its entry in `parents`, each reduced below `i` (so the
/// graph is acyclic by construction).
fn taxonomy(parents: &[(Option<usize>, Option<usize>)]) -> xsdf_semnet::SemanticNetwork {
    let mut b = NetworkBuilder::new();
    for (i, (parent, second)) in parents.iter().enumerate() {
        b.concept(
            &format!("c{i}"),
            &[&format!("w{i}"), &format!("shared{}", i % 5)],
            &format!("gloss for concept number {i} in the random taxonomy"),
            (i as u32 % 17) + 1,
            PartOfSpeech::Noun,
        );
        if let Some(p) = parent {
            let p = p % (i.max(1));
            if p < i {
                b.relate(&format!("c{i}"), RelationKind::Hypernym, &format!("c{p}"));
                if let Some(q) = second {
                    let q = q % i;
                    b.relate(&format!("c{i}"), RelationKind::Hypernym, &format!("c{q}"));
                }
            }
        }
    }
    b.build().expect("acyclic by construction")
}

/// Strategy: a random small forest of is-a trees.
fn arb_forest() -> impl Strategy<Value = xsdf_semnet::SemanticNetwork> {
    proptest::collection::vec(proptest::option::of(0usize..50), 1..40).prop_map(|parents| {
        let parents: Vec<_> = parents.into_iter().map(|p| (p, None)).collect();
        taxonomy(&parents)
    })
}

/// Strategy: a random small taxonomy in which about half the concepts
/// with a parent also have a second one (multiple inheritance, as WordNet
/// has), so minimal ancestor distances depend on the path taken.
fn arb_taxonomy() -> impl Strategy<Value = xsdf_semnet::SemanticNetwork> {
    let parents = (
        proptest::option::of(0usize..50),
        proptest::option::of(0usize..50),
    );
    proptest::collection::vec(parents, 1..40).prop_map(|parents| taxonomy(&parents))
}

/// Minimal is-a distances from `c` to each of its ancestors, relaxed to a
/// fixpoint over upward edges — an independent check on the BFS.
fn relaxed_distances(sn: &xsdf_semnet::SemanticNetwork, c: ConceptId) -> BTreeMap<ConceptId, u32> {
    let mut dist = BTreeMap::from([(c, 0)]);
    loop {
        let mut changed = false;
        for (node, d) in dist.clone() {
            for parent in sn.hypernyms(node) {
                if dist.get(&parent).is_none_or(|&old| d + 1 < old) {
                    dist.insert(parent, d + 1);
                    changed = true;
                }
            }
        }
        if !changed {
            return dist;
        }
    }
}

/// Separator-heavy fragments of the kinds that historically corrupted the
/// text format: lemma commas split lemmas, field pipes shifted columns,
/// newlines/tabs/boundary spaces were trimmed or rewritten, and literal
/// backslashes collided with the escape syntax.
const NASTY: &[&str] = &[
    "", " ", "  ", ",", "|", "\\", "\n", "\t", "\r", " | ", ",,", "a, b", "\\s", "||",
];

/// A string mixing random printable text with [`NASTY`] fragments at the
/// start, middle, and end.
fn arb_nasty_text() -> impl Strategy<Value = String> {
    (
        0usize..NASTY.len(),
        "\\PC{0,10}",
        0usize..NASTY.len(),
        "\\PC{0,10}",
        0usize..NASTY.len(),
    )
        .prop_map(|(p, a, m, b, s)| format!("{}{a}{}{b}{}", NASTY[p], NASTY[m], NASTY[s]))
}

/// Strategy: a small chain taxonomy whose keys, lemmas, and glosses are all
/// adversarial.
fn arb_adversarial_network() -> impl Strategy<Value = xsdf_semnet::SemanticNetwork> {
    proptest::collection::vec((arb_nasty_text(), arb_nasty_text(), arb_nasty_text()), 1..8)
        .prop_map(|rows| {
            let mut b = NetworkBuilder::new();
            for (i, (key_part, lemma_part, gloss)) in rows.iter().enumerate() {
                let key = format!("k{i}.{key_part}");
                let lemma = format!("w{i}{lemma_part}");
                b.concept(
                    &key,
                    &[&lemma, &format!("shared{}", i % 3)],
                    gloss,
                    i as u32 + 1,
                    PartOfSpeech::Noun,
                );
                if i > 0 {
                    let parent = format!("k{}.{}", i - 1, rows[i - 1].0);
                    b.relate(&key, RelationKind::Hypernym, &parent);
                }
            }
            b.build().expect("unique keys, acyclic chain")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Format round-trip preserves every concept and edge.
    #[test]
    fn format_roundtrip(sn in arb_taxonomy()) {
        let text = xsdf_semnet::format::to_text(&sn);
        let sn2 = xsdf_semnet::format::from_text(&text).unwrap();
        prop_assert_eq!(sn.len(), sn2.len());
        prop_assert_eq!(sn.total_frequency(), sn2.total_frequency());
        for id in sn.all_concepts() {
            let key = &sn.concept(id).key;
            let id2 = sn2.by_key(key).unwrap();
            prop_assert_eq!(sn.depth(id), sn2.depth(id2));
            prop_assert_eq!(sn.edges(id).len(), sn2.edges(id2).len());
        }
    }

    /// Round-trip through the text format is lossless even when keys,
    /// lemmas, and glosses are stuffed with separators, escapes, and
    /// whitespace (the bugs this pins: comma-split lemmas, pipe-shifted
    /// fields, trimmed/rewritten glosses).
    #[test]
    fn adversarial_roundtrip_lossless(sn in arb_adversarial_network()) {
        let text = xsdf_semnet::format::to_text(&sn);
        let sn2 = xsdf_semnet::format::from_text(&text).unwrap();
        prop_assert_eq!(sn.len(), sn2.len());
        for id in sn.all_concepts() {
            let c1 = sn.concept(id);
            let id2 = sn2.by_key(&c1.key).unwrap();
            let c2 = sn2.concept(id2);
            prop_assert_eq!(&c1.lemmas, &c2.lemmas);
            prop_assert_eq!(&c1.gloss, &c2.gloss);
            prop_assert_eq!(c1.frequency, c2.frequency);
            prop_assert_eq!(c1.pos, c2.pos);
            prop_assert_eq!(sn.edges(id).len(), sn2.edges(id2).len());
        }
    }

    /// Depth equals the minimal hypernym distance to a root.
    #[test]
    fn depth_is_min_ancestor_distance(sn in arb_taxonomy()) {
        for id in sn.all_concepts() {
            let min_root = ancestors(&sn, id)
                .into_iter()
                .filter(|&(c, _)| sn.hypernyms(c).next().is_none())
                .map(|(_, d)| d)
                .min();
            prop_assert_eq!(Some(sn.depth(id)), min_root);
        }
    }

    /// The LCS subsumes both arguments and is the deepest such ancestor.
    #[test]
    fn lcs_is_deepest_common_ancestor(sn in arb_taxonomy()) {
        let nodes: Vec<ConceptId> = sn.all_concepts().collect();
        for &a in nodes.iter().take(6) {
            for &b in nodes.iter().rev().take(6) {
                if let Some(lcs) = lowest_common_subsumer(&sn, a, b) {
                    let anc_a: Vec<ConceptId> =
                        ancestors(&sn, a).into_iter().map(|(c, _)| c).collect();
                    let anc_b: Vec<ConceptId> =
                        ancestors(&sn, b).into_iter().map(|(c, _)| c).collect();
                    prop_assert!(anc_a.contains(&lcs));
                    prop_assert!(anc_b.contains(&lcs));
                    for c in anc_a.iter().filter(|c| anc_b.contains(c)) {
                        prop_assert!(sn.depth(*c) <= sn.depth(lcs));
                    }
                }
            }
        }
    }

    /// Swapping the arguments keeps the subsumer and swaps its distances.
    #[test]
    fn common_subsumer_is_symmetric(sn in arb_taxonomy()) {
        let nodes: Vec<ConceptId> = sn.all_concepts().collect();
        for &a in nodes.iter().take(8) {
            for &b in nodes.iter().rev().take(8) {
                let direct = common_subsumer(&sn, a, b).map(|s| (s.lcs, s.dist_a, s.dist_b));
                let swapped = common_subsumer(&sn, b, a).map(|s| (s.lcs, s.dist_b, s.dist_a));
                prop_assert_eq!(swapped, direct);
            }
        }
    }

    /// The walk's distances are the minimal ones: they match a
    /// relax-to-fixpoint computation for every ancestor, and so for the
    /// subsumer.
    #[test]
    fn walk_distances_are_minimal(sn in arb_taxonomy()) {
        let relaxed: Vec<BTreeMap<ConceptId, u32>> =
            sn.all_concepts().map(|c| relaxed_distances(&sn, c)).collect();
        for a in sn.all_concepts() {
            let walked: BTreeMap<ConceptId, u32> = ancestors(&sn, a).into_iter().collect();
            prop_assert_eq!(&walked, &relaxed[a.index()]);
            for b in sn.all_concepts() {
                if let Some(s) = common_subsumer(&sn, a, b) {
                    prop_assert_eq!(Some(&s.dist_a), relaxed[a.index()].get(&s.lcs));
                    prop_assert_eq!(Some(&s.dist_b), relaxed[b.index()].get(&s.lcs));
                }
            }
        }
    }

    /// Taxonomy path length is symmetric and satisfies identity.
    #[test]
    fn path_length_symmetric(sn in arb_taxonomy()) {
        let nodes: Vec<ConceptId> = sn.all_concepts().collect();
        for &a in nodes.iter().take(6) {
            prop_assert_eq!(taxonomy_path_length(&sn, a, a), Some(0));
            for &b in nodes.iter().rev().take(6) {
                prop_assert_eq!(
                    taxonomy_path_length(&sn, a, b),
                    taxonomy_path_length(&sn, b, a)
                );
            }
        }
    }

    /// Concept spheres grow monotonically with the radius and never include
    /// the center.
    #[test]
    fn concept_sphere_monotone(sn in arb_taxonomy(), r in 1u32..4) {
        let center = ConceptId(0);
        let small = concept_sphere(&sn, center, r, &RelationFilter::All);
        let big = concept_sphere(&sn, center, r + 1, &RelationFilter::All);
        prop_assert!(big.len() >= small.len());
        prop_assert!(small.iter().all(|&(c, _)| c != center));
        // Distances respect the radius.
        prop_assert!(small.iter().all(|&(_, d)| d >= 1 && d <= r));
    }

    /// Cumulative frequencies dominate own frequencies and IC is finite.
    /// On forests only: under multiple inheritance a descendant counts once
    /// per downward path, so a cumulative frequency can exceed the total
    /// and push IC below 0.
    #[test]
    fn cumulative_frequency_dominates(sn in arb_forest()) {
        for id in sn.all_concepts() {
            prop_assert!(sn.cumulative_frequency(id) >= sn.frequency(id) as u64);
            let ic = sn.information_content(id);
            prop_assert!(ic.is_finite() && ic >= 0.0);
        }
    }
}

/// Word-sense lookups on the real MiniWordNet are first-sense-ordered.
#[test]
fn builtin_senses_sorted_by_frequency() {
    let sn = mini_wordnet();
    for word in ["state", "star", "cast", "line", "play", "title", "head"] {
        let senses = sn.senses(word);
        for pair in senses.windows(2) {
            assert!(
                sn.frequency(pair[0]) >= sn.frequency(pair[1]),
                "{word}: sense order not frequency-sorted"
            );
        }
    }
}
