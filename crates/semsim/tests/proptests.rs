//! Property-based tests for the similarity measures over MiniWordNet:
//! bounds, symmetry, identity, and measure-specific monotonicity.

use proptest::prelude::*;
use semnet::{mini_wordnet, ConceptId};
use xsdf_semsim::{
    extended_gloss_overlap, lin, wu_palmer, CombinedSimilarity, SimilarityWeights, SparseVector,
};

/// A vector over one-letter labels, each letter its own dimension id (so
/// id order is label order).
fn letters(pairs: impl IntoIterator<Item = (String, f64)>) -> SparseVector {
    SparseVector::from_ids(
        pairs
            .into_iter()
            .map(|(l, w)| (u64::from(l.as_bytes()[0]), w)),
    )
}

fn arb_concept() -> impl Strategy<Value = ConceptId> {
    let n = mini_wordnet().len() as u32;
    (0..n).prop_map(ConceptId)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every measure is bounded, symmetric, and 1 on identity.
    #[test]
    fn measures_bounded_symmetric(a in arb_concept(), b in arb_concept()) {
        let sn = mini_wordnet();
        for (name, f) in [
            ("wp", wu_palmer as fn(_, _, _) -> f64),
            ("lin", lin as fn(_, _, _) -> f64),
            ("gloss", extended_gloss_overlap as fn(_, _, _) -> f64),
        ] {
            let ab = f(sn, a, b);
            let ba = f(sn, b, a);
            prop_assert!((0.0..=1.0).contains(&ab), "{name}: {ab}");
            prop_assert!((ab - ba).abs() < 1e-9, "{name} asymmetric: {ab} vs {ba}");
            prop_assert!((f(sn, a, a) - 1.0).abs() < 1e-9, "{name} identity");
        }
    }

    /// The combined measure stays within the convex hull of its parts.
    #[test]
    fn combined_is_convex(a in arb_concept(), b in arb_concept()) {
        let sn = mini_wordnet();
        let parts = [wu_palmer(sn, a, b), lin(sn, a, b), extended_gloss_overlap(sn, a, b)];
        let lo = parts.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = parts.iter().copied().fold(0.0f64, f64::max);
        let combined = CombinedSimilarity::default().similarity(sn, a, b);
        prop_assert!(combined >= lo - 1e-9 && combined <= hi + 1e-9);
    }

    /// Weight normalization: scaled weight triples give identical scores.
    #[test]
    fn weights_scale_invariant(a in arb_concept(), b in arb_concept(), k in 1.0f64..10.0) {
        let sn = mini_wordnet();
        let w1 = SimilarityWeights::new(1.0, 2.0, 3.0).unwrap();
        let w2 = SimilarityWeights::new(k, 2.0 * k, 3.0 * k).unwrap();
        let s1 = CombinedSimilarity::new(w1).similarity(sn, a, b);
        let s2 = CombinedSimilarity::new(w2).similarity(sn, a, b);
        prop_assert!((s1 - s2).abs() < 1e-9);
    }

    /// Sparse-vector cosine: bounded, symmetric, scale-invariant.
    #[test]
    fn cosine_properties(
        pairs in proptest::collection::vec(("[a-e]", 0.1f64..5.0), 1..8),
        scale in 0.5f64..20.0,
    ) {
        let a = letters(pairs.iter().map(|(l, w)| (l.clone(), *w)));
        let b = letters(pairs.iter().map(|(l, w)| (l.clone(), *w * scale)));
        prop_assert!((a.cosine(&b) - 1.0).abs() < 1e-9, "scaled copies have cosine 1");
        let c = letters([("z".to_string(), 1.0)]);
        prop_assert_eq!(a.cosine(&c), 0.0);
        prop_assert!((a.jaccard(&a) - 1.0).abs() < 1e-9);
    }

    /// Jaccard is bounded and symmetric for non-negative vectors.
    #[test]
    fn jaccard_bounded_symmetric(
        xs in proptest::collection::vec(("[a-f]", 0.0f64..3.0), 0..8),
        ys in proptest::collection::vec(("[a-f]", 0.0f64..3.0), 0..8),
    ) {
        let a = letters(xs);
        let b = letters(ys);
        let ab = a.jaccard(&b);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((ab - b.jaccard(&a)).abs() < 1e-9);
    }

    /// Cosine is bounded and symmetric for arbitrary non-negative vectors
    /// (not just scaled copies).
    #[test]
    fn cosine_bounded_symmetric(
        xs in proptest::collection::vec(("[a-f]", 0.0f64..3.0), 0..8),
        ys in proptest::collection::vec(("[a-f]", 0.0f64..3.0), 0..8),
    ) {
        let a = letters(xs);
        let b = letters(ys);
        let ab = a.cosine(&b);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&ab), "cosine out of range: {ab}");
        prop_assert!((ab - b.cosine(&a)).abs() < 1e-9);
    }

    /// Pearson is in [-1, 1], symmetric, and its affine rescale
    /// `(r + 1) / 2` (the footnote-10 variant) lands in [0, 1].
    #[test]
    fn pearson_bounded_symmetric_and_rescales(
        xs in proptest::collection::vec(("[a-f]", 0.0f64..3.0), 0..8),
        ys in proptest::collection::vec(("[a-f]", 0.0f64..3.0), 0..8),
    ) {
        let a = letters(xs);
        let b = letters(ys);
        let r = a.pearson(&b);
        prop_assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&r), "pearson out of range: {r}");
        prop_assert!((r - b.pearson(&a)).abs() < 1e-9, "pearson asymmetric");
        let rescaled = (r + 1.0) / 2.0;
        prop_assert!((-1e-12..=1.0 + 1e-12).contains(&rescaled), "rescale out of range: {rescaled}");
    }
}
