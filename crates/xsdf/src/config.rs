//! User-tunable configuration of the XSDF pipeline (the "user parameters"
//! input of Figure 3; answering the paper's Motivation 4).

use semsim::SimilarityWeights;
use xmltree::distance::DistancePolicy;

/// The vector similarity used by context-based disambiguation. The paper
/// adopts cosine "since it is widely used in IR", noting that "other
/// vector similarity measures can be used, e.g., Jaccard, Pearson corr.
/// coeff." (footnote 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VectorSimilarity {
    /// Cosine similarity (the paper's Definition 10).
    #[default]
    Cosine,
    /// Weighted Jaccard similarity.
    Jaccard,
    /// Pearson correlation `r ∈ \[-1, 1\]`, rescaled to `\[0, 1\]` as
    /// `(r + 1) / 2` so anti-correlated candidates stay ordered instead of
    /// collapsing into indistinguishable ties at 0 (a deviation from a
    /// naive clamp; see DESIGN.md on footnote 10).
    Pearson,
}

impl VectorSimilarity {
    /// Applies the measure to two sparse vectors, mapped into `\[0, 1\]`.
    ///
    /// A zero or empty vector (a lemma-less candidate sense, or a sphere
    /// whose labels all normalized away) carries no context evidence, so
    /// every measure returns exactly 0.0 for it. The explicit guard matters
    /// for Pearson: its degenerate correlation is 0, which the affine
    /// rescale below would otherwise map to 0.5 — ranking a no-evidence
    /// candidate above genuinely anti-correlated ones.
    pub fn apply(self, a: &semsim::SparseVector, b: &semsim::SparseVector) -> f64 {
        if a.norm() == 0.0 || b.norm() == 0.0 {
            return 0.0;
        }
        match self {
            Self::Cosine => a.cosine(b).clamp(0.0, 1.0),
            Self::Jaccard => a.jaccard(b),
            // An affine rescale is strictly monotone over the full [-1, 1]
            // range: every ordering Pearson produces is preserved, whereas
            // clamping mapped all anti-correlated pairs to the same 0.
            Self::Pearson => (a.pearson(b) + 1.0) / 2.0,
        }
    }
}

/// Weights of the three ambiguity factors of Definition 3
/// (`w_Polysemy`, `w_Depth`, `w_Density` ∈ \[0, 1\]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmbiguityWeights {
    /// Weight of the polysemy factor (Proposition 1).
    pub polysemy: f64,
    /// Weight of the depth factor (Proposition 2).
    pub depth: f64,
    /// Weight of the density factor (Proposition 3).
    pub density: f64,
}

impl AmbiguityWeights {
    /// Creates a weight triple, clamping each into `\[0, 1\]` per Definition 3.
    pub fn new(polysemy: f64, depth: f64, density: f64) -> Self {
        Self {
            polysemy: polysemy.clamp(0.0, 1.0),
            depth: depth.clamp(0.0, 1.0),
            density: density.clamp(0.0, 1.0),
        }
    }

    /// The paper's sensible starting choice: all factors fully weighted
    /// (`w_Polysemy = w_Depth = w_Density = 1`, Section 3.3 / Test #1).
    pub fn equal() -> Self {
        Self {
            polysemy: 1.0,
            depth: 1.0,
            density: 1.0,
        }
    }

    /// Table 2's Test #2: polysemy only.
    pub fn polysemy_only() -> Self {
        Self {
            polysemy: 1.0,
            depth: 0.0,
            density: 0.0,
        }
    }

    /// Table 2's Test #3: depth focus (`w_Depth = 1`, `w_Polysemy = 0.2`).
    pub fn depth_focus() -> Self {
        Self {
            polysemy: 0.2,
            depth: 1.0,
            density: 0.0,
        }
    }

    /// Table 2's Test #4: density focus (`w_Density = 1`, `w_Polysemy = 0.2`).
    pub fn density_focus() -> Self {
        Self {
            polysemy: 0.2,
            depth: 0.0,
            density: 1.0,
        }
    }
}

impl Default for AmbiguityWeights {
    fn default() -> Self {
        Self::equal()
    }
}

/// How the ambiguity threshold `Thresh_Amb` is chosen (Section 3.3: "an
/// ambiguity threshold automatically estimated or set by the user").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdPolicy {
    /// A fixed threshold in `\[0, 1\]`; 0 selects every node.
    Fixed(f64),
    /// Automatic estimation: the mean ambiguity degree over nodes with at
    /// least one candidate sense. Nodes above the corpus-typical ambiguity
    /// are selected.
    Auto,
}

impl Default for ThresholdPolicy {
    fn default() -> Self {
        // The paper's "minimal threshold Thresh_Amb = 0 to consider all
        // results initially".
        Self::Fixed(0.0)
    }
}

/// Which disambiguation process runs (Section 3.5).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DisambiguationProcess {
    /// Concept-based only (Definition 8).
    #[default]
    ConceptBased,
    /// Context-based only (Definition 10).
    ContextBased,
    /// The weighted combination of Equation 13; weights are normalized to
    /// sum to 1.
    Combined {
        /// `w_Concept` of Equation 13.
        concept: f64,
        /// `w_Context` of Equation 13.
        context: f64,
    },
}

impl DisambiguationProcess {
    /// The `(w_Concept, w_Context)` weights this process effectively uses.
    pub fn weights(self) -> (f64, f64) {
        match self {
            Self::ConceptBased => (1.0, 0.0),
            Self::ContextBased => (0.0, 1.0),
            Self::Combined { concept, context } => {
                let c = concept.max(0.0);
                let x = context.max(0.0);
                let sum = c + x;
                if sum <= 0.0 {
                    (0.5, 0.5)
                } else {
                    (c / sum, x / sum)
                }
            }
        }
    }
}

/// Full configuration of a [`crate::Xsdf`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct XsdfConfig {
    /// Ambiguity-factor weights (Definition 3).
    pub ambiguity_weights: AmbiguityWeights,
    /// Target-selection threshold policy.
    pub threshold: ThresholdPolicy,
    /// Sphere neighborhood radius `d` (Definition 5). The paper's optimum
    /// is `d = 1` for highly ambiguous / richly structured data and `d = 3`
    /// for the rest (Section 4.3.1).
    pub radius: u32,
    /// Concept-based vs context-based vs combined (Section 3.5).
    pub process: DisambiguationProcess,
    /// Weights of the constituent semantic similarity measures
    /// (Definition 9); the paper's tests use equal thirds.
    pub similarity: SimilarityWeights,
    /// Include element/attribute text values as tree nodes
    /// (*structure-and-content*, the paper's recommended mode) or not
    /// (*structure-only*).
    pub structure_and_content: bool,
    /// Minimum winning score: a target is annotated only if its best
    /// sense scores strictly above this (0 keeps every best sense that has
    /// any evidence at all).
    pub min_score: f64,
    /// Vector similarity for the context-based process (footnote 10).
    pub vector_similarity: VectorSimilarity,
    /// Tree node distance function for sphere construction. The paper uses
    /// plain edge counts and names weighted, directional, and
    /// density-based distances as future work (Section 5); all three are
    /// available here.
    pub distance: DistancePolicy,
    /// Resolve ID/IDREF hyperlinks into traversal edges, turning
    /// disambiguation contexts from trees into graphs (the paper's
    /// "trees (or graphs, when hyperlinks come to play)", Section 1).
    pub resolve_hyperlinks: bool,
}

impl Default for XsdfConfig {
    fn default() -> Self {
        Self {
            ambiguity_weights: AmbiguityWeights::equal(),
            threshold: ThresholdPolicy::default(),
            radius: 2,
            process: DisambiguationProcess::default(),
            similarity: SimilarityWeights::equal(),
            structure_and_content: true,
            min_score: 0.0,
            vector_similarity: VectorSimilarity::default(),
            distance: DistancePolicy::EdgeCount,
            resolve_hyperlinks: true,
        }
    }
}

impl XsdfConfig {
    /// The configuration the paper found optimal for highly ambiguous,
    /// richly structured documents (Group 1): radius 1, concept-based.
    pub fn optimal_rich() -> Self {
        Self {
            radius: 1,
            process: DisambiguationProcess::ConceptBased,
            ..Self::default()
        }
    }

    /// The configuration the paper found optimal for less ambiguous or
    /// poorly structured documents (Groups 2–4): radius 3, concept-based.
    pub fn optimal_flat() -> Self {
        Self {
            radius: 3,
            process: DisambiguationProcess::ConceptBased,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ambiguity_weights_clamped() {
        let w = AmbiguityWeights::new(2.0, -1.0, 0.5);
        assert_eq!(w.polysemy, 1.0);
        assert_eq!(w.depth, 0.0);
        assert_eq!(w.density, 0.5);
    }

    #[test]
    fn process_weights_normalize() {
        let (c, x) = DisambiguationProcess::Combined {
            concept: 3.0,
            context: 1.0,
        }
        .weights();
        assert!((c - 0.75).abs() < 1e-12);
        assert!((x - 0.25).abs() < 1e-12);
    }

    #[test]
    fn degenerate_combined_falls_back_to_half() {
        let (c, x) = DisambiguationProcess::Combined {
            concept: 0.0,
            context: 0.0,
        }
        .weights();
        assert_eq!((c, x), (0.5, 0.5));
    }

    #[test]
    fn pure_processes() {
        assert_eq!(DisambiguationProcess::ConceptBased.weights(), (1.0, 0.0));
        assert_eq!(DisambiguationProcess::ContextBased.weights(), (0.0, 1.0));
    }

    #[test]
    fn vector_similarity_measures_apply() {
        let a = semsim::SparseVector::from_ids([(0, 1.0), (1, 2.0)]);
        let b = semsim::SparseVector::from_ids([(0, 1.0), (1, 2.0)]);
        for m in [
            VectorSimilarity::Cosine,
            VectorSimilarity::Jaccard,
            VectorSimilarity::Pearson,
        ] {
            let v = m.apply(&a, &b);
            assert!((0.0..=1.0).contains(&v), "{m:?}: {v}");
        }
        assert!((VectorSimilarity::Cosine.apply(&a, &b) - 1.0).abs() < 1e-12);
        assert!((VectorSimilarity::Jaccard.apply(&a, &b) - 1.0).abs() < 1e-12);
        assert!((VectorSimilarity::Pearson.apply(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_rescale_keeps_anticorrelated_candidates_ordered() {
        // Regression test for the tie collapse: under a [-1,1] → [0,1]
        // clamp, every anti-correlated candidate scored exactly 0 and the
        // ranking lost all resolution below r = 0. The affine rescale keeps
        // them distinct and ordered by r.
        let target = semsim::SparseVector::from_ids([(0, 3.0), (1, 2.0), (2, 1.0)]);
        let strongly_anti = semsim::SparseVector::from_ids([(0, 1.0), (1, 2.0), (2, 3.0)]);
        let weakly_anti = semsim::SparseVector::from_ids([(0, 1.0), (1, 3.0), (2, 2.0)]);
        let r_strong = target.pearson(&strongly_anti);
        let r_weak = target.pearson(&weakly_anti);
        assert!(r_strong < 0.0 && r_weak < 0.0, "{r_strong}, {r_weak}");
        assert!(r_strong < r_weak);
        let s_strong = VectorSimilarity::Pearson.apply(&target, &strongly_anti);
        let s_weak = VectorSimilarity::Pearson.apply(&target, &weakly_anti);
        // Both in range, distinct, and ordered consistently with r.
        assert!((0.0..=1.0).contains(&s_strong));
        assert!((0.0..=1.0).contains(&s_weak));
        assert!(s_strong < s_weak, "{s_strong} >= {s_weak}");
        // The exact map is (r + 1) / 2.
        assert!((s_strong - (r_strong + 1.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_vectors_score_zero_under_every_measure() {
        // Regression for the zero-vector guard: Pearson's rescale used to
        // map empty-vs-anything to (0 + 1)/2 = 0.5. All measures must agree
        // that a vector with no evidence scores exactly 0.0.
        let empty = semsim::SparseVector::new();
        let zero = semsim::SparseVector::from_ids([(0, 0.0)]);
        let real = semsim::SparseVector::from_ids([(0, 1.0), (1, 2.0)]);
        for m in [
            VectorSimilarity::Cosine,
            VectorSimilarity::Jaccard,
            VectorSimilarity::Pearson,
        ] {
            assert_eq!(m.apply(&empty, &real), 0.0, "{m:?} empty/real");
            assert_eq!(m.apply(&real, &empty), 0.0, "{m:?} real/empty");
            assert_eq!(m.apply(&empty, &empty), 0.0, "{m:?} empty/empty");
            assert_eq!(m.apply(&zero, &real), 0.0, "{m:?} zero/real");
        }
    }

    #[test]
    fn default_config_is_paper_starting_point() {
        let c = XsdfConfig::default();
        assert_eq!(c.ambiguity_weights, AmbiguityWeights::equal());
        assert_eq!(c.threshold, ThresholdPolicy::Fixed(0.0));
        assert!(c.structure_and_content);
    }

    #[test]
    fn optimal_presets_match_section_431() {
        assert_eq!(XsdfConfig::optimal_rich().radius, 1);
        assert_eq!(XsdfConfig::optimal_flat().radius, 3);
    }
}
