//! Context-based semantic disambiguation (Section 3.5.2, Definition 10).
//!
//! The target node's XML sphere context vector is compared — by cosine —
//! with the semantic-network sphere context vector of each candidate sense:
//!
//! ```text
//! Context_Score(s_p, S_d(x), SN) = cos(V_d(x), V_d(s_p))
//! ```
//!
//! Compound targets use the union sphere `S_d(s_p) ∪ S_d(s_q)`
//! (Equation 12).

use semnet::{ConceptId, SemanticNetwork};
use semsim::{SimilarityCache, SparseVector};
use xmltree::{NodeId, XmlTree};

use crate::config::VectorSimilarity;
use crate::sphere::{
    compound_concept_context_vector, concept_context_vector, concept_context_vector_cached,
    xml_context_vector,
};

/// The XML-side context vector of a target node, reused across all of its
/// candidate senses.
pub struct ContextVectorScorer {
    xml_vector: SparseVector,
    radius: u32,
    measure: VectorSimilarity,
}

impl ContextVectorScorer {
    /// Builds the scorer for a target node at the given sphere radius,
    /// crossing all semantic relation kinds on the network side.
    pub fn build(sn: &SemanticNetwork, tree: &XmlTree, target: NodeId, radius: u32) -> Self {
        Self::new(
            xml_context_vector(sn, tree, target, radius).into_vector(),
            radius,
        )
    }

    /// A scorer comparing `xml_vector`, a target's `V_d(x)` at `radius`.
    pub(crate) fn new(xml_vector: SparseVector, radius: u32) -> Self {
        Self {
            xml_vector,
            radius,
            measure: VectorSimilarity::Cosine,
        }
    }

    /// Selects the vector similarity measure (footnote 10 of the paper).
    pub fn with_measure(mut self, measure: VectorSimilarity) -> Self {
        self.measure = measure;
        self
    }

    /// The target's XML context vector.
    pub fn xml_vector(&self) -> &SparseVector {
        &self.xml_vector
    }

    /// `Context_Score(s_p)` of Definition 10.
    pub fn score_single(&self, sn: &SemanticNetwork, candidate: ConceptId) -> f64 {
        let concept_vector = concept_context_vector(sn, candidate, self.radius);
        self.measure.apply(&self.xml_vector, &concept_vector)
    }

    /// [`ContextVectorScorer::score_single`] with the candidate's concept
    /// vector memoized through the cache's vector table (see
    /// [`concept_context_vector_cached`]). The same sense recurs across
    /// many targets and documents; its network-side sphere vector never
    /// changes, so only the final vector comparison runs per call once the
    /// table is warm.
    pub fn score_single_cached<C: SimilarityCache + ?Sized>(
        &self,
        sn: &SemanticNetwork,
        candidate: ConceptId,
        cache: &C,
    ) -> f64 {
        let concept_vector = concept_context_vector_cached(sn, candidate, self.radius, cache);
        self.measure.apply(&self.xml_vector, &concept_vector)
    }

    /// `Context_Score((s_p, s_q))` of Equation 12.
    pub fn score_pair(&self, sn: &SemanticNetwork, first: ConceptId, second: ConceptId) -> f64 {
        let concept_vector = compound_concept_context_vector(sn, first, second, self.radius);
        self.measure.apply(&self.xml_vector, &concept_vector)
    }
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

    fn id(key: &str) -> ConceptId {
        mini_wordnet().by_key(key).unwrap()
    }

    #[test]
    fn cast_context_prefers_actors_sense() {
        let t = tree(
            "<films><picture><cast><star>Stewart</star><star>Kelly</star></cast><plot/></picture></films>",
        );
        let sn = mini_wordnet();
        let scorer = ContextVectorScorer::build(sn, &t, find(&t, "cast"), 2);
        let actors = scorer.score_single(sn, id("cast.actors"));
        let mold = scorer.score_single(sn, id("cast.mold"));
        assert!(actors > mold, "{actors} <= {mold}");
    }

    #[test]
    fn scores_bounded() {
        let t = tree("<cd><artist/><track/></cd>");
        let sn = mini_wordnet();
        let scorer = ContextVectorScorer::build(sn, &t, find(&t, "track"), 2);
        for key in ["track.song", "track.path", "track.rail"] {
            let s = scorer.score_single(sn, id(key));
            assert!((0.0..=1.0).contains(&s), "{key}: {s}");
        }
    }

    #[test]
    fn music_context_prefers_song_track() {
        // Radius 1: the paper notes (Section 4.3.1) that growing the radius
        // floods the semantic-network vector with noise concepts, so the
        // context-based method is evaluated at its small-context best here.
        let t = tree("<cd><title/><artist/><company/><track/><track/></cd>");
        let sn = mini_wordnet();
        let scorer = ContextVectorScorer::build(sn, &t, find(&t, "track"), 1);
        let song = scorer.score_single(sn, id("track.song"));
        let rail = scorer.score_single(sn, id("track.rail"));
        assert!(song > rail, "{song} <= {rail}");
    }

    #[test]
    fn pair_scoring_unions_neighborhoods() {
        let t = tree("<films><star_picture/><cast/></films>");
        let sn = mini_wordnet();
        let scorer = ContextVectorScorer::build(sn, &t, find(&t, "star picture"), 2);
        let s = scorer.score_pair(sn, id("star.performer"), id("film.movie"));
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn alternative_measures_run_footnote10() {
        let t = tree("<cd><title/><artist/><track/></cd>");
        let sn = mini_wordnet();
        for measure in [
            VectorSimilarity::Cosine,
            VectorSimilarity::Jaccard,
            VectorSimilarity::Pearson,
        ] {
            let scorer =
                ContextVectorScorer::build(sn, &t, find(&t, "track"), 1).with_measure(measure);
            let s = scorer.score_single(sn, id("track.song"));
            assert!((0.0..=1.0).contains(&s), "{measure:?}: {s}");
        }
    }

    #[test]
    fn cached_scoring_matches_uncached() {
        let t = tree(
            "<films><picture><cast><star>Stewart</star><star>Kelly</star></cast><plot/></picture></films>",
        );
        let sn = mini_wordnet();
        let cache = semsim::LocalCache::new();
        for measure in [
            VectorSimilarity::Cosine,
            VectorSimilarity::Jaccard,
            VectorSimilarity::Pearson,
        ] {
            let scorer =
                ContextVectorScorer::build(sn, &t, find(&t, "cast"), 2).with_measure(measure);
            for key in ["cast.actors", "cast.mold", "star.performer"] {
                let plain = scorer.score_single(sn, id(key));
                let cold = scorer.score_single_cached(sn, id(key), &cache);
                let warm = scorer.score_single_cached(sn, id(key), &cache);
                assert_eq!(plain, cold, "{measure:?} {key}");
                assert_eq!(plain, warm, "{measure:?} {key}");
            }
        }
        assert_eq!(cache.vectors_len(), 3);
    }

    #[test]
    fn degenerate_concept_vector_scores_zero_through_scorer_measure() {
        // Propagation of the zero-vector guard: every ContextVectorScorer
        // score routes through VectorSimilarity::apply, whose contract says
        // a zero/empty vector scores exactly 0.0 under every measure.
        // NetworkBuilder rejects lemma-less concepts (NoLemmas), so a built
        // network cannot produce an empty concept vector today — this pins
        // the scorer-side behavior should one ever arrive (hand-built
        // networks, future loaders). Before the guard, Pearson's rescale
        // returned 0.5 here, ranking an evidence-free sense above genuinely
        // anti-correlated candidates.
        let t = tree("<cast><star/></cast>");
        let empty = SparseVector::new();
        for measure in [
            VectorSimilarity::Cosine,
            VectorSimilarity::Jaccard,
            VectorSimilarity::Pearson,
        ] {
            let scorer =
                ContextVectorScorer::build(mini_wordnet(), &t, t.root(), 1).with_measure(measure);
            assert!(scorer.xml_vector().norm() > 0.0);
            // Zero weights on the target's own dimensions.
            let zero = SparseVector::from_ids(scorer.xml_vector().iter().map(|(id, _)| (id, 0.0)));
            assert_eq!(
                measure.apply(scorer.xml_vector(), &empty),
                0.0,
                "{measure:?}"
            );
            assert_eq!(
                measure.apply(scorer.xml_vector(), &zero),
                0.0,
                "{measure:?}"
            );
        }
    }

    #[test]
    fn singleton_tree_gives_self_label_vector() {
        let t = tree("<star/>");
        let sn = mini_wordnet();
        let scorer = ContextVectorScorer::build(sn, &t, t.root(), 2);
        assert_eq!(scorer.xml_vector().len(), 1);
        assert!(crate::sphere::xml_context_vector(sn, &t, t.root(), 2).get("star") > 0.0);
        // The sense vectors still contain "star", so cosine is positive.
        assert!(scorer.score_single(sn, id("star.celestial")) > 0.0);
    }
}
