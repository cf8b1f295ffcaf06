//! The combined similarity measure of Definition 9:
//!
//! ```text
//! Sim(c1, c2, S̄N) = w_Edge·Sim_Edge + w_Node·Sim_Node + w_Gloss·Sim_Gloss
//! ```
//!
//! with `w_Edge + w_Node + w_Gloss = 1` and all weights non-negative. The
//! paper's experiments use equal weights (1/3 each, footnote 12).

use std::cell::Cell;

use semnet::graph::common_subsumer;
use semnet::{ConceptId, SemanticNetwork};

use crate::cache::{LocalCache, SimilarityCache, WeightsFingerprint};
use crate::edge::wu_palmer_from;
use crate::gloss::extended_gloss_overlap;
use crate::node::lin_from;

/// Weights of the three constituent measures. Constructed through
/// [`SimilarityWeights::new`], which normalizes to sum 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarityWeights {
    /// Weight of the edge-based (Wu–Palmer) measure.
    pub edge: f64,
    /// Weight of the node-based (Lin) measure.
    pub node: f64,
    /// Weight of the gloss-based (extended gloss overlap) measure.
    pub gloss: f64,
}

impl SimilarityWeights {
    /// Creates a weight triple, normalizing so the weights sum to 1.
    ///
    /// Returns `None` if any weight is negative, non-finite, or all are 0.
    pub fn new(edge: f64, node: f64, gloss: f64) -> Option<Self> {
        if !(edge.is_finite() && node.is_finite() && gloss.is_finite()) {
            return None;
        }
        if edge < 0.0 || node < 0.0 || gloss < 0.0 {
            return None;
        }
        let sum = edge + node + gloss;
        if sum <= 0.0 {
            return None;
        }
        Some(Self {
            edge: edge / sum,
            node: node / sum,
            gloss: gloss / sum,
        })
    }

    /// The paper's experimental setting: equal thirds (footnote 12).
    pub fn equal() -> Self {
        Self {
            edge: 1.0 / 3.0,
            node: 1.0 / 3.0,
            gloss: 1.0 / 3.0,
        }
    }

    /// Only the edge-based measure (an RPD/VSD-style configuration).
    pub fn edge_only() -> Self {
        Self {
            edge: 1.0,
            node: 0.0,
            gloss: 0.0,
        }
    }

    /// Only the node-based measure.
    pub fn node_only() -> Self {
        Self {
            edge: 0.0,
            node: 1.0,
            gloss: 0.0,
        }
    }

    /// Only the gloss-based measure.
    pub fn gloss_only() -> Self {
        Self {
            edge: 0.0,
            node: 0.0,
            gloss: 1.0,
        }
    }

    /// A stable fingerprint of this weight configuration, embedded in every
    /// similarity cache key (see [`crate::cache::PairKey`]). FNV-1a over
    /// the IEEE-754 bit patterns of the (normalized) weights: two
    /// configurations fingerprint equal exactly when their weight triples
    /// are bitwise identical, so differently weighted measures sharing one
    /// cache can never cross-read each other's scores.
    pub fn fingerprint(&self) -> WeightsFingerprint {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for w in [self.edge, self.node, self.gloss] {
            for byte in w.to_bits().to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
        }
        WeightsFingerprint(hash)
    }
}

impl Default for SimilarityWeights {
    fn default() -> Self {
        Self::equal()
    }
}

/// The combined, weighted semantic similarity of Definition 9, with a
/// per-pair memo cache (sense-pair similarities are re-queried many times
/// during disambiguation of a document).
///
/// The cache is pluggable through [`SimilarityCache`]: the default
/// [`LocalCache`] is a plain unsynchronized map for serial callers, while
/// concurrent batch engines pass a shared thread-safe cache (e.g. behind an
/// [`Arc`](std::sync::Arc)) via [`CombinedSimilarity::with_cache`] so all
/// workers reuse each other's scores.
#[derive(Debug, Clone)]
pub struct CombinedSimilarity<C: SimilarityCache = LocalCache> {
    weights: SimilarityWeights,
    /// Cached `weights.fingerprint()` — computed once at construction,
    /// copied into every cache key on the hot path.
    fingerprint: WeightsFingerprint,
    cache: C,
    /// How many pairs the gloss kernel actually scored through this measure
    /// (cache misses with a positive gloss weight) — the per-kernel metric
    /// the batch runtime aggregates.
    gloss_pairs: Cell<u64>,
}

impl CombinedSimilarity {
    /// A combined measure with the given weights and a fresh single-threaded
    /// cache.
    pub fn new(weights: SimilarityWeights) -> Self {
        Self::with_cache(weights, LocalCache::new())
    }
}

impl<C: SimilarityCache> CombinedSimilarity<C> {
    /// A combined measure scoring through the given cache. The cache may be
    /// shared: `&C` and `Arc<C>` implement [`SimilarityCache`] whenever `C`
    /// does, so several measures can memoize into one table.
    pub fn with_cache(weights: SimilarityWeights, cache: C) -> Self {
        Self {
            weights,
            fingerprint: weights.fingerprint(),
            cache,
            gloss_pairs: Cell::new(0),
        }
    }

    /// The configured weights.
    pub fn weights(&self) -> SimilarityWeights {
        self.weights
    }

    /// The underlying cache.
    pub fn cache(&self) -> &C {
        &self.cache
    }

    /// `Sim(c1, c2, S̄N) ∈ \[0, 1\]`.
    pub fn similarity(&self, sn: &SemanticNetwork, a: ConceptId, b: ConceptId) -> f64 {
        let key = if a <= b {
            (self.fingerprint, a, b)
        } else {
            (self.fingerprint, b, a)
        };
        if let Some(v) = self.cache.lookup(key) {
            return v;
        }
        let w = self.weights;
        // Wu–Palmer and Lin read the same lowest common subsumer: one
        // taxonomy walk per miss feeds both.
        let subsumer = if a != b && (w.edge > 0.0 || w.node > 0.0) {
            common_subsumer(sn, a, b)
        } else {
            None
        };
        let mut score = 0.0;
        if w.edge > 0.0 {
            score += w.edge * wu_palmer_from(sn, a, b, subsumer);
        }
        if w.node > 0.0 {
            score += w.node * lin_from(sn, a, b, subsumer);
        }
        if w.gloss > 0.0 {
            score += w.gloss * extended_gloss_overlap(sn, a, b);
            self.gloss_pairs.set(self.gloss_pairs.get() + 1);
        }
        let score = score.clamp(0.0, 1.0);
        self.cache.store(key, score);
        score
    }

    /// Number of cached pair similarities (diagnostics).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// How many pairs the gloss kernel scored through this measure (cache
    /// misses with `weights.gloss > 0`; hits served from the cache don't
    /// count).
    pub fn gloss_pairs_scored(&self) -> u64 {
        self.gloss_pairs.get()
    }
}

impl Default for CombinedSimilarity {
    fn default() -> Self {
        Self::new(SimilarityWeights::equal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::wu_palmer;
    use crate::node::lin;
    use semnet::mini_wordnet;

    fn id(key: &str) -> ConceptId {
        mini_wordnet().by_key(key).unwrap()
    }

    #[test]
    fn weights_normalize() {
        let w = SimilarityWeights::new(2.0, 1.0, 1.0).unwrap();
        assert!((w.edge - 0.5).abs() < 1e-12);
        assert!((w.edge + w.node + w.gloss - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_weights_rejected() {
        assert!(SimilarityWeights::new(-1.0, 1.0, 1.0).is_none());
        assert!(SimilarityWeights::new(0.0, 0.0, 0.0).is_none());
        assert!(SimilarityWeights::new(f64::NAN, 1.0, 1.0).is_none());
        assert!(SimilarityWeights::new(f64::INFINITY, 1.0, 1.0).is_none());
    }

    #[test]
    fn equal_weights_sum_to_one() {
        let w = SimilarityWeights::equal();
        assert!((w.edge + w.node + w.gloss - 1.0).abs() < 1e-12);
    }

    #[test]
    fn combined_is_convex_combination() {
        let sn = mini_wordnet();
        let (a, b) = (id("cast.actors"), id("star.performer"));
        let e = wu_palmer(sn, a, b);
        let n = lin(sn, a, b);
        let g = extended_gloss_overlap(sn, a, b);
        let sim = CombinedSimilarity::default().similarity(sn, a, b);
        let lo = e.min(n).min(g);
        let hi = e.max(n).max(g);
        assert!(
            sim >= lo - 1e-9 && sim <= hi + 1e-9,
            "{sim} not within [{lo}, {hi}]"
        );
    }

    #[test]
    fn single_measure_configs_match_measures() {
        let sn = mini_wordnet();
        let (a, b) = (id("kelly.grace"), id("stewart.james"));
        let edge_only = CombinedSimilarity::new(SimilarityWeights::edge_only());
        assert!((edge_only.similarity(sn, a, b) - wu_palmer(sn, a, b)).abs() < 1e-12);
        let node_only = CombinedSimilarity::new(SimilarityWeights::node_only());
        assert!((node_only.similarity(sn, a, b) - lin(sn, a, b)).abs() < 1e-12);
    }

    /// Pairs covering every concept of the network, every concept with two
    /// or more is-a parents against a spread of others, and identical
    /// concepts.
    fn covering_pairs(sn: &SemanticNetwork) -> Vec<(ConceptId, ConceptId)> {
        let all: Vec<ConceptId> = sn.all_concepts().collect();
        let n = all.len();
        let mut pairs: Vec<_> = (0..n).map(|i| (all[i], all[(7 * i + 1) % n])).collect();
        pairs.extend(all.iter().step_by(13).map(|&c| (c, c)));
        for &m in all.iter().filter(|&&c| sn.hypernyms(c).count() >= 2) {
            pairs.extend(all.iter().step_by(5).map(|&c| (m, c)));
        }
        pairs
    }

    #[test]
    fn one_subsumer_search_scores_bit_identically_to_the_separate_kernels() {
        let sn = mini_wordnet();
        let pairs = covering_pairs(sn);
        for w in [
            SimilarityWeights::equal(),
            SimilarityWeights::edge_only(),
            SimilarityWeights::node_only(),
            SimilarityWeights::gloss_only(),
            SimilarityWeights::new(0.5, 0.3, 0.2).unwrap(),
        ] {
            let sim = CombinedSimilarity::new(w);
            for &(a, b) in &pairs {
                // Definition 9 summed in the measure's order: edge, node, gloss.
                let expected = (0.0
                    + w.edge * wu_palmer(sn, a, b)
                    + w.node * lin(sn, a, b)
                    + w.gloss * extended_gloss_overlap(sn, a, b))
                .clamp(0.0, 1.0);
                assert_eq!(
                    sim.similarity(sn, a, b).to_bits(),
                    expected.to_bits(),
                    "{w:?}: ({a:?}, {b:?})"
                );
            }
        }
    }

    #[test]
    fn cache_hit_returns_same_value() {
        let sn = mini_wordnet();
        let sim = CombinedSimilarity::default();
        let (a, b) = (id("cast.actors"), id("film.movie"));
        let v1 = sim.similarity(sn, a, b);
        let v2 = sim.similarity(sn, b, a); // symmetric key
        assert_eq!(v1, v2);
        assert_eq!(sim.cache_len(), 1);
    }

    #[test]
    fn identity_is_one() {
        let sn = mini_wordnet();
        let sim = CombinedSimilarity::default();
        assert!((sim.similarity(sn, id("actor.n"), id("actor.n")) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fingerprints_distinguish_weight_configs() {
        let configs = [
            SimilarityWeights::equal(),
            SimilarityWeights::edge_only(),
            SimilarityWeights::node_only(),
            SimilarityWeights::gloss_only(),
            SimilarityWeights::new(2.0, 1.0, 1.0).unwrap(),
        ];
        for (i, wa) in configs.iter().enumerate() {
            for (j, wb) in configs.iter().enumerate() {
                assert_eq!(
                    wa.fingerprint() == wb.fingerprint(),
                    i == j,
                    "fingerprint collision or instability between {wa:?} and {wb:?}"
                );
            }
        }
        // Construction route must not matter, only the normalized triple.
        assert_eq!(
            SimilarityWeights::new(1.0, 1.0, 1.0).unwrap().fingerprint(),
            SimilarityWeights::equal().fingerprint()
        );
    }

    #[test]
    fn shared_cache_with_different_weights_never_cross_reads() {
        // Regression test for the cache-poisoning bug: two measures with
        // different weights writing through ONE shared cache must produce
        // exactly the scores they'd produce with fresh private caches.
        let sn = mini_wordnet();
        let shared = LocalCache::new();
        let mixed_a = CombinedSimilarity::with_cache(SimilarityWeights::equal(), &shared);
        let mixed_b = CombinedSimilarity::with_cache(SimilarityWeights::gloss_only(), &shared);
        let fresh_a = CombinedSimilarity::new(SimilarityWeights::equal());
        let fresh_b = CombinedSimilarity::new(SimilarityWeights::gloss_only());
        let pairs = [
            (id("cast.actors"), id("star.performer")),
            (id("film.movie"), id("cast.actors")),
            (id("kelly.grace"), id("stewart.james")),
        ];
        for &(a, b) in &pairs {
            // Interleave so each config's entry is already present when the
            // other scores the same pair.
            assert_eq!(mixed_a.similarity(sn, a, b), fresh_a.similarity(sn, a, b));
            assert_eq!(mixed_b.similarity(sn, a, b), fresh_b.similarity(sn, a, b));
            assert_eq!(mixed_a.similarity(sn, a, b), fresh_a.similarity(sn, a, b));
        }
        // One entry per (weights, pair), not per pair.
        assert_eq!(shared.len(), 2 * pairs.len());
    }

    #[test]
    fn gloss_pairs_counter_counts_misses_only() {
        let sn = mini_wordnet();
        let sim = CombinedSimilarity::default();
        let (a, b) = (id("cast.actors"), id("film.movie"));
        assert_eq!(sim.gloss_pairs_scored(), 0);
        sim.similarity(sn, a, b);
        assert_eq!(sim.gloss_pairs_scored(), 1);
        sim.similarity(sn, b, a); // cache hit — kernel not re-run
        assert_eq!(sim.gloss_pairs_scored(), 1);
        let edge_only = CombinedSimilarity::new(SimilarityWeights::edge_only());
        edge_only.similarity(sn, a, b);
        assert_eq!(edge_only.gloss_pairs_scored(), 0);
    }
}
