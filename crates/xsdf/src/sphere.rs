//! Sphere neighborhoods and context vectors (Section 3.4).
//!
//! An XML context vector (Definitions 6–7) has one dimension per distinct
//! node label in the sphere `S_d(x)`, weighted by structural frequency:
//!
//! ```text
//! Struct(x_i) = 1 − Dist(x, x_i)/(d + 1)
//! Freq(ℓ)    = Σ Struct(x_i)  over x_i with label ℓ
//! w(ℓ)       = 2·Freq(ℓ) / (|S_d(x)| + 1)
//! ```
//!
//! Per Definition 5 the sphere is the union of rings `R_d' (d' ≤ d)`, which
//! includes the degenerate ring `R_0 = {x}`: the target's own label is a
//! dimension with `Struct = 1`. This convention reproduces the paper's
//! Figure 7 vector `V_1(T\[2\])` exactly (cast 0.4 / picture 0.2 / star 0.4).
//! (The figure's `V_2` values were computed with the center excluded from
//! the cardinality — an internal inconsistency of the figure; we follow the
//! definitions.)
//!
//! The same construction applies to a concept in the semantic network
//! (Section 3.5.2), with rings built from semantic relations instead of
//! structural edges, and every lemma of a concept contributing to its
//! dimension (concept labels are linguistically pre-processed, footnote 9).
//!
//! Vectors are [`SparseVector`] id runs. A network lemma's dimension comes
//! from the [`LemmaTable`]; a document label that is no lemma sorts at its
//! lemma-table insertion point. Both follow string order, so each sum runs
//! in label order.

use std::sync::Arc;

use semnet::graph::concept_sphere;
use semnet::{ConceptId, LemmaTable, SemanticNetwork};
use semsim::{SimilarityCache, SparseVector, VectorKey};
use xmltree::distance::{sphere, weighted_sphere, DistancePolicy, SphereWalk};
use xmltree::{NodeId, XmlTree};

use crate::senses::LabelTable;

/// The structural proximity factor `Struct(x_i, S_d(x))` of Definition 7.
pub fn struct_factor(dist: u32, radius: u32) -> f64 {
    1.0 - dist as f64 / (radius as f64 + 1.0)
}

/// The weighted-distance generalization of [`struct_factor`]:
/// `1 − cost/(budget + 1)` over a real-valued path cost. For integer
/// costs this is exactly `struct_factor(cost, budget)`. Costs admitted by
/// [`xml_sphere_weighted`] never exceed the budget, so the factor lies in
/// `[1/(budget + 1), 1]` — always positive, never clamped (same contract
/// as the unweighted path).
pub fn struct_factor_weighted(cost: f64, budget: f64) -> f64 {
    1.0 - cost / (budget + 1.0)
}

/// The vector dimension of network lemma `lemma` (its
/// [`LemmaTable`] id): the id plus one, in the high 32 bits.
pub(crate) fn lemma_dimension(lemma: u32) -> u64 {
    (u64::from(lemma) + 1) << 32
}

/// The vector dimension of a document label `text` whose document
/// dimension (string-order rank) is `dimension`: its lemma's dimension
/// when it is a lemma; otherwise its lemma-table insertion point `p` in
/// the high 32 bits and `dimension + 1` in the low ones. That sorts it
/// after lemma `p − 1`, before lemma `p`, and among the document's other
/// non-lemma labels in string order — so every dimension sorts as its
/// label string does, and a vector sums its terms in that order. Non-lemma
/// dimensions are specific to one document.
pub(crate) fn label_dimension(lemmas: &LemmaTable, text: &str, dimension: u32) -> u64 {
    match lemmas.locate(text) {
        Ok(lemma) => lemma_dimension(lemma),
        Err(p) => u64::from(p) << 32 | (u64::from(dimension) + 1),
    }
}

/// The sphere neighborhood of an XML node: context nodes with distances,
/// excluding the center itself (callers that need the center's own label
/// add it at distance 0).
pub fn xml_sphere(tree: &XmlTree, center: NodeId, radius: u32) -> Vec<(NodeId, u32)> {
    sphere(tree, center, radius)
}

/// The sphere neighborhood under an alternative [`DistancePolicy`]
/// (Section 5's future-work distances): nodes whose weighted path cost
/// fits the budget `radius`, with their costs.
pub fn xml_sphere_weighted(
    tree: &XmlTree,
    center: NodeId,
    radius: u32,
    policy: DistancePolicy,
) -> Vec<(NodeId, f64)> {
    weighted_sphere(tree, center, radius as f64, policy)
}

/// One document's sphere buffers: the walk's state, the current target's
/// sphere `S_d(x)` with each node's proximity factor `Struct(x_i)`, and
/// its context vector `V_d(x)` (Definitions 6–7) as one weight slot per
/// label dimension ([`LabelTable::dimension`]). Each target gets one walk;
/// both processes read the result.
pub(crate) struct SphereScratch {
    walk: SphereWalk,
    hops: Vec<(NodeId, u32)>,
    sphere: Vec<(NodeId, f64)>,
    /// `w_{V_d(x)}` per label dimension; 0 for labels outside the sphere.
    weights: Vec<f64>,
    /// Dimensions with a non-zero weight.
    touched: Vec<u32>,
}

impl SphereScratch {
    /// Empty buffers for the document `labels` covers.
    pub(crate) fn new(labels: &LabelTable) -> Self {
        Self {
            walk: SphereWalk::default(),
            hops: Vec::new(),
            sphere: Vec::new(),
            weights: vec![0.0; labels.dimensions()],
            touched: Vec::new(),
        }
    }

    /// Walks `S_d(center)` under `policy` — [`struct_factor`] over edge
    /// counts, [`struct_factor_weighted`] over weighted path costs — and
    /// assembles `V_d(center)`, replacing the previous target's. The
    /// center's label enters first at `Struct = struct_factor(0, radius)`
    /// (≡ 1, ring `R_0`), then each context node in walk order; every
    /// contribution is scaled by `2/(|S_d(x)| + 1)` with the center
    /// counted in `|S_d(x)|`, and a label's weight sums its contributions
    /// in that order, from 0. [`DistancePolicy::EdgeCount`] takes the
    /// breadth-first walk, skipping Dijkstra; its costs are the plain edge
    /// counts, so the factors agree bit for bit.
    pub(crate) fn assemble(
        &mut self,
        labels: &LabelTable,
        tree: &XmlTree,
        center: NodeId,
        radius: u32,
        policy: DistancePolicy,
    ) {
        for &dimension in &self.touched {
            self.weights[dimension as usize] = 0.0;
        }
        self.touched.clear();
        self.sphere.clear();
        if policy == DistancePolicy::EdgeCount {
            self.hops.clear();
            self.walk.walk(tree, center, radius, &mut self.hops);
            let factors = self
                .hops
                .iter()
                .map(|&(node, dist)| (node, struct_factor(dist, radius)));
            self.sphere.extend(factors);
        } else {
            let budget = radius as f64;
            let factors = xml_sphere_weighted(tree, center, radius, policy)
                .into_iter()
                .map(|(node, cost)| (node, struct_factor_weighted(cost, budget)));
            self.sphere.extend(factors);
        }
        // |S_d(x)| counts the center (ring R_0) plus all context nodes.
        let cardinality = self.sphere.len() as f64 + 1.0;
        let scale = 2.0 / (cardinality + 1.0);
        let Self {
            sphere,
            weights,
            touched,
            ..
        } = self;
        // Every contribution is positive, so a zero slot is untouched.
        let mut add = |dimension: u32, w: f64| {
            debug_assert!(w > 0.0);
            let slot = &mut weights[dimension as usize];
            if *slot == 0.0 {
                touched.push(dimension);
            }
            *slot += w;
        };
        add(labels.dimension(center), struct_factor(0, radius) * scale);
        for &(node, factor) in sphere.iter() {
            add(labels.dimension(node), factor * scale);
        }
    }

    /// The current sphere's context nodes with their proximity factors, in
    /// walk order.
    pub(crate) fn sphere(&self) -> &[(NodeId, f64)] {
        &self.sphere
    }

    /// The current `V_d(x)` weight of a label dimension.
    pub(crate) fn weight(&self, dimension: u32) -> f64 {
        self.weights[dimension as usize]
    }

    /// The current `V_d(x)` as a run over `keys` ([`LabelTable::keys`]):
    /// the touched dimensions in string order, its norm summed in that
    /// order.
    pub(crate) fn vector(&mut self, keys: &[u64]) -> SparseVector {
        self.touched.sort_unstable();
        let dims = self
            .touched
            .iter()
            .map(|&dimension| (keys[dimension as usize], self.weights[dimension as usize]))
            .collect();
        SparseVector::from_sorted(dims)
    }
}

/// A context vector with the label of each dimension. Scoring never builds
/// one: it compares id runs. The view stays because checking a vector
/// against the paper — Figure 7's worked example, the conformance
/// reference, the tests — needs label strings, and it is built from the
/// same assembly the pipeline scores with.
#[derive(Debug, Clone)]
pub struct LabelledVector<'a> {
    vector: SparseVector,
    /// The label of each of `vector`'s dimensions, in its order.
    labels: Vec<&'a str>,
}

impl<'a> LabelledVector<'a> {
    /// A concept context vector (lemma dimensions only) with its lemmas.
    pub fn of_concept_vector(sn: &'a SemanticNetwork, vector: SparseVector) -> Self {
        let lemmas = sn.lemma_table();
        let labels = vector
            .iter()
            .map(|(dimension, _)| {
                let lemma = (dimension >> 32) as u32 - 1;
                debug_assert_eq!(dimension, lemma_dimension(lemma), "not a lemma dimension");
                lemmas.lemma(lemma)
            })
            .collect();
        Self { vector, labels }
    }

    /// The id run the measures compare.
    pub fn vector(&self) -> &SparseVector {
        &self.vector
    }

    /// The id run, without the labels.
    pub fn into_vector(self) -> SparseVector {
        self.vector
    }

    /// The coordinate of `label` (0 when absent).
    pub fn get(&self, label: &str) -> f64 {
        self.iter()
            .find(|&(l, _)| l == label)
            .map_or(0.0, |(_, w)| w)
    }

    /// `(label, weight)` pairs in label order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, f64)> + '_ {
        self.labels
            .iter()
            .zip(self.vector.iter())
            .map(|(&label, (_, w))| (label, w))
    }

    /// Number of dimensions.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when no dimension is set.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// The XML context vector `V_d(x)` of Definitions 6–7, including the
/// center's label at distance 0.
pub fn xml_context_vector<'t>(
    sn: &'t SemanticNetwork,
    tree: &'t XmlTree,
    center: NodeId,
    radius: u32,
) -> LabelledVector<'t> {
    xml_context_vector_weighted(sn, tree, center, radius, DistancePolicy::EdgeCount)
}

/// The weighted-distance generalization of the context vector: identical
/// to [`xml_context_vector`] with `Struct(x_i)` computed by
/// [`struct_factor_weighted`] over weighted path costs. Both paths share
/// one assembly (center at `Struct = 1`, scale `2/(|S| + 1)`, no
/// clamping), so with [`DistancePolicy::EdgeCount`] — where costs are the
/// plain edge counts — it equals [`xml_context_vector`] bit for bit. A
/// dimension whose label is no network lemma is specific to `tree`'s
/// document.
pub fn xml_context_vector_weighted<'t>(
    sn: &'t SemanticNetwork,
    tree: &'t XmlTree,
    center: NodeId,
    radius: u32,
    policy: DistancePolicy,
) -> LabelledVector<'t> {
    let labels = LabelTable::new(sn, tree);
    let mut scratch = SphereScratch::new(&labels);
    scratch.assemble(&labels, tree, center, radius, policy);
    let vector = scratch.vector(labels.keys());
    // `vector` left the touched dimensions sorted, in its order.
    let texts = scratch.touched.iter().map(|&d| labels.text(d));
    LabelledVector {
        vector,
        labels: texts.collect(),
    }
}

/// Adds each lemma of concept `c` at weight `w` to `pairs`, as lemma
/// dimensions.
fn add_lemmas(lemmas: &LemmaTable, c: ConceptId, w: f64, pairs: &mut Vec<(u64, f64)>) {
    let dimensions = lemmas.concept_lemmas(c).iter();
    pairs.extend(dimensions.map(|&lemma| (lemma_dimension(lemma), w)));
}

/// The semantic-network context vector `V_d(s_p)` of a candidate sense
/// (Section 3.5.2): sphere rings follow semantic relations; each concept in
/// the sphere contributes its weight to the dimension of each of its
/// lemmas, the center first, then the sphere in walk order.
pub fn concept_context_vector(
    sn: &SemanticNetwork,
    center: ConceptId,
    radius: u32,
) -> SparseVector {
    let lemmas = sn.lemma_table();
    let concepts = concept_sphere(sn, center, radius);
    let cardinality = concepts.len() as f64 + 1.0;
    let scale = 2.0 / (cardinality + 1.0);
    let mut pairs = Vec::new();
    add_lemmas(lemmas, center, struct_factor(0, radius) * scale, &mut pairs);
    for (c, dist) in concepts {
        add_lemmas(lemmas, c, struct_factor(dist, radius) * scale, &mut pairs);
    }
    SparseVector::from_ids(pairs)
}

/// [`concept_context_vector`] memoized through a [`SimilarityCache`]'s
/// vector table: the vector of a candidate sense is a pure function of
/// `(concept, radius)` over the immutable network, so it is cached under
/// that key ([`VectorKey`]) and shared across targets, documents, workers
/// and runs.
///
/// Caches that don't implement a vector table (the trait's default) simply
/// always miss, and this degrades to [`concept_context_vector`] plus an
/// `Arc` allocation.
pub fn concept_context_vector_cached<C: SimilarityCache + ?Sized>(
    sn: &SemanticNetwork,
    center: ConceptId,
    radius: u32,
    cache: &C,
) -> Arc<SparseVector> {
    let key: VectorKey = (center, radius);
    if let Some(v) = cache.lookup_vector(key) {
        return v;
    }
    let v = Arc::new(concept_context_vector(sn, center, radius));
    cache.store_vector(key, Arc::clone(&v));
    v
}

/// The compound-sense context vector `V_d(s_p, s_q)` of Equation 12: built
/// from the union sphere `S_d(s_p) ∪ S_d(s_q)`, in concept id order.
pub fn compound_concept_context_vector(
    sn: &SemanticNetwork,
    first: ConceptId,
    second: ConceptId,
    radius: u32,
) -> SparseVector {
    let mut all: Vec<(ConceptId, u32)> = vec![(first, 0), (second, 0)];
    all.extend(concept_sphere(sn, first, radius));
    all.extend(concept_sphere(sn, second, radius));
    // Union: keep the minimal distance per concept.
    all.sort_by_key(|&(c, d)| (c, d));
    all.dedup_by_key(|&mut (c, _)| c);
    let lemmas = sn.lemma_table();
    let cardinality = all.len() as f64;
    let scale = 2.0 / (cardinality + 1.0);
    let mut pairs = Vec::new();
    for (c, dist) in all {
        add_lemmas(lemmas, c, struct_factor(dist, radius) * scale, &mut pairs);
    }
    SparseVector::from_ids(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::senses::LingTokenizer;
    use semnet::mini_wordnet;
    use xmltree::tree::TreeBuilder;

    /// Figure 6's tree with the paper's labels (lowercased by
    /// pre-processing).
    fn figure6_tree() -> XmlTree {
        let doc = xmltree::parse(
            "<Films><Picture><Cast><Star>Stewart</Star><Star>Kelly</Star></Cast><Plot/></Picture></Films>",
        )
        .unwrap();
        TreeBuilder::with_tokenizer(LingTokenizer::new(mini_wordnet()))
            .build(&doc)
            .unwrap()
            .tree
    }

    fn find(t: &XmlTree, label: &str) -> NodeId {
        t.preorder().find(|&id| t.label(id) == label).unwrap()
    }

    fn labelled(v: SparseVector) -> LabelledVector<'static> {
        LabelledVector::of_concept_vector(mini_wordnet(), v)
    }

    #[test]
    fn struct_factor_bounds() {
        // Definition 7: Struct ∈ [1/(d+1), 1].
        assert_eq!(struct_factor(0, 2), 1.0);
        assert!((struct_factor(2, 2) - 1.0 / 3.0).abs() < 1e-12);
        assert!((struct_factor(1, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn figure7_v1_reproduced_exactly() {
        // V_1(T[2]): cast 0.4, picture 0.2, star 0.4.
        let t = figure6_tree();
        let cast = find(&t, "cast");
        let v = xml_context_vector(mini_wordnet(), &t, cast, 1);
        assert!(
            (v.get("cast") - 0.4).abs() < 1e-9,
            "cast: {}",
            v.get("cast")
        );
        assert!(
            (v.get("picture") - 0.2).abs() < 1e-9,
            "picture: {}",
            v.get("picture")
        );
        assert!(
            (v.get("star") - 0.4).abs() < 1e-9,
            "star: {}",
            v.get("star")
        );
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn figure7_v2_shape_holds() {
        // V_2(T[2]): with the center in the cardinality the absolute values
        // differ from the figure (see module docs), but every ordering
        // relation of Figure 7 must hold: star > cast > picture > film =
        // stewart = kelly = plot > 0. (The root tag "Films" pre-processes
        // to the label "film": it is unknown as-is and stems to a lexicon
        // word, per Section 3.2.)
        let t = figure6_tree();
        let cast = find(&t, "cast");
        let v = xml_context_vector(mini_wordnet(), &t, cast, 2);
        assert_eq!(v.len(), 7);
        assert!(v.get("star") > v.get("cast"));
        assert!(v.get("cast") > v.get("picture"));
        assert!(v.get("picture") > v.get("film"));
        let far = ["film", "stewart", "kelly", "plot"];
        for w in far {
            assert!((v.get(w) - v.get("film")).abs() < 1e-9, "{w}");
            assert!(v.get(w) > 0.0, "{w}");
        }
    }

    #[test]
    fn assumption5_closer_nodes_weigh_more() {
        let t = figure6_tree();
        let cast = find(&t, "cast");
        let v = xml_context_vector(mini_wordnet(), &t, cast, 2);
        // picture (distance 1) outweighs plot (distance 2).
        assert!(v.get("picture") > v.get("plot"));
    }

    #[test]
    fn assumption6_repeated_labels_weigh_more() {
        let t = figure6_tree();
        let cast = find(&t, "cast");
        let v = xml_context_vector(mini_wordnet(), &t, cast, 1);
        // star occurs twice at distance 1, picture once.
        assert!((v.get("star") - 2.0 * v.get("picture")).abs() < 1e-9);
    }

    #[test]
    fn weights_lie_in_unit_interval() {
        let t = figure6_tree();
        for center in t.preorder() {
            for radius in 1..=3 {
                let v = xml_context_vector(mini_wordnet(), &t, center, radius);
                for (label, w) in v.iter() {
                    assert!((0.0..=1.0).contains(&w), "w({label}) = {w} at r={radius}");
                }
            }
        }
    }

    #[test]
    fn weighted_edge_count_matches_unweighted() {
        let t = figure6_tree();
        for center in t.preorder() {
            for radius in 1..=3 {
                let a = xml_context_vector(mini_wordnet(), &t, center, radius);
                let b = xml_context_vector_weighted(
                    mini_wordnet(),
                    &t,
                    center,
                    radius,
                    DistancePolicy::EdgeCount,
                );
                for (label, w) in a.iter() {
                    assert!((w - b.get(label)).abs() < 1e-12, "{label}");
                }
            }
        }
    }

    #[test]
    fn weighted_and_unweighted_assembly_unified() {
        // Regression for the PR 5 reconciliation: the weighted path used to
        // add the center at bare `scale` (skipping the struct factor) and
        // clamp node weights with `.max(0.0)`. Both paths now share one
        // assembly, so a weighted policy whose edge costs are all exactly
        // 1.0 — which does NOT take the EdgeCount shortcut — must reproduce
        // the unweighted vector bit for bit.
        let t = figure6_tree();
        let unit_costs = DistancePolicy::Directional { up: 1.0, down: 1.0 };
        for center in t.preorder() {
            for radius in 1..=3 {
                let a = xml_context_vector(mini_wordnet(), &t, center, radius);
                let b = xml_context_vector_weighted(mini_wordnet(), &t, center, radius, unit_costs);
                assert_eq!(a.len(), b.len(), "center {center:?} r={radius}");
                for (label, w) in a.iter() {
                    assert_eq!(w, b.get(label), "{label} at r={radius}");
                }
            }
        }
    }

    #[test]
    fn weighted_factors_stay_positive_without_clamping() {
        // The sphere admits only costs ≤ budget, so every struct factor is
        // ≥ 1/(budget+1) > 0 by construction — the old `.max(0.0)` clamp was
        // unreachable and is gone.
        let t = figure6_tree();
        let policies = [
            DistancePolicy::Directional { up: 0.3, down: 1.0 },
            DistancePolicy::Directional { up: 1.0, down: 0.5 },
            DistancePolicy::DensityScaled { alpha: 2.0 },
        ];
        for policy in policies {
            for center in t.preorder() {
                for radius in 1..=3 {
                    let budget = radius as f64;
                    for (node, cost) in xml_sphere_weighted(&t, center, radius, policy) {
                        let f = struct_factor_weighted(cost, budget);
                        assert!(f > 0.0, "factor {f} for {node:?} cost {cost}");
                        assert!(f <= 1.0, "factor {f} for {node:?} cost {cost}");
                    }
                    let v = xml_context_vector_weighted(mini_wordnet(), &t, center, radius, policy);
                    for (label, w) in v.iter() {
                        assert!(w > 0.0, "w({label}) = {w}");
                    }
                }
            }
        }
    }

    #[test]
    fn directional_policy_shifts_weight_to_ancestors() {
        let t = figure6_tree();
        let cast = find(&t, "cast");
        let up_cheap = DistancePolicy::Directional { up: 0.3, down: 1.0 };
        let v = xml_context_vector_weighted(mini_wordnet(), &t, cast, 2, up_cheap);
        // films (two upward steps, cost 0.6) now outweighs the distance-2
        // tokens (cost 1.3 via one up + ... actually down steps cost 1.0).
        assert!(
            v.get("film") > v.get("stewart"),
            "{} vs {}",
            v.get("film"),
            v.get("stewart")
        );
    }

    #[test]
    fn concept_vector_contains_own_lemmas() {
        let sn = mini_wordnet();
        let star = sn.by_key("star.performer").unwrap();
        let v = labelled(concept_context_vector(sn, star, 1));
        assert!(v.get("star") > 0.0);
        // Direct hypernym "actor" present at distance 1.
        assert!(v.get("actor") > 0.0);
        assert!(v.get("star") > v.get("actor"));
    }

    #[test]
    fn concept_vector_grows_with_radius() {
        let sn = mini_wordnet();
        let cast = sn.by_key("cast.actors").unwrap();
        let v1 = concept_context_vector(sn, cast, 1);
        let v2 = concept_context_vector(sn, cast, 2);
        assert!(v2.len() >= v1.len());
    }

    #[test]
    fn cached_concept_vector_matches_uncached() {
        let sn = mini_wordnet();
        let cache = semsim::LocalCache::new();
        let star = sn.by_key("star.performer").unwrap();
        let fresh = concept_context_vector(sn, star, 2);
        let first = concept_context_vector_cached(sn, star, 2, &cache);
        assert_eq!(cache.vectors_len(), 1);
        let second = concept_context_vector_cached(sn, star, 2, &cache);
        // Second call is served from the table — same allocation.
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(*first, fresh);
        // Different radius is a different entry.
        let r1 = concept_context_vector_cached(sn, star, 1, &cache);
        assert!(!Arc::ptr_eq(&first, &r1));
        assert_eq!(cache.vectors_len(), 2);
    }

    #[test]
    fn compound_vector_unions_spheres() {
        let sn = mini_wordnet();
        let star = sn.by_key("star.performer").unwrap();
        let pic = sn.by_key("picture.image").unwrap();
        let v = labelled(compound_concept_context_vector(sn, star, pic, 1));
        assert!(v.get("star") > 0.0);
        assert!(v.get("picture") > 0.0);
        // The union must cover both individual neighborhoods' dimensions.
        let v_star = labelled(concept_context_vector(sn, star, 1));
        for (label, _) in v_star.iter() {
            assert!(v.get(label) > 0.0, "missing {label}");
        }
    }

    #[test]
    fn xml_and_concept_vectors_share_space() {
        // The two vector kinds must be comparable by cosine: same label
        // space (lowercase words).
        let t = figure6_tree();
        let cast = find(&t, "cast");
        let xml_v = xml_context_vector(mini_wordnet(), &t, cast, 2);
        let sn = mini_wordnet();
        let cast_actors = sn.by_key("cast.actors").unwrap();
        let sn_v = concept_context_vector(sn, cast_actors, 2);
        assert!(
            xml_v.vector().cosine(&sn_v) > 0.0,
            "contexts should overlap on cast/star vocabulary"
        );
    }
}
