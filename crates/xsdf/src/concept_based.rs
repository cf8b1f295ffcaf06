//! Concept-based semantic disambiguation (Section 3.5.1, Definition 8).
//!
//! For a candidate sense `s_p` of target node `x` with sphere context
//! `S_d(x)`:
//!
//! ```text
//!                      Σ_{x_i ∈ S_d(x)}  Max_j ( Sim(s_p, s_j^i) · w_{V_d(x)}(x_i.ℓ) )
//! Concept_Score(s_p) = ─────────────────────────────────────────────────────────────────
//!                                           |S_d(x)|
//! ```
//!
//! where `s_j^i` ranges over the senses of context node `x_i`'s label and
//! `Sim` is the combined measure of Definition 9. Compound target labels use
//! the averaged pair similarity of Equation 10.

use std::borrow::Cow;
use std::cell::{Cell, RefCell, RefMut};
use std::collections::HashMap;

use semnet::{ConceptId, SemanticNetwork};
use semsim::{CombinedSimilarity, SimilarityCache};
use xmltree::distance::DistancePolicy;
use xmltree::{NodeId, XmlTree};

use crate::pipeline::SenseChoice;
use crate::senses::{LabelId, LabelTable, SenseCandidates};
use crate::sphere::SphereScratch;

/// One document's memo of context-entry evidence ([`entry_evidence`]).
/// Evidence depends only on the target candidate (or candidate pair) and
/// the context label, so the memo keeps one row per candidate with one
/// slot per context label, filled on first use. Only labels with senses
/// become context entries, so only they get a slot: a document's unknown
/// tags, however many, widen no row. The memo lives for one
/// `disambiguate_selected_guarded` call, so it holds at most that
/// document's (candidate × scorable label) values and never outlives the
/// similarity measure it was filled with.
pub(crate) struct EvidenceMemo {
    /// The slot of each [`LabelId`] that has entered a context, dense
    /// over those labels in order of first appearance.
    slots: RefCell<Vec<Option<u32>>>,
    /// Slots assigned so far.
    assigned: Cell<u32>,
    rows: RefCell<HashMap<SenseChoice, Vec<Option<f64>>>>,
}

impl EvidenceMemo {
    /// An empty memo for a document with `labels` distinct labels.
    pub(crate) fn new(labels: usize) -> Self {
        Self {
            slots: RefCell::new(vec![None; labels]),
            assigned: Cell::new(0),
            rows: RefCell::default(),
        }
    }

    /// The slot of `label`, a context label with senses, assigned on
    /// first use.
    fn slot(&self, label: LabelId) -> usize {
        let mut slots = self.slots.borrow_mut();
        let slot = slots[label.index()].get_or_insert_with(|| {
            let next = self.assigned.get();
            self.assigned.set(next + 1);
            next
        });
        *slot as usize
    }

    /// The evidence row of `target`, indexed by [`EvidenceMemo::slot`]
    /// and long enough for every slot assigned so far.
    fn row(&self, target: SenseChoice) -> RefMut<'_, Vec<Option<f64>>> {
        let assigned = self.assigned.get() as usize;
        RefMut::map(self.rows.borrow_mut(), |rows| {
            let row = rows.entry(target).or_default();
            if row.len() < assigned {
                row.resize(assigned, None);
            }
            row
        })
    }

    /// Slots allocated over all rows.
    #[cfg(test)]
    fn slot_count(&self) -> usize {
        self.rows.borrow().values().map(Vec::len).sum()
    }
}

/// A branch-and-bound request for [`ConceptContext::score`]: the
/// context's [`ConceptContext::suffix_weight_sums`], and the test each
/// running upper bound is offered to (`true` abandons the candidate).
pub type Bound<'a> = (&'a [f64], &'a mut dyn FnMut(f64) -> bool);

/// Pre-resolved context information for one target node, reused across all
/// of its candidate senses.
pub struct ConceptContext<'t> {
    /// One entry per sphere node whose label has senses.
    entries: Vec<ContextEntry<'t>>,
    /// `|S_d(x)|` of Definition 8: the center (ring `R_0`) plus all
    /// context nodes, so always ≥ 1.
    cardinality: usize,
    /// The document's evidence memo, for contexts built by
    /// [`ConceptContext::build_in`].
    memo: Option<&'t EvidenceMemo>,
}

struct ContextEntry<'t> {
    /// The context-vector weight `w_{V_d(x)}(x_i.ℓ)` of the node's label.
    weight: f64,
    /// The senses of the node's label, owned or lent by the document's
    /// [`LabelTable`]. A compound context label keeps its two token sense
    /// lists, averaged when scoring (Equation 10's note on compound
    /// context labels).
    senses: Cow<'t, SenseCandidates>,
    /// The [`EvidenceMemo::slot`] of the node's label, for contexts
    /// built by [`ConceptContext::build_in`].
    slot: Option<usize>,
}

/// `Max_j Sim(s_p, s_j^i)` of Definition 8: the best similarity between
/// the target candidate and the senses of one context label. A pair
/// target scores each context sense by the average of its two tokens'
/// similarities (Equation 10); a compound context label averages its two
/// tokens' maxima. This is the only place evidence is computed.
fn entry_evidence<C: SimilarityCache>(
    sn: &SemanticNetwork,
    sim: &CombinedSimilarity<C>,
    senses: &SenseCandidates,
    target: SenseChoice,
) -> f64 {
    let sim_to = |s: ConceptId| match target {
        SenseChoice::Single(c) => sim.similarity(sn, c, s),
        SenseChoice::Pair(a, b) => (sim.similarity(sn, a, s) + sim.similarity(sn, b, s)) / 2.0,
    };
    let best = |senses: &[ConceptId]| senses.iter().map(|&s| sim_to(s)).fold(0.0f64, f64::max);
    match senses {
        SenseCandidates::Unknown => 0.0,
        SenseCandidates::Single(senses) => best(senses),
        SenseCandidates::Compound { first, second } => {
            let (best_first, best_second) = (best(first), best(second));
            if first.is_empty() {
                best_second
            } else if second.is_empty() {
                best_first
            } else {
                (best_first + best_second) / 2.0
            }
        }
    }
}

impl ConceptContext<'static> {
    /// Resolves the sphere context of `target` at the given radius.
    pub fn build(sn: &SemanticNetwork, tree: &XmlTree, target: NodeId, radius: u32) -> Self {
        Self::build_with_policy(sn, tree, target, radius, DistancePolicy::EdgeCount)
    }

    /// [`ConceptContext::build`] under an alternative distance policy
    /// (Section 5's future-work distances).
    pub fn build_with_policy(
        sn: &SemanticNetwork,
        tree: &XmlTree,
        target: NodeId,
        radius: u32,
        policy: DistancePolicy,
    ) -> Self {
        let labels = LabelTable::new(sn, tree);
        let mut sphere = SphereScratch::new(&labels);
        sphere.assemble(&labels, tree, target, radius, policy);
        ConceptContext::assemble(&labels, &sphere, None, |node| {
            (Cow::Owned(labels.candidates(node).clone()), None)
        })
    }
}

impl<'t> ConceptContext<'t> {
    /// [`ConceptContext::build_with_policy`] within one document's scope,
    /// over the target's already assembled `sphere`: sense lists are lent
    /// by `labels` instead of resolved per sphere node, and entry evidence
    /// is memoized in `memo`.
    pub(crate) fn build_in(
        labels: &'t LabelTable<'t>,
        memo: &'t EvidenceMemo,
        sphere: &SphereScratch,
    ) -> Self {
        Self::assemble(labels, sphere, Some(memo), |node| {
            (
                Cow::Borrowed(labels.candidates(node)),
                Some(labels.label_id(node)),
            )
        })
    }

    /// One entry per context node of `sphere` whose label has senses,
    /// weighted by its label's slot of the assembled `V_d(x)`.
    fn assemble(
        labels: &LabelTable,
        sphere: &SphereScratch,
        memo: Option<&'t EvidenceMemo>,
        mut resolve: impl FnMut(NodeId) -> (Cow<'t, SenseCandidates>, Option<LabelId>),
    ) -> Self {
        // |S_d(x)| of Definition 8 counts the center (Definition 5's ring
        // R_0 = {x}) plus all context nodes — the same convention the
        // context vectors pin with Figure 7's V_1. Counting only the
        // context nodes here (the pre-PR 5 behavior) inflated every score
        // by (n+1)/n relative to the definitions.
        let cardinality = sphere.sphere().len() + 1;
        let mut entries = Vec::with_capacity(sphere.sphere().len());
        for &(node, _) in sphere.sphere() {
            let (senses, label) = resolve(node);
            if *senses != SenseCandidates::Unknown {
                entries.push(ContextEntry {
                    weight: sphere.weight(labels.dimension(node)),
                    senses,
                    slot: memo.zip(label).map(|(memo, label)| memo.slot(label)),
                });
            }
        }
        Self {
            entries,
            cardinality,
            memo,
        }
    }

    /// Number of context nodes that contributed sense entries.
    pub fn informative_nodes(&self) -> usize {
        self.entries.len()
    }

    /// `|S_d(x)|` of Definition 8: context nodes plus the center, always
    /// ≥ 1 (the denominator of every concept score in this context).
    pub fn cardinality(&self) -> usize {
        self.cardinality
    }

    /// Right-to-left running weight sums for bounded scoring: element `i`
    /// is the total context-vector weight of entries `i..`, so
    /// `suffix[i + 1]` bounds what entries after `i` can still contribute
    /// (every per-entry max similarity is ≤ 1). Length
    /// `informative_nodes() + 1`; the last element is 0. Computed once per
    /// target and shared across all its candidates.
    pub fn suffix_weight_sums(&self) -> Vec<f64> {
        let mut suffix = vec![0.0; self.entries.len() + 1];
        for i in (0..self.entries.len()).rev() {
            suffix[i] = suffix[i + 1] + self.entries[i].weight;
        }
        suffix
    }

    /// `Concept_Score` of Definition 8 for a single candidate, or of
    /// Equation 10 for a compound target's sense pair (each context
    /// comparison averages the similarities of the two target token
    /// senses).
    ///
    /// With a `bound` ([`crate::prune`]), after each entry the
    /// running upper bound `min(1, (partial + suffix[i + 1]) / |S_d(x)|)`
    /// on the final score is offered to the abandonment test; `true` stops
    /// the candidate with `None`. The bound is never offered after the
    /// last entry (at that point the score is already fully computed, so
    /// abandoning would save nothing and miscount pruning work). Without a
    /// bound the result is always `Some`. Survivors are **bit-identical**
    /// to unbounded scores: both run the same left-to-right
    /// `total += evidence · w_i` and the same final `clamp(total /
    /// |S_d(x)|)`, and memoized evidence is the same f64 the entry would
    /// recompute.
    pub fn score<C: SimilarityCache>(
        &self,
        sn: &SemanticNetwork,
        sim: &CombinedSimilarity<C>,
        target: SenseChoice,
        mut bound: Option<Bound<'_>>,
    ) -> Option<f64> {
        if let Some((suffix, _)) = &bound {
            debug_assert_eq!(suffix.len(), self.entries.len() + 1);
        }
        let mut memo_row = self.memo.map(|memo| memo.row(target));
        let mut total = 0.0f64;
        for (i, e) in self.entries.iter().enumerate() {
            let evidence = match (memo_row.as_deref_mut(), e.slot) {
                (Some(row), Some(slot)) => {
                    *row[slot].get_or_insert_with(|| entry_evidence(sn, sim, &e.senses, target))
                }
                _ => entry_evidence(sn, sim, &e.senses, target),
            };
            total += evidence * e.weight;
            if let Some((suffix, abandon)) = bound.as_mut() {
                if i + 1 < self.entries.len() {
                    let ub = ((total + suffix[i + 1]) / self.cardinality as f64).min(1.0);
                    if abandon(ub) {
                        return None;
                    }
                }
            }
        }
        Some((total / self.cardinality as f64).clamp(0.0, 1.0))
    }

    /// `Concept_Score(s_p, S_d(x), S̄N)` of Definition 8: [`Self::score`]
    /// of one candidate, unbounded.
    pub fn score_single<C: SimilarityCache>(
        &self,
        sn: &SemanticNetwork,
        sim: &CombinedSimilarity<C>,
        candidate: ConceptId,
    ) -> f64 {
        self.score(sn, sim, SenseChoice::Single(candidate), None)
            // invariant: without a bound nothing can abandon the candidate
            .expect("unbounded scoring always completes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::senses::{disambiguation_candidates, LingTokenizer};
    use crate::sphere::xml_context_vector;
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
    fn figure1_cast_resolves_to_actors() {
        // "cast" surrounded by picture/star/kelly/stewart must prefer
        // cast-the-actors over cast-the-mold/throw/plaster.
        let t = tree(
            "<films><picture><cast><star>Stewart</star><star>Kelly</star></cast><plot/></picture></films>",
        );
        let sn = mini_wordnet();
        let cast = find(&t, "cast");
        let ctx = ConceptContext::build(sn, &t, cast, 2);
        let sim = CombinedSimilarity::default();
        let actors = ctx.score_single(sn, &sim, id("cast.actors"));
        for other in ["cast.mold", "cast.throw", "cast.plaster", "cast.appearance"] {
            let score = ctx.score_single(sn, &sim, id(other));
            assert!(actors > score, "cast.actors {actors} <= {other} {score}");
        }
    }

    #[test]
    fn figure1_kelly_resolves_to_grace() {
        // Section 1: "looking at its context in the document, a human user
        // can tell that Kelly here refers to Grace Kelly."
        let t = tree(
            "<films><picture title=\"Rear Window\"><director>Hitchcock</director><cast><star>Stewart</star><star>Kelly</star></cast></picture></films>",
        );
        let sn = mini_wordnet();
        let kelly = t
            .preorder()
            .find(|&n| t.label(n) == "kelly")
            .expect("kelly token node");
        let ctx = ConceptContext::build(sn, &t, kelly, 2);
        let sim = CombinedSimilarity::default();
        let grace = ctx.score_single(sn, &sim, id("kelly.grace"));
        let gene = ctx.score_single(sn, &sim, id("kelly.gene"));
        let emmett = ctx.score_single(sn, &sim, id("kelly.emmett"));
        assert!(grace >= gene, "{grace} < {gene}");
        assert!(grace > emmett, "{grace} <= {emmett}");
    }

    #[test]
    fn scores_bounded() {
        let t = tree("<movies><movie><genre>mystery</genre><star>Kelly</star></movie></movies>");
        let sn = mini_wordnet();
        let sim = CombinedSimilarity::default();
        for node in t.preorder() {
            if let SenseCandidates::Single(senses) =
                disambiguation_candidates(sn, t.label(node), t.node(node).kind)
            {
                let ctx = ConceptContext::build(sn, &t, node, 2);
                for s in senses {
                    let score = ctx.score_single(sn, &sim, s);
                    assert!((0.0..=1.0).contains(&score));
                }
            }
        }
    }

    #[test]
    fn empty_context_scores_zero() {
        let t = tree("<star/>");
        let sn = mini_wordnet();
        let ctx = ConceptContext::build(sn, &t, t.root(), 2);
        let sim = CombinedSimilarity::default();
        assert_eq!(ctx.score_single(sn, &sim, id("star.performer")), 0.0);
    }

    #[test]
    fn pair_score_averages_token_evidence() {
        // Compound target "star picture" in a movie context: the pair
        // (performer, movie) should beat (celestial, mental-image).
        let t = tree("<films><star_picture/><cast/><actor/></films>");
        let sn = mini_wordnet();
        let target = find(&t, "star picture");
        let ctx = ConceptContext::build(sn, &t, target, 2);
        let sim = CombinedSimilarity::default();
        let pair = |a: &str, b: &str| {
            ctx.score(sn, &sim, SenseChoice::Pair(id(a), id(b)), None)
                .unwrap()
        };
        let coherent = pair("star.performer", "film.movie");
        let incoherent = pair("star.celestial", "picture.mental");
        assert!(coherent > incoherent, "{coherent} <= {incoherent}");
    }

    #[test]
    fn definition8_denominator_counts_the_center() {
        // Regression for the |S_d(x)| convention fix: Definition 8 divides
        // by the sphere cardinality, and per Definition 5 the sphere
        // includes ring R_0 = {x} — the same center-inclusive convention
        // the context vectors pin with Figure 7's V_1. With a single
        // context node the denominator is therefore 2, not 1.
        let t = tree("<cast><star/></cast>");
        let sn = mini_wordnet();
        let cast = t.root();
        let ctx = ConceptContext::build(sn, &t, cast, 1);
        let sim = CombinedSimilarity::default();
        let candidate = id("cast.actors");
        // Reproduce the numerator by hand: one entry ("star"), whose best
        // sense similarity is maxed over star's senses, weighted by the
        // context vector's "star" coordinate.
        let vector = xml_context_vector(sn, &t, cast, 1);
        let star_weight = vector.get("star");
        assert!(star_weight > 0.0);
        let best: f64 = sn
            .senses("star")
            .iter()
            .map(|&s| sim.similarity(sn, candidate, s))
            .fold(0.0, f64::max);
        let expected = (best * star_weight) / 2.0;
        let got = ctx.score_single(sn, &sim, candidate);
        assert!(
            (got - expected).abs() < 1e-12,
            "Definition 8 denominator must be |S_1(cast)| = 2: got {got}, expected {expected}"
        );
    }

    #[test]
    fn bounded_scoring_matches_unbounded_when_never_abandoning() {
        let t = tree(
            "<films><picture><cast><star>Stewart</star><star>Kelly</star></cast><plot/></picture></films>",
        );
        let sn = mini_wordnet();
        let cast = find(&t, "cast");
        let ctx = ConceptContext::build(sn, &t, cast, 2);
        let sim = CombinedSimilarity::default();
        let suffix = ctx.suffix_weight_sums();
        assert_eq!(suffix.len(), ctx.informative_nodes() + 1);
        assert_eq!(*suffix.last().unwrap(), 0.0);
        for key in ["cast.actors", "cast.mold", "cast.throw"] {
            let plain = ctx.score_single(sn, &sim, id(key));
            let bounded = ctx
                .score(
                    sn,
                    &sim,
                    SenseChoice::Single(id(key)),
                    Some((&suffix, &mut |_| false)),
                )
                .unwrap();
            // Bit-identical, not just approximately equal: the bounded
            // path must reuse the exact summation of the unbounded one.
            assert_eq!(plain.to_bits(), bounded.to_bits(), "{key}");
        }
    }

    #[test]
    fn bounded_pair_scoring_matches_unbounded() {
        let t = tree("<films><star_picture/><cast/><actor/></films>");
        let sn = mini_wordnet();
        let target = find(&t, "star picture");
        let ctx = ConceptContext::build(sn, &t, target, 2);
        let sim = CombinedSimilarity::default();
        let suffix = ctx.suffix_weight_sums();
        let target = SenseChoice::Pair(id("star.performer"), id("film.movie"));
        let plain = ctx.score(sn, &sim, target, None).unwrap();
        let bounded = ctx
            .score(sn, &sim, target, Some((&suffix, &mut |_| false)))
            .unwrap();
        assert_eq!(plain.to_bits(), bounded.to_bits());
    }

    #[test]
    fn bounds_are_sound_and_abandonment_fires() {
        let t = tree(
            "<films><picture><cast><star>Stewart</star><star>Kelly</star></cast><plot/></picture></films>",
        );
        let sn = mini_wordnet();
        let cast = find(&t, "cast");
        let ctx = ConceptContext::build(sn, &t, cast, 2);
        let sim = CombinedSimilarity::default();
        let suffix = ctx.suffix_weight_sums();
        let candidate = id("cast.actors");
        let score = ctx.score_single(sn, &sim, candidate);
        // Every running bound offered to the closure must dominate the
        // final score (soundness of the branch-and-bound invariant).
        let mut bounds = Vec::new();
        let mut record = |b: f64| {
            bounds.push(b);
            false
        };
        let result = ctx.score(
            sn,
            &sim,
            SenseChoice::Single(candidate),
            Some((&suffix, &mut record)),
        );
        assert_eq!(result.unwrap().to_bits(), score.to_bits());
        assert!(!bounds.is_empty());
        for b in &bounds {
            assert!(*b >= score, "bound {b} < final score {score}");
            assert!(*b <= (suffix[0] / ctx.cardinality() as f64).min(1.0) + 1e-12);
        }
        // An always-abandon closure stops on the first bound.
        let mut calls = 0;
        let mut abandon = |_: f64| {
            calls += 1;
            true
        };
        let pruned = ctx.score(
            sn,
            &sim,
            SenseChoice::Single(candidate),
            Some((&suffix, &mut abandon)),
        );
        assert_eq!(pruned, None);
        assert_eq!(calls, 1);
    }

    #[test]
    fn document_scope_scores_are_bit_identical_to_standalone_contexts() {
        // Lent sense lists and memoized evidence must reproduce a
        // standalone context's scores exactly, on a cold memo (first pass)
        // and a warm one (second pass), for single and pair targets.
        let t = tree(
            "<films><picture title=\"Rear Window\"><cast><star>Stewart</star><star>Kelly</star></cast><star_picture/><plot>spies</plot></picture></films>",
        );
        let sn = mini_wordnet();
        let sim = CombinedSimilarity::default();
        let labels = LabelTable::new(sn, &t);
        let memo = EvidenceMemo::new(labels.len());
        let mut sphere = SphereScratch::new(&labels);
        let mut pairs = 0;
        for _pass in 0..2 {
            for node in t.preorder() {
                let standalone = ConceptContext::build(sn, &t, node, 2);
                sphere.assemble(&labels, &t, node, 2, DistancePolicy::EdgeCount);
                let scoped = ConceptContext::build_in(&labels, &memo, &sphere);
                let targets: Vec<SenseChoice> = match labels.candidates(node) {
                    SenseCandidates::Unknown => Vec::new(),
                    SenseCandidates::Single(senses) => {
                        senses.iter().map(|&c| SenseChoice::Single(c)).collect()
                    }
                    SenseCandidates::Compound { first, second } => first
                        .iter()
                        .flat_map(|&a| second.iter().map(move |&b| SenseChoice::Pair(a, b)))
                        .collect(),
                };
                for target in targets {
                    pairs += usize::from(matches!(target, SenseChoice::Pair(..)));
                    let a = standalone.score(sn, &sim, target, None).unwrap();
                    let b = scoped.score(sn, &sim, target, None).unwrap();
                    assert_eq!(a.to_bits(), b.to_bits(), "{}: {target:?}", t.label(node));
                }
            }
        }
        assert!(pairs > 0, "the compound target must be scored");
    }

    #[test]
    fn unknown_tags_add_no_memo_slots() {
        // A document of known words, then the same document with 2,000
        // distinct unknown sibling tags: the unknown tags are labels of
        // the document but never context entries, so the memo's rows must
        // not grow with them.
        let sn = mini_wordnet();
        let sim = CombinedSimilarity::default();
        let unknown_tag = |i: usize| {
            let letters: String = [i / 676, i / 26 % 26, i % 26]
                .iter()
                .map(|&d| char::from(b'a' + d as u8))
                .collect();
            format!("<qz{letters}/>")
        };
        let memo_of = |unknown: usize| {
            let tags: String = (0..unknown).map(unknown_tag).collect();
            let t = tree(&format!(
                "<films><picture><cast><star>Stewart</star><star>Kelly</star></cast>{tags}<plot/></picture></films>"
            ));
            let labels = LabelTable::new(sn, &t);
            let memo = EvidenceMemo::new(labels.len());
            let mut sphere = SphereScratch::new(&labels);
            let mut unknown_labels = 0;
            for node in t.preorder() {
                let candidates = labels.candidates(node);
                if *candidates == SenseCandidates::Unknown {
                    unknown_labels += usize::from(t.label(node).starts_with("qz"));
                    continue;
                }
                sphere.assemble(&labels, &t, node, 2, DistancePolicy::EdgeCount);
                let ctx = ConceptContext::build_in(&labels, &memo, &sphere);
                for (target, _) in candidates.choices() {
                    ctx.score(sn, &sim, target, None);
                }
            }
            (unknown_labels, memo.slot_count())
        };
        let (none, slots) = memo_of(0);
        assert_eq!(none, 0);
        assert!(slots > 0, "the known words must fill the memo");
        assert_eq!(memo_of(2000), (2000, slots));
    }

    #[test]
    fn richer_context_produces_nonzero_scores() {
        let t = tree("<cast><star>Kelly</star></cast>");
        let sn = mini_wordnet();
        let ctx = ConceptContext::build(sn, &t, t.root(), 2);
        assert!(ctx.informative_nodes() >= 2);
        let sim = CombinedSimilarity::default();
        assert!(ctx.score_single(sn, &sim, id("cast.actors")) > 0.0);
    }
}
