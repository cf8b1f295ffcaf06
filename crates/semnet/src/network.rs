//! The [`SemanticNetwork`] container: concepts, typed edges, and the
//! word → senses index used for sense lookup (with stemming fallback).

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::artifacts::GlossArtifacts;
use crate::graph;
use crate::lemmas::LemmaTable;
use crate::model::{Concept, ConceptId, Edge, RelationKind};
use crate::tables::{token_occurrences, AncestorTable, ConceptLists, GlossOccurrences};

/// A semantic network `SN = (C, L, G, E, R, f, g)` (Definition 2), with
/// optional concept frequencies making it the weighted network `S̄N`.
///
/// Construct via [`crate::NetworkBuilder`] or load from the text
/// [`crate::format`].
#[derive(Debug, Clone)]
pub struct SemanticNetwork {
    pub(crate) concepts: Vec<Concept>,
    /// Outgoing typed edges per concept, parallel to `concepts`.
    pub(crate) adjacency: Vec<Vec<(RelationKind, ConceptId)>>,
    /// lemma (lowercase) → sense list, most frequent sense first.
    pub(crate) word_index: HashMap<String, Vec<ConceptId>>,
    /// key → concept.
    pub(crate) key_index: HashMap<String, ConceptId>,
    /// Minimal is-a depth of each concept (root concepts have depth 0);
    /// `u32::MAX` for concepts with no hypernym path to a root.
    pub(crate) depths: Vec<u32>,
    /// Cumulative frequency of each concept's subtree (own frequency plus
    /// all is-a descendants), for information-content measures.
    pub(crate) cumulative_freq: Vec<u64>,
    /// Sum of all concept frequencies (the corpus size proxy).
    pub(crate) total_freq: u64,
    /// Cached maximum polysemy over the word index.
    pub(crate) max_polysemy: usize,
    /// Lazily-built precomputation artifacts for the scoring hot path
    /// (interned gloss token sequences, neighbor sets). Built at most once
    /// per network; a pure function of `concepts` + `adjacency`, so clones
    /// carrying an already-built table stay consistent.
    pub(crate) artifacts: OnceLock<GlossArtifacts>,
    /// Lazily-built lemma table (context-vector dimensions), a pure
    /// function of `concepts`; never stored in snapshots.
    pub(crate) lemmas: OnceLock<LemmaTable>,
    /// Lazily-built ancestor lists (the taxonomy side of a scored pair), a
    /// pure function of `adjacency`; never stored in snapshots.
    pub(crate) ancestry: OnceLock<AncestorTable>,
    /// Lazily-built extended-gloss token occurrences (the gloss side of a
    /// scored pair), a pure function of `artifacts`; never stored in
    /// snapshots.
    pub(crate) occurrences: OnceLock<GlossOccurrences>,
}

impl SemanticNetwork {
    /// Number of concepts `|C|`.
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// `true` if the network holds no concepts.
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }

    /// Access a concept by id.
    pub fn concept(&self, id: ConceptId) -> &Concept {
        &self.concepts[id.index()]
    }

    /// Looks up a concept by its stable key.
    pub fn by_key(&self, key: &str) -> Option<ConceptId> {
        self.key_index.get(key).copied()
    }

    /// The senses of a word or multi-word expression (lowercase lookup),
    /// most frequent first. Empty slice for unknown words.
    pub fn senses(&self, word: &str) -> &[ConceptId] {
        self.word_index.get(word).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Sense lookup with normalization fallbacks: the word as given, its
    /// lowercase form, WordNet-morphy-style plural detachment, then
    /// `stem(word)` via the supplied stemmer.
    pub fn senses_normalized(&self, word: &str, stem: impl Fn(&str) -> String) -> &[ConceptId] {
        let direct = self.senses(word);
        if !direct.is_empty() {
            return direct;
        }
        let lower = word.to_lowercase();
        let lowered = self.senses(&lower);
        if !lowered.is_empty() {
            return lowered;
        }
        for variant in lingproc::pipeline::morphy_variants(&lower) {
            let senses = self.senses(&variant);
            if !senses.is_empty() {
                return senses;
            }
        }
        self.senses(&stem(&lower))
    }

    /// `true` if the word (or expression) has at least one sense — the
    /// lexicon predicate the pre-processing pipeline consumes.
    pub fn has_word(&self, word: &str) -> bool {
        !self.senses(word).is_empty()
    }

    /// The number of senses of a word; 0 for unknown words.
    pub fn polysemy(&self, word: &str) -> usize {
        self.senses(word).len()
    }

    /// `Max(senses(SN))`: the maximum polysemy of any word in the network
    /// (Proposition 1's normalizer; 33 in WordNet 2.1, for *head*).
    pub fn max_polysemy(&self) -> usize {
        self.max_polysemy
    }

    /// Outgoing typed edges of a concept.
    pub fn edges(&self, id: ConceptId) -> &[(RelationKind, ConceptId)] {
        &self.adjacency[id.index()]
    }

    /// Neighbors reachable through a specific relation kind.
    pub fn related(
        &self,
        id: ConceptId,
        kind: RelationKind,
    ) -> impl Iterator<Item = ConceptId> + '_ {
        self.adjacency[id.index()]
            .iter()
            .filter(move |(k, _)| *k == kind)
            .map(|&(_, c)| c)
    }

    /// Direct hypernyms (is-a parents, including instance-of).
    pub fn hypernyms(&self, id: ConceptId) -> impl Iterator<Item = ConceptId> + '_ {
        self.adjacency[id.index()]
            .iter()
            .filter(|(k, _)| k.is_upward())
            .map(|&(_, c)| c)
    }

    /// The minimal is-a depth of a concept (roots have depth 0).
    pub fn depth(&self, id: ConceptId) -> u32 {
        self.depths[id.index()]
    }

    /// The maximum finite taxonomy depth in the network.
    pub fn max_depth(&self) -> u32 {
        self.depths
            .iter()
            .copied()
            .filter(|&d| d != u32::MAX)
            .max()
            .unwrap_or(0)
    }

    /// Raw corpus frequency of a concept.
    pub fn frequency(&self, id: ConceptId) -> u32 {
        self.concepts[id.index()].frequency
    }

    /// Cumulative frequency (the concept plus all is-a descendants), the
    /// `p(c)` numerator of Resnik/Lin information content.
    pub fn cumulative_frequency(&self, id: ConceptId) -> u64 {
        self.cumulative_freq[id.index()]
    }

    /// Sum of all concept frequencies.
    pub fn total_frequency(&self) -> u64 {
        self.total_freq
    }

    /// Information content `IC(c) = -ln(p(c))` with
    /// `p(c) = (cum_freq(c) + 1) / (total + |C|)` (add-one smoothed so every
    /// concept has finite IC).
    pub fn information_content(&self, id: ConceptId) -> f64 {
        let p = (self.cumulative_frequency(id) as f64 + 1.0)
            / (self.total_freq as f64 + self.concepts.len() as f64);
        -p.ln()
    }

    /// Iterates over all concept ids.
    pub fn all_concepts(&self) -> impl Iterator<Item = ConceptId> {
        (0..self.concepts.len() as u32).map(ConceptId)
    }

    /// Iterates over all edges (each stored direction once).
    pub fn all_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.adjacency.iter().enumerate().flat_map(|(i, out)| {
            out.iter().map(move |&(kind, to)| Edge {
                from: ConceptId(i as u32),
                kind,
                to,
            })
        })
    }

    /// All distinct words in the index (diagnostics / tests).
    pub fn vocabulary_size(&self) -> usize {
        self.word_index.len()
    }

    /// The precomputed gloss/neighbor artifact table, built on first use
    /// and shared by every subsequent caller (including concurrent batch
    /// workers — `OnceLock` serializes the single build).
    pub fn gloss_artifacts(&self) -> &GlossArtifacts {
        self.artifacts.get_or_init(|| GlossArtifacts::build(self))
    }

    /// The lemma table (every distinct lemma with an id in string order),
    /// built on first use and shared by every subsequent caller.
    pub fn lemma_table(&self) -> &LemmaTable {
        self.lemmas.get_or_init(|| LemmaTable::build(self))
    }

    /// Every concept's [`graph::ancestors`] list, built on first use and
    /// shared by every subsequent caller.
    pub fn ancestor_table(&self) -> &AncestorTable {
        self.ancestry.get_or_init(|| {
            ConceptLists::from_lists(self.all_concepts().map(|c| graph::ancestors(self, c)))
        })
    }

    /// The [`token_occurrences`] of every concept's
    /// [`GlossArtifacts::extended_gloss`], built on first use and shared by
    /// every subsequent caller.
    pub fn gloss_occurrences(&self) -> &GlossOccurrences {
        self.occurrences.get_or_init(|| {
            let art = self.gloss_artifacts();
            let lists = self
                .all_concepts()
                .map(|c| token_occurrences(art.extended_gloss(c)));
            ConceptLists::from_lists(lists)
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::NetworkBuilder;
    use crate::model::{PartOfSpeech, RelationKind};

    fn toy() -> crate::SemanticNetwork {
        let mut b = NetworkBuilder::new();
        b.concept(
            "entity.n",
            &["entity"],
            "that which exists",
            100,
            PartOfSpeech::Noun,
        );
        b.concept(
            "person.n",
            &["person", "individual"],
            "a human being",
            80,
            PartOfSpeech::Noun,
        );
        b.concept(
            "actor.n",
            &["actor"],
            "a theatrical performer",
            10,
            PartOfSpeech::Noun,
        );
        b.concept(
            "star.performer",
            &["star"],
            "an actor who plays a principal role",
            5,
            PartOfSpeech::Noun,
        );
        b.concept(
            "star.celestial",
            &["star", "sun"],
            "a hot ball of gas",
            20,
            PartOfSpeech::Noun,
        );
        b.relate("person.n", RelationKind::Hypernym, "entity.n");
        b.relate("actor.n", RelationKind::Hypernym, "person.n");
        b.relate("star.performer", RelationKind::Hypernym, "actor.n");
        b.relate("star.celestial", RelationKind::Hypernym, "entity.n");
        b.build().unwrap()
    }

    #[test]
    fn sense_lookup_sorted_by_frequency() {
        let sn = toy();
        let senses = sn.senses("star");
        assert_eq!(senses.len(), 2);
        // celestial (freq 20) before performer (freq 5).
        assert_eq!(sn.concept(senses[0]).key, "star.celestial");
        assert_eq!(sn.concept(senses[1]).key, "star.performer");
    }

    #[test]
    fn synonym_lemmas_indexed() {
        let sn = toy();
        assert_eq!(sn.senses("sun").len(), 1);
        assert_eq!(sn.senses("individual").len(), 1);
        assert!(sn.senses("unknown-word").is_empty());
    }

    #[test]
    fn polysemy_and_max() {
        let sn = toy();
        assert_eq!(sn.polysemy("star"), 2);
        assert_eq!(sn.polysemy("actor"), 1);
        assert_eq!(sn.max_polysemy(), 2);
    }

    #[test]
    fn normalized_lookup_falls_back() {
        let sn = toy();
        // Capitalized form resolves via lowercase.
        assert_eq!(sn.senses_normalized("Star", |w| w.to_string()).len(), 2);
        // "actors" resolves via the stemming callback.
        let senses = sn.senses_normalized("actors", |w| w.trim_end_matches('s').to_string());
        assert_eq!(senses.len(), 1);
    }

    #[test]
    fn depths_follow_taxonomy() {
        let sn = toy();
        let entity = sn.by_key("entity.n").unwrap();
        let star = sn.by_key("star.performer").unwrap();
        assert_eq!(sn.depth(entity), 0);
        assert_eq!(sn.depth(star), 3);
        assert_eq!(sn.max_depth(), 3);
    }

    #[test]
    fn inverse_edges_inserted() {
        let sn = toy();
        let person = sn.by_key("person.n").unwrap();
        let actor = sn.by_key("actor.n").unwrap();
        let hyponyms: Vec<_> = sn.related(person, RelationKind::Hyponym).collect();
        assert!(hyponyms.contains(&actor));
    }

    #[test]
    fn cumulative_frequency_accumulates_up() {
        let sn = toy();
        let entity = sn.by_key("entity.n").unwrap();
        let person = sn.by_key("person.n").unwrap();
        // person subtree: person(80) + actor(10) + star.performer(5).
        assert_eq!(sn.cumulative_frequency(person), 95);
        // entity: everything = 100+80+10+5+20.
        assert_eq!(sn.cumulative_frequency(entity), 215);
        assert_eq!(sn.total_frequency(), 215);
    }

    #[test]
    fn information_content_decreases_up_the_taxonomy() {
        let sn = toy();
        let entity = sn.by_key("entity.n").unwrap();
        let star = sn.by_key("star.performer").unwrap();
        assert!(sn.information_content(star) > sn.information_content(entity));
    }

    #[test]
    fn has_word_predicate() {
        let sn = toy();
        assert!(sn.has_word("star"));
        assert!(!sn.has_word("xyzzy"));
    }
}
