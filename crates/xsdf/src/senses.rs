//! Sense-candidate resolution: mapping processed node labels to candidate
//! concepts in the semantic network, and the linguistically aware tokenizer
//! that builds XML trees with pre-processed labels (Section 3.2).

use std::cell::OnceCell;
use std::collections::HashMap;

use lingproc::{porter_stem, LabelKind, Preprocessor};
use semnet::{ConceptId, SemanticNetwork};
use xmltree::tree::ValueTokenizer;
use xmltree::{NodeId, NodeKind, XmlTree};

use crate::pipeline::SenseChoice;
use crate::sphere::label_dimension;

/// The candidate senses of one node label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SenseCandidates {
    /// The label is unknown to the semantic network: nothing to do.
    Unknown,
    /// A single word (or a compound that matched one concept): candidates
    /// are the senses of that expression.
    Single(Vec<ConceptId>),
    /// An unmatched compound `t1 t2`: one sense pair `(s_p, s_q)` must be
    /// chosen (the special cases of Definitions 8 and 10).
    Compound {
        /// Senses of the first token.
        first: Vec<ConceptId>,
        /// Senses of the second token.
        second: Vec<ConceptId>,
    },
}

impl SenseCandidates {
    /// Number of alternative readings (sense count, or the product of the
    /// two token sense counts for compounds — every combination is one
    /// candidate).
    pub fn candidate_count(&self) -> usize {
        match self {
            Self::Unknown => 0,
            Self::Single(senses) => senses.len(),
            Self::Compound { first, second } => first.len().max(1) * second.len().max(1),
        }
    }

    /// The polysemy figure the ambiguity measure uses: for compounds the
    /// measure averages the two tokens' degrees, so this returns the pair.
    pub fn polysemy(&self) -> (usize, Option<usize>) {
        match self {
            Self::Unknown => (0, None),
            Self::Single(senses) => (senses.len(), None),
            Self::Compound { first, second } => (first.len(), Some(second.len())),
        }
    }

    /// Every candidate in scoring order, with its cost in sense-pair
    /// budget units: a sense costs one, a compound pair two (it scores
    /// both token senses against the context, per Equation 10). A
    /// compound with one token unknown to the lexicon falls back to the
    /// other token's senses, one unit each.
    pub fn choices(&self) -> impl Iterator<Item = (SenseChoice, u64)> + '_ {
        // Single senses, then the two sides of a pair product.
        let (singles, first, second): (&[ConceptId], &[ConceptId], &[ConceptId]) = match self {
            Self::Unknown => (&[], &[], &[]),
            Self::Single(senses) => (senses, &[], &[]),
            Self::Compound { first, second } if first.is_empty() => (second, &[], &[]),
            Self::Compound { first, second } if second.is_empty() => (first, &[], &[]),
            Self::Compound { first, second } => (&[], first, second),
        };
        let pairs = first
            .iter()
            .flat_map(move |&a| second.iter().map(move |&b| (SenseChoice::Pair(a, b), 2)));
        singles
            .iter()
            .map(|&s| (SenseChoice::Single(s), 1))
            .chain(pairs)
    }
}

/// Resolves the candidate senses of a processed tree-node label.
///
/// Labels come out of [`LingTokenizer`] in one of two shapes: a single
/// token (possibly a multi-word expression such as `first name` that
/// matched one concept) or two space-separated tokens that did not match a
/// single concept.
pub fn candidates_for_label(sn: &SemanticNetwork, label: &str) -> SenseCandidates {
    let direct = sn.senses_normalized(label, porter_stem);
    if !direct.is_empty() {
        return SenseCandidates::Single(direct.to_vec());
    }
    // Two-token compound that has no single-concept match.
    if let Some((a, b)) = label.split_once(' ') {
        if label.matches(' ').count() == 1 {
            let first = sn.senses_normalized(a, porter_stem).to_vec();
            let second = sn.senses_normalized(b, porter_stem).to_vec();
            if first.is_empty() && second.is_empty() {
                return SenseCandidates::Unknown;
            }
            return SenseCandidates::Compound { first, second };
        }
    }
    SenseCandidates::Unknown
}

/// Candidate senses for *disambiguation* of a node of the given kind.
///
/// XML element and attribute tag names are nominal phrases, so their
/// candidates are restricted to noun (and named-instance) senses when any
/// exist, falling back to the full sense list otherwise. Value tokens —
/// free text — keep every part of speech. The *ambiguity degree* of
/// Definition 3, in contrast, always counts all senses (Proposition 1
/// measures raw lexical polysemy), which is why this filter lives apart
/// from [`candidates_for_label`].
pub fn disambiguation_candidates(
    sn: &SemanticNetwork,
    label: &str,
    kind: NodeKind,
) -> SenseCandidates {
    let all = candidates_for_label(sn, label);
    if kind == NodeKind::ValueToken {
        return all;
    }
    let keep_nouns = |senses: Vec<ConceptId>| -> Vec<ConceptId> {
        let nouns: Vec<ConceptId> = senses
            .iter()
            .copied()
            .filter(|&c| sn.concept(c).pos == semnet::PartOfSpeech::Noun)
            .collect();
        if nouns.is_empty() {
            senses
        } else {
            nouns
        }
    };
    match all {
        SenseCandidates::Unknown => SenseCandidates::Unknown,
        SenseCandidates::Single(senses) => SenseCandidates::Single(keep_nouns(senses)),
        SenseCandidates::Compound { first, second } => SenseCandidates::Compound {
            first: keep_nouns(first),
            second: keep_nouns(second),
        },
    }
}

/// Index of a distinct `(label, node kind)` in a [`LabelTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct LabelId(u32);

impl LabelId {
    /// The id as an index into per-label tables.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// One document's label table: [`disambiguation_candidates`] resolved
/// once per distinct `(label, node kind)`, on first use, and lent by
/// reference to target candidates and concept-context entries. Building
/// it hashes each node's label once.
///
/// It also numbers the document's distinct label *strings* in string
/// order: a label's *dimension*, shared by every kind of node carrying
/// it, indexes the per-document context-vector weights
/// ([`crate::sphere`]), and its lemma-space key (built on first use, by
/// the context process only) is the label's dimension in a
/// [`semsim::SparseVector`].
pub(crate) struct LabelTable<'t> {
    sn: &'t SemanticNetwork,
    tree: &'t XmlTree,
    /// Label id of every node, by preorder index.
    node_labels: Vec<LabelId>,
    /// Per label id: the first node carrying it, and its candidates once
    /// resolved.
    labels: Vec<(NodeId, OnceCell<SenseCandidates>)>,
    /// Per label id: the dimension of its label string.
    dimensions: Vec<u32>,
    /// Per dimension: the label string, in string order.
    texts: Vec<&'t str>,
    /// Per dimension: its [`label_dimension`] key.
    keys: OnceCell<Vec<u64>>,
}

impl<'t> LabelTable<'t> {
    /// Assigns every node of `tree` its label id, and every distinct label
    /// string its dimension.
    pub(crate) fn new(sn: &'t SemanticNetwork, tree: &'t XmlTree) -> Self {
        let mut ids: HashMap<(&str, NodeKind), LabelId> = HashMap::new();
        let mut labels = Vec::new();
        let node_labels = tree
            .preorder()
            .map(|node| {
                *ids.entry((tree.label(node), tree.node(node).kind))
                    .or_insert_with(|| {
                        labels.push((node, OnceCell::new()));
                        LabelId(labels.len() as u32 - 1)
                    })
            })
            .collect();
        let mut by_text: Vec<usize> = (0..labels.len()).collect();
        by_text.sort_unstable_by_key(|&id| tree.label(labels[id].0));
        let mut dimensions = vec![0; labels.len()];
        let mut texts: Vec<&str> = Vec::new();
        for id in by_text {
            let text = tree.label(labels[id].0);
            if texts.last() != Some(&text) {
                texts.push(text);
            }
            dimensions[id] = texts.len() as u32 - 1;
        }
        Self {
            sn,
            tree,
            node_labels,
            labels,
            dimensions,
            texts,
            keys: OnceCell::new(),
        }
    }

    /// Number of distinct `(label, node kind)` pairs in the document.
    pub(crate) fn len(&self) -> usize {
        self.labels.len()
    }

    /// The label id of `node`.
    pub(crate) fn label_id(&self, node: NodeId) -> LabelId {
        self.node_labels[node.index()]
    }

    /// Number of distinct label strings in the document.
    pub(crate) fn dimensions(&self) -> usize {
        self.texts.len()
    }

    /// The dimension of `node`'s label string: its rank among the
    /// document's distinct labels in string order.
    pub(crate) fn dimension(&self, node: NodeId) -> u32 {
        self.dimensions[self.label_id(node).index()]
    }

    /// The label string of a dimension.
    pub(crate) fn text(&self, dimension: u32) -> &'t str {
        self.texts[dimension as usize]
    }

    /// Every dimension's [`label_dimension`] key, increasing with the
    /// dimension. Looks each label up in the network's lemma table once
    /// per document, building that table on first use.
    pub(crate) fn keys(&self) -> &[u64] {
        self.keys.get_or_init(|| {
            let lemmas = self.sn.lemma_table();
            (0..)
                .zip(&self.texts)
                .map(|(dimension, text)| label_dimension(lemmas, text, dimension))
                .collect()
        })
    }

    /// The disambiguation candidates of `node`'s label and kind.
    pub(crate) fn candidates(&self, node: NodeId) -> &SenseCandidates {
        let (first, resolved) = &self.labels[self.label_id(node).index()];
        resolved.get_or_init(|| {
            disambiguation_candidates(
                self.sn,
                self.tree.label(*first),
                self.tree.node(*first).kind,
            )
        })
    }
}

/// A [`ValueTokenizer`] backed by the linguistic pre-processing pipeline
/// and the semantic network's lexicon: tag names get compound handling and
/// conditional stemming; text values get tokenization, stop-word removal,
/// and conditional stemming.
pub struct LingTokenizer<'sn> {
    sn: &'sn SemanticNetwork,
    pre: Preprocessor,
}

impl<'sn> LingTokenizer<'sn> {
    /// A tokenizer resolving against `sn` with default pre-processing.
    pub fn new(sn: &'sn SemanticNetwork) -> Self {
        Self {
            sn,
            pre: Preprocessor::new(),
        }
    }

    /// Overrides the pre-processor settings.
    pub fn with_preprocessor(sn: &'sn SemanticNetwork, pre: Preprocessor) -> Self {
        Self { sn, pre }
    }
}

impl ValueTokenizer for LingTokenizer<'_> {
    fn tokenize_value(&self, text: &str) -> Vec<String> {
        let lexicon = |w: &str| self.sn.has_word(w);
        self.pre.process_text_value(text, &lexicon)
    }

    fn normalize_label(&self, name: &str) -> String {
        let lexicon = |w: &str| self.sn.has_word(w);
        match self.pre.process_tag_name(name, &lexicon) {
            Some(label) => label.display(),
            None => name.to_string(),
        }
    }
}

/// Re-derives the [`LabelKind`] of a processed label string (labels built
/// by [`LingTokenizer::normalize_label`] are single tokens, single
/// multi-word expressions known to the lexicon, or two-token compounds).
pub fn label_kind(sn: &SemanticNetwork, label: &str) -> LabelKind {
    if sn.has_word(label) || !label.contains(' ') {
        LabelKind::Single(label.to_string())
    } else {
        match label.split_once(' ') {
            Some((a, b)) => LabelKind::Compound(a.to_string(), b.to_string()),
            None => LabelKind::Single(label.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semnet::mini_wordnet;
    use xmltree::tree::TreeBuilder;

    #[test]
    fn single_word_candidates() {
        let sn = mini_wordnet();
        match candidates_for_label(sn, "star") {
            SenseCandidates::Single(senses) => assert!(senses.len() >= 5),
            other => panic!("expected Single, got {other:?}"),
        }
    }

    #[test]
    fn multiword_expression_is_single() {
        let sn = mini_wordnet();
        match candidates_for_label(sn, "first name") {
            SenseCandidates::Single(senses) => assert_eq!(senses.len(), 1),
            other => panic!("expected Single, got {other:?}"),
        }
    }

    #[test]
    fn unmatched_compound_splits() {
        let sn = mini_wordnet();
        match candidates_for_label(sn, "star picture") {
            SenseCandidates::Compound { first, second } => {
                assert!(!first.is_empty());
                assert!(!second.is_empty());
            }
            other => panic!("expected Compound, got {other:?}"),
        }
    }

    #[test]
    fn unknown_label() {
        let sn = mini_wordnet();
        assert_eq!(
            candidates_for_label(sn, "zorbleflux"),
            SenseCandidates::Unknown
        );
        assert_eq!(
            candidates_for_label(sn, "zorble flux"),
            SenseCandidates::Unknown
        );
    }

    #[test]
    fn candidate_counts() {
        let sn = mini_wordnet();
        let single = candidates_for_label(sn, "kelly");
        assert_eq!(single.candidate_count(), 3);
        let unknown = candidates_for_label(sn, "qqq");
        assert_eq!(unknown.candidate_count(), 0);
    }

    #[test]
    fn capitalized_and_plural_lookup() {
        let sn = mini_wordnet();
        // "Actors" resolves via lowercase + stemming.
        match candidates_for_label(sn, "Actors") {
            SenseCandidates::Single(senses) => assert!(!senses.is_empty()),
            other => panic!("expected Single, got {other:?}"),
        }
    }

    #[test]
    fn tokenizer_builds_preprocessed_tree() {
        let sn = mini_wordnet();
        let doc = xmltree::parse(
            r#"<movies><movie><directed_by>Alfred Hitchcock</directed_by>
               <FirstName>Grace</FirstName></movie></movies>"#,
        )
        .unwrap();
        let tree = TreeBuilder::with_tokenizer(LingTokenizer::new(sn))
            .build(&doc)
            .unwrap()
            .tree;
        let labels: Vec<_> = tree
            .preorder()
            .map(|id| tree.label(id).to_string())
            .collect();
        // directed_by → stop word "by" dropped, "directed" stemmed → "direct".
        assert!(labels.contains(&"direct".to_string()), "{labels:?}");
        // FirstName → the single concept "first name".
        assert!(labels.contains(&"first name".to_string()), "{labels:?}");
        // Text value "Alfred Hitchcock" tokenized into two leaf nodes.
        assert!(labels.contains(&"alfred".to_string()));
        assert!(labels.contains(&"hitchcock".to_string()));
    }

    #[test]
    fn tokenizer_drops_stop_words_in_values() {
        let sn = mini_wordnet();
        let doc = xmltree::parse("<plot>a photographer spies on his neighbors</plot>").unwrap();
        let tree = TreeBuilder::with_tokenizer(LingTokenizer::new(sn))
            .build(&doc)
            .unwrap()
            .tree;
        let labels: Vec<_> = tree
            .preorder()
            .map(|id| tree.label(id).to_string())
            .collect();
        assert!(!labels.contains(&"a".to_string()));
        assert!(!labels.contains(&"on".to_string()));
        assert!(labels.contains(&"photographer".to_string()));
        // "neighbors" → stem "neighbor" is in the lexicon.
        assert!(labels.contains(&"neighbor".to_string()));
    }

    #[test]
    fn label_kind_rederivation() {
        let sn = mini_wordnet();
        assert_eq!(label_kind(sn, "cast"), LabelKind::Single("cast".into()));
        assert_eq!(
            label_kind(sn, "first name"),
            LabelKind::Single("first name".into())
        );
        assert_eq!(
            label_kind(sn, "star picture"),
            LabelKind::Compound("star".into(), "picture".into())
        );
    }
}
