//! Lazily-built per-network precomputation artifacts for the scoring hot
//! path.
//!
//! Knowledge-based disambiguation cost is dominated by per-concept
//! neighborhood and gloss construction: every gloss-overlap call
//! re-tokenizes and re-stems both extended glosses, and every sphere walk
//! re-reads the same adjacency lists. Those computations are pure functions
//! of the (immutable) network, so [`GlossArtifacts`] computes them exactly
//! once per network — an interned token vocabulary (`u32` ids),
//! per-concept pre-tokenized/pre-stemmed gloss and lemma token sequences,
//! the fully assembled extended-gloss sequence, a sorted token *set* for
//! cheap disjointness pre-checks, and sorted neighbor-id sets for
//! shared-neighbor intersection.
//!
//! The table hangs off [`SemanticNetwork::gloss_artifacts`] behind a
//! [`OnceLock`](std::sync::OnceLock), so serial callers pay the build
//! cost on first use and concurrent batch workers share one build.
//! Interning is order-stable (first occurrence wins), and every sequence
//! preserves the exact token order the string-based pipeline produced, so
//! id-space kernels reproduce string-space scores bit for bit.
//!
//! The gloss kernel reads two things from here: the token sets, whose
//! merge walk rules out a pair with no shared token before any phrase
//! matching, and the extended sequences. It matches phrases over each
//! sequence's `(token, position)` list sorted by token, which
//! [`SemanticNetwork::gloss_occurrences`] derives from `extended` on first
//! use. Those lists stay out of this table, and so out of snapshots: a
//! snapshot load installs the table as stored and derives nothing.

use std::collections::HashMap;

use lingproc::{is_stop_word, porter_stem, tokenize_text};

use crate::model::ConceptId;
use crate::network::SemanticNetwork;

/// Precomputed, interned gloss/lemma/neighbor tables for one network.
///
/// All per-concept accessors index by [`ConceptId`]; ids come from the same
/// network the artifacts were built for.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GlossArtifacts {
    /// Token id → token string (diagnostics; kernels never need the text).
    vocab: Vec<String>,
    /// Per concept: tokenized, stop-filtered, stemmed tokens of all lemmas,
    /// concatenated in lemma order.
    lemma_tokens: Vec<Vec<u32>>,
    /// Per concept: tokenized, stop-filtered, stemmed tokens of the
    /// concept's own gloss.
    gloss_tokens: Vec<Vec<u32>>,
    /// Per concept: the full extended-gloss sequence — lemma tokens, own
    /// gloss tokens, then each neighbor's gloss tokens in edge order
    /// (multi-edges repeat, mirroring the assembly the string kernel used).
    extended: Vec<Vec<u32>>,
    /// Per concept: sorted, deduplicated token ids of `extended` — the
    /// gloss kernel's disjointness pre-check set.
    token_sets: Vec<Vec<u32>>,
    /// Per concept: sorted, deduplicated neighbor concept ids (any relation
    /// kind).
    neighbors: Vec<Vec<ConceptId>>,
}

impl GlossArtifacts {
    /// Builds the full artifact table for a network. Called once per
    /// network via [`SemanticNetwork::gloss_artifacts`].
    pub(crate) fn build(sn: &SemanticNetwork) -> Self {
        let n = sn.len();
        let mut interner: HashMap<String, u32> = HashMap::new();
        let mut vocab: Vec<String> = Vec::new();
        let mut intern_text = |text: &str, out: &mut Vec<u32>| {
            for token in tokenize_text(text) {
                if is_stop_word(&token) {
                    continue;
                }
                let stemmed = porter_stem(&token);
                let next = vocab.len() as u32;
                let id = *interner.entry(stemmed.clone()).or_insert_with(|| {
                    vocab.push(stemmed);
                    next
                });
                out.push(id);
            }
        };

        let mut lemma_tokens = Vec::with_capacity(n);
        let mut gloss_tokens = Vec::with_capacity(n);
        for c in sn.all_concepts() {
            let concept = sn.concept(c);
            let mut lemmas = Vec::new();
            for lemma in &concept.lemmas {
                intern_text(lemma, &mut lemmas);
            }
            let mut gloss = Vec::new();
            intern_text(&concept.gloss, &mut gloss);
            lemma_tokens.push(lemmas);
            gloss_tokens.push(gloss);
        }

        let mut extended = Vec::with_capacity(n);
        let mut token_sets = Vec::with_capacity(n);
        let mut neighbors = Vec::with_capacity(n);
        for c in sn.all_concepts() {
            let i = c.index();
            let mut seq = Vec::with_capacity(lemma_tokens[i].len() + gloss_tokens[i].len());
            seq.extend_from_slice(&lemma_tokens[i]);
            seq.extend_from_slice(&gloss_tokens[i]);
            let mut around: Vec<ConceptId> = sn.edges(c).iter().map(|&(_, next)| next).collect();
            for &neighbor in &around {
                seq.extend_from_slice(&gloss_tokens[neighbor.index()]);
            }
            let mut set = seq.clone();
            set.sort_unstable();
            set.dedup();
            around.sort_unstable();
            around.dedup();
            extended.push(seq);
            token_sets.push(set);
            neighbors.push(around);
        }

        Self {
            vocab,
            lemma_tokens,
            gloss_tokens,
            extended,
            token_sets,
            neighbors,
        }
    }

    /// Reassembles a table from its stored parts (the snapshot loader).
    /// The caller guarantees the parts came from [`GlossArtifacts::build`]
    /// on the same network, so loaded tables are bit-identical to rebuilt
    /// ones by construction.
    pub(crate) fn from_parts(
        vocab: Vec<String>,
        lemma_tokens: Vec<Vec<u32>>,
        gloss_tokens: Vec<Vec<u32>>,
        extended: Vec<Vec<u32>>,
        token_sets: Vec<Vec<u32>>,
        neighbors: Vec<Vec<ConceptId>>,
    ) -> Self {
        Self {
            vocab,
            lemma_tokens,
            gloss_tokens,
            extended,
            token_sets,
            neighbors,
        }
    }

    /// Number of distinct interned tokens.
    pub fn vocab_len(&self) -> usize {
        self.vocab.len()
    }

    /// The text of an interned token (diagnostics).
    pub fn token(&self, id: u32) -> &str {
        &self.vocab[id as usize]
    }

    /// Stop-filtered, stemmed lemma tokens of a concept, in lemma order.
    pub fn lemma_tokens(&self, c: ConceptId) -> &[u32] {
        &self.lemma_tokens[c.index()]
    }

    /// Stop-filtered, stemmed tokens of a concept's own gloss.
    pub fn gloss_tokens(&self, c: ConceptId) -> &[u32] {
        &self.gloss_tokens[c.index()]
    }

    /// The precomputed extended-gloss token sequence of a concept (no
    /// neighbor exclusions): lemmas, own gloss, neighbor glosses in edge
    /// order.
    pub fn extended_gloss(&self, c: ConceptId) -> &[u32] {
        &self.extended[c.index()]
    }

    /// Assembles the extended-gloss sequence of `c` with the glosses of the
    /// `exclude`d neighbors (a **sorted** id slice) left out, appending into
    /// `out`. With an empty exclusion this reproduces
    /// [`GlossArtifacts::extended_gloss`] exactly.
    pub fn extended_gloss_excluding(
        &self,
        sn: &SemanticNetwork,
        c: ConceptId,
        exclude: &[ConceptId],
        out: &mut Vec<u32>,
    ) {
        out.extend_from_slice(&self.lemma_tokens[c.index()]);
        out.extend_from_slice(&self.gloss_tokens[c.index()]);
        for &(_, neighbor) in sn.edges(c) {
            if exclude.binary_search(&neighbor).is_err() {
                out.extend_from_slice(&self.gloss_tokens[neighbor.index()]);
            }
        }
    }

    /// Sorted, deduplicated token-id set of a concept's extended gloss.
    pub fn token_set(&self, c: ConceptId) -> &[u32] {
        &self.token_sets[c.index()]
    }

    /// `true` when the two concepts' extended glosses share at least one
    /// token (ignoring neighbor exclusions — a conservative superset
    /// check: `false` here guarantees a zero overlap score).
    pub fn token_sets_intersect(&self, a: ConceptId, b: ConceptId) -> bool {
        sorted_intersect(&self.token_sets[a.index()], &self.token_sets[b.index()])
    }

    /// Sorted, deduplicated neighbor ids of a concept (any relation kind).
    pub fn neighbors(&self, c: ConceptId) -> &[ConceptId] {
        &self.neighbors[c.index()]
    }

    /// The neighbors shared by both concepts, excluding the concepts
    /// themselves, as a sorted id list (the gloss measure's exclusion set).
    pub fn shared_neighbors(&self, a: ConceptId, b: ConceptId) -> Vec<ConceptId> {
        let (na, nb) = (&self.neighbors[a.index()], &self.neighbors[b.index()]);
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < na.len() && j < nb.len() {
            match na[i].cmp(&nb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if na[i] != a && na[i] != b {
                        out.push(na[i]);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }
}

/// Whether two sorted slices share any element (merge walk, no allocation).
fn sorted_intersect(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::mini_wordnet;

    fn reference_extended_tokens(
        sn: &SemanticNetwork,
        c: ConceptId,
        exclude: &[ConceptId],
    ) -> Vec<String> {
        // The historical string-based assembly: lemmas + gloss + neighbor
        // glosses in edge order, then stop-filter, then stem.
        let mut tokens = Vec::new();
        let concept = sn.concept(c);
        for lemma in &concept.lemmas {
            tokens.extend(tokenize_text(lemma));
        }
        tokens.extend(tokenize_text(&concept.gloss));
        for &(_, neighbor) in sn.edges(c) {
            if !exclude.contains(&neighbor) {
                tokens.extend(tokenize_text(&sn.concept(neighbor).gloss));
            }
        }
        tokens.retain(|t| !is_stop_word(t));
        tokens.iter_mut().for_each(|t| *t = porter_stem(t));
        tokens
    }

    #[test]
    fn extended_sequences_match_string_assembly() {
        let sn = mini_wordnet();
        let art = sn.gloss_artifacts();
        for c in sn.all_concepts().take(200) {
            let reference = reference_extended_tokens(sn, c, &[]);
            let ids: Vec<&str> = art
                .extended_gloss(c)
                .iter()
                .map(|&id| art.token(id))
                .collect();
            assert_eq!(ids, reference, "concept {c:?}");
        }
    }

    #[test]
    fn exclusion_assembly_matches_string_assembly() {
        let sn = mini_wordnet();
        let art = sn.gloss_artifacts();
        let star = sn.by_key("star.performer").unwrap();
        let mut exclude = art.neighbors(star).to_vec();
        exclude.truncate(2);
        let mut out = Vec::new();
        art.extended_gloss_excluding(sn, star, &exclude, &mut out);
        let reference = reference_extended_tokens(sn, star, &exclude);
        let ids: Vec<&str> = out.iter().map(|&id| art.token(id)).collect();
        assert_eq!(ids, reference);
    }

    #[test]
    fn token_sets_cover_sequences() {
        let sn = mini_wordnet();
        let art = sn.gloss_artifacts();
        for c in sn.all_concepts().take(100) {
            let set = art.token_set(c);
            assert!(set.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
            for id in art.extended_gloss(c) {
                assert!(set.binary_search(id).is_ok());
            }
        }
    }

    #[test]
    fn shared_neighbors_match_edge_scan() {
        let sn = mini_wordnet();
        let art = sn.gloss_artifacts();
        let a = sn.by_key("star.performer").unwrap();
        let b = sn.by_key("cast.actors").unwrap();
        let via_edges: std::collections::BTreeSet<ConceptId> = {
            let na: std::collections::HashSet<ConceptId> =
                sn.edges(a).iter().map(|&(_, c)| c).collect();
            sn.edges(b)
                .iter()
                .map(|&(_, c)| c)
                .filter(|c| na.contains(c) && *c != a && *c != b)
                .collect()
        };
        let shared = art.shared_neighbors(a, b);
        assert!(shared.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(
            shared
                .iter()
                .copied()
                .collect::<std::collections::BTreeSet<_>>(),
            via_edges
        );
    }

    #[test]
    fn interning_is_injective() {
        let sn = mini_wordnet();
        let art = sn.gloss_artifacts();
        let mut seen = std::collections::HashSet::new();
        for id in 0..art.vocab_len() as u32 {
            assert!(seen.insert(art.token(id).to_string()), "duplicate token");
        }
        assert!(art.vocab_len() > 0);
    }

    #[test]
    fn artifacts_are_built_once_and_shared() {
        let sn = mini_wordnet();
        let first = sn.gloss_artifacts() as *const GlossArtifacts;
        let second = sn.gloss_artifacts() as *const GlossArtifacts;
        assert_eq!(first, second);
    }
}
