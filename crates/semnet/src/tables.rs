//! Per-concept tables for the pair-scoring miss path, each one list per
//! concept in one flat array.
//!
//! Wu–Palmer, Lin and the extended gloss overlap read fixed functions of
//! the network for every sense pair they score: each concept's ancestors
//! with their minimal distances, and each extended gloss's token
//! positions. [`SemanticNetwork::ancestor_table`] and
//! [`SemanticNetwork::gloss_occurrences`] hold them, computed once per
//! network instead of once per scored pair, behind a
//! [`OnceLock`](std::sync::OnceLock) each, built on first use. Neither is
//! stored in snapshots: decoding a snapshot builds neither, and a network
//! that never scores a concept pair never pays for them.
//!
//! [`SemanticNetwork::ancestor_table`]: crate::SemanticNetwork::ancestor_table
//! [`SemanticNetwork::gloss_occurrences`]: crate::SemanticNetwork::gloss_occurrences

use crate::model::ConceptId;

/// One list per concept in one flat array: concept `c`'s list is
/// `items[offsets[c]..offsets[c + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConceptLists<T> {
    offsets: Vec<usize>,
    items: Vec<T>,
}

impl<T> ConceptLists<T> {
    /// Concatenates one list per concept, in concept order.
    pub(crate) fn from_lists<L: IntoIterator<Item = T>>(lists: impl Iterator<Item = L>) -> Self {
        let mut offsets = vec![0];
        let mut items = Vec::new();
        for list in lists {
            items.extend(list);
            offsets.push(items.len());
        }
        Self { offsets, items }
    }

    /// Concept `c`'s list.
    pub fn get(&self, c: ConceptId) -> &[T] {
        &self.items[self.offsets[c.index()]..self.offsets[c.index() + 1]]
    }
}

/// Every concept's [`crate::graph::ancestors`] list: the concept itself at
/// distance 0, then each is-a ancestor at its minimal distance, in
/// breadth-first order.
pub type AncestorTable = ConceptLists<(ConceptId, u32)>;

/// Every concept's extended-gloss [`token_occurrences`].
pub type GlossOccurrences = ConceptLists<(u32, u32)>;

/// The `(token, position)` pair of every token in `seq`, sorted by token
/// and then by position: merging two such lists by token yields every
/// pair of positions that hold equal tokens.
pub fn token_occurrences(seq: &[u32]) -> Vec<(u32, u32)> {
    let mut occurrences: Vec<(u32, u32)> = (0u32..).zip(seq).map(|(p, &t)| (t, p)).collect();
    occurrences.sort_unstable();
    occurrences
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::mini_wordnet;

    #[test]
    fn occurrences_sort_by_token_then_position() {
        assert_eq!(
            token_occurrences(&[7, 3, 7, 1, 3]),
            [(1, 3), (3, 1), (3, 4), (7, 0), (7, 2)]
        );
        assert!(token_occurrences(&[]).is_empty());
    }

    #[test]
    fn occurrence_table_holds_each_extended_gloss() {
        let sn = mini_wordnet();
        let occurrences = sn.gloss_occurrences();
        for c in sn.all_concepts() {
            let seq = sn.gloss_artifacts().extended_gloss(c);
            assert_eq!(occurrences.get(c), token_occurrences(seq));
        }
    }
}
