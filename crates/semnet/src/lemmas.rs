//! The network's lemma table: every distinct lemma with a dense id in
//! string order, and each concept's lemmas as ids.
//!
//! Context vectors (Definitions 6–7 and their semantic-network side) have
//! one dimension per label *string*. Interning lemmas in string order lets
//! a vector hold `(id, weight)` pairs sorted by id and still sum its terms
//! in the order a string-keyed map would. The table is a pure function of
//! the concepts' lemma lists; it hangs off
//! [`SemanticNetwork::lemma_table`] behind a
//! [`OnceLock`](std::sync::OnceLock), built on first use, and is neither
//! stored in snapshots nor built by callers that never compare vectors.

use crate::model::ConceptId;
use crate::network::SemanticNetwork;

/// Distinct lemmas in string order, and every concept's lemma ids.
#[derive(Debug, Clone)]
pub struct LemmaTable {
    /// Lemma id → lemma, sorted and distinct.
    lemmas: Vec<Box<str>>,
    /// Per concept: the ids of its lemmas, in the concept's lemma order.
    concept_lemmas: Vec<Vec<u32>>,
}

impl LemmaTable {
    /// Builds the table for a network. Called once per network via
    /// [`SemanticNetwork::lemma_table`].
    pub(crate) fn build(sn: &SemanticNetwork) -> Self {
        let mut lemmas: Vec<Box<str>> = sn
            .all_concepts()
            .flat_map(|c| sn.concept(c).lemmas.iter().map(|l| l.as_str().into()))
            .collect();
        lemmas.sort_unstable();
        lemmas.dedup();
        let mut table = Self {
            lemmas,
            concept_lemmas: Vec::with_capacity(sn.len()),
        };
        for c in sn.all_concepts() {
            let ids = sn.concept(c).lemmas.iter().map(|l| {
                table
                    .locate(l)
                    .expect("every concept lemma is in the table")
            });
            let ids = ids.collect();
            table.concept_lemmas.push(ids);
        }
        table
    }

    /// Number of distinct lemmas.
    pub fn len(&self) -> usize {
        self.lemmas.len()
    }

    /// `true` for a network without lemmas.
    pub fn is_empty(&self) -> bool {
        self.lemmas.is_empty()
    }

    /// The lemma with id `id`.
    pub fn lemma(&self, id: u32) -> &str {
        &self.lemmas[id as usize]
    }

    /// `Ok(id)` when `word` is a lemma; otherwise `Err(p)`, its insertion
    /// point: the number of lemmas that sort before it.
    pub fn locate(&self, word: &str) -> Result<u32, u32> {
        self.lemmas
            .binary_search_by(|lemma| (**lemma).cmp(word))
            .map(|id| id as u32)
            .map_err(|p| p as u32)
    }

    /// The lemma ids of concept `c`, in its lemma order (a repeated lemma
    /// repeats).
    pub fn concept_lemmas(&self, c: ConceptId) -> &[u32] {
        &self.concept_lemmas[c.index()]
    }
}

#[cfg(test)]
mod tests {
    use crate::builtin::mini_wordnet;

    #[test]
    fn ids_follow_string_order_and_cover_every_lemma() {
        let sn = mini_wordnet();
        let table = sn.lemma_table();
        assert!(!table.is_empty());
        for id in 1..table.len() as u32 {
            assert!(table.lemma(id - 1) < table.lemma(id));
        }
        for c in sn.all_concepts() {
            let words: Vec<&str> = table
                .concept_lemmas(c)
                .iter()
                .map(|&id| table.lemma(id))
                .collect();
            assert_eq!(words, sn.concept(c).lemmas, "{}", sn.concept(c).key);
        }
    }

    #[test]
    fn non_lemmas_locate_at_their_insertion_point() {
        let table = mini_wordnet().lemma_table();
        let star = table.locate("star").expect("star is a lemma");
        assert_eq!(table.lemma(star), "star");
        let p = table.locate("stara").unwrap_err();
        assert!(p > star);
        assert!(table.lemma(p - 1) < "stara");
        assert!(p as usize == table.len() || table.lemma(p) > "stara");
        assert_eq!(table.locate(""), Err(0));
        assert_eq!(table.locate("\u{10FFFF}"), Err(table.len() as u32));
    }
}
