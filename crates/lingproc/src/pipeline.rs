//! The linguistic pre-processing pipeline of Section 3.2.
//!
//! A [`Preprocessor`] turns raw tag names and text values into node labels.
//! Because "found in the reference semantic network" drives both compound
//! handling and conditional stemming, the pipeline takes the lexicon as a
//! predicate closure rather than depending on the semantic-network crate:
//! `lexicon(word)` must return `true` iff the (lowercase, possibly
//! multi-word) expression has at least one sense.

use crate::stem::porter_stem;
use crate::stopwords::is_stop_word;
use crate::tokenize::{split_identifier, tokenize_text};

/// A processed node label, shaped by how it should be looked up in the
/// semantic network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelKind {
    /// A single token (or a compound that matched one concept, e.g.
    /// `first name`). Sense candidates come from one lookup.
    Single(String),
    /// A compound whose two tokens matched no single concept: they stay in
    /// one node label, and disambiguation assigns the best *pair* of senses
    /// (Equations 10 and 12 of the paper).
    Compound(String, String),
}

impl LabelKind {
    /// The display form used as the tree-node label and as a context-vector
    /// dimension: the single token, or the two tokens joined with a space.
    pub fn display(&self) -> String {
        match self {
            LabelKind::Single(t) => t.clone(),
            LabelKind::Compound(a, b) => format!("{a} {b}"),
        }
    }
}

/// WordNet-morphy-style inflection candidates for a noun token: the
/// detachment rules `-s`, `-es`, `-ies → -y` (applied before falling back
/// to the aggressive Porter stem, which over-stems forms like *movies* →
/// *movi*).
pub fn morphy_variants(token: &str) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(stripped) = token.strip_suffix("ies") {
        if !stripped.is_empty() {
            out.push(format!("{stripped}y"));
        }
    }
    if let Some(stripped) = token.strip_suffix("es") {
        if stripped.len() > 1 {
            out.push(stripped.to_string());
        }
    }
    if let Some(stripped) = token.strip_suffix('s') {
        if stripped.len() > 1 && !stripped.ends_with('s') {
            out.push(stripped.to_string());
        }
    }
    out
}

/// The three-phase pre-processor: tokenization, stop-word removal,
/// conditional stemming, plus the paper's compound-word policy.
#[derive(Debug, Clone)]
pub struct Preprocessor {
    /// Remove stop words from text values and multi-token tag names.
    pub remove_stop_words: bool,
    /// Stem words that are not found in the lexicon.
    pub stem_unknown: bool,
}

impl Default for Preprocessor {
    fn default() -> Self {
        Self {
            remove_stop_words: true,
            stem_unknown: true,
        }
    }
}

impl Preprocessor {
    /// A pre-processor with the paper's default behaviour.
    pub fn new() -> Self {
        Self::default()
    }

    /// Normalizes one token: keep it if the lexicon knows it, otherwise try
    /// WordNet-morphy-style plural stripping, then the Porter stem, and
    /// otherwise keep the original lowercase form.
    fn normalize_token(&self, token: &str, lexicon: &dyn Fn(&str) -> bool) -> String {
        if !self.stem_unknown || lexicon(token) {
            return token.to_string();
        }
        for variant in morphy_variants(token) {
            if lexicon(&variant) {
                return variant;
            }
        }
        let stemmed = porter_stem(token);
        if stemmed != token && lexicon(&stemmed) {
            stemmed
        } else {
            token.to_string()
        }
    }

    /// Processes an element/attribute tag name into a [`LabelKind`]
    /// (Section 3.2's three input cases).
    ///
    /// * single word → `Single`, stemmed only if unknown to the lexicon;
    /// * compound (`Directed_By`, `FirstName`): if the joined expression
    ///   (`directed by`) matches a single concept, it becomes one `Single`
    ///   token; otherwise stop words are removed and the (up to two)
    ///   remaining tokens form a `Compound` (or collapse to `Single` when
    ///   only one survives);
    /// * names with no alphabetic content yield `None`.
    pub fn process_tag_name(
        &self,
        name: &str,
        lexicon: &dyn Fn(&str) -> bool,
    ) -> Option<LabelKind> {
        let tokens = split_identifier(name);
        if tokens.is_empty() {
            return None;
        }
        if tokens.len() == 1 {
            return Some(LabelKind::Single(self.normalize_token(&tokens[0], lexicon)));
        }
        // Compound: try the whole expression as a single concept first.
        let joined = tokens.join(" ");
        if lexicon(&joined) {
            return Some(LabelKind::Single(joined));
        }
        // Otherwise: stop-word removal + conditional stemming, keeping at
        // most the first two content tokens in one label.
        let mut content: Vec<String> = tokens
            .iter()
            .filter(|t| !self.remove_stop_words || !is_stop_word(t))
            .map(|t| self.normalize_token(t, lexicon))
            .collect();
        if content.is_empty() {
            // All tokens were stop words: fall back to the raw tokens.
            content = tokens
                .iter()
                .map(|t| self.normalize_token(t, lexicon))
                .collect();
        }
        Some(if content.len() == 1 {
            LabelKind::Single(content.remove(0))
        } else {
            let b = content.swap_remove(1);
            let a = content.swap_remove(0);
            LabelKind::Compound(a, b)
        })
    }

    /// Processes an element/attribute text value into word tokens, applying
    /// tokenization, stop-word removal, and conditional stemming. Each
    /// returned token becomes one leaf node of the XML tree.
    pub fn process_text_value(&self, text: &str, lexicon: &dyn Fn(&str) -> bool) -> Vec<String> {
        tokenize_text(text)
            .into_iter()
            .filter(|t| !self.remove_stop_words || !is_stop_word(t))
            .map(|t| self.normalize_token(&t, lexicon))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy lexicon for the tests.
    fn lexicon(word: &str) -> bool {
        matches!(
            word,
            "cast"
                | "star"
                | "picture"
                | "first name"
                | "name"
                | "first"
                | "last"
                | "direct"
                | "director"
                | "kelly"
                | "stewart"
                | "photographer"
                | "neighbor"
                | "spy"
                | "movie"
                | "year"
        )
    }

    #[test]
    fn single_known_word_untouched() {
        let p = Preprocessor::new();
        let l = p.process_tag_name("cast", &lexicon).unwrap();
        assert_eq!(l, LabelKind::Single("cast".into()));
        assert_eq!(l.display(), "cast");
    }

    #[test]
    fn single_unknown_word_stemmed() {
        let p = Preprocessor::new();
        // "directed" is unknown, its stem "direct" is known.
        let l = p.process_tag_name("directed", &lexicon).unwrap();
        assert_eq!(l, LabelKind::Single("direct".into()));
    }

    #[test]
    fn unknown_even_after_stemming_kept() {
        let p = Preprocessor::new();
        let l = p.process_tag_name("zorble", &lexicon).unwrap();
        assert_eq!(l, LabelKind::Single("zorble".into()));
    }

    #[test]
    fn compound_matching_single_concept() {
        // "FirstName" → "first name" is one concept in the lexicon.
        let p = Preprocessor::new();
        let l = p.process_tag_name("FirstName", &lexicon).unwrap();
        assert_eq!(l, LabelKind::Single("first name".into()));
    }

    #[test]
    fn compound_with_stop_word_collapses() {
        // "Directed_By" → "directed by" is not a concept; "by" is a stop
        // word; "directed" stems to "direct".
        let p = Preprocessor::new();
        let l = p.process_tag_name("Directed_By", &lexicon).unwrap();
        assert_eq!(l, LabelKind::Single("direct".into()));
    }

    #[test]
    fn compound_without_single_match_stays_compound() {
        let p = Preprocessor::new();
        let l = p.process_tag_name("star_picture", &lexicon).unwrap();
        assert_eq!(l, LabelKind::Compound("star".into(), "picture".into()));
        assert_eq!(l.display(), "star picture");
    }

    #[test]
    fn three_token_name_keeps_first_two_content_tokens() {
        let p = Preprocessor::new();
        let l = p
            .process_tag_name("date_of_publication_year", &lexicon)
            .unwrap();
        match l {
            LabelKind::Compound(a, b) => {
                assert_eq!(a, "date");
                assert_eq!(b, "publication");
            }
            other => panic!("expected compound, got {other:?}"),
        }
    }

    #[test]
    fn all_stop_word_name_falls_back() {
        let p = Preprocessor::new();
        let l = p.process_tag_name("for_each", &lexicon).unwrap();
        // Both are stop words: fall back to raw tokens as a compound.
        assert_eq!(l, LabelKind::Compound("for".into(), "each".into()));
    }

    #[test]
    fn empty_name_yields_none() {
        let p = Preprocessor::new();
        assert!(p.process_tag_name("___", &lexicon).is_none());
    }

    #[test]
    fn text_value_full_pipeline() {
        let p = Preprocessor::new();
        let toks = p.process_text_value(
            "A wheelchair bound photographer spies on his neighbors",
            &lexicon,
        );
        // Stop words removed; "spies"→"spi" is not in lexicon so kept as-is?
        // Porter: spies→spi; spi unknown → keep "spies".
        assert!(toks.contains(&"photographer".to_string()));
        assert!(!toks.contains(&"a".to_string()));
        assert!(!toks.contains(&"on".to_string()));
        assert!(!toks.contains(&"his".to_string()));
        // "neighbors" stems to "neighbor" which is in the lexicon.
        assert!(toks.contains(&"neighbor".to_string()));
    }

    #[test]
    fn text_value_stemming_only_when_unknown() {
        let p = Preprocessor::new();
        // "cast" is known → untouched even though the stemmer would keep it.
        let toks = p.process_text_value("cast casting", &lexicon);
        assert_eq!(toks[0], "cast");
        // "casting" unknown → stem "cast" known → normalized.
        assert_eq!(toks[1], "cast");
    }

    #[test]
    fn stop_word_removal_can_be_disabled() {
        let p = Preprocessor {
            remove_stop_words: false,
            stem_unknown: true,
        };
        let toks = p.process_text_value("the cast", &lexicon);
        assert_eq!(toks, ["the", "cast"]);
    }

    #[test]
    fn stemming_can_be_disabled() {
        let p = Preprocessor {
            remove_stop_words: true,
            stem_unknown: false,
        };
        let l = p.process_tag_name("directed", &lexicon).unwrap();
        assert_eq!(l, LabelKind::Single("directed".into()));
    }

    #[test]
    fn proper_nouns_lowercased_for_lookup() {
        let p = Preprocessor::new();
        let toks = p.process_text_value("Grace Kelly", &lexicon);
        assert_eq!(toks, ["grace", "kelly"]);
    }
}
