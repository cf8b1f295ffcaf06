//! Programmatic construction of [`SemanticNetwork`]s with validation.

use std::collections::HashMap;

use crate::model::{Concept, ConceptId, PartOfSpeech, RelationKind};
use crate::network::SemanticNetwork;

/// Errors detected when finalizing a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A concept key was registered twice.
    DuplicateKey(String),
    /// A relation references a key that was never registered.
    UnknownKey(String),
    /// A concept has no lemmas.
    NoLemmas(String),
    /// The is-a graph contains a cycle through the named key.
    TaxonomyCycle(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DuplicateKey(k) => write!(f, "duplicate concept key {k:?}"),
            Self::UnknownKey(k) => write!(f, "relation references unknown key {k:?}"),
            Self::NoLemmas(k) => write!(f, "concept {k:?} has no lemmas"),
            Self::TaxonomyCycle(k) => write!(f, "is-a cycle through concept {k:?}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Incrementally assembles a [`SemanticNetwork`].
///
/// Edges are declared by key so concepts can be registered in any order.
/// Every edge automatically gains its inverse (e.g. declaring `isa` also
/// records `has-kind` on the target), so traversals may treat the network
/// as a symmetric graph of typed links.
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    concepts: Vec<Concept>,
    key_index: HashMap<String, ConceptId>,
    relations: Vec<(String, RelationKind, String)>,
    duplicate: Option<String>,
}

impl NetworkBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a concept. `lemmas` are lowercased; multi-word lemmas use
    /// single spaces.
    pub fn concept(
        &mut self,
        key: &str,
        lemmas: &[&str],
        gloss: &str,
        frequency: u32,
        pos: PartOfSpeech,
    ) -> &mut Self {
        if self.key_index.contains_key(key) {
            self.duplicate.get_or_insert_with(|| key.to_string());
            return self;
        }
        let id = ConceptId(self.concepts.len() as u32);
        self.key_index.insert(key.to_string(), id);
        self.concepts.push(Concept {
            key: key.to_string(),
            lemmas: lemmas.iter().map(|l| l.to_lowercase()).collect(),
            gloss: gloss.to_string(),
            frequency,
            pos,
        });
        self
    }

    /// Shorthand: a noun concept with an is-a parent — the dominant pattern
    /// when writing a knowledge base by hand.
    pub fn noun(
        &mut self,
        key: &str,
        lemmas: &[&str],
        gloss: &str,
        frequency: u32,
        parent: &str,
    ) -> &mut Self {
        self.concept(key, lemmas, gloss, frequency, PartOfSpeech::Noun);
        self.relate(key, RelationKind::Hypernym, parent)
    }

    /// Shorthand: a verb concept with an is-a parent.
    pub fn verb(
        &mut self,
        key: &str,
        lemmas: &[&str],
        gloss: &str,
        frequency: u32,
        parent: &str,
    ) -> &mut Self {
        self.concept(key, lemmas, gloss, frequency, PartOfSpeech::Verb);
        self.relate(key, RelationKind::Hypernym, parent)
    }

    /// Shorthand: an adjective concept (no taxonomy parent).
    pub fn adjective(
        &mut self,
        key: &str,
        lemmas: &[&str],
        gloss: &str,
        frequency: u32,
    ) -> &mut Self {
        self.concept(key, lemmas, gloss, frequency, PartOfSpeech::Adjective)
    }

    /// Shorthand: a named individual, `instance-of` its class.
    pub fn instance(
        &mut self,
        key: &str,
        lemmas: &[&str],
        gloss: &str,
        frequency: u32,
        class: &str,
    ) -> &mut Self {
        self.concept(key, lemmas, gloss, frequency, PartOfSpeech::Noun);
        self.relate(key, RelationKind::InstanceHypernym, class)
    }

    /// Declares a typed relation between two keys (inverse auto-inserted).
    pub fn relate(&mut self, from: &str, kind: RelationKind, to: &str) -> &mut Self {
        self.relations
            .push((from.to_string(), kind, to.to_string()));
        self
    }

    /// Number of concepts registered so far.
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// `true` if nothing was registered.
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }

    /// Validates and finalizes the network: resolves keys, inserts inverse
    /// edges, builds the word index (senses sorted by descending frequency),
    /// computes is-a depths, cumulative frequencies, and polysemy bounds.
    pub fn build(self) -> Result<SemanticNetwork, BuildError> {
        if let Some(dup) = self.duplicate {
            return Err(BuildError::DuplicateKey(dup));
        }
        for c in &self.concepts {
            if c.lemmas.is_empty() {
                return Err(BuildError::NoLemmas(c.key.clone()));
            }
        }
        let n = self.concepts.len();
        let mut adjacency: Vec<Vec<(RelationKind, ConceptId)>> = vec![Vec::new(); n];
        for (from, kind, to) in &self.relations {
            let &f = self
                .key_index
                .get(from)
                .ok_or_else(|| BuildError::UnknownKey(from.clone()))?;
            let &t = self
                .key_index
                .get(to)
                .ok_or_else(|| BuildError::UnknownKey(to.clone()))?;
            if !adjacency[f.index()].contains(&(*kind, t)) {
                adjacency[f.index()].push((*kind, t));
            }
            let inv = (kind.inverse(), f);
            if !adjacency[t.index()].contains(&inv) {
                adjacency[t.index()].push(inv);
            }
        }

        // Word index: lemma → senses, most frequent first (WordNet-style
        // first-sense ordering).
        let mut word_index: HashMap<String, Vec<ConceptId>> = HashMap::new();
        for (i, c) in self.concepts.iter().enumerate() {
            for lemma in &c.lemmas {
                word_index
                    .entry(lemma.clone())
                    .or_default()
                    .push(ConceptId(i as u32));
            }
        }
        for senses in word_index.values_mut() {
            senses.sort_by(|a, b| {
                self.concepts[b.index()]
                    .frequency
                    .cmp(&self.concepts[a.index()].frequency)
                    .then(a.cmp(b))
            });
        }
        let max_polysemy = word_index.values().map(Vec::len).max().unwrap_or(0);

        // Topological order over is-a edges (children before parents), used
        // for both depth computation and cumulative frequencies; also
        // detects taxonomy cycles.
        let order = taxonomy_topo_order(&self.concepts, &adjacency)?;

        // Depth: roots (no upward edge) are 0; otherwise 1 + min parent depth.
        // Process in reverse topological order (parents before children).
        let mut depths = vec![u32::MAX; n];
        for &id in order.iter().rev() {
            let ups: Vec<ConceptId> = adjacency[id.index()]
                .iter()
                .filter(|(k, _)| k.is_upward())
                .map(|&(_, c)| c)
                .collect();
            depths[id.index()] = if ups.is_empty() {
                0
            } else {
                ups.iter()
                    .map(|p| depths[p.index()].saturating_add(1))
                    .min()
                    .unwrap_or(u32::MAX)
            };
        }

        // Cumulative frequency: own + sum of is-a children, children first.
        // A concept with multiple hypernyms contributes to each parent (the
        // standard WordNet IC convention over a DAG may double-count; this
        // is acceptable and monotone, which is all Lin similarity needs).
        let mut cumulative = vec![0u64; n];
        for &id in &order {
            let mut sum = self.concepts[id.index()].frequency as u64;
            let downs: Vec<ConceptId> = adjacency[id.index()]
                .iter()
                .filter(|(k, _)| matches!(k, RelationKind::Hyponym | RelationKind::InstanceHyponym))
                .map(|&(_, c)| c)
                .collect();
            for d in downs {
                sum += cumulative[d.index()];
            }
            cumulative[id.index()] = sum;
        }

        let total_freq = self.concepts.iter().map(|c| c.frequency as u64).sum();

        Ok(SemanticNetwork {
            concepts: self.concepts,
            adjacency,
            word_index,
            key_index: self.key_index,
            depths,
            cumulative_freq: cumulative,
            total_freq,
            max_polysemy,
            artifacts: std::sync::OnceLock::new(),
            lemmas: std::sync::OnceLock::new(),
            ancestry: std::sync::OnceLock::new(),
            occurrences: std::sync::OnceLock::new(),
        })
    }
}

/// Topological order of concepts such that every concept appears *before*
/// its hypernyms (children first). Errors on is-a cycles.
fn taxonomy_topo_order(
    concepts: &[Concept],
    adjacency: &[Vec<(RelationKind, ConceptId)>],
) -> Result<Vec<ConceptId>, BuildError> {
    let n = concepts.len();
    let mut state = vec![0u8; n]; // 0 = unvisited, 1 = in progress, 2 = done
    let mut order = Vec::with_capacity(n);
    for start in 0..n {
        if state[start] != 0 {
            continue;
        }
        // Iterative DFS along upward edges.
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        state[start] = 1;
        while let Some(&mut (node, ref mut edge_idx)) = stack.last_mut() {
            let ups: Vec<usize> = adjacency[node]
                .iter()
                .filter(|(k, _)| k.is_upward())
                .map(|(_, c)| c.index())
                .collect();
            if *edge_idx < ups.len() {
                let next = ups[*edge_idx];
                *edge_idx += 1;
                match state[next] {
                    0 => {
                        state[next] = 1;
                        stack.push((next, 0));
                    }
                    1 => return Err(BuildError::TaxonomyCycle(concepts[next].key.clone())),
                    _ => {}
                }
            } else {
                state[node] = 2;
                stack.pop();
                order.push(ConceptId(node as u32));
            }
        }
    }
    // `order` currently lists parents before the children that reached them
    // (post-order over upward edges puts hypernyms first)… verify direction:
    // post-order emits a node after all its hypernyms, so parents come
    // first. We want children first for cumulative sums, so reverse.
    order.reverse();
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_key_rejected() {
        let mut b = NetworkBuilder::new();
        b.concept("a", &["a"], "", 1, PartOfSpeech::Noun);
        b.concept("a", &["a"], "", 1, PartOfSpeech::Noun);
        assert_eq!(b.build().unwrap_err(), BuildError::DuplicateKey("a".into()));
    }

    #[test]
    fn unknown_relation_target_rejected() {
        let mut b = NetworkBuilder::new();
        b.concept("a", &["a"], "", 1, PartOfSpeech::Noun);
        b.relate("a", RelationKind::Hypernym, "missing");
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::UnknownKey("missing".into())
        );
    }

    #[test]
    fn empty_lemmas_rejected() {
        let mut b = NetworkBuilder::new();
        b.concept("a", &[], "", 1, PartOfSpeech::Noun);
        assert_eq!(b.build().unwrap_err(), BuildError::NoLemmas("a".into()));
    }

    #[test]
    fn taxonomy_cycle_rejected() {
        let mut b = NetworkBuilder::new();
        b.concept("a", &["a"], "", 1, PartOfSpeech::Noun);
        b.concept("b", &["b"], "", 1, PartOfSpeech::Noun);
        b.relate("a", RelationKind::Hypernym, "b");
        b.relate("b", RelationKind::Hypernym, "a");
        assert!(matches!(b.build(), Err(BuildError::TaxonomyCycle(_))));
    }

    #[test]
    fn non_taxonomic_cycles_allowed() {
        // part-of cycles are odd but must not be rejected (only is-a counts).
        let mut b = NetworkBuilder::new();
        b.concept("a", &["a"], "", 1, PartOfSpeech::Noun);
        b.concept("b", &["b"], "", 1, PartOfSpeech::Noun);
        b.relate("a", RelationKind::PartOf, "b");
        b.relate("b", RelationKind::PartOf, "a");
        assert!(b.build().is_ok());
    }

    #[test]
    fn diamond_taxonomy_depth_is_min_path() {
        // a → b → d, a → c → d… depth(a) computed through the shorter path
        // when one exists.
        let mut b = NetworkBuilder::new();
        b.concept("root", &["root"], "", 1, PartOfSpeech::Noun);
        b.concept("mid", &["mid"], "", 1, PartOfSpeech::Noun);
        b.concept("leaf", &["leaf"], "", 1, PartOfSpeech::Noun);
        b.relate("mid", RelationKind::Hypernym, "root");
        b.relate("leaf", RelationKind::Hypernym, "mid");
        b.relate("leaf", RelationKind::Hypernym, "root"); // shortcut
        let sn = b.build().unwrap();
        assert_eq!(sn.depth(sn.by_key("leaf").unwrap()), 1);
    }

    #[test]
    fn lemmas_lowercased() {
        let mut b = NetworkBuilder::new();
        b.concept(
            "kelly.grace",
            &["Kelly", "Grace Kelly"],
            "",
            1,
            PartOfSpeech::Noun,
        );
        let sn = b.build().unwrap();
        assert!(sn.has_word("kelly"));
        assert!(sn.has_word("grace kelly"));
        assert!(!sn.has_word("Kelly")); // index is lowercase
    }

    #[test]
    fn duplicate_edges_deduplicated() {
        let mut b = NetworkBuilder::new();
        b.concept("a", &["a"], "", 1, PartOfSpeech::Noun);
        b.concept("b", &["b"], "", 1, PartOfSpeech::Noun);
        b.relate("a", RelationKind::Hypernym, "b");
        b.relate("a", RelationKind::Hypernym, "b");
        let sn = b.build().unwrap();
        assert_eq!(sn.edges(sn.by_key("a").unwrap()).len(), 1);
    }

    #[test]
    fn shorthand_helpers() {
        let mut b = NetworkBuilder::new();
        b.concept("entity.n", &["entity"], "", 10, PartOfSpeech::Noun);
        b.noun("person.n", &["person"], "a human", 5, "entity.n");
        b.instance(
            "kelly.grace",
            &["kelly"],
            "Princess of Monaco",
            1,
            "person.n",
        );
        b.verb("run.v", &["run"], "move fast", 3, "entity.n");
        b.adjective("fast.a", &["fast"], "quick", 2);
        let sn = b.build().unwrap();
        assert_eq!(sn.len(), 5);
        let kelly = sn.by_key("kelly.grace").unwrap();
        assert_eq!(sn.depth(kelly), 2);
    }
}
