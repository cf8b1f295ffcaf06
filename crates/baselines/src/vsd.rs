//! VSD — Versatile Structural Disambiguation (Mandreoli et al. \[29\]).
//!
//! VSD generalizes parent and sub-tree contexts: a *Gaussian decay*
//! function assigns a weight to every node as a function of its tree
//! distance from the target, an edge is *crossable* while the accumulated
//! weight stays above a threshold, and all nodes reachable through
//! crossable edges form the context (Section 2.2 of the paper: the
//! *relational information model* — "the closer a node, the more it
//! influences the target node's disambiguation").
//!
//! Each candidate sense of the target label is compared with the senses of
//! every context label using an edge-based similarity measure (the original
//! uses Leacock–Chodorow \[24\]; this implementation uses the workspace's
//! edge measure, Wu–Palmer, which ranks identically on a fixed taxonomy),
//! each contribution multiplied by the context node's decay weight. The
//! top-scoring sense wins. There is no ambiguity-based target selection —
//! every node is processed (the paper's Motivation 1).

use semnet::{ConceptId, SemanticNetwork};
use semsim::wu_palmer;
use xmltree::distance::sphere;
use xmltree::{NodeId, XmlTree};
use xsdf::senses::{disambiguation_candidates, SenseCandidates};
use xsdf::SenseChoice;

use crate::common::{Assignments, Disambiguator};

/// The VSD baseline.
pub struct Vsd {
    /// Standard deviation `σ` of the Gaussian decay
    /// `w(dist) = exp(−dist² / 2σ²)`.
    pub sigma: f64,
    /// Minimum decay weight for an edge to be *crossable*; context
    /// collection stops beyond it.
    pub crossable_threshold: f64,
    /// Mix a gloss-based measure into the sense comparison. Reference \[29\]
    /// is itself a hybrid of concept- and context-based evidence, so the
    /// default blends the edge measure with gloss overlap equally; 0 gives
    /// the pure edge-based variant.
    pub gloss_weight: f64,
    /// Also disambiguate value-token nodes. Like RPD, the original VSD
    /// targets structure labels only (Table 4 of the paper marks
    /// "Disambiguates XML structure and content" with an x), so the
    /// faithful default is `false`. Value tokens still *contribute* to the
    /// context of structural targets either way.
    pub include_values: bool,
}

impl Default for Vsd {
    fn default() -> Self {
        // σ = 1.5 gives w(1) ≈ 0.80, w(2) ≈ 0.41, w(3) ≈ 0.135; with the
        // 0.1 threshold the context spans three edges in every direction —
        // the "versatile" parent+descendant+sibling context of the paper.
        Self {
            sigma: 1.5,
            crossable_threshold: 0.1,
            gloss_weight: 0.5,
            include_values: false,
        }
    }
}

impl Vsd {
    /// The faithful, structure-only VSD of reference \[29\].
    pub fn new() -> Self {
        Self::default()
    }

    /// The extended variant that also processes value tokens.
    pub fn with_content() -> Self {
        Self {
            include_values: true,
            ..Self::default()
        }
    }

    /// The Gaussian decay weight of a node at the given tree distance.
    pub fn decay(&self, dist: u32) -> f64 {
        let d = dist as f64;
        (-d * d / (2.0 * self.sigma * self.sigma)).exp()
    }

    /// The maximum distance that is still crossable.
    fn max_crossable_distance(&self) -> u32 {
        let mut d = 0;
        while self.decay(d + 1) >= self.crossable_threshold && d < 64 {
            d += 1;
        }
        d
    }

    fn sim(&self, sn: &SemanticNetwork, a: ConceptId, b: ConceptId) -> f64 {
        let g = self.gloss_weight.clamp(0.0, 1.0);
        if g == 0.0 {
            wu_palmer(sn, a, b)
        } else {
            (1.0 - g) * wu_palmer(sn, a, b) + g * semsim::extended_gloss_overlap(sn, a, b)
        }
    }

    fn choice_sim(&self, sn: &SemanticNetwork, choice: SenseChoice, other: ConceptId) -> f64 {
        match choice {
            SenseChoice::Single(c) => self.sim(sn, c, other),
            SenseChoice::Pair(a, b) => (self.sim(sn, a, other) + self.sim(sn, b, other)) / 2.0,
        }
    }

    fn choices(sn: &SemanticNetwork, tree: &XmlTree, node: NodeId) -> Vec<SenseChoice> {
        match disambiguation_candidates(sn, tree.label(node), tree.node(node).kind) {
            SenseCandidates::Unknown => Vec::new(),
            SenseCandidates::Single(senses) => {
                senses.into_iter().map(SenseChoice::Single).collect()
            }
            SenseCandidates::Compound { first, second } => {
                // VSD's original treats compound tokens as separate labels;
                // we keep the pair structure for comparability of outputs
                // but score pairs by averaging (as its bag model would).
                if first.is_empty() {
                    second.into_iter().map(SenseChoice::Single).collect()
                } else if second.is_empty() {
                    first.into_iter().map(SenseChoice::Single).collect()
                } else {
                    first
                        .iter()
                        .flat_map(|&a| second.iter().map(move |&b| SenseChoice::Pair(a, b)))
                        .collect()
                }
            }
        }
    }
}

impl Vsd {
    /// Disambiguates one node from its crossable-edge context.
    fn assign_node(
        &self,
        sn: &SemanticNetwork,
        tree: &XmlTree,
        node: NodeId,
        reach: u32,
    ) -> Option<SenseChoice> {
        if !self.include_values && tree.node(node).kind == xmltree::NodeKind::ValueToken {
            return None;
        }
        let candidates = Self::choices(sn, tree, node);
        if candidates.is_empty() {
            return None;
        }
        // Context: nodes reachable through crossable edges, each carrying
        // its Gaussian decay weight.
        let context: Vec<(f64, Vec<ConceptId>)> = sphere(tree, node, reach)
            .into_iter()
            .filter_map(|(n, dist)| {
                let weight = self.decay(dist);
                if weight < self.crossable_threshold {
                    return None;
                }
                let senses = match disambiguation_candidates(sn, tree.label(n), tree.node(n).kind) {
                    SenseCandidates::Unknown => return None,
                    SenseCandidates::Single(senses) => senses,
                    SenseCandidates::Compound { mut first, second } => {
                        first.extend(second);
                        first
                    }
                };
                Some((weight, senses))
            })
            .collect();

        let mut best: Option<(SenseChoice, f64)> = None;
        for &choice in &candidates {
            let score: f64 = context
                .iter()
                .map(|(weight, senses)| {
                    weight
                        * senses
                            .iter()
                            .map(|&s| self.choice_sim(sn, choice, s))
                            .fold(0.0f64, f64::max)
                })
                .sum();
            if best.as_ref().is_none_or(|&(_, b)| score > b) {
                best = Some((choice, score));
            }
        }
        best.map(|(choice, score)| {
            if score > 0.0 || candidates.len() == 1 {
                choice
            } else {
                candidates[0]
            }
        })
    }
}

impl Disambiguator for Vsd {
    fn name(&self) -> &'static str {
        "VSD"
    }

    fn disambiguate(&self, sn: &SemanticNetwork, tree: &XmlTree) -> Assignments {
        let reach = self.max_crossable_distance();
        let mut out = Assignments::new();
        for node in tree.preorder() {
            if let Some(choice) = self.assign_node(sn, tree, node, reach) {
                out.insert(node, choice);
            }
        }
        out
    }

    fn disambiguate_targets(
        &self,
        sn: &SemanticNetwork,
        tree: &XmlTree,
        targets: &[NodeId],
    ) -> Assignments {
        let reach = self.max_crossable_distance();
        let mut out = Assignments::new();
        for &node in targets {
            if let Some(choice) = self.assign_node(sn, tree, node, reach) {
                out.insert(node, choice);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semnet::mini_wordnet;
    use xmltree::tree::TreeBuilder;
    use xsdf::LingTokenizer;

    fn tree(xml: &str) -> XmlTree {
        let doc = xmltree::parse(xml).unwrap();
        TreeBuilder::with_tokenizer(LingTokenizer::new(mini_wordnet()))
            .build(&doc)
            .unwrap()
            .tree
    }

    fn key_of(sn: &SemanticNetwork, choice: &SenseChoice) -> String {
        match choice {
            SenseChoice::Single(c) => sn.concept(*c).key.clone(),
            SenseChoice::Pair(a, b) => {
                format!("{}+{}", sn.concept(*a).key, sn.concept(*b).key)
            }
        }
    }

    #[test]
    fn decay_is_gaussian() {
        let vsd = Vsd::new();
        assert_eq!(vsd.decay(0), 1.0);
        assert!(vsd.decay(1) > vsd.decay(2));
        assert!(vsd.decay(2) > vsd.decay(3));
        let expected = (-1.0f64 / (2.0 * 1.5 * 1.5)).exp();
        assert!((vsd.decay(1) - expected).abs() < 1e-12);
    }

    #[test]
    fn crossable_distance_follows_threshold() {
        let vsd = Vsd::new();
        // w(3) ≈ 0.135 ≥ 0.1, w(4) ≈ 0.028 < 0.1.
        assert_eq!(vsd.max_crossable_distance(), 3);
        let tight = Vsd {
            crossable_threshold: 0.5,
            ..Vsd::new()
        };
        assert_eq!(tight.max_crossable_distance(), 1);
    }

    #[test]
    fn versatile_context_sees_siblings() {
        // Unlike RPD, VSD's context crosses sibling edges: "star" sees
        // "cast" at distance 2 (up to films, down to cast).
        let sn = mini_wordnet();
        let t = tree("<films><cast/><star/><actor/></films>");
        let star = t.preorder().find(|&n| t.label(n) == "star").unwrap();
        let out = Vsd::new().disambiguate(sn, &t);
        assert!(out.contains_key(&star));
    }

    #[test]
    fn disambiguates_all_known_nodes_with_content() {
        let sn = mini_wordnet();
        let t = tree("<films><picture><cast><star>Kelly</star></cast></picture></films>");
        let out = Vsd::with_content().disambiguate(sn, &t);
        for node in t.preorder() {
            let has = !Vsd::choices(sn, &t, node).is_empty();
            assert_eq!(out.contains_key(&node), has, "label {}", t.label(node));
        }
        // The faithful default skips value tokens (Table 4's last row).
        let faithful = Vsd::new().disambiguate(sn, &t);
        let kelly = t.preorder().find(|&n| t.label(n) == "kelly").unwrap();
        assert!(!faithful.contains_key(&kelly));
    }

    #[test]
    fn isolated_node_gets_first_sense() {
        let sn = mini_wordnet();
        let t = tree("<star/>");
        let out = Vsd::new().disambiguate(sn, &t);
        assert_eq!(key_of(sn, &out[&t.root()]), "star.celestial");
    }

    #[test]
    fn sigma_controls_context_breadth() {
        let narrow = Vsd {
            sigma: 0.5,
            ..Vsd::new()
        };
        let wide = Vsd {
            sigma: 3.0,
            ..Vsd::new()
        };
        assert!(narrow.max_crossable_distance() < wide.max_crossable_distance());
    }

    #[test]
    fn gloss_mix_changes_nothing_structurally() {
        let sn = mini_wordnet();
        let t = tree("<films><picture><cast/></picture></films>");
        let pure = Vsd::new().disambiguate(sn, &t);
        let mixed = Vsd {
            gloss_weight: 0.5,
            ..Vsd::new()
        }
        .disambiguate(sn, &t);
        assert_eq!(pure.len(), mixed.len());
    }
}
