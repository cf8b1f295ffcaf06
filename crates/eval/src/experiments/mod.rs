//! Experiment drivers, one per table/figure of the paper's Section 4.

pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

use baselines::Disambiguator;
use corpus::docgen::AnnotatedDocument;
use semnet::SemanticNetwork;
use xmltree::NodeId;
use xsdf::SenseChoice;

use crate::metrics::PrfScores;

pub use crate::json::to_json;

/// Renders a [`SenseChoice`] as a comparable key (matching
/// [`corpus::GoldSense::key`]).
pub fn choice_key(sn: &SemanticNetwork, choice: SenseChoice) -> String {
    match choice {
        SenseChoice::Single(c) => sn.concept(c).key.clone(),
        SenseChoice::Pair(a, b) => format!("{}+{}", sn.concept(a).key, sn.concept(b).key),
    }
}

/// Scores one method on one document's sampled target nodes against the
/// gold standard.
pub fn score_document(
    sn: &SemanticNetwork,
    method: &dyn Disambiguator,
    doc: &AnnotatedDocument,
    targets: &[NodeId],
) -> PrfScores {
    let assignments = method.disambiguate_targets(sn, &doc.tree, targets);
    let mut scores = PrfScores {
        targets: targets.len(),
        ..PrfScores::default()
    };
    for node in targets {
        let Some(&choice) = assignments.get(node) else {
            continue;
        };
        scores.assigned += 1;
        let gold = doc
            .gold
            .get(node)
            .expect("targets are sampled from gold nodes");
        if choice_key(sn, choice) == gold.key() {
            scores.correct += 1;
        }
    }
    scores
}

/// The corpus seed every experiment binary uses by default, so the
/// numbers in EXPERIMENTS.md are regenerable bit-for-bit.
pub const DEFAULT_SEED: u64 = 2015;

/// The per-document target sample size (the paper's "12-to-13 randomly
/// pre-selected nodes per document"). We use 13.
pub const TARGETS_PER_DOC: usize = 13;

/// Writes an experiment result as JSON under `target/experiments/`, so
/// EXPERIMENTS.md numbers are regenerable and machine-checkable.
pub fn dump_json<T: crate::json::ToJson + ?Sized>(name: &str, value: &T) {
    let dir = std::path::Path::new("target/experiments");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Err(e) = std::fs::write(&path, to_json(value)) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    } else {
        eprintln!("(wrote {})", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::{Rpd, XsdfDisambiguator};
    use corpus::Corpus;
    use semnet::mini_wordnet;
    use xsdf::XsdfConfig;

    #[test]
    fn scoring_counts_are_consistent() {
        let sn = mini_wordnet();
        let corpus = Corpus::generate_small(sn, 1, 1);
        let samples = corpus.sample_targets(8);
        let xsdf = XsdfDisambiguator::new(XsdfConfig::default());
        let rpd = Rpd::new();
        for (doc_idx, targets) in &samples {
            let doc = &corpus.documents()[*doc_idx];
            for method in [&xsdf as &dyn Disambiguator, &rpd as &dyn Disambiguator] {
                let s = score_document(sn, method, doc, targets);
                assert_eq!(s.targets, targets.len());
                assert!(s.correct <= s.assigned);
                assert!(s.assigned <= s.targets);
            }
        }
    }

    #[test]
    fn perfect_oracle_scores_one() {
        // Sanity: scoring against a method that echoes the gold gives 1.0.
        struct Oracle<'a>(&'a AnnotatedDocument);
        impl Disambiguator for Oracle<'_> {
            fn name(&self) -> &'static str {
                "oracle"
            }
            fn disambiguate(
                &self,
                sn: &SemanticNetwork,
                _tree: &xmltree::XmlTree,
            ) -> baselines::Assignments {
                self.0
                    .gold
                    .iter()
                    .filter_map(|(&n, g)| {
                        // Only single golds are representable here.
                        match g {
                            corpus::GoldSense::Single(k) => {
                                sn.by_key(k).map(|c| (n, SenseChoice::Single(c)))
                            }
                            corpus::GoldSense::Pair(a, b) => match (sn.by_key(a), sn.by_key(b)) {
                                (Some(x), Some(y)) => Some((n, SenseChoice::Pair(x, y))),
                                _ => None,
                            },
                        }
                    })
                    .collect()
            }
        }
        let sn = mini_wordnet();
        let corpus = Corpus::generate_small(sn, 2, 1);
        let doc = &corpus.documents()[0];
        let targets: Vec<NodeId> = doc.gold.keys().copied().collect();
        let s = score_document(sn, &Oracle(doc), doc, &targets);
        assert_eq!(s.correct, s.targets);
        assert_eq!(s.f_value(), 1.0);
    }
}
