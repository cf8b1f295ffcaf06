//! Parameter fine-tuning — the paper's second future-work direction
//! ("fine-tuning user parameters using dedicated optimization techniques
//! \[19, 30\] is another work in progress", Section 5; also Section 3.3's
//! note that weight selection "is an optimization problem such that
//! parameters should be chosen to maximize disambiguation quality
//! (through some cost function such as f-measure)").
//!
//! [`grid_search`] sweeps the discrete configuration space (sphere radius
//! × process × similarity-weight presets × distance policy) on a *tuning*
//! document split, maximizing f-value, and reports the winner for
//! validation on held-out documents — the train/validate protocol the
//! paper defers to "an upcoming study".

use baselines::XsdfDisambiguator;
use corpus::docgen::AnnotatedDocument;
use semnet::SemanticNetwork;
use xmltree::NodeId;
use xsdf::{DisambiguationProcess, DistancePolicy, XsdfConfig};

use crate::experiments::score_document;
use crate::metrics::PrfScores;

/// One evaluated configuration with its tuning-split score.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Human-readable description of the configuration.
    pub description: String,
    /// Sphere radius.
    pub radius: u32,
    /// Process name.
    pub process: String,
    /// Similarity preset name.
    pub similarity: String,
    /// Distance policy name.
    pub distance: String,
    /// f-value on the tuning split.
    pub f_value: f64,
}

/// The outcome of a grid search.
#[derive(Debug, Clone)]
pub struct TuningResult {
    /// Every trial, sorted best-first.
    pub trials: Vec<Trial>,
    /// Index of the winning trial (always 0 after sorting).
    pub best: usize,
}

impl TuningResult {
    /// The winning trial.
    pub fn winner(&self) -> &Trial {
        &self.trials[self.best]
    }
}

/// The discrete search grid. `Default` covers the paper's configuration
/// space plus the future-work distance policies.
pub struct Grid {
    /// Radii to try.
    pub radii: Vec<u32>,
    /// Processes to try.
    pub processes: Vec<(&'static str, DisambiguationProcess)>,
    /// Similarity presets to try.
    pub similarities: Vec<(&'static str, semsim::SimilarityWeights)>,
    /// Distance policies to try.
    pub distances: Vec<(&'static str, DistancePolicy)>,
}

impl Default for Grid {
    fn default() -> Self {
        Self {
            radii: vec![1, 2, 3],
            processes: vec![
                ("concept", DisambiguationProcess::ConceptBased),
                ("context", DisambiguationProcess::ContextBased),
                (
                    "combined",
                    DisambiguationProcess::Combined {
                        concept: 0.5,
                        context: 0.5,
                    },
                ),
            ],
            similarities: vec![
                ("equal", semsim::SimilarityWeights::equal()),
                (
                    "gloss-heavy",
                    semsim::SimilarityWeights::new(0.2, 0.2, 0.6).unwrap(),
                ),
            ],
            distances: vec![("edge-count", DistancePolicy::EdgeCount)],
        }
    }
}

impl Grid {
    /// A reduced grid for fast tests: radius × process only.
    pub fn small() -> Self {
        Self {
            radii: vec![1, 3],
            processes: vec![("concept", DisambiguationProcess::ConceptBased)],
            similarities: vec![("equal", semsim::SimilarityWeights::equal())],
            distances: vec![("edge-count", DistancePolicy::EdgeCount)],
        }
    }

    /// Materializes the configurations.
    pub fn configs(&self) -> Vec<(Trial, XsdfConfig)> {
        let mut out = Vec::new();
        for &radius in &self.radii {
            for (pname, process) in &self.processes {
                for (sname, weights) in &self.similarities {
                    for (dname, distance) in &self.distances {
                        let config = XsdfConfig {
                            radius,
                            process: *process,
                            similarity: *weights,
                            distance: *distance,
                            ..XsdfConfig::default()
                        };
                        out.push((
                            Trial {
                                description: format!("d={radius} {pname} sim={sname} dist={dname}"),
                                radius,
                                process: pname.to_string(),
                                similarity: sname.to_string(),
                                distance: dname.to_string(),
                                f_value: 0.0,
                            },
                            config,
                        ));
                    }
                }
            }
        }
        out
    }
}

/// Scores one configuration over a document/target set.
pub fn evaluate_config(
    sn: &SemanticNetwork,
    docs: &[(&AnnotatedDocument, &[NodeId])],
    config: XsdfConfig,
) -> PrfScores {
    let method = XsdfDisambiguator::new(config);
    let mut scores = PrfScores::default();
    for (doc, targets) in docs {
        scores.merge(score_document(sn, &method, doc, targets));
    }
    scores
}

/// Sweeps `grid` over the tuning split, returning all trials best-first.
pub fn grid_search(
    sn: &SemanticNetwork,
    docs: &[(&AnnotatedDocument, &[NodeId])],
    grid: &Grid,
) -> TuningResult {
    let mut trials: Vec<Trial> = grid
        .configs()
        .into_iter()
        .map(|(mut trial, config)| {
            trial.f_value = evaluate_config(sn, docs, config).f_value();
            trial
        })
        .collect();
    trials.sort_by(|a, b| b.f_value.total_cmp(&a.f_value));
    TuningResult { trials, best: 0 }
}

/// Rebuilds the [`XsdfConfig`] a trial described.
pub fn config_of(trial: &Trial) -> XsdfConfig {
    let process = match trial.process.as_str() {
        "context" => DisambiguationProcess::ContextBased,
        "combined" => DisambiguationProcess::Combined {
            concept: 0.5,
            context: 0.5,
        },
        _ => DisambiguationProcess::ConceptBased,
    };
    let similarity = match trial.similarity.as_str() {
        "gloss-heavy" => semsim::SimilarityWeights::new(0.2, 0.2, 0.6).unwrap(),
        _ => semsim::SimilarityWeights::equal(),
    };
    XsdfConfig {
        radius: trial.radius,
        process,
        similarity,
        ..XsdfConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::Corpus;
    use semnet::mini_wordnet;

    fn split(corpus: &Corpus) -> Vec<(&AnnotatedDocument, Vec<NodeId>)> {
        corpus
            .documents()
            .iter()
            .map(|d| {
                let mut nodes: Vec<NodeId> = d.gold.keys().copied().collect();
                nodes.sort_unstable();
                nodes.truncate(6);
                (d, nodes)
            })
            .collect()
    }

    #[test]
    fn grid_enumerates_cross_product() {
        let grid = Grid::default();
        let n = grid.radii.len()
            * grid.processes.len()
            * grid.similarities.len()
            * grid.distances.len();
        assert_eq!(grid.configs().len(), n);
        assert_eq!(Grid::small().configs().len(), 2);
    }

    #[test]
    fn search_sorts_best_first_and_is_deterministic() {
        let sn = mini_wordnet();
        let corpus = Corpus::generate_small(sn, 8, 1);
        let docs = split(&corpus);
        let borrowed: Vec<(&AnnotatedDocument, &[NodeId])> =
            docs.iter().map(|(d, n)| (*d, n.as_slice())).collect();
        let a = grid_search(sn, &borrowed, &Grid::small());
        let b = grid_search(sn, &borrowed, &Grid::small());
        assert_eq!(a.trials.len(), 2);
        assert!(a.trials[0].f_value >= a.trials[1].f_value);
        assert_eq!(a.winner().description, b.winner().description);
    }

    #[test]
    fn trial_round_trips_to_config() {
        let grid = Grid::default();
        for (trial, config) in grid.configs() {
            let rebuilt = config_of(&trial);
            assert_eq!(rebuilt.radius, config.radius);
            assert_eq!(rebuilt.process.weights(), config.process.weights());
        }
    }
}
