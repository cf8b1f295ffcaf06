//! Quality-side ablations of XSDF's design choices:
//!
//! * similarity measures: each single measure of Definition 9 vs the
//!   combination;
//! * target selection: f-value and workload at increasing ambiguity
//!   thresholds (Motivation 1's accuracy/effort trade-off).

use baselines::XsdfDisambiguator;
use corpus::Corpus;
use xsdf::{ThresholdPolicy, XsdfConfig};
use xsdf_eval::experiments::{score_document, DEFAULT_SEED, TARGETS_PER_DOC};
use xsdf_eval::metrics::PrfScores;
use xsdf_eval::report::{fmt3, Table};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    let sn = semnet::mini_wordnet();
    let corpus = Corpus::generate(sn, seed);
    let samples = corpus.sample_targets(TARGETS_PER_DOC);

    let run = |config: XsdfConfig| -> PrfScores {
        let method = XsdfDisambiguator::new(config);
        let mut scores = PrfScores::default();
        for (doc_idx, targets) in &samples {
            let doc = &corpus.documents()[*doc_idx];
            scores.merge(score_document(sn, &method, doc, targets));
        }
        scores
    };

    println!("Ablation A — semantic similarity measures (corpus-wide, seed {seed})\n");
    let mut t = Table::new(["Measure", "Precision", "Recall", "F-value"]);
    for (name, weights) in [
        (
            "edge only (Wu-Palmer)",
            semsim::SimilarityWeights::edge_only(),
        ),
        ("node only (Lin)", semsim::SimilarityWeights::node_only()),
        (
            "gloss only (ext. overlap)",
            semsim::SimilarityWeights::gloss_only(),
        ),
        (
            "combined (Definition 9)",
            semsim::SimilarityWeights::equal(),
        ),
    ] {
        let s = run(XsdfConfig {
            similarity: weights,
            ..XsdfConfig::default()
        });
        t.row([
            name.to_string(),
            fmt3(s.precision()),
            fmt3(s.recall()),
            fmt3(s.f_value()),
        ]);
    }
    println!("{}", t.render());

    println!("Ablation B — ambiguity-threshold selection (Motivation 1)\n");
    let mut t = Table::new([
        "Thresh_Amb",
        "Targets processed",
        "Precision",
        "Recall vs sample",
        "F",
    ]);
    for thresh in [0.0, 0.02, 0.05, 0.1] {
        let s = run(XsdfConfig {
            threshold: ThresholdPolicy::Fixed(thresh),
            ..XsdfConfig::default()
        });
        t.row([
            format!("{thresh:.2}"),
            s.assigned.to_string(),
            fmt3(s.precision()),
            fmt3(s.recall()),
            fmt3(s.f_value()),
        ]);
    }
    // The automatic threshold.
    let s = run(XsdfConfig {
        threshold: ThresholdPolicy::Auto,
        ..XsdfConfig::default()
    });
    t.row([
        "auto (mean)".to_string(),
        s.assigned.to_string(),
        fmt3(s.precision()),
        fmt3(s.recall()),
        fmt3(s.f_value()),
    ]);
    println!("{}", t.render());
}
