//! Table 2 — Pearson correlation between human ambiguity ratings and the
//! system's `Amb_Deg`, under four weight configurations:
//!
//! * Test #1: all factors (`w_Pol = w_Depth = w_Density = 1`),
//! * Test #2: polysemy only (`1, 0, 0`),
//! * Test #3: depth focus (`0.2, 1, 0`),
//! * Test #4: density focus (`0.2, 0, 1`).
//!
//! The paper reports one row per representative document (Doc 1–10 =
//! datasets 1–10); we correlate over the sampled target nodes of all the
//! dataset's documents.

use corpus::annotators::rate_tree;
use corpus::{Corpus, DatasetId};
use semnet::SemanticNetwork;

use crate::json::json_object;
use crate::metrics::pearson;
use crate::report::{fmt3, Table};
use xsdf::ambiguity::ambiguity_degree;
use xsdf::AmbiguityWeights;

/// One dataset row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// 1-based dataset number ("Doc N" in the paper).
    pub dataset: usize,
    /// The dataset's group.
    pub group: usize,
    /// Correlations for Tests #1–#4.
    pub correlations: [f64; 4],
    /// Number of rated node pairs.
    pub pairs: usize,
}

json_object!(Table2Row {
    dataset,
    group,
    correlations,
    pairs
});

/// The Table 2 result.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// One row per dataset.
    pub rows: Vec<Table2Row>,
}

json_object!(Table2 { rows });

/// The four weight configurations of the paper's Tests #1–#4.
pub fn test_configs() -> [AmbiguityWeights; 4] {
    [
        AmbiguityWeights::equal(),
        AmbiguityWeights::polysemy_only(),
        AmbiguityWeights::depth_focus(),
        AmbiguityWeights::density_focus(),
    ]
}

/// Runs the Table 2 experiment.
pub fn run(sn: &SemanticNetwork, corpus: &Corpus, per_doc: usize) -> Table2 {
    let samples = corpus.sample_targets(per_doc);
    let configs = test_configs();
    let mut rows = Vec::new();
    for &ds in &DatasetId::ALL {
        // Collect (human mean rating, system degree per config) pairs.
        let mut human: Vec<f64> = Vec::new();
        let mut system: [Vec<f64>; 4] = Default::default();
        for (doc_idx, targets) in &samples {
            let doc = &corpus.documents()[*doc_idx];
            if doc.dataset != ds {
                continue;
            }
            let ratings = rate_tree(sn, &doc.tree, corpus.seed() ^ (*doc_idx as u64));
            for &node in targets {
                // Only polysemous nodes are rated: asking a human how
                // ambiguous a one-sense (or unknown) word is yields
                // constant zeros that would swamp the correlation.
                let label = doc.tree.label(node);
                if sn.senses_normalized(label, lingproc::porter_stem).len() < 2 {
                    continue;
                }
                let rating = ratings
                    .iter()
                    .find(|r| r.node == node)
                    .expect("all nodes rated")
                    .mean();
                human.push(rating);
                for (i, &w) in configs.iter().enumerate() {
                    system[i].push(ambiguity_degree(sn, &doc.tree, node, w));
                }
            }
        }
        let correlations = [0, 1, 2, 3].map(|i| pearson(&human, &system[i]));
        rows.push(Table2Row {
            dataset: ds.number(),
            group: ds.spec().group.number(),
            correlations,
            pairs: human.len(),
        });
    }
    Table2 { rows }
}

impl Table2 {
    /// Renders as a text table.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "Doc (dataset)",
            "Group",
            "Test #1 all",
            "Test #2 polysemy",
            "Test #3 depth",
            "Test #4 density",
            "pairs",
        ]);
        for row in &self.rows {
            t.row([
                format!("Doc {}", row.dataset),
                row.group.to_string(),
                fmt3(row.correlations[0]),
                fmt3(row.correlations[1]),
                fmt3(row.correlations[2]),
                fmt3(row.correlations[3]),
                row.pairs.to_string(),
            ]);
        }
        t.render()
    }

    /// The paper's headline observation: positive correlation on Group 1,
    /// weaker (near zero or negative) on Group 4.
    pub fn group1_correlation(&self) -> f64 {
        self.rows
            .iter()
            .find(|r| r.group == 1)
            .map(|r| r.correlations[0])
            .unwrap_or(0.0)
    }

    /// Mean Test #1 correlation over Group 4 datasets.
    pub fn group4_mean_correlation(&self) -> f64 {
        let g4: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.group == 4)
            .map(|r| r.correlations[0])
            .collect();
        g4.iter().sum::<f64>() / g4.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semnet::mini_wordnet;

    #[test]
    fn correlations_bounded_and_rows_complete() {
        let sn = mini_wordnet();
        let corpus = Corpus::generate_small(sn, 4, 2);
        let t2 = run(sn, &corpus, 10);
        assert_eq!(t2.rows.len(), 10);
        for row in &t2.rows {
            for c in row.correlations {
                assert!((-1.0..=1.0).contains(&c), "correlation {c} out of range");
            }
            assert!(row.pairs > 0);
        }
        let text = t2.render();
        assert!(text.contains("Doc 9"));
    }
}
