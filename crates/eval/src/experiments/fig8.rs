//! Figure 8 — average f-value per group, sphere radius `d ∈ {1, 2, 3}`,
//! and disambiguation process (concept-based, context-based, combined).

use baselines::XsdfDisambiguator;
use corpus::{Corpus, Group};
use semnet::SemanticNetwork;

use crate::experiments::score_document;
use crate::json::json_object;
use crate::metrics::PrfScores;
use crate::report::{fmt3, Table};
use xsdf::{DisambiguationProcess, XsdfConfig};

/// The three processes Figure 8 compares.
pub const PROCESSES: [(&str, DisambiguationProcess); 3] = [
    ("concept", DisambiguationProcess::ConceptBased),
    ("context", DisambiguationProcess::ContextBased),
    (
        "combined",
        DisambiguationProcess::Combined {
            concept: 0.5,
            context: 0.5,
        },
    ),
];

/// One measured cell of Figure 8.
#[derive(Debug, Clone)]
pub struct Fig8Cell {
    /// Group number (1–4).
    pub group: usize,
    /// Sphere radius `d`.
    pub radius: u32,
    /// Process name (`concept` / `context` / `combined`).
    pub process: String,
    /// Micro-averaged precision over the group.
    pub precision: f64,
    /// Micro-averaged recall.
    pub recall: f64,
    /// F-value (the quantity Figure 8 plots).
    pub f_value: f64,
}

json_object!(Fig8Cell {
    group,
    radius,
    process,
    precision,
    recall,
    f_value
});

/// The Figure 8 result: 4 groups × 3 radii × 3 processes.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// All measured cells.
    pub cells: Vec<Fig8Cell>,
}

json_object!(Fig8 { cells });

/// Runs the Figure 8 sweep.
pub fn run(sn: &SemanticNetwork, corpus: &Corpus, per_doc: usize) -> Fig8 {
    let samples = corpus.sample_targets(per_doc);
    let mut cells = Vec::new();
    for &group in &Group::ALL {
        for radius in 1..=3u32 {
            for (process_name, process) in PROCESSES {
                let config = XsdfConfig {
                    radius,
                    process,
                    ..XsdfConfig::default()
                };
                let method = XsdfDisambiguator::new(config);
                let mut scores = PrfScores::default();
                for (doc_idx, targets) in &samples {
                    let doc = &corpus.documents()[*doc_idx];
                    if doc.dataset.spec().group != group {
                        continue;
                    }
                    scores.merge(score_document(sn, &method, doc, targets));
                }
                cells.push(Fig8Cell {
                    group: group.number(),
                    radius,
                    process: process_name.to_string(),
                    precision: scores.precision(),
                    recall: scores.recall(),
                    f_value: scores.f_value(),
                });
            }
        }
    }
    Fig8 { cells }
}

impl Fig8 {
    /// Looks up a cell's f-value.
    pub fn f(&self, group: usize, radius: u32, process: &str) -> f64 {
        self.cells
            .iter()
            .find(|c| c.group == group && c.radius == radius && c.process == process)
            .map(|c| c.f_value)
            .unwrap_or(0.0)
    }

    /// The radius at which a group's concept-based f-value peaks.
    pub fn best_radius(&self, group: usize, process: &str) -> u32 {
        (1..=3u32)
            .max_by(|&a, &b| {
                self.f(group, a, process)
                    .total_cmp(&self.f(group, b, process))
            })
            .unwrap()
    }

    /// Renders as a text table (one row per group × radius).
    pub fn render(&self) -> String {
        let mut t = Table::new(["Group", "d", "concept f", "context f", "combined f"]);
        for group in 1..=4usize {
            for radius in 1..=3u32 {
                t.row([
                    format!("Group {group}"),
                    radius.to_string(),
                    fmt3(self.f(group, radius, "concept")),
                    fmt3(self.f(group, radius, "context")),
                    fmt3(self.f(group, radius, "combined")),
                ]);
            }
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semnet::mini_wordnet;

    #[test]
    fn sweep_produces_all_cells() {
        let sn = mini_wordnet();
        let corpus = Corpus::generate_small(sn, 3, 1);
        let fig8 = run(sn, &corpus, 6);
        assert_eq!(fig8.cells.len(), 4 * 3 * 3);
        for c in &fig8.cells {
            assert!((0.0..=1.0).contains(&c.f_value));
            assert!((0.0..=1.0).contains(&c.precision));
            assert!((0.0..=1.0).contains(&c.recall));
        }
        let text = fig8.render();
        assert_eq!(text.lines().count(), 2 + 12);
    }
}
