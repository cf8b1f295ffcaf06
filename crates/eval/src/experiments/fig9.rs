//! Figure 9 — comparative evaluation: XSDF (at its per-group optimal
//! parameters, Section 4.3.2) versus the RPD and VSD baselines, reporting
//! precision, recall, and f-value per group.

use baselines::{Disambiguator, Rpd, Vsd, XsdfDisambiguator};
use corpus::{Corpus, Group};
use semnet::SemanticNetwork;

use crate::experiments::score_document;
use crate::json::json_object;
use crate::metrics::PrfScores;
use crate::report::{fmt3, Table};
use xsdf::XsdfConfig;

/// One method's scores on one group.
#[derive(Debug, Clone)]
pub struct Fig9Cell {
    /// Group number.
    pub group: usize,
    /// Method name (`XSDF` / `RPD` / `VSD`).
    pub method: String,
    /// Precision.
    pub precision: f64,
    /// Recall.
    pub recall: f64,
    /// F-value.
    pub f_value: f64,
}

json_object!(Fig9Cell {
    group,
    method,
    precision,
    recall,
    f_value
});

/// The Figure 9 result: 4 groups × 3 methods.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// All cells.
    pub cells: Vec<Fig9Cell>,
}

json_object!(Fig9 { cells });

/// XSDF's optimal configuration for a group (Section 4.3.2: `d = 1` for
/// Group 1, `d = 3` for Groups 2–4, concept-based everywhere).
pub fn optimal_config(group: Group) -> XsdfConfig {
    match group {
        Group::G1 => XsdfConfig::optimal_rich(),
        _ => XsdfConfig::optimal_flat(),
    }
}

/// Runs the Figure 9 comparison.
pub fn run(sn: &SemanticNetwork, corpus: &Corpus, per_doc: usize) -> Fig9 {
    let samples = corpus.sample_targets(per_doc);
    let rpd = Rpd::new();
    let vsd = Vsd::new();
    let mut cells = Vec::new();
    for &group in &Group::ALL {
        let xsdf = XsdfDisambiguator::new(optimal_config(group));
        let methods: [(&str, &dyn Disambiguator); 3] =
            [("XSDF", &xsdf), ("RPD", &rpd), ("VSD", &vsd)];
        for (name, method) in methods {
            let mut scores = PrfScores::default();
            for (doc_idx, targets) in &samples {
                let doc = &corpus.documents()[*doc_idx];
                if doc.dataset.spec().group != group {
                    continue;
                }
                scores.merge(score_document(sn, method, doc, targets));
            }
            cells.push(Fig9Cell {
                group: group.number(),
                method: name.to_string(),
                precision: scores.precision(),
                recall: scores.recall(),
                f_value: scores.f_value(),
            });
        }
    }
    Fig9 { cells }
}

impl Fig9 {
    /// Looks up a cell.
    pub fn cell(&self, group: usize, method: &str) -> Option<&Fig9Cell> {
        self.cells
            .iter()
            .find(|c| c.group == group && c.method == method)
    }

    /// F-value lookup (0 when missing).
    pub fn f(&self, group: usize, method: &str) -> f64 {
        self.cell(group, method).map(|c| c.f_value).unwrap_or(0.0)
    }

    /// Renders as a text table.
    pub fn render(&self) -> String {
        let mut t = Table::new(["Group", "Method", "Precision", "Recall", "F-value"]);
        for c in &self.cells {
            t.row([
                format!("Group {}", c.group),
                c.method.clone(),
                fmt3(c.precision),
                fmt3(c.recall),
                fmt3(c.f_value),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semnet::mini_wordnet;

    #[test]
    fn comparison_produces_all_cells() {
        let sn = mini_wordnet();
        let corpus = Corpus::generate_small(sn, 9, 1);
        let fig9 = run(sn, &corpus, 6);
        assert_eq!(fig9.cells.len(), 12);
        for c in &fig9.cells {
            assert!((0.0..=1.0).contains(&c.f_value), "{c:?}");
        }
        assert!(fig9.cell(1, "XSDF").is_some());
        let text = fig9.render();
        assert!(text.contains("RPD"));
        assert!(text.contains("VSD"));
    }

    #[test]
    fn optimal_configs_follow_section_432() {
        assert_eq!(optimal_config(Group::G1).radius, 1);
        assert_eq!(optimal_config(Group::G4).radius, 3);
    }
}
