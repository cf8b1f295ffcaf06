//! Table 3 — characteristics of the generated corpus, per dataset: number
//! of documents, average nodes per document, label polysemy, node depth,
//! fan-out, and density (each average and maximum).

use corpus::{Corpus, DatasetId};
use semnet::SemanticNetwork;

use crate::json::json_object;
use crate::report::{fmt1, fmt3, Table};
use crate::stats::{aggregate_stats, tree_stats, TreeStats};

/// One dataset row of Table 3.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// 1-based dataset number.
    pub dataset: usize,
    /// Group number.
    pub group: usize,
    /// Source name.
    pub source: String,
    /// Grammar (DTD) name.
    pub grammar: String,
    /// Number of generated documents.
    pub num_docs: usize,
    /// Average nodes per document.
    pub avg_nodes: f64,
    /// Aggregated node statistics.
    pub stats: TreeStats,
}

json_object!(Table3Row {
    dataset,
    group,
    source,
    grammar,
    num_docs,
    avg_nodes,
    stats
});

/// The Table 3 result.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// One row per dataset.
    pub rows: Vec<Table3Row>,
}

json_object!(Table3 { rows });

/// Runs the Table 3 measurement over a generated corpus.
pub fn run(sn: &SemanticNetwork, corpus: &Corpus) -> Table3 {
    let rows = DatasetId::ALL
        .iter()
        .map(|&ds| {
            let per_doc: Vec<TreeStats> = corpus
                .dataset(ds)
                .map(|d| tree_stats(sn, &d.tree))
                .collect();
            let agg = aggregate_stats(&per_doc);
            let spec = ds.spec();
            Table3Row {
                dataset: ds.number(),
                group: spec.group.number(),
                source: spec.source.to_string(),
                grammar: spec.grammar.to_string(),
                num_docs: per_doc.len(),
                avg_nodes: agg.nodes as f64 / per_doc.len().max(1) as f64,
                stats: agg,
            }
        })
        .collect();
    Table3 { rows }
}

impl Table3 {
    /// Renders as a text table.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "DS",
            "Grp",
            "Grammar",
            "Docs",
            "Nodes/doc",
            "Poly avg",
            "Poly max",
            "Depth avg",
            "Depth max",
            "Fan avg",
            "Fan max",
            "Dens avg",
            "Dens max",
        ]);
        for r in &self.rows {
            t.row([
                r.dataset.to_string(),
                r.group.to_string(),
                r.grammar.clone(),
                r.num_docs.to_string(),
                fmt1(r.avg_nodes),
                fmt3(r.stats.polysemy_avg),
                r.stats.polysemy_max.to_string(),
                fmt3(r.stats.depth_avg),
                r.stats.depth_max.to_string(),
                fmt3(r.stats.fan_out_avg),
                r.stats.fan_out_max.to_string(),
                fmt3(r.stats.density_avg),
                r.stats.density_max.to_string(),
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
    fn rows_cover_all_datasets_with_plausible_stats() {
        let sn = mini_wordnet();
        let corpus = Corpus::generate_small(sn, 7, 2);
        let t3 = run(sn, &corpus);
        assert_eq!(t3.rows.len(), 10);
        // Shakespeare is the largest dataset per document.
        let shakespeare = &t3.rows[0];
        assert!(
            shakespeare.avg_nodes > t3.rows[7].avg_nodes,
            "ds1 > ds8 in size"
        );
        // Every dataset shows some polysemy.
        for r in &t3.rows {
            assert!(r.stats.polysemy_avg > 0.5, "dataset {} polysemy", r.dataset);
            assert!(r.stats.depth_max >= 2, "dataset {} depth", r.dataset);
        }
        let text = t3.render();
        assert!(text.contains("shakespeare.dtd"));
    }
}
