//! Table 1 — the four-group organization of the corpus by average node
//! ambiguity (`Amb_Deg`) × structural richness (`Struct_Deg`, Equation 14).

use corpus::{Corpus, Group};
use semnet::SemanticNetwork;

use crate::json::json_object;
use crate::report::{fmt3, Table};
use crate::stats::{avg_ambiguity_degree, avg_struct_degree, StructWeights};
use xsdf::AmbiguityWeights;

/// One group's averages.
#[derive(Debug, Clone)]
pub struct GroupDegrees {
    /// 1-based group number.
    pub group: usize,
    /// Average `Amb_Deg` over all nodes of the group's documents.
    pub amb_deg: f64,
    /// Average `Struct_Deg` over all nodes of the group's documents.
    pub struct_deg: f64,
}

json_object!(GroupDegrees {
    group,
    amb_deg,
    struct_deg
});

/// The Table 1 result.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Per-group degrees, groups 1–4 in order.
    pub groups: Vec<GroupDegrees>,
}

json_object!(Table1 { groups });

/// Runs the Table 1 measurement.
pub fn run(sn: &SemanticNetwork, corpus: &Corpus) -> Table1 {
    let groups = Group::ALL
        .iter()
        .map(|&group| {
            let docs: Vec<_> = corpus.group(group).collect();
            let n = docs.len() as f64;
            let amb = docs
                .iter()
                .map(|d| avg_ambiguity_degree(sn, &d.tree, AmbiguityWeights::equal()))
                .sum::<f64>()
                / n;
            let st = docs
                .iter()
                .map(|d| avg_struct_degree(&d.tree, StructWeights::default()))
                .sum::<f64>()
                / n;
            GroupDegrees {
                group: group.number(),
                amb_deg: amb,
                struct_deg: st,
            }
        })
        .collect();
    Table1 { groups }
}

impl Table1 {
    /// Renders as a text table.
    pub fn render(&self) -> String {
        let mut t = Table::new(["Group", "Amb_Deg", "Struct_Deg", "Classification"]);
        for gd in &self.groups {
            let class = match gd.group {
                1 => "Ambiguity+ / Structure+",
                2 => "Ambiguity+ / Structure-",
                3 => "Ambiguity- / Structure+",
                _ => "Ambiguity- / Structure-",
            };
            t.row([
                format!("Group {}", gd.group),
                fmt3(gd.amb_deg),
                fmt3(gd.struct_deg),
                class.into(),
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
    fn group_ordering_matches_table1_semantics() {
        let sn = mini_wordnet();
        let corpus = Corpus::generate_small(sn, 7, 2);
        let t1 = run(sn, &corpus);
        assert_eq!(t1.groups.len(), 4);
        let by_group: Vec<&GroupDegrees> = t1.groups.iter().collect();
        // Ambiguity: groups 1 and 2 above groups 3 and 4.
        let high_amb = by_group[0].amb_deg.min(by_group[1].amb_deg);
        let low_amb = by_group[2].amb_deg.max(by_group[3].amb_deg);
        assert!(
            high_amb > low_amb,
            "groups 1/2 must be more ambiguous: {:?}",
            t1.groups
        );
        // Structure: group 1 richer than group 4.
        assert!(
            by_group[0].struct_deg > by_group[3].struct_deg,
            "group 1 must be more structured than group 4: {:?}",
            t1.groups
        );
        let text = t1.render();
        assert!(text.contains("Group 1"));
    }
}
