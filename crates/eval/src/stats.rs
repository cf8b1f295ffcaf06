//! Corpus statistics: the structure degree of Equation 14 and the
//! per-dataset node characteristics of Table 3.

use semnet::SemanticNetwork;
use xmltree::{NodeId, XmlTree};
use xsdf::ambiguity::ambiguity_degree;
use xsdf::AmbiguityWeights;

use crate::json::json_object;

/// Weights of Equation 14 (`w_Depth + w_Fan-out + w_Density = 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StructWeights {
    /// Weight of the normalized depth factor.
    pub depth: f64,
    /// Weight of the normalized fan-out factor.
    pub fan_out: f64,
    /// Weight of the normalized density factor.
    pub density: f64,
}

impl Default for StructWeights {
    fn default() -> Self {
        // The paper's experimental setting: equal thirds (Section 4.1).
        Self {
            depth: 1.0 / 3.0,
            fan_out: 1.0 / 3.0,
            density: 1.0 / 3.0,
        }
    }
}

/// `Struct_Deg(x, T)` of Equation 14: the structural richness of a node as
/// the weighted sum of its normalized depth, fan-out, and density.
pub fn struct_degree(tree: &XmlTree, node: NodeId, w: StructWeights) -> f64 {
    let depth = if tree.max_depth() == 0 {
        0.0
    } else {
        tree.depth(node) as f64 / tree.max_depth() as f64
    };
    let fan_out = if tree.max_fan_out() == 0 {
        0.0
    } else {
        tree.fan_out(node) as f64 / tree.max_fan_out() as f64
    };
    let density = if tree.max_density() == 0 {
        0.0
    } else {
        tree.density(node) as f64 / tree.max_density() as f64
    };
    w.depth * depth + w.fan_out * fan_out + w.density * density
}

/// Average `Struct_Deg` over all nodes of a tree.
pub fn avg_struct_degree(tree: &XmlTree, w: StructWeights) -> f64 {
    let sum: f64 = tree.preorder().map(|n| struct_degree(tree, n, w)).sum();
    sum / tree.len() as f64
}

/// Average `Amb_Deg` over all nodes of a tree.
pub fn avg_ambiguity_degree(sn: &SemanticNetwork, tree: &XmlTree, w: AmbiguityWeights) -> f64 {
    let sum: f64 = tree
        .preorder()
        .map(|n| ambiguity_degree(sn, tree, n, w))
        .sum();
    sum / tree.len() as f64
}

/// Per-document node statistics (the measurement columns of Table 3).
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeStats {
    /// Node count.
    pub nodes: usize,
    /// Average / maximum label polysemy.
    pub polysemy_avg: f64,
    /// Maximum label polysemy.
    pub polysemy_max: usize,
    /// Average node depth.
    pub depth_avg: f64,
    /// Maximum node depth.
    pub depth_max: u32,
    /// Average fan-out.
    pub fan_out_avg: f64,
    /// Maximum fan-out.
    pub fan_out_max: usize,
    /// Average density (children with distinct labels).
    pub density_avg: f64,
    /// Maximum density.
    pub density_max: usize,
}

json_object!(TreeStats {
    nodes,
    polysemy_avg,
    polysemy_max,
    depth_avg,
    depth_max,
    fan_out_avg,
    fan_out_max,
    density_avg,
    density_max
});

/// Computes the Table 3 statistics of one tree.
pub fn tree_stats(sn: &SemanticNetwork, tree: &XmlTree) -> TreeStats {
    let n = tree.len() as f64;
    let mut stats = TreeStats {
        nodes: tree.len(),
        ..TreeStats::default()
    };
    for node in tree.preorder() {
        let poly = sn
            .senses_normalized(tree.label(node), lingproc::porter_stem)
            .len();
        stats.polysemy_avg += poly as f64;
        stats.polysemy_max = stats.polysemy_max.max(poly);
        stats.depth_avg += tree.depth(node) as f64;
        stats.depth_max = stats.depth_max.max(tree.depth(node));
        stats.fan_out_avg += tree.fan_out(node) as f64;
        stats.fan_out_max = stats.fan_out_max.max(tree.fan_out(node));
        let density = tree.density(node);
        stats.density_avg += density as f64;
        stats.density_max = stats.density_max.max(density);
    }
    stats.polysemy_avg /= n;
    stats.depth_avg /= n;
    stats.fan_out_avg /= n;
    stats.density_avg /= n;
    stats
}

/// Averages a set of per-document statistics (maxima take the max).
pub fn aggregate_stats(all: &[TreeStats]) -> TreeStats {
    let n = all.len() as f64;
    let mut out = TreeStats::default();
    for s in all {
        out.nodes += s.nodes;
        out.polysemy_avg += s.polysemy_avg;
        out.polysemy_max = out.polysemy_max.max(s.polysemy_max);
        out.depth_avg += s.depth_avg;
        out.depth_max = out.depth_max.max(s.depth_max);
        out.fan_out_avg += s.fan_out_avg;
        out.fan_out_max = out.fan_out_max.max(s.fan_out_max);
        out.density_avg += s.density_avg;
        out.density_max = out.density_max.max(s.density_max);
    }
    out.polysemy_avg /= n;
    out.depth_avg /= n;
    out.fan_out_avg /= n;
    out.density_avg /= n;
    out
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

    #[test]
    fn struct_degree_bounds() {
        let t = tree("<films><picture><cast><star/><star/></cast><plot/></picture></films>");
        for node in t.preorder() {
            let d = struct_degree(&t, node, StructWeights::default());
            assert!((0.0..=1.0).contains(&d));
        }
    }

    #[test]
    fn deep_rich_trees_score_higher_than_flat_ones() {
        let rich = tree("<a><b><c><d/><e/></c><f><g/><h/></f></b><i><j><k/><l/></j></i></a>");
        let flat = tree("<a><b/><b/><b/></a>");
        let w = StructWeights::default();
        assert!(avg_struct_degree(&rich, w) > avg_struct_degree(&flat, w));
    }

    #[test]
    fn tree_stats_basics() {
        let sn = mini_wordnet();
        let t = tree("<cast><star>Kelly</star><star>Stewart</star></cast>");
        let s = tree_stats(sn, &t);
        assert_eq!(s.nodes, 5);
        assert_eq!(s.depth_max, 2);
        assert_eq!(s.fan_out_max, 2);
        assert_eq!(s.density_max, 1); // two children share the label "star"
        assert!(s.polysemy_max >= 5); // "star"
        assert!(s.polysemy_avg > 1.0);
    }

    #[test]
    fn aggregate_averages_and_maxes() {
        let a = TreeStats {
            nodes: 10,
            polysemy_avg: 2.0,
            polysemy_max: 5,
            ..Default::default()
        };
        let b = TreeStats {
            nodes: 20,
            polysemy_avg: 4.0,
            polysemy_max: 3,
            ..Default::default()
        };
        let agg = aggregate_stats(&[a, b]);
        assert_eq!(agg.nodes, 30);
        assert!((agg.polysemy_avg - 3.0).abs() < 1e-12);
        assert_eq!(agg.polysemy_max, 5);
    }

    #[test]
    fn ambiguity_average_in_unit_interval() {
        let sn = mini_wordnet();
        let t = tree("<films><picture><cast><star>Kelly</star></cast></picture></films>");
        let avg = avg_ambiguity_degree(sn, &t, AmbiguityWeights::equal());
        assert!((0.0..=1.0).contains(&avg));
        assert!(avg > 0.0);
    }
}
