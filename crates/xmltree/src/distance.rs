//! Tree node distance and the sphere/ring traversals of Definitions 4–5.
//!
//! The paper evaluates the distance between two nodes of an XML tree as the
//! number of edges on the (unique) path connecting them. Rings and spheres
//! are then defined as the node sets at exactly / at most a given distance
//! from a center node. The [`SphereWalk`] breadth-first traversal computes
//! a whole sphere (with per-node distances) in `O(|S_d(x)|)`, into buffers
//! the caller keeps across centers.

use crate::tree::{NodeId, XmlTree};

/// The number of edges between two nodes of the tree, computed by walking
/// both nodes up to their lowest common ancestor.
///
/// `dist(x, x) == 0`; for Figure 6 of the paper, `dist("cast", "Kelly") == 2`.
pub fn node_distance(tree: &XmlTree, a: NodeId, b: NodeId) -> u32 {
    if a == b {
        return 0;
    }
    let (mut a, mut b) = (a, b);
    let mut dist = 0;
    // Lift the deeper node until the depths match.
    while tree.depth(a) > tree.depth(b) {
        a = tree.parent(a).expect("deeper node has a parent");
        dist += 1;
    }
    while tree.depth(b) > tree.depth(a) {
        b = tree.parent(b).expect("deeper node has a parent");
        dist += 1;
    }
    // Lift both until they meet.
    while a != b {
        a = tree.parent(a).expect("non-root");
        b = tree.parent(b).expect("non-root");
        dist += 2;
    }
    dist
}

/// The lowest common ancestor of two nodes.
pub fn lowest_common_ancestor(tree: &XmlTree, a: NodeId, b: NodeId) -> NodeId {
    let (mut a, mut b) = (a, b);
    while tree.depth(a) > tree.depth(b) {
        a = tree.parent(a).unwrap();
    }
    while tree.depth(b) > tree.depth(a) {
        b = tree.parent(b).unwrap();
    }
    while a != b {
        a = tree.parent(a).unwrap();
        b = tree.parent(b).unwrap();
    }
    a
}

/// Reusable state of the breadth-first sphere walk: visited flags and the
/// queue. A caller walking many centers of one document keeps one
/// `SphereWalk` and allocates them once; every walk leaves the flags
/// cleared for the next.
#[derive(Debug, Default)]
pub struct SphereWalk {
    visited: Vec<bool>,
    queue: std::collections::VecDeque<(NodeId, u32)>,
}

impl SphereWalk {
    /// Appends to `out` every node within `radius` edges of `center`, with
    /// its distance, in breadth-first (non-decreasing distance) order. The
    /// center itself (distance 0) is **not** appended, matching the
    /// paper's sphere neighborhoods which exclude the target node's own
    /// occurrence at distance 0 from the ring sets (`R_d(x)` is defined
    /// for `d ≥ 1`).
    pub fn walk(
        &mut self,
        tree: &XmlTree,
        center: NodeId,
        radius: u32,
        out: &mut Vec<(NodeId, u32)>,
    ) {
        if self.visited.len() < tree.len() {
            self.visited.resize(tree.len(), false);
        }
        let start = out.len();
        self.visited[center.index()] = true;
        self.queue.push_back((center, 0));
        while let Some((node, dist)) = self.queue.pop_front() {
            if dist < radius {
                // Neighbors: parent plus children (the tree is undirected
                // for distance purposes).
                let mut push = |n: NodeId| {
                    if !self.visited[n.index()] {
                        self.visited[n.index()] = true;
                        self.queue.push_back((n, dist + 1));
                    }
                };
                if let Some(p) = tree.parent(node) {
                    push(p);
                }
                for &c in tree.children(node) {
                    push(c);
                }
                for l in tree.link_neighbors(node) {
                    push(l);
                }
            }
            if dist > 0 {
                out.push((node, dist));
            }
        }
        self.visited[center.index()] = false;
        for &(node, _) in &out[start..] {
            self.visited[node.index()] = false;
        }
    }
}

/// Collects the ring `R_d(x)`: nodes at exactly distance `d` from `x`
/// (Definition 4).
pub fn ring(tree: &XmlTree, center: NodeId, d: u32) -> Vec<NodeId> {
    sphere(tree, center, d)
        .into_iter()
        .filter(|&(_, dist)| dist == d)
        .map(|(n, _)| n)
        .collect()
}

/// Collects the sphere `S_d(x)`: nodes at distance `1..=d` from `x`
/// (Definition 5), with their distances.
pub fn sphere(tree: &XmlTree, center: NodeId, d: u32) -> Vec<(NodeId, u32)> {
    let mut nodes = Vec::new();
    SphereWalk::default().walk(tree, center, d, &mut nodes);
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::tree::TreeBuilder;

    /// Figure 6's tree: films / picture / { cast { star Stewart, star Kelly }, plot }.
    fn figure6_tree() -> XmlTree {
        let doc = parse(
            "<Films><Picture><Cast><Star>Stewart</Star><Star>Kelly</Star></Cast><Plot/></Picture></Films>",
        )
        .unwrap();
        TreeBuilder::new().build(&doc).unwrap().tree
    }

    fn find(tree: &XmlTree, label: &str) -> NodeId {
        tree.preorder().find(|&id| tree.label(id) == label).unwrap()
    }

    fn find_all(tree: &XmlTree, label: &str) -> Vec<NodeId> {
        tree.preorder()
            .filter(|&id| tree.label(id) == label)
            .collect()
    }

    #[test]
    fn distance_examples_from_paper() {
        let t = figure6_tree();
        let cast = find(&t, "Cast");
        let kelly = find(&t, "Kelly");
        // Paper Section 3.4.1: Dist(T[2], T[6]) = 2 for "cast" and "Kelly".
        assert_eq!(node_distance(&t, cast, kelly), 2);
        assert_eq!(node_distance(&t, cast, cast), 0);
    }

    #[test]
    fn distance_is_symmetric() {
        let t = figure6_tree();
        for a in t.preorder() {
            for b in t.preorder() {
                assert_eq!(node_distance(&t, a, b), node_distance(&t, b, a));
            }
        }
    }

    #[test]
    fn distance_triangle_inequality() {
        let t = figure6_tree();
        let nodes: Vec<_> = t.preorder().collect();
        for &a in &nodes {
            for &b in &nodes {
                for &c in &nodes {
                    let ab = node_distance(&t, a, b);
                    let bc = node_distance(&t, b, c);
                    let ac = node_distance(&t, a, c);
                    assert!(ac <= ab + bc);
                }
            }
        }
    }

    #[test]
    fn ring1_of_cast_matches_paper() {
        // R_1("cast") = { picture, star, star }.
        let t = figure6_tree();
        let cast = find(&t, "Cast");
        let mut labels: Vec<_> = ring(&t, cast, 1)
            .into_iter()
            .map(|n| t.label(n).to_string())
            .collect();
        labels.sort();
        assert_eq!(labels, ["Picture", "Star", "Star"]);
    }

    #[test]
    fn sphere2_of_cast_matches_paper() {
        // S_2("cast") = R_1 ∪ R_2 = {picture, star, star} ∪ {films, Stewart, Kelly, plot}.
        let t = figure6_tree();
        let cast = find(&t, "Cast");
        let s = sphere(&t, cast, 2);
        assert_eq!(s.len(), 7);
        let ring2: Vec<_> = s
            .iter()
            .filter(|&&(_, d)| d == 2)
            .map(|&(n, _)| t.label(n).to_string())
            .collect();
        let mut ring2 = ring2;
        ring2.sort();
        assert_eq!(ring2, ["Films", "Kelly", "Plot", "Stewart"]);
    }

    #[test]
    fn sphere_excludes_center() {
        let t = figure6_tree();
        let cast = find(&t, "Cast");
        assert!(sphere(&t, cast, 3).iter().all(|&(n, _)| n != cast));
    }

    #[test]
    fn sphere_radius_zero_is_empty() {
        let t = figure6_tree();
        assert!(sphere(&t, find(&t, "Cast"), 0).is_empty());
    }

    #[test]
    fn sphere_large_radius_covers_tree() {
        let t = figure6_tree();
        let cast = find(&t, "Cast");
        let s = sphere(&t, cast, 100);
        assert_eq!(s.len(), t.len() - 1);
    }

    #[test]
    fn sphere_distances_agree_with_node_distance() {
        let t = figure6_tree();
        for center in t.preorder() {
            for (n, d) in sphere(&t, center, 4) {
                assert_eq!(
                    node_distance(&t, center, n),
                    d,
                    "center/node distance mismatch"
                );
            }
        }
    }

    #[test]
    fn lca_basics() {
        let t = figure6_tree();
        let stars = find_all(&t, "Star");
        let cast = find(&t, "Cast");
        assert_eq!(lowest_common_ancestor(&t, stars[0], stars[1]), cast);
        let plot = find(&t, "Plot");
        let picture = find(&t, "Picture");
        assert_eq!(lowest_common_ancestor(&t, stars[0], plot), picture);
        assert_eq!(lowest_common_ancestor(&t, cast, cast), cast);
        // Ancestor/descendant pair.
        assert_eq!(lowest_common_ancestor(&t, picture, stars[0]), picture);
    }

    #[test]
    fn one_walk_serves_many_centers() {
        // Reused buffers: every walk matches a fresh one, at every radius,
        // whatever the previous walk left behind.
        let t = figure6_tree();
        let mut walk = SphereWalk::default();
        let mut out = Vec::new();
        for radius in [3, 1, 0, 2] {
            for center in t.preorder() {
                out.clear();
                walk.walk(&t, center, radius, &mut out);
                let fresh = sphere(&t, center, radius);
                assert_eq!(out, fresh, "center {center:?} radius {radius}");
            }
        }
    }

    #[test]
    fn rings_partition_sphere() {
        let t = figure6_tree();
        let cast = find(&t, "Cast");
        let s = sphere(&t, cast, 3);
        let by_rings: usize = (1..=3).map(|d| ring(&t, cast, d).len()).sum();
        assert_eq!(s.len(), by_rings);
    }
}

/// Alternative node-distance functions — the paper's future-work direction
/// ("we are currently investigating different XML tree node distance
/// functions (including edge weights, density, direction)", Section 5,
/// citing Ganesan et al. \[16\] and Jiang–Conrath \[21\]).
///
/// A policy assigns every tree edge a positive cost; the *weighted sphere*
/// is then the set of nodes whose cheapest path from the center fits a
/// cost budget (Dijkstra traversal). [`DistancePolicy::EdgeCount`]
/// reproduces the paper's edge-count distance exactly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DistancePolicy {
    /// Every edge costs 1 (the paper's Definition of `Dist`).
    #[default]
    EdgeCount,
    /// Direction-aware costs: edges toward the root cost `up`, edges away
    /// from the root cost `down`. `up < down` makes ancestors "closer"
    /// than descendants (a root-path-leaning context), and vice versa.
    Directional {
        /// Cost of a child→parent step.
        up: f64,
        /// Cost of a parent→child step.
        down: f64,
    },
    /// Density-scaled costs: crossing into a node whose parent has many
    /// *distinct* children is cheaper — information-rich hubs pull their
    /// neighborhoods together (Ganesan-style hierarchy weighting). The
    /// cost of an edge under parent `p` is `1 / (1 + alpha · density(p))`.
    DensityScaled {
        /// Strength of the density discount (0 = plain edge count).
        alpha: f64,
    },
}

impl DistancePolicy {
    /// The cost of traversing the edge between `parent` and `child`, in
    /// the given direction (`upward` = child→parent).
    pub fn edge_cost(self, tree: &XmlTree, parent: NodeId, upward: bool) -> f64 {
        match self {
            Self::EdgeCount => 1.0,
            Self::Directional { up, down } => {
                if upward {
                    up.max(f64::EPSILON)
                } else {
                    down.max(f64::EPSILON)
                }
            }
            Self::DensityScaled { alpha } => {
                1.0 / (1.0 + alpha.max(0.0) * tree.density(parent) as f64)
            }
        }
    }
}

/// Dijkstra traversal: every node whose cheapest path cost from `center`
/// is `(0, budget]`, with that cost. The center itself is not yielded
/// (mirroring [`sphere`]). With [`DistancePolicy::EdgeCount`] and an
/// integer budget `d`, the result equals [`sphere`]`(tree, center, d)`.
pub fn weighted_sphere(
    tree: &XmlTree,
    center: NodeId,
    budget: f64,
    policy: DistancePolicy,
) -> Vec<(NodeId, f64)> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// f64 ordered for the heap (costs are finite and non-negative).
    #[derive(PartialEq)]
    struct Cost(f64);
    impl Eq for Cost {}
    impl PartialOrd for Cost {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Cost {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0)
        }
    }

    let mut best: Vec<f64> = vec![f64::INFINITY; tree.len()];
    best[center.index()] = 0.0;
    let mut heap: BinaryHeap<Reverse<(Cost, NodeId)>> = BinaryHeap::new();
    heap.push(Reverse((Cost(0.0), center)));
    while let Some(Reverse((Cost(cost), node))) = heap.pop() {
        if cost > best[node.index()] {
            continue;
        }
        let mut relax =
            |next: NodeId, edge: f64, heap: &mut BinaryHeap<Reverse<(Cost, NodeId)>>| {
                let candidate = cost + edge;
                if candidate <= budget && candidate < best[next.index()] {
                    best[next.index()] = candidate;
                    heap.push(Reverse((Cost(candidate), next)));
                }
            };
        if let Some(p) = tree.parent(node) {
            relax(p, policy.edge_cost(tree, p, true), &mut heap);
        }
        for &c in tree.children(node) {
            relax(c, policy.edge_cost(tree, node, false), &mut heap);
        }
        for l in tree.link_neighbors(node) {
            // Hyperlink edges cost one unit regardless of policy direction.
            relax(l, 1.0, &mut heap);
        }
    }
    let mut out: Vec<(NodeId, f64)> = tree
        .preorder()
        .filter(|&n| n != center && best[n.index()].is_finite())
        .map(|n| (n, best[n.index()]))
        .collect();
    out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod weighted_tests {
    use super::*;
    use crate::parse;
    use crate::tree::TreeBuilder;

    fn tree() -> XmlTree {
        let doc = parse(
            "<films><picture><cast><star>Stewart</star><star>Kelly</star></cast><plot/></picture></films>",
        )
        .unwrap();
        TreeBuilder::new().build(&doc).unwrap().tree
    }

    fn find(t: &XmlTree, label: &str) -> NodeId {
        t.preorder().find(|&id| t.label(id) == label).unwrap()
    }

    #[test]
    fn edge_count_policy_matches_integer_sphere() {
        let t = tree();
        for center in t.preorder() {
            for d in 1..=3u32 {
                let classic: std::collections::HashMap<_, _> =
                    sphere(&t, center, d).into_iter().collect();
                let weighted = weighted_sphere(&t, center, d as f64, DistancePolicy::EdgeCount);
                assert_eq!(classic.len(), weighted.len());
                for (n, cost) in weighted {
                    assert_eq!(classic[&n] as f64, cost);
                }
            }
        }
    }

    #[test]
    fn directional_up_cheap_reaches_ancestors_first() {
        let t = tree();
        let star = find(&t, "star");
        // Upward steps cost 0.2, downward 1.0: with budget 1.0 the whole
        // root path is in reach but not the sibling star's token.
        let policy = DistancePolicy::Directional { up: 0.2, down: 1.0 };
        let reached: Vec<String> = weighted_sphere(&t, star, 0.61, policy)
            .into_iter()
            .map(|(n, _)| t.label(n).to_string())
            .collect();
        assert!(reached.contains(&"cast".to_string()));
        assert!(reached.contains(&"picture".to_string()));
        assert!(reached.contains(&"films".to_string()));
        assert!(!reached.contains(&"Stewart".to_string()));
    }

    #[test]
    fn directional_down_cheap_prefers_subtree() {
        let t = tree();
        let picture = find(&t, "picture");
        let policy = DistancePolicy::Directional {
            up: 10.0,
            down: 0.5,
        };
        let reached: Vec<String> = weighted_sphere(&t, picture, 1.5, policy)
            .into_iter()
            .map(|(n, _)| t.label(n).to_string())
            .collect();
        // All descendants within 3 downward steps, no ancestor.
        assert!(reached.contains(&"Kelly".to_string()));
        assert!(!reached.contains(&"films".to_string()));
    }

    #[test]
    fn density_scaled_pulls_dense_hubs_closer() {
        let t = tree();
        let star = find(&t, "star");
        // picture has 2 distinct children (cast, plot): crossing under it
        // is discounted; tokens under the single-label star are not.
        let policy = DistancePolicy::DensityScaled { alpha: 1.0 };
        let costs: std::collections::HashMap<String, f64> = weighted_sphere(&t, star, 10.0, policy)
            .into_iter()
            .map(|(n, c)| (t.label(n).to_string(), c))
            .collect();
        // cast (parent of star; picture's subtree has distinct labels) is
        // cheaper to reach than a full unit edge.
        assert!(costs["cast"] < 1.0);
        assert!(costs["plot"] < costs["Stewart"] + 1.0);
    }

    #[test]
    fn zero_alpha_density_equals_edge_count() {
        let t = tree();
        let cast = find(&t, "cast");
        let a = weighted_sphere(&t, cast, 2.0, DistancePolicy::DensityScaled { alpha: 0.0 });
        let b = weighted_sphere(&t, cast, 2.0, DistancePolicy::EdgeCount);
        assert_eq!(a, b);
    }

    #[test]
    fn costs_are_monotone_along_paths() {
        let t = tree();
        let policy = DistancePolicy::Directional { up: 0.7, down: 1.3 };
        let reached = weighted_sphere(&t, t.root(), 5.0, policy);
        for (n, cost) in &reached {
            if let Some(p) = t.parent(*n) {
                if p != t.root() {
                    let parent_cost = reached
                        .iter()
                        .find(|(m, _)| *m == p)
                        .map(|(_, c)| *c)
                        .unwrap();
                    assert!(parent_cost < *cost + 1e-9);
                }
            }
        }
    }
}
