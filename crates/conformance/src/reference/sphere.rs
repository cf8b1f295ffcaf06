//! Reference sphere neighborhoods and context vectors (Section 3.4,
//! Definitions 4–7, and the semantic-network side of Section 3.5.2 with
//! Equation 12's compound union sphere).

use std::collections::BTreeMap;

use semnet::{ConceptId, SemanticNetwork};
use xmltree::{NodeId, XmlTree};

/// A plain labeled vector: dimension label → coordinate. No interning,
/// no sharing; built fresh on every call.
pub type RefVector = BTreeMap<String, f64>;

/// Adds `w` to the coordinate of `label`.
pub fn vec_add(v: &mut RefVector, label: &str, w: f64) {
    *v.entry(label.to_string()).or_insert(0.0) += w;
}

/// The Euclidean norm of a reference vector.
pub fn vec_norm(v: &RefVector) -> f64 {
    v.values().map(|w| w * w).sum::<f64>().sqrt()
}

/// The structural proximity factor of Definition 7:
/// `Struct(x_i) = 1 − Dist(x, x_i)/(d + 1)`.
pub fn struct_factor(dist: u32, radius: u32) -> f64 {
    1.0 - dist as f64 / (radius as f64 + 1.0)
}

/// The number of edges between two tree nodes — the length of the unique
/// connecting path, found by breadth-first search over parent, children,
/// and hyperlink neighbors. `None` when no path exists within the tree.
pub fn node_distance(tree: &XmlTree, a: NodeId, b: NodeId) -> Option<u32> {
    if a == b {
        return Some(0);
    }
    let mut dist: Vec<Option<u32>> = vec![None; tree.len()];
    dist[a.index()] = Some(0);
    let mut frontier = vec![a];
    let mut d = 0u32;
    while !frontier.is_empty() {
        d += 1;
        let mut next = Vec::new();
        for node in frontier {
            let mut neighbors: Vec<NodeId> = Vec::new();
            if let Some(p) = tree.parent(node) {
                neighbors.push(p);
            }
            neighbors.extend_from_slice(tree.children(node));
            neighbors.extend(tree.link_neighbors(node));
            for n in neighbors {
                if dist[n.index()].is_none() {
                    dist[n.index()] = Some(d);
                    if n == b {
                        return Some(d);
                    }
                    next.push(n);
                }
            }
        }
        frontier = next;
    }
    None
}

/// The sphere `S_d(x)` of Definition 5 — every node within `radius` edges
/// of the center, excluding the center itself — computed the slow way:
/// one full [`node_distance`] search per candidate node, in preorder.
pub fn xml_sphere(tree: &XmlTree, center: NodeId, radius: u32) -> Vec<(NodeId, u32)> {
    tree.preorder()
        .filter(|&n| n != center)
        .filter_map(|n| match node_distance(tree, center, n) {
            Some(d) if d <= radius => Some((n, d)),
            _ => None,
        })
        .collect()
}

/// The ring `R_d(x)` of Definition 4: nodes at exactly distance `d`.
pub fn xml_ring(tree: &XmlTree, center: NodeId, d: u32) -> Vec<NodeId> {
    xml_sphere(tree, center, d)
        .into_iter()
        .filter(|&(_, dist)| dist == d)
        .map(|(n, _)| n)
        .collect()
}

/// The XML context vector `V_d(x)` of Definitions 6–7. Per Definition 5
/// the sphere includes the degenerate ring `R_0 = {x}`, so the center's
/// own label enters at `Struct = 1` and counts toward `|S_d(x)|`:
///
/// ```text
/// Freq(ℓ) = Σ Struct(x_i)  over sphere nodes labeled ℓ
/// w(ℓ)    = 2·Freq(ℓ) / (|S_d(x)| + 1)
/// ```
pub fn xml_context_vector(tree: &XmlTree, center: NodeId, radius: u32) -> RefVector {
    let context = xml_sphere(tree, center, radius);
    let cardinality = context.len() as f64 + 1.0;
    let scale = 2.0 / (cardinality + 1.0);
    let mut v = RefVector::new();
    vec_add(&mut v, tree.label(center), struct_factor(0, radius) * scale);
    for (node, dist) in context {
        vec_add(
            &mut v,
            tree.label(node),
            struct_factor(dist, radius) * scale,
        );
    }
    v
}

/// The semantic sphere of a concept: concepts within `d` links of any
/// relation kind, excluding the center, with minimal link distances —
/// found by breadth-first expansion over the typed adjacency.
pub fn concept_sphere(sn: &SemanticNetwork, center: ConceptId, d: u32) -> Vec<(ConceptId, u32)> {
    let mut seen: Vec<ConceptId> = vec![center];
    let mut out: Vec<(ConceptId, u32)> = Vec::new();
    let mut frontier = vec![center];
    let mut dist = 0u32;
    while dist < d && !frontier.is_empty() {
        dist += 1;
        let mut next = Vec::new();
        for node in frontier {
            for &(_, neighbor) in sn.edges(node) {
                if !seen.contains(&neighbor) {
                    seen.push(neighbor);
                    out.push((neighbor, dist));
                    next.push(neighbor);
                }
            }
        }
        frontier = next;
    }
    out
}

/// The semantic-network context vector `V_d(s_p)` of Section 3.5.2: the
/// same Definition 6–7 construction with rings built from semantic
/// relations, every lemma of a concept contributing to its dimension
/// (concept labels are pre-processed, footnote 9).
pub fn concept_context_vector(sn: &SemanticNetwork, center: ConceptId, radius: u32) -> RefVector {
    let sphere = concept_sphere(sn, center, radius);
    let cardinality = sphere.len() as f64 + 1.0;
    let scale = 2.0 / (cardinality + 1.0);
    let mut v = RefVector::new();
    for lemma in &sn.concept(center).lemmas {
        vec_add(&mut v, lemma, struct_factor(0, radius) * scale);
    }
    for (c, dist) in sphere {
        let w = struct_factor(dist, radius) * scale;
        for lemma in &sn.concept(c).lemmas {
            vec_add(&mut v, lemma, w);
        }
    }
    v
}

/// Equation 12's compound-sense context vector `V_d(s_p, s_q)`, built
/// from the union sphere `S_d(s_p) ∪ S_d(s_q)` (each concept at its
/// minimal distance; the two token senses themselves at distance 0).
pub fn compound_concept_context_vector(
    sn: &SemanticNetwork,
    first: ConceptId,
    second: ConceptId,
    radius: u32,
) -> RefVector {
    let mut union: Vec<(ConceptId, u32)> = vec![(first, 0), (second, 0)];
    union.extend(concept_sphere(sn, first, radius));
    union.extend(concept_sphere(sn, second, radius));
    union.sort_by_key(|&(c, d)| (c, d));
    union.dedup_by_key(|&mut (c, _)| c);
    let cardinality = union.len() as f64;
    let scale = 2.0 / (cardinality + 1.0);
    let mut v = RefVector::new();
    for (c, dist) in union {
        let w = struct_factor(dist, radius) * scale;
        for lemma in &sn.concept(c).lemmas {
            vec_add(&mut v, lemma, w);
        }
    }
    v
}
