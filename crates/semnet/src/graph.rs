//! Graph queries over a semantic network: subsumption, lowest common
//! subsumer, shortest paths, and the semantic sphere neighborhoods used by
//! context-based disambiguation (Section 3.5.2 of the paper).

use std::collections::{HashSet, VecDeque};

use crate::model::ConceptId;
use crate::network::SemanticNetwork;

/// All is-a ancestors of a concept with their minimal hypernym-path
/// distances, in breadth-first order: the concept itself first at
/// distance 0, then each ancestor at the first (shortest) distance the
/// walk reaches it.
///
/// This is the crate's one ancestor walk. It builds
/// [`SemanticNetwork::ancestor_table`], which holds this list for every
/// concept; subsumption, taxonomy path lengths and the lowest common
/// subsumer read the table. An ancestry is a few dozen concepts at most,
/// so the list doubles as the BFS queue and a linear scan is the
/// membership test.
pub fn ancestors(sn: &SemanticNetwork, c: ConceptId) -> Vec<(ConceptId, u32)> {
    // Room for a typical ancestry (a WordNet noun sits about a dozen
    // hypernyms deep), so the walk rarely regrows the list.
    let mut out = Vec::with_capacity(16);
    out.push((c, 0));
    let mut next = 0;
    while let Some(&(node, d)) = out.get(next) {
        next += 1;
        for parent in sn.hypernyms(node) {
            if !out.iter().any(|&(seen, _)| seen == parent) {
                out.push((parent, d + 1));
            }
        }
    }
    out
}

/// The lowest common subsumer of two concepts together with each
/// concept's minimal is-a distance to it: everything Wu–Palmer and Lin
/// similarity read from the taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subsumer {
    /// The shared is-a ancestor with maximal taxonomy depth, ties broken
    /// toward the smallest concept id.
    pub lcs: ConceptId,
    /// Minimal is-a edges from the first concept up to `lcs`.
    pub dist_a: u32,
    /// Minimal is-a edges from the second concept up to `lcs`.
    pub dist_b: u32,
}

/// The ancestors two concepts share, each with its minimal distance from
/// `a` and from `b`, read from the network's ancestor table.
fn shared_ancestors(
    sn: &SemanticNetwork,
    a: ConceptId,
    b: ConceptId,
) -> impl Iterator<Item = (ConceptId, u32, u32)> + '_ {
    let table = sn.ancestor_table();
    let anc_b = table.get(b);
    table.get(a).iter().filter_map(move |&(c, da)| {
        let &(_, db) = anc_b.iter().find(|&&(cb, _)| cb == c)?;
        Some((c, da, db))
    })
}

/// The lowest common subsumer of `a` and `b` with both minimal
/// distances to it. `None` when the concepts share no ancestor
/// (different taxonomy roots).
pub fn common_subsumer(sn: &SemanticNetwork, a: ConceptId, b: ConceptId) -> Option<Subsumer> {
    shared_ancestors(sn, a, b)
        .max_by_key(|&(c, _, _)| (sn.depth(c), std::cmp::Reverse(c)))
        .map(|(lcs, dist_a, dist_b)| Subsumer {
            lcs,
            dist_a,
            dist_b,
        })
}

/// The lowest common subsumer (LCS) of two concepts: the shared is-a
/// ancestor with maximal taxonomy depth. `None` when the concepts share no
/// ancestor (different taxonomy roots).
pub fn lowest_common_subsumer(
    sn: &SemanticNetwork,
    a: ConceptId,
    b: ConceptId,
) -> Option<ConceptId> {
    common_subsumer(sn, a, b).map(|s| s.lcs)
}

/// Length (in edges) of the shortest is-a path between two concepts going
/// through a shared ancestor, the path length used by edge-based
/// similarity.
pub fn taxonomy_path_length(sn: &SemanticNetwork, a: ConceptId, b: ConceptId) -> Option<u32> {
    shared_ancestors(sn, a, b).map(|(_, da, db)| da + db).min()
}

/// `true` if `ancestor` subsumes `c` (is an is-a ancestor of it, or equal).
pub fn subsumes(sn: &SemanticNetwork, ancestor: ConceptId, c: ConceptId) -> bool {
    sn.ancestor_table()
        .get(c)
        .iter()
        .any(|&(x, _)| x == ancestor)
}

/// The semantic sphere `S_d(c)`: concepts within `d` links of `c`,
/// excluding the center, with their distances (the semantic-network
/// counterpart of Definition 5, used by Definition 10).
///
/// The paper builds concept spheres "using the different kinds of semantic
/// relations connecting semantic concepts (e.g., hypernyms, hyponyms,
/// meronyms, holonyms)", so the walk crosses every typed link.
pub fn concept_sphere(sn: &SemanticNetwork, center: ConceptId, d: u32) -> Vec<(ConceptId, u32)> {
    let mut seen = HashSet::new();
    let mut queue = VecDeque::new();
    seen.insert(center);
    queue.push_back((center, 0u32));
    let mut out = Vec::new();
    while let Some((node, dist)) = queue.pop_front() {
        if dist >= d {
            continue;
        }
        for &(_, next) in sn.edges(node) {
            if seen.insert(next) {
                out.push((next, dist + 1));
                queue.push_back((next, dist + 1));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::model::{PartOfSpeech, RelationKind};
    use std::collections::HashMap;

    /// entity → { person → actor → { star, clown }, object → vehicle }.
    fn taxonomy() -> SemanticNetwork {
        let mut b = NetworkBuilder::new();
        b.concept("entity", &["entity"], "", 1, PartOfSpeech::Noun);
        b.noun("person", &["person"], "", 1, "entity");
        b.noun("object", &["object"], "", 1, "entity");
        b.noun("actor", &["actor"], "", 1, "person");
        b.noun("star", &["star"], "", 1, "actor");
        b.noun("clown", &["clown"], "", 1, "actor");
        b.noun("vehicle", &["vehicle"], "", 1, "object");
        b.relate("star", RelationKind::MemberOf, "cast");
        b.concept(
            "cast",
            &["cast"],
            "the actors of a show",
            1,
            PartOfSpeech::Noun,
        );
        b.relate("cast", RelationKind::Hypernym, "entity");
        b.build().unwrap()
    }

    fn id(sn: &SemanticNetwork, key: &str) -> ConceptId {
        sn.by_key(key).unwrap()
    }

    #[test]
    fn ancestors_include_self_at_zero() {
        let sn = taxonomy();
        let star = id(&sn, "star");
        let keys: Vec<_> = ancestors(&sn, star)
            .into_iter()
            .map(|(c, d)| (sn.concept(c).key.as_str(), d))
            .collect();
        assert_eq!(
            keys,
            [("star", 0), ("actor", 1), ("person", 2), ("entity", 3)]
        );
    }

    #[test]
    fn lcs_of_siblings_is_parent() {
        let sn = taxonomy();
        let lcs = lowest_common_subsumer(&sn, id(&sn, "star"), id(&sn, "clown")).unwrap();
        assert_eq!(sn.concept(lcs).key, "actor");
    }

    #[test]
    fn lcs_across_branches_is_root() {
        let sn = taxonomy();
        let lcs = lowest_common_subsumer(&sn, id(&sn, "star"), id(&sn, "vehicle")).unwrap();
        assert_eq!(sn.concept(lcs).key, "entity");
    }

    #[test]
    fn lcs_with_self_is_self() {
        let sn = taxonomy();
        let star = id(&sn, "star");
        assert_eq!(lowest_common_subsumer(&sn, star, star), Some(star));
    }

    #[test]
    fn lcs_of_ancestor_pair_is_the_ancestor() {
        let sn = taxonomy();
        let lcs = lowest_common_subsumer(&sn, id(&sn, "star"), id(&sn, "person")).unwrap();
        assert_eq!(sn.concept(lcs).key, "person");
    }

    #[test]
    fn common_subsumer_carries_both_distances() {
        let sn = taxonomy();
        let at = |a: &str, b: &str| {
            let s = common_subsumer(&sn, id(&sn, a), id(&sn, b)).unwrap();
            (sn.concept(s.lcs).key.as_str(), s.dist_a, s.dist_b)
        };
        assert_eq!(at("star", "clown"), ("actor", 1, 1));
        assert_eq!(at("star", "vehicle"), ("entity", 3, 2));
        assert_eq!(at("star", "person"), ("person", 2, 0));
        assert_eq!(at("person", "star"), ("person", 0, 2));
        assert_eq!(at("star", "star"), ("star", 0, 0));
    }

    /// root → { x → y → { z, other }, w, p, q }, with `leaf` under both z
    /// and w, and `m`, `n` each under both p and q.
    fn multiple_inheritance() -> SemanticNetwork {
        let mut b = NetworkBuilder::new();
        b.concept("root", &["root"], "", 1, PartOfSpeech::Noun);
        for (key, parent) in [
            ("x", "root"),
            ("y", "x"),
            ("z", "y"),
            ("w", "root"),
            ("leaf", "z"),
            ("other", "y"),
            ("p", "root"),
            ("q", "root"),
            ("m", "p"),
            ("n", "q"),
        ] {
            b.noun(key, &[key], "", 1, parent);
        }
        b.relate("leaf", RelationKind::Hypernym, "w");
        b.relate("m", RelationKind::Hypernym, "q");
        b.relate("n", RelationKind::Hypernym, "p");
        b.build().unwrap()
    }

    #[test]
    fn ancestor_distances_are_minimal_under_multiple_inheritance() {
        let sn = multiple_inheritance();
        let leaf = id(&sn, "leaf");
        let dist = |key: &str| {
            ancestors(&sn, leaf)
                .into_iter()
                .find(|&(c, _)| c == id(&sn, key))
                .map(|(_, d)| d)
        };
        // root is 2 up through w, not 4 up through z → y → x.
        assert_eq!(dist("root"), Some(2));
        assert_eq!(dist("y"), Some(2));
        assert_eq!(dist("x"), Some(3));
        assert_eq!(dist("other"), None);
    }

    #[test]
    fn common_subsumer_is_deepest_shared_ancestor_under_multiple_inheritance() {
        let sn = multiple_inheritance();
        let (leaf, other) = (id(&sn, "leaf"), id(&sn, "other"));
        // Shared: y (depth 2), x (1), root (0); y is deepest.
        assert_eq!(
            common_subsumer(&sn, leaf, other),
            Some(Subsumer {
                lcs: id(&sn, "y"),
                dist_a: 2,
                dist_b: 1,
            })
        );
        // The shortest path runs through y as well: 2 + 1.
        assert_eq!(taxonomy_path_length(&sn, leaf, other), Some(3));
        assert!(subsumes(&sn, id(&sn, "w"), leaf));
        assert!(!subsumes(&sn, id(&sn, "w"), other));
    }

    #[test]
    fn common_subsumer_ties_go_to_the_smallest_id() {
        let sn = multiple_inheritance();
        let (m, n, p) = (id(&sn, "m"), id(&sn, "n"), id(&sn, "p"));
        // p and q are both depth-1 shared parents; p was added first.
        assert!(p < id(&sn, "q"));
        for (a, b) in [(m, n), (n, m)] {
            assert_eq!(
                common_subsumer(&sn, a, b),
                Some(Subsumer {
                    lcs: p,
                    dist_a: 1,
                    dist_b: 1,
                })
            );
        }
    }

    #[test]
    fn path_length_via_lcs() {
        let sn = taxonomy();
        // star → actor → person ← … clown: star-actor-clown = 2.
        assert_eq!(
            taxonomy_path_length(&sn, id(&sn, "star"), id(&sn, "clown")),
            Some(2)
        );
        // star to vehicle: 3 up + 2 down = 5.
        assert_eq!(
            taxonomy_path_length(&sn, id(&sn, "star"), id(&sn, "vehicle")),
            Some(5)
        );
        assert_eq!(
            taxonomy_path_length(&sn, id(&sn, "star"), id(&sn, "star")),
            Some(0)
        );
    }

    #[test]
    fn subsumption() {
        let sn = taxonomy();
        assert!(subsumes(&sn, id(&sn, "person"), id(&sn, "star")));
        assert!(!subsumes(&sn, id(&sn, "star"), id(&sn, "person")));
        assert!(subsumes(&sn, id(&sn, "star"), id(&sn, "star")));
    }

    #[test]
    fn sphere_crosses_all_relations_by_default() {
        let sn = taxonomy();
        let star = id(&sn, "star");
        let s1: Vec<_> = concept_sphere(&sn, star, 1)
            .into_iter()
            .map(|(c, _)| sn.concept(c).key.clone())
            .collect();
        // actor (hypernym) and cast (member-of).
        assert!(s1.contains(&"actor".to_string()));
        assert!(s1.contains(&"cast".to_string()));
        assert_eq!(s1.len(), 2);
    }

    #[test]
    fn sphere_distances_are_bfs_layers() {
        let sn = taxonomy();
        let star = id(&sn, "star");
        let sphere = concept_sphere(&sn, star, 2);
        let dist: HashMap<_, _> = sphere
            .iter()
            .map(|&(c, d)| (sn.concept(c).key.clone(), d))
            .collect();
        assert_eq!(dist["actor"], 1);
        assert_eq!(dist["cast"], 1);
        assert_eq!(dist["person"], 2);
        assert_eq!(dist["clown"], 2);
        // entity reachable at 2 via cast.
        assert_eq!(dist["entity"], 2);
    }

    #[test]
    fn disconnected_concepts_have_no_lcs() {
        let mut b = NetworkBuilder::new();
        b.concept("a", &["a"], "", 1, PartOfSpeech::Noun);
        b.concept("b", &["b"], "", 1, PartOfSpeech::Noun);
        let sn = b.build().unwrap();
        assert_eq!(
            lowest_common_subsumer(&sn, ConceptId(0), ConceptId(1)),
            None
        );
        assert_eq!(taxonomy_path_length(&sn, ConceptId(0), ConceptId(1)), None);
    }
}
