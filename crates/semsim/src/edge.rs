//! Edge-based similarity: Wu & Palmer (1994), the paper's `Sim_Edge`.

use semnet::graph::{common_subsumer, Subsumer};
use semnet::{ConceptId, SemanticNetwork};

/// Wu–Palmer similarity:
///
/// ```text
/// sim(c1, c2) = 2·depth(lcs) / (len(c1, lcs) + len(c2, lcs) + 2·depth(lcs))
/// ```
///
/// where `lcs` is the lowest common subsumer and `len` counts is-a edges.
/// Ranges over `[0, 1]`, with 1 for identical concepts, and 0 when the
/// concepts share no taxonomy root.
pub fn wu_palmer(sn: &SemanticNetwork, a: ConceptId, b: ConceptId) -> f64 {
    if a == b {
        return 1.0;
    }
    wu_palmer_from(sn, a, b, common_subsumer(sn, a, b))
}

/// [`wu_palmer`] from `subsumer`, the [`common_subsumer`] of `a` and `b`
/// (not read when `a == b`).
pub(crate) fn wu_palmer_from(
    sn: &SemanticNetwork,
    a: ConceptId,
    b: ConceptId,
    subsumer: Option<Subsumer>,
) -> f64 {
    if a == b {
        return 1.0;
    }
    let Some(s) = subsumer else {
        return 0.0;
    };
    let depth_lcs = sn.depth(s.lcs);
    if depth_lcs == u32::MAX {
        return 0.0;
    }
    let la = s.dist_a as f64;
    let lb = s.dist_b as f64;
    let d = depth_lcs as f64;
    if la + lb + 2.0 * d == 0.0 {
        // Both concepts *are* the root.
        return 1.0;
    }
    (2.0 * d) / (la + lb + 2.0 * d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use semnet::mini_wordnet;

    fn id(key: &str) -> ConceptId {
        mini_wordnet().by_key(key).unwrap()
    }

    #[test]
    fn identity_is_one() {
        let sn = mini_wordnet();
        assert_eq!(wu_palmer(sn, id("actor.n"), id("actor.n")), 1.0);
    }

    #[test]
    fn symmetric() {
        let sn = mini_wordnet();
        let (a, b) = (id("star.performer"), id("king.monarch"));
        assert_eq!(wu_palmer(sn, a, b), wu_palmer(sn, b, a));
    }

    #[test]
    fn range_is_unit_interval() {
        let sn = mini_wordnet();
        let keys = [
            "star.performer",
            "star.celestial",
            "cast.actors",
            "entity.n",
            "waffle.food",
        ];
        for ka in keys {
            for kb in keys {
                let s = wu_palmer(sn, id(ka), id(kb));
                assert!((0.0..=1.0).contains(&s), "wp({ka},{kb}) = {s}");
            }
        }
    }

    #[test]
    fn close_concepts_beat_distant_ones() {
        let sn = mini_wordnet();
        // star-the-performer is closer to actor than to star-the-celestial-body.
        let performer_actor = wu_palmer(sn, id("star.performer"), id("actor.n"));
        let performer_celestial = wu_palmer(sn, id("star.performer"), id("star.celestial"));
        assert!(
            performer_actor > performer_celestial,
            "{performer_actor} <= {performer_celestial}"
        );
    }

    #[test]
    fn siblings_score_higher_than_cousins() {
        let sn = mini_wordnet();
        let kelly_stewart = wu_palmer(sn, id("kelly.grace"), id("stewart.james"));
        let kelly_waffle = wu_palmer(sn, id("kelly.grace"), id("waffle.food"));
        assert!(kelly_stewart > kelly_waffle);
    }

    #[test]
    fn movie_domain_coherence() {
        // Within Figure 1's intended senses: Grace Kelly and a star (the
        // performer) share the deep "actor" subsumer, while cast-the-mold
        // and star-the-celestial-body only meet near the taxonomy root.
        // (cast.actors vs star.performer crosses the group/person branch
        // split, which Wu–Palmer alone scores low — exactly why Definition 9
        // combines it with gloss- and node-based evidence.)
        let sn = mini_wordnet();
        let coherent = wu_palmer(sn, id("kelly.grace"), id("star.performer"));
        let incoherent = wu_palmer(sn, id("cast.mold"), id("star.celestial"));
        assert!(coherent > incoherent, "{coherent} <= {incoherent}");
    }

    #[test]
    fn root_with_itself() {
        let sn = mini_wordnet();
        assert_eq!(wu_palmer(sn, id("entity.n"), id("entity.n")), 1.0);
    }
}
