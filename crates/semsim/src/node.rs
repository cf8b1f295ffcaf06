//! Node-based similarity: Lin (1998), the paper's `Sim_Node`, computed from
//! the statistical distribution of concept frequencies in the weighted
//! network `S̄N` (Figure 2 of the paper).

use semnet::graph::{common_subsumer, lowest_common_subsumer, Subsumer};
use semnet::{ConceptId, SemanticNetwork};

/// Lin similarity:
///
/// ```text
/// sim(c1, c2) = 2·IC(lcs(c1, c2)) / (IC(c1) + IC(c2))
/// ```
///
/// where `IC(c) = −ln p(c)` with `p` estimated from cumulative concept
/// frequencies. Ranges over `[0, 1]`; 1 for identical concepts; 0 when the
/// concepts share no subsumer or the subsumer carries no information.
pub fn lin(sn: &SemanticNetwork, a: ConceptId, b: ConceptId) -> f64 {
    if a == b {
        return 1.0;
    }
    lin_from(sn, a, b, common_subsumer(sn, a, b))
}

/// [`lin`] from `subsumer`, the [`common_subsumer`] of `a` and `b` (not
/// read when `a == b`).
pub(crate) fn lin_from(
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
    let ic_lcs = sn.information_content(s.lcs);
    let denom = sn.information_content(a) + sn.information_content(b);
    if denom <= 0.0 || ic_lcs <= 0.0 {
        return 0.0;
    }
    (2.0 * ic_lcs / denom).clamp(0.0, 1.0)
}

/// Resnik similarity (the raw information content of the LCS), exposed for
/// ablation benchmarks; normalized to `\[0, 1\]` by the maximum IC in the
/// network (the IC of a frequency-0 leaf).
pub fn resnik_normalized(sn: &SemanticNetwork, a: ConceptId, b: ConceptId) -> f64 {
    let Some(lcs) = lowest_common_subsumer(sn, a, b) else {
        return 0.0;
    };
    let max_ic = -(1.0 / (sn.total_frequency() as f64 + sn.len() as f64)).ln();
    if max_ic <= 0.0 {
        return 0.0;
    }
    (sn.information_content(lcs) / max_ic).clamp(0.0, 1.0)
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
        assert_eq!(lin(sn, id("actor.n"), id("actor.n")), 1.0);
    }

    #[test]
    fn symmetric_and_bounded() {
        let sn = mini_wordnet();
        let keys = [
            "kelly.grace",
            "stewart.james",
            "cast.actors",
            "state.province",
            "entity.n",
        ];
        for ka in keys {
            for kb in keys {
                let s = lin(sn, id(ka), id(kb));
                assert!((0.0..=1.0).contains(&s), "lin({ka},{kb}) = {s}");
                assert!((s - lin(sn, id(kb), id(ka))).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn informative_lcs_beats_generic_lcs() {
        let sn = mini_wordnet();
        // Two actresses share the specific concept "actress" (high IC);
        // an actress and a waffle share only a near-root concept (low IC).
        let actresses = lin(sn, id("kelly.grace"), id("bergman.ingrid"));
        let mixed = lin(sn, id("kelly.grace"), id("waffle.food"));
        assert!(actresses > mixed, "{actresses} <= {mixed}");
    }

    #[test]
    fn lin_tracks_taxonomic_closeness() {
        let sn = mini_wordnet();
        let close = lin(sn, id("star.performer"), id("actor.n"));
        let far = lin(sn, id("star.performer"), id("soil.ground"));
        assert!(close > far);
    }

    #[test]
    fn resnik_bounded_and_monotone_with_lcs_depth() {
        let sn = mini_wordnet();
        let close = resnik_normalized(sn, id("kelly.grace"), id("bergman.ingrid"));
        let far = resnik_normalized(sn, id("kelly.grace"), id("zone.climate"));
        assert!((0.0..=1.0).contains(&close));
        assert!(close > far);
    }

    #[test]
    fn disconnected_concepts_score_zero() {
        // Adjectives have no taxonomy parent → no LCS with nouns.
        let sn = mini_wordnet();
        assert_eq!(lin(sn, id("hardy.a"), id("actor.n")), 0.0);
    }
}
