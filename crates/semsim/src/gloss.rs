//! Gloss-based similarity: a normalized extension of Banerjee & Pedersen's
//! *extended gloss overlaps* (2003), the paper's `Sim_Gloss`.
//!
//! The extended gloss of a concept is its own gloss plus the glosses of its
//! directly related concepts (hypernyms, hyponyms, meronyms, …). The score
//! accumulates squared lengths of maximal common word phrases between the
//! two extended glosses (so an n-word shared phrase counts n², rewarding
//! longer overlaps), then normalizes by a saturation constant, yielding
//! `\[0, 1\]`.
//!
//! The kernel runs entirely over interned `u32` token ids from
//! [`semnet::GlossArtifacts`]: tokenization, stop filtering and stemming
//! happen once per network, not once per scored pair. Interning is
//! injective (distinct tokens get distinct ids), so id equality coincides
//! with string equality and the id-space scores are bit-for-bit identical
//! to the historical string-space implementation (the
//! `gloss_equivalence` integration test pins this down pair by pair).
//!
//! Phrase matching works on a list of matches. Merging two
//! `(token, position)` lists sorted by token lists the position pairs that
//! hold equal tokens; [`SemanticNetwork::gloss_occurrences`] holds those
//! lists for every extended gloss, built once per network. Each greedy
//! round scans the surviving pairs once instead of filling an `|a| × |b|`
//! table of run lengths. The unit tests keep the table version as the
//! oracle: both pick the same run in every round, so both return the same
//! bits.

use semnet::tables::token_occurrences;
use semnet::{ConceptId, SemanticNetwork};

/// Greedy phrase-overlap score of Banerjee–Pedersen over two token
/// sequences: repeatedly find the longest common contiguous token-id
/// sequence, add its squared length, erase it from both sides, until no
/// overlap of length ≥ 1 remains.
fn overlap_score(a: &[u32], b: &[u32]) -> f64 {
    occurrence_overlap(&token_occurrences(a), &token_occurrences(b))
}

/// [`overlap_score`] of the two sequences whose
/// [`token_occurrences`] are `a` and `b`.
///
/// Merging the lists by token lists every position pair `(i, j)` holding
/// equal tokens, packed as `(i − j) << 32 | i` so that sorting orders them
/// by diagonal and then by `i`. A common run is then a stretch of keys
/// that each exceed the previous by one. Each round scans the surviving
/// pairs once for the longest run and drops the pairs inside the two
/// ranges it erases. `i − j` wraps in `u32`, which keeps diagonals apart
/// for sequences shorter than 2³¹ tokens.
fn occurrence_overlap(a: &[(u32, u32)], b: &[(u32, u32)]) -> f64 {
    let mut matches = Vec::new();
    let (mut x, mut y) = (0, 0);
    while x < a.len() && y < b.len() {
        let token = a[x].0;
        match token.cmp(&b[y].0) {
            std::cmp::Ordering::Less => x += 1,
            std::cmp::Ordering::Greater => y += 1,
            std::cmp::Ordering::Equal => {
                let x_end = x + a[x..].iter().take_while(|o| o.0 == token).count();
                let y_end = y + b[y..].iter().take_while(|o| o.0 == token).count();
                for &(_, i) in &a[x..x_end] {
                    for &(_, j) in &b[y..y_end] {
                        matches.push(u64::from(i.wrapping_sub(j)) << 32 | u64::from(i));
                    }
                }
                (x, y) = (x_end, y_end);
            }
        }
    }
    matches.sort_unstable();
    let mut score = 0.0;
    while let Some((len, ai, bi)) = longest_run(&matches) {
        score += (len as usize * len as usize) as f64;
        matches.retain(|&m| {
            let (i, j) = unpack(m);
            i.wrapping_sub(ai) >= len && j.wrapping_sub(bi) >= len
        });
    }
    score
}

/// The `(i, j)` position pair of a packed match.
fn unpack(m: u64) -> (u32, u32) {
    let i = m as u32;
    (i, i.wrapping_sub((m >> 32) as u32))
}

/// The longest run among the sorted packed `matches`, as `(length,
/// start_a, start_b)`; `None` when no match is left.
///
/// Among equally long runs this takes the one ending at the smallest
/// `(i, j)`: the run-length table, scanned row by row keeping the first
/// cell that beats the best so far, keeps the first cell holding the
/// longest length, and only the end of a longest run holds it.
fn longest_run(matches: &[u64]) -> Option<(u32, u32, u32)> {
    let mut best: Option<(u32, (u32, u32))> = None;
    let mut start = 0;
    for k in 0..matches.len() {
        if matches.get(k + 1) == Some(&(matches[k] + 1)) {
            continue;
        }
        let len = (k + 1 - start) as u32;
        let end = unpack(matches[k]);
        if best.is_none_or(|(best_len, best_end)| (len, best_end) > (best_len, end)) {
            best = Some((len, end));
        }
        start = k + 1;
    }
    best.map(|(len, (i, j))| (len, i + 1 - len, j + 1 - len))
}

/// Saturation constant of the gloss-overlap normalization: a raw
/// Banerjee–Pedersen overlap equal to `GLOSS_SATURATION` maps to 0.5.
/// Sixteen corresponds to one shared 4-word phrase — strong lexical
/// evidence — while a single accidental shared word (raw score 1) maps to
/// ≈ 0.06.
pub const GLOSS_SATURATION: f64 = 16.0;

/// Normalized extended gloss overlap similarity in `\[0, 1\]`:
///
/// ```text
/// sim(c1, c2) = overlap(g1, g2) / (overlap(g1, g2) + K)
/// ```
///
/// where `g` is the extended gloss and `K` is [`GLOSS_SATURATION`]. The
/// raw Banerjee–Pedersen overlap is an unbounded sum of squared phrase
/// lengths; this saturating map is the "normalized extension" the paper
/// applies for Definition 9 — it is strictly monotone in the raw score
/// (preserving every ordering the original measure produces) and
/// asymptotically reaches 1.
///
/// Neighbors shared by both concepts contribute to neither extended gloss.
/// Two sibling senses share their hypernym: comparing the parent's gloss
/// against itself would score `|gloss|²` for *any* sibling pair, drowning
/// the lexical signal. That common-ancestry evidence is already what the
/// edge- and node-based measures quantify, so the gloss measure drops it
/// and stays purely lexical.
pub fn extended_gloss_overlap(sn: &SemanticNetwork, a: ConceptId, b: ConceptId) -> f64 {
    if a == b {
        return 1.0;
    }
    let art = sn.gloss_artifacts();
    // Disjoint token *sets* (supersets of every exclusion-filtered
    // sequence) guarantee a zero raw overlap, which maps to exactly 0.0 —
    // the same value the full kernel would produce. This also covers the
    // empty-gloss case.
    if !art.token_sets_intersect(a, b) {
        return 0.0;
    }
    let shared = art.shared_neighbors(a, b);
    let cross = if shared.is_empty() {
        let occurrences = sn.gloss_occurrences();
        occurrence_overlap(occurrences.get(a), occurrences.get(b))
    } else {
        let mut ga = Vec::new();
        let mut gb = Vec::new();
        art.extended_gloss_excluding(sn, a, &shared, &mut ga);
        art.extended_gloss_excluding(sn, b, &shared, &mut gb);
        if ga.is_empty() || gb.is_empty() {
            return 0.0;
        }
        overlap_score(&ga, &gb)
    };
    cross / (cross + GLOSS_SATURATION)
}

/// Fast pre-check used by callers that want to skip the phrase matching:
/// `false` guarantees [`extended_gloss_overlap`] returns 0.
///
/// Runs a merge walk over the two precomputed sorted token-id sets — no
/// tokenization, no allocation. The check is deliberately conservative: it
/// ignores the shared-neighbor exclusion (the sets are supersets of the
/// sequences actually scored), so it may return `true` for a pair whose
/// exclusion-filtered overlap is still 0, but never the reverse.
pub fn glosses_share_any_word(sn: &SemanticNetwork, a: ConceptId, b: ConceptId) -> bool {
    sn.gloss_artifacts().token_sets_intersect(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use semnet::mini_wordnet;

    fn id(key: &str) -> ConceptId {
        mini_wordnet().by_key(key).unwrap()
    }

    /// Interns two string token lists into a shared id space, mirroring
    /// what [`semnet::GlossArtifacts`] does for real glosses — lets the
    /// unit tests keep exercising the kernel with readable inputs.
    fn intern2(a: &[&str], b: &[&str]) -> (Vec<u32>, Vec<u32>) {
        let mut table: std::collections::HashMap<String, u32> = std::collections::HashMap::new();
        let mut intern = |tokens: &[&str]| -> Vec<u32> {
            tokens
                .iter()
                .map(|t| {
                    let next = table.len() as u32;
                    *table.entry(t.to_string()).or_insert(next)
                })
                .collect()
        };
        let ia = intern(a);
        let ib = intern(b);
        (ia, ib)
    }

    fn score(a: &[&str], b: &[&str]) -> f64 {
        let (ia, ib) = intern2(a, b);
        overlap_score(&ia, &ib)
    }

    #[test]
    fn overlap_counts_squared_phrases() {
        // "motion picture" is a 2-word phrase → 4.
        assert_eq!(
            score(
                &["motion", "picture", "shown", "theater"],
                &["motion", "picture", "industry"]
            ),
            4.0
        );
    }

    #[test]
    fn overlap_greedy_removes_used_tokens() {
        // Single "star" matches once only.
        assert_eq!(score(&["star", "star"], &["star"]), 1.0);
    }

    #[test]
    fn longer_phrases_beat_scattered_words() {
        let phrase = score(&["a", "b", "c"], &["a", "b", "c"]);
        let scattered = score(&["a", "b", "c"], &["a", "x", "b", "y", "c"]);
        assert!(phrase > scattered);
    }

    #[test]
    fn erased_positions_never_match_each_other() {
        // Both sides contain a repeated pair; after "a b" is consumed the
        // erased holes must not line up as a phantom run.
        assert_eq!(score(&["a", "b", "a", "b"], &["a", "b"]), 4.0);
    }

    #[test]
    fn identity_is_one() {
        let sn = mini_wordnet();
        assert_eq!(
            extended_gloss_overlap(sn, id("cast.actors"), id("cast.actors")),
            1.0
        );
    }

    #[test]
    fn bounded_and_symmetric() {
        let sn = mini_wordnet();
        let keys = ["cast.actors", "star.performer", "film.movie", "waffle.food"];
        for ka in keys {
            for kb in keys {
                let v = extended_gloss_overlap(sn, id(ka), id(kb));
                assert!((0.0..=1.0).contains(&v), "gloss({ka},{kb}) = {v}");
                let r = extended_gloss_overlap(sn, id(kb), id(ka));
                assert!((v - r).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn movie_glosses_overlap_more_than_cross_domain() {
        let sn = mini_wordnet();
        // "cast of a motion picture" vs "actor in a motion picture":
        // the shared phrase "motion picture" should dominate.
        let coherent = extended_gloss_overlap(sn, id("cast.actors"), id("star.performer"));
        let incoherent = extended_gloss_overlap(sn, id("cast.mold"), id("waffle.food"));
        assert!(coherent > incoherent, "{coherent} <= {incoherent}");
    }

    #[test]
    fn share_any_word_precheck_consistent() {
        let sn = mini_wordnet();
        // false ⇒ overlap must be exactly 0 — over every pair drawn from a
        // cross-domain anchor set.
        let keys = [
            "cast.actors",
            "cast.mold",
            "star.performer",
            "star.celestial",
            "film.movie",
            "waffle.food",
            "kelly.grace",
        ];
        for ka in keys {
            for kb in keys {
                let (a, b) = (id(ka), id(kb));
                if !glosses_share_any_word(sn, a, b) {
                    assert_eq!(
                        extended_gloss_overlap(sn, a, b),
                        0.0,
                        "precheck false but overlap > 0 for ({ka}, {kb})"
                    );
                }
                if a != b && extended_gloss_overlap(sn, a, b) > 0.0 {
                    assert!(glosses_share_any_word(sn, a, b));
                }
            }
        }
    }

    #[test]
    fn empty_vs_anything_is_zero() {
        assert_eq!(score(&[], &["x"]), 0.0);
    }

    /// The dynamic-programming kernel, kept as the oracle of
    /// [`overlap_score`]: each greedy round fills an `|a| × |b|` table of
    /// common-run lengths over the surviving positions, takes the first
    /// longest run in row-major order, and overwrites it with `ERASED`.
    mod reference {
        const ERASED: u32 = u32::MAX;

        pub fn overlap_score(a: &[u32], b: &[u32]) -> f64 {
            let mut a = a.to_vec();
            let mut b = b.to_vec();
            let mut prev = vec![0usize; b.len() + 1];
            let mut cur = vec![0usize; b.len() + 1];
            let mut score = 0.0;
            loop {
                let (len, ai, bi) = longest_common_run(&a, &b, &mut prev, &mut cur);
                if len == 0 {
                    return score;
                }
                score += (len * len) as f64;
                for k in 0..len {
                    a[ai + k] = ERASED;
                    b[bi + k] = ERASED;
                }
            }
        }

        fn longest_common_run(
            a: &[u32],
            b: &[u32],
            prev: &mut Vec<usize>,
            cur: &mut Vec<usize>,
        ) -> (usize, usize, usize) {
            let mut best = (0usize, 0usize, 0usize);
            prev.fill(0);
            for (i, &ta) in a.iter().enumerate() {
                cur.fill(0);
                if ta != ERASED {
                    for (j, &tb) in b.iter().enumerate() {
                        if ta == tb {
                            cur[j + 1] = prev[j] + 1;
                            if cur[j + 1] > best.0 {
                                best = (cur[j + 1], i + 1 - cur[j + 1], j + 1 - cur[j + 1]);
                            }
                        }
                    }
                }
                std::mem::swap(prev, cur);
            }
            best
        }
    }

    #[test]
    fn overlap_matches_the_dynamic_programming_reference_bit_for_bit() {
        // Tiny alphabets and lengths up to 30 make ties between equally
        // long runs, repeated tokens and adjacent erased holes common.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut below = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let mut positive = 0;
        for _ in 0..20_000 {
            let alphabet = 1 + below(6);
            let [a, b]: [Vec<u32>; 2] = std::array::from_fn(|_| {
                let len = below(31);
                (0..len).map(|_| below(alphabet) as u32).collect()
            });
            let expected = reference::overlap_score(&a, &b);
            assert_eq!(
                overlap_score(&a, &b).to_bits(),
                expected.to_bits(),
                "{a:?} against {b:?}"
            );
            positive += usize::from(expected > 0.0);
        }
        assert!(positive > 10_000, "only {positive} overlapping pairs");
    }
}
