//! The exact early exit of the scoring loop: a candidate is abandoned the
//! moment its running upper bound can no longer strictly beat the leader.
//!
//! Definition 8 / Equation 10 scoring is quadratic in candidate senses per
//! sphere: every candidate pays one combined-similarity evaluation per
//! context sense. Most candidates of a polysemous target are out of the
//! race long before their last context entry, so the scoring loop
//! ([`crate::Xsdf::disambiguate_selected_guarded`]) always runs bounded and
//! stops each candidate as soon as it provably cannot win. The winner and
//! its score are those of exhaustive scoring, bit for bit.
//!
//! # Exactness of the bound
//!
//! For a candidate with concept score
//! `c = clamp((Σ_i m_i·w_i) / card, 0, 1)` where every `m_i ∈ [0, 1]` and
//! `w_i ≥ 0`, the partial sum after `i` entries plus the remaining weight
//! mass `S_i = Σ_{j≥i} w_j` gives `ub_c = min(1, (partial_i + S_i)/card)
//! ≥ c`. The combined score `w_concept·c + w_context·x` (with the context
//! score `x ∈ [0, 1]` computed first, exactly as exhaustive scoring would)
//! is therefore bounded by `w_concept·ub_c + w_context·x`. Because the
//! pipeline keeps the **first** maximum on ties, a challenger must score
//! *strictly* above the leader, so abandoning when
//! `bound + PRUNE_SLACK ≤ leader` can never change the winner.
//! [`PRUNE_SLACK`] absorbs floating-point drift: survivors run the exact
//! left-to-right summation of unbounded scoring (bit-identical scores),
//! and the bound's own drift is far below the slack (see its docs).

/// Absolute slack added to every upper bound before comparing against the
/// leader, so floating-point drift in the bound can never turn an exact
/// prune into a wrong one.
///
/// Derivation: context-vector coordinates are products of a structural
/// factor in `(0, 1]` and the scale `2/(|S|+1)`, so a single entry weight
/// is `< 2` and a partial/suffix sum over `n` entries is `< 2n`. Naive
/// summation error is below `n·u·2n` (`u ≈ 1.1e-16`), and the subsequent
/// division by `card ≥ n + 1` rescales it to `< 2n·u` — about `2e-10`
/// even for a pathological sphere of a million informative entries, two
/// orders of magnitude under this slack. The cost of the slack is at most
/// one extra (correctly kept) candidate evaluation per hair-thin margin.
pub const PRUNE_SLACK: f64 = 1e-9;
