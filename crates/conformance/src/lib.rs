//! # conformance
//!
//! Paper-conformance oracle for the XSDF reproduction (*Resolving XML
//! Semantic Ambiguity*, EDBT 2015).
//!
//! The [`mod@reference`] module reimplements every formula of the paper
//! straight from its definitions — linguistic pre-processing (Section
//! 3.2), ambiguity degrees (Propositions 1–3, Definition 3), sphere
//! neighborhoods and context vectors (Definitions 4–7), the three
//! similarity measures and their combination (Definitions 8–9), the
//! context-based score (Definition 10, Equation 12), and the combined
//! score (Equation 13) — written for clarity, with **zero** caching,
//! interning, or scratch-buffer reuse. It deliberately shares no code
//! with the optimized crates beyond the four linguistic primitives
//! (`split_identifier`, `tokenize_text`, `is_stop_word`, `porter_stem`)
//! and raw data accessors of the semantic network.
//!
//! The [`harness`] module drives both implementations over the `corpus`
//! generators (normal and pathological documents) and the integration
//! tests assert agreement: bit-for-bit where the optimized path claims
//! it (cache on/off, thread counts, `EdgeCount` weighted vs unweighted)
//! and `≤ 1e-12` elsewhere, plus metamorphic invariants (sphere
//! monotonicity in the radius, label-renaming equivariance,
//! serialize → reparse fixpoints).
//!
//! Run with `cargo test -p conformance`; set `XSDF_CONFORMANCE_QUICK=1`
//! to shrink the corpus sweep for fast CI turnarounds. Every failure
//! message carries the generator seed and document identity needed to
//! reproduce it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod reference;
