//! # xsdf-semsim
//!
//! Semantic similarity measures over a semantic network, as catalogued in
//! Section 2.1 of *Resolving XML Semantic Ambiguity* (EDBT 2015) and
//! combined by its Definition 9:
//!
//! * **edge-based** ([`edge::wu_palmer`]): Wu & Palmer's path measure
//!   (reference \[59\] of the paper),
//! * **node-based** ([`node::lin`]): Lin's information-content measure over
//!   the weighted network `S̄N` (reference \[27\]),
//! * **gloss-based** ([`gloss::extended_gloss_overlap`]): a normalized
//!   extension of Banerjee & Pedersen's extended gloss overlaps
//!   (reference \[6\]),
//! * the weighted **combination** ([`combined::CombinedSimilarity`],
//!   Definition 9), with user-tunable weights `w_Edge + w_Node + w_Gloss = 1`,
//! * **vector similarities** ([`vector`]) — cosine (used by Definition 10),
//!   Jaccard, and Pearson — over sparse labeled vectors.
//!
//! Pair scores are memoized through the pluggable [`cache::SimilarityCache`]
//! trait: serial callers use the default [`cache::LocalCache`]; concurrent
//! batch engines share one thread-safe cache across workers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod combined;
pub mod edge;
pub mod gloss;
pub mod node;
pub mod vector;

pub use cache::{
    KeyHashBuilder, KeyHasher, LocalCache, PairKey, SimilarityCache, VectorKey, WeightsFingerprint,
};
pub use combined::{CombinedSimilarity, SimilarityWeights};
pub use edge::wu_palmer;
pub use gloss::extended_gloss_overlap;
pub use node::lin;
pub use vector::SparseVector;
