//! # xsdf-semnet
//!
//! The semantic-network substrate of the XSDF framework: the machine-
//! readable knowledge base of Definition 2 in *Resolving XML Semantic
//! Ambiguity* (EDBT 2015).
//!
//! A [`SemanticNetwork`] `SN = (C, L, G, E, R, f, g)` consists of concepts
//! (synsets) carrying labels, synonym sets and glosses, connected by typed
//! semantic relations (Is-A, Has-A, Part-Of, …). The *weighted* network
//! `S̄N` additionally carries corpus frequencies per concept (Figure 2 of
//! the paper), which feed information-content similarity measures.
//!
//! The paper uses WordNet 2.1. Princeton's database cannot be redistributed
//! here, so this crate ships **MiniWordNet** ([`builtin::mini_wordnet`]): a
//! hand-built semantic network of ~1k synsets that faithfully covers the
//! vocabulary of the paper's ten evaluation datasets — including the
//! polysemy anchors the paper leans on (*head* with 33 senses = WordNet
//! 2.1's maximum, *state* with 8, *star*, *cast*, *picture*, *play*,
//! *Kelly*, *Stewart*, …) — plus a WordNet-style upper ontology. A
//! line-oriented text `format` module and loader let users substitute a real
//! WordNet export.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod builder;
pub mod builtin;
pub mod format;
pub mod graph;
pub mod lemmas;
pub mod model;
pub mod network;
pub mod snapshot;
pub mod tables;
pub mod wndb;

pub use artifacts::GlossArtifacts;
pub use builder::NetworkBuilder;
pub use builtin::mini_wordnet;
pub use lemmas::LemmaTable;
pub use model::{Concept, ConceptId, PartOfSpeech, RelationKind};
pub use network::SemanticNetwork;
pub use snapshot::SnapshotError;
