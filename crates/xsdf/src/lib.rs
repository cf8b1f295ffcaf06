//! # xsdf
//!
//! The core library of **XSDF** — the XML Semantic Disambiguation Framework
//! of *Resolving XML Semantic Ambiguity* (Charbel, Tekli, Chbeir & Tekli,
//! EDBT 2015). XSDF transforms a syntactic XML tree into a semantic XML
//! tree whose ambiguous nodes carry unambiguous concept identifiers from a
//! reference semantic network.
//!
//! The pipeline (Figure 3 of the paper) has four stages, each a module:
//!
//! 1. linguistic pre-processing — performed while building the tree
//!    ([`senses::LingTokenizer`], backed by the `xsdf-lingproc` crate);
//! 2. node selection — the [`ambiguity`] degree measure (Definition 3)
//!    picks the most ambiguous nodes as disambiguation targets;
//! 3. context definition and representation — [`sphere`] neighborhoods
//!    (Definitions 4–5) and structurally weighted context vectors
//!    (Definitions 6–7);
//! 4. semantic disambiguation — [`concept_based`] (Definition 8),
//!    [`context_based`] (Definition 10), or their weighted combination
//!    (Equation 13), selected by [`config::DisambiguationProcess`].
//!
//! # Quick start
//!
//! ```
//! use xsdf::{Xsdf, XsdfConfig};
//!
//! let xml = r#"<films>
//!     <picture title="Rear Window">
//!         <cast><star>Stewart</star><star>Kelly</star></cast>
//!         <plot>a photographer spies on his neighbors</plot>
//!     </picture>
//! </films>"#;
//!
//! let framework = Xsdf::new(semnet::mini_wordnet(), XsdfConfig::default());
//! let result = framework.disambiguate_str(xml).unwrap();
//! // "Kelly" in a cast of stars resolves to Grace Kelly, the actress:
//! let kelly = result.assignment_for_label("kelly").unwrap();
//! assert_eq!(kelly, "kelly.grace");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ambiguity;
pub mod concept_based;
pub mod config;
pub mod context_based;
pub mod guard;
pub mod pipeline;
pub mod prune;
pub mod senses;
pub mod sphere;

pub use ambiguity::NodeAmbiguity;
pub use config::{
    AmbiguityWeights, DisambiguationProcess, ThresholdPolicy, VectorSimilarity, XsdfConfig,
};
pub use guard::{Deadline, Guard, GuardError, LimitKind};
pub use pipeline::{DisambiguationResult, NodeReport, SenseChoice, Xsdf};
pub use senses::{LingTokenizer, SenseCandidates};
pub use xmltree::distance::DistancePolicy;
