//! # xsdf-lingproc
//!
//! Linguistic pre-processing for the XSDF framework (Section 3.2 of
//! *Resolving XML Semantic Ambiguity*, EDBT 2015):
//!
//! 1. **tokenization** — splitting element/attribute tag names on
//!    underscores, hyphens, digits and case transitions (`Directed_By`,
//!    `FirstName`), and text values on whitespace/punctuation,
//! 2. **stop-word removal** — a standard English stop list,
//! 3. **stemming** — a full from-scratch implementation of the Porter
//!    stemming algorithm (M.F. Porter, *An algorithm for suffix stripping*,
//!    1980).
//!
//! The [`Preprocessor`] combines all three and implements the paper's
//! compound-word policy: a two-token tag name is first tried as a single
//! expression against the reference lexicon (`first name` → one concept);
//! only if no single concept matches are the tokens treated separately —
//! but they stay inside one node label so one sense is eventually assigned
//! to the pair (Section 3.2, contrast with \[29, 56\]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pipeline;
pub mod stem;
pub mod stopwords;
pub mod tokenize;

pub use pipeline::{morphy_variants, LabelKind, Preprocessor};
pub use stem::porter_stem;
pub use stopwords::is_stop_word;
pub use tokenize::{split_identifier, tokenize_text};
