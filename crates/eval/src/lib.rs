//! # xsdf-eval
//!
//! The evaluation harness reproducing **every table and figure** of
//! *Resolving XML Semantic Ambiguity* (EDBT 2015, Section 4):
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Table 1 (groups by ambiguity × structure) | [`experiments::table1`] | `exp_table1` |
//! | Table 2 (human/system ambiguity correlation) | [`experiments::table2`] | `exp_table2` |
//! | Table 3 (corpus characteristics) | [`experiments::table3`] | `exp_table3` |
//! | Table 4 (qualitative comparison) | [`experiments::table4`] | `exp_table4` |
//! | Figure 8 (f-value by configuration) | [`experiments::fig8`] | `exp_fig8` |
//! | Figure 9 (XSDF vs RPD vs VSD) | [`experiments::fig9`] | `exp_fig9` |
//!
//! Each experiment returns a result that the binaries render as
//! fixed-width text tables and dump as JSON (through [`json::ToJson`])
//! next to the output, so paper-vs-measured comparisons in
//! `EXPERIMENTS.md` are regenerable with one command per artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod json;
pub mod metrics;
pub mod report;
pub mod stats;
pub mod tuning;

pub use metrics::{f_value, pearson, PrfScores};
pub use stats::{struct_degree, StructWeights};
