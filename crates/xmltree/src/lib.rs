//! # xsdf-xmltree
//!
//! XML parsing and tree modelling substrate for the XSDF framework
//! (*Resolving XML Semantic Ambiguity*, EDBT 2015).
//!
//! This crate provides, from scratch (no external XML dependencies):
//!
//! * a recursive-descent [`parser`] for XML 1.0 documents (elements,
//!   attributes, text, CDATA sections, comments, processing instructions,
//!   standard entities and character references),
//! * an arena-based [`document`] model ([`Document`]) addressed by stable
//!   [`DocNodeId`] handles,
//! * the paper's **rooted ordered labeled tree** abstraction
//!   ([`tree::XmlTree`], Definition 1): preorder-indexed nodes carrying a
//!   label, a depth, a fan-out, and a *density* (number of children with
//!   distinct labels),
//! * tree [`distance`] queries (edge-count distance, rings, and the
//!   breadth-first sphere traversal behind Definitions 4–5),
//! * [`navigate`] helpers (ancestors, root paths, subtrees, siblings),
//! * the semantically augmented output tree ([`semantic::SemanticTree`],
//!   Figure 4 of the paper) and XML [`serialize`] support.
//!
//! The crate is deliberately free of linguistic knowledge: how a tag name or
//! text value is split into tokens is delegated to the [`tree::ValueTokenizer`]
//! trait so that higher layers (the `xsdf-lingproc` crate) can plug in real
//! linguistic pre-processing while this crate stays self-contained.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distance;
pub mod document;
pub mod error;
pub mod links;
pub mod navigate;
pub mod parser;
pub mod semantic;
pub mod serialize;
pub mod tree;

pub use document::{DocNode, DocNodeId, Document};
pub use error::{ParseError, ParseErrorKind};
pub use semantic::{SemanticNode, SemanticTree};
pub use tree::{NodeId, NodeKind, TreeBuilder, XmlTree};

/// Parses an XML string into a [`Document`].
///
/// Convenience wrapper around [`parser::Parser`].
///
/// ```
/// let doc = xsdf_xmltree::parse("<films><picture title='Rear Window'/></films>").unwrap();
/// let root = doc.root_element().unwrap();
/// assert_eq!(doc.name(root), Some("films"));
/// ```
pub fn parse(input: &str) -> Result<Document, ParseError> {
    parser::Parser::new(input).parse_document()
}
