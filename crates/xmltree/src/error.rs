//! Error types for XML parsing.

use std::fmt;

/// The category of a parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Input ended in the middle of a construct.
    UnexpectedEof,
    /// A character that is not valid at the current position.
    UnexpectedChar(char),
    /// A closing tag that does not match the open element.
    MismatchedTag {
        /// Name of the element that is currently open.
        expected: String,
        /// Name found in the closing tag.
        found: String,
    },
    /// An XML name (element, attribute) is empty or starts with an
    /// invalid character.
    InvalidName(String),
    /// An entity reference (`&...;`) that is malformed or unknown.
    InvalidEntity(String),
    /// The same attribute appears twice on one element.
    DuplicateAttribute(String),
    /// The document has no root element, or content outside the root.
    InvalidStructure(String),
    /// A malformed XML declaration, comment, CDATA section or PI.
    Malformed(String),
    /// Element nesting exceeded the parser's configured depth bound
    /// ([`crate::parser::Parser::max_depth`]). Distinguished from
    /// [`ParseErrorKind::InvalidStructure`] so resource-governed callers
    /// (the batch runtime) can classify it as a limit violation rather
    /// than a malformed document.
    DepthExceeded {
        /// The configured maximum nesting depth.
        limit: u32,
    },
}

/// An error produced while parsing an XML document, carrying the 1-based
/// line and column where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub kind: ParseErrorKind,
    /// 1-based line number of the failure.
    pub line: u32,
    /// 1-based column number of the failure.
    pub column: u32,
}

impl ParseError {
    /// Creates a new parse error at the given position.
    pub fn new(kind: ParseErrorKind, line: u32, column: u32) -> Self {
        Self { kind, line, column }
    }
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnexpectedEof => write!(f, "unexpected end of input"),
            Self::UnexpectedChar(c) => write!(f, "unexpected character {c:?}"),
            Self::MismatchedTag { expected, found } => {
                write!(
                    f,
                    "mismatched closing tag: expected </{expected}>, found </{found}>"
                )
            }
            Self::InvalidName(n) => write!(f, "invalid XML name {n:?}"),
            Self::InvalidEntity(e) => write!(f, "invalid entity reference &{e};"),
            Self::DuplicateAttribute(a) => write!(f, "duplicate attribute {a:?}"),
            Self::InvalidStructure(m) => write!(f, "invalid document structure: {m}"),
            Self::Malformed(m) => write!(f, "malformed construct: {m}"),
            Self::DepthExceeded { limit } => {
                write!(f, "element nesting exceeds the maximum depth of {limit}")
            }
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at line {}, column {}",
            self.kind, self.line, self.column
        )
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position() {
        let err = ParseError::new(ParseErrorKind::UnexpectedEof, 3, 14);
        let text = err.to_string();
        assert!(text.contains("line 3"));
        assert!(text.contains("column 14"));
    }

    #[test]
    fn display_mismatched_tag() {
        let err = ParseError::new(
            ParseErrorKind::MismatchedTag {
                expected: "a".into(),
                found: "b".into(),
            },
            1,
            1,
        );
        assert!(err.to_string().contains("</a>"));
        assert!(err.to_string().contains("</b>"));
    }

    #[test]
    fn kind_equality() {
        assert_eq!(
            ParseErrorKind::UnexpectedChar('<'),
            ParseErrorKind::UnexpectedChar('<')
        );
        assert_ne!(
            ParseErrorKind::UnexpectedChar('<'),
            ParseErrorKind::UnexpectedChar('>')
        );
    }
}
