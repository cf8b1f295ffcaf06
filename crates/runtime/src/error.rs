//! The unified per-document failure taxonomy of the batch runtime.
//!
//! Every way a document can fail inside [`crate::BatchEngine`] maps onto
//! one [`XsdfError`] variant, so callers (and the `xsdf` CLI) can report,
//! count, and retry failures by kind instead of pattern-matching on error
//! strings.

use std::fmt;
use std::time::Duration;

use xmltree::{ParseError, ParseErrorKind};
use xsdf::guard::{GuardError, LimitKind};

/// Why one document of a batch failed. Failures are always per-document:
/// an erroring document never affects its batch neighbors.
#[derive(Debug, Clone, PartialEq)]
pub enum XsdfError {
    /// The document is not well-formed XML.
    Parse(ParseError),
    /// The document exceeded a configured [`crate::ResourceLimits`] bound.
    LimitExceeded {
        /// Which bound.
        which: LimitKind,
        /// The configured limit.
        limit: u64,
        /// The observed (first offending) value.
        actual: u64,
    },
    /// The per-document deadline passed before the pipeline finished.
    DeadlineExceeded {
        /// The configured per-document budget.
        budget: Duration,
        /// Elapsed time when the overrun was detected.
        elapsed: Duration,
    },
    /// The pipeline panicked while processing this document. The panic was
    /// caught at the document boundary; sibling documents are unaffected.
    Panicked {
        /// The panic payload, when it was a string (the common case).
        message: String,
    },
    /// The document was never processed because the batch was cancelled
    /// first (fail-fast mode after an earlier failure).
    Cancelled,
}

impl XsdfError {
    /// A short stable kind tag (`parse`, `limit`, `deadline`, `panic`,
    /// `cancelled`) for logs, CLI output, and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Parse(_) => "parse",
            Self::LimitExceeded { .. } => "limit",
            Self::DeadlineExceeded { .. } => "deadline",
            Self::Panicked { .. } => "panic",
            Self::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for XsdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Parse(e) => write!(f, "{e}"),
            Self::LimitExceeded {
                which,
                limit,
                actual,
            } => write!(f, "{which} limit of {limit} exceeded ({actual})"),
            Self::DeadlineExceeded { budget, elapsed } => write!(
                f,
                "deadline of {:.1} ms exceeded after {:.1} ms",
                budget.as_secs_f64() * 1e3,
                elapsed.as_secs_f64() * 1e3
            ),
            Self::Panicked { message } => write!(f, "pipeline panicked: {message}"),
            Self::Cancelled => write!(f, "cancelled before processing (fail-fast batch)"),
        }
    }
}

impl std::error::Error for XsdfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for XsdfError {
    /// Classifies parse failures: exceeding the parser's depth bound is a
    /// resource-limit violation (the input may be perfectly well-formed),
    /// everything else is a genuine parse error.
    fn from(e: ParseError) -> Self {
        match e.kind {
            ParseErrorKind::DepthExceeded { limit } => Self::LimitExceeded {
                which: LimitKind::Depth,
                limit: u64::from(limit),
                actual: u64::from(limit) + 1,
            },
            _ => Self::Parse(e),
        }
    }
}

impl From<GuardError> for XsdfError {
    fn from(e: GuardError) -> Self {
        match e {
            GuardError::LimitExceeded {
                which,
                limit,
                actual,
            } => Self::LimitExceeded {
                which,
                limit,
                actual,
            },
            GuardError::DeadlineExceeded { budget, elapsed } => {
                Self::DeadlineExceeded { budget, elapsed }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_parse_errors_classify_as_limits() {
        let mut deep = String::new();
        for _ in 0..300 {
            deep.push_str("<n>");
        }
        let parse_err = xmltree::parse(&deep).unwrap_err();
        let err = XsdfError::from(parse_err);
        assert_eq!(err.kind(), "limit");
        assert!(matches!(
            err,
            XsdfError::LimitExceeded {
                which: LimitKind::Depth,
                limit: 256,
                actual: 257
            }
        ));
    }

    #[test]
    fn ordinary_parse_errors_stay_parse() {
        let err = XsdfError::from(xmltree::parse("<a></b>").unwrap_err());
        assert_eq!(err.kind(), "parse");
        assert!(err.to_string().contains("mismatched"));
    }

    #[test]
    fn guard_errors_convert_losslessly() {
        let err: XsdfError = GuardError::LimitExceeded {
            which: LimitKind::SensePairs,
            limit: 10,
            actual: 11,
        }
        .into();
        assert_eq!(err.kind(), "limit");
        let err: XsdfError = GuardError::DeadlineExceeded {
            budget: Duration::from_millis(5),
            elapsed: Duration::from_millis(9),
        }
        .into();
        assert_eq!(err.kind(), "deadline");
        assert!(err.to_string().contains("5.0 ms"));
    }

    #[test]
    fn every_kind_has_a_stable_tag() {
        assert_eq!(
            XsdfError::Panicked {
                message: "boom".into()
            }
            .kind(),
            "panic"
        );
        assert_eq!(XsdfError::Cancelled.kind(), "cancelled");
    }
}
