//! Per-document resource limits for batch runs.
//!
//! Nothing in the paper's pipeline bounds what one document may cost: a
//! deeply nested, mega-fanout, or hyper-polysemous document can consume
//! unbounded memory and CPU. [`ResourceLimits`] puts explicit ceilings on
//! the expensive dimensions; the engine enforces the byte and depth bounds
//! up front (before/while parsing) and threads the rest through
//! [`xsdf::Guard`] as cooperative budget checks inside selection and
//! scoring. The default is unlimited in every dimension but nesting
//! depth, which never exceeds [`MAX_DEPTH`].

use xmltree::parser::Parser;
use xmltree::Document;
use xsdf::guard::{Deadline, Guard};

use crate::XsdfError;

/// The deepest element nesting any document may have. The parser and the
/// tree builder recurse once per element: 256 levels run the whole
/// pipeline on a 2 MiB thread stack in a debug build, while the release
/// tree build overflows that stack between 3k and 4k levels. A
/// [`ResourceLimits::max_depth`] may lower this ceiling, never raise it.
pub const MAX_DEPTH: u32 = 256;

/// Ceilings on what a single document may consume. `None` means unlimited.
///
/// ```
/// use runtime::ResourceLimits;
///
/// let limits = ResourceLimits::unlimited()
///     .max_bytes(1 << 20)        // 1 MiB of raw XML
///     .max_nodes(50_000)         // tree nodes after building
///     .max_depth(128)            // element nesting while parsing
///     .max_targets(5_000)        // selected disambiguation targets
///     .max_sense_pairs(200_000); // single-sense evaluations while scoring
/// assert_eq!(limits.max_bytes, Some(1 << 20));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Maximum raw document size in bytes, checked before parsing.
    pub max_bytes: Option<usize>,
    /// Maximum number of nodes in the built tree.
    pub max_nodes: Option<usize>,
    /// Maximum element nesting depth, wired through to
    /// [`xmltree::parser::Parser::max_depth`] and capped at [`MAX_DEPTH`]
    /// (see [`ResourceLimits::depth_bound`]). When unset the cap applies.
    pub max_depth: Option<u32>,
    /// Maximum number of selected disambiguation targets.
    pub max_targets: Option<usize>,
    /// Maximum sense-pair budget units per document — the dimension that
    /// explodes with polysemy. One unit is one single-sense combined
    /// similarity evaluation in the scoring loop; a compound sense *pair*
    /// (Equation 10 averages two single-token senses) draws two units, so
    /// the budget measures work, not loop iterations. See
    /// [`xsdf::Guard::tick_sense_pair`] for the canonical definition.
    pub max_sense_pairs: Option<u64>,
}

impl ResourceLimits {
    /// No limits at all (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Sets the raw document size ceiling.
    pub fn max_bytes(mut self, max: usize) -> Self {
        self.max_bytes = Some(max);
        self
    }

    /// Sets the tree-node ceiling.
    pub fn max_nodes(mut self, max: usize) -> Self {
        self.max_nodes = Some(max);
        self
    }

    /// Sets the element-nesting ceiling. Values above [`MAX_DEPTH`] parse
    /// as [`MAX_DEPTH`].
    pub fn max_depth(mut self, max: u32) -> Self {
        self.max_depth = Some(max);
        self
    }

    /// Sets the selected-target ceiling.
    pub fn max_targets(mut self, max: usize) -> Self {
        self.max_targets = Some(max);
        self
    }

    /// Sets the sense-pair budget ceiling (in single-sense evaluation
    /// units — see [`ResourceLimits::max_sense_pairs`]).
    pub fn max_sense_pairs(mut self, max: u64) -> Self {
        self.max_sense_pairs = Some(max);
        self
    }

    /// The nesting bound documents are parsed with: `max_depth` capped at
    /// [`MAX_DEPTH`], or [`MAX_DEPTH`] itself when unset.
    pub fn depth_bound(&self) -> u32 {
        self.max_depth.map_or(MAX_DEPTH, |max| max.min(MAX_DEPTH))
    }

    /// Parses one document with nesting bounded by
    /// [`ResourceLimits::depth_bound`]; going deeper is a
    /// [`XsdfError::LimitExceeded`], any other failure a parse error. The
    /// byte bound is the caller's, checked before the text is parsed.
    pub fn parse(&self, xml: &str) -> Result<Document, XsdfError> {
        let mut parser = Parser::new(xml);
        parser.max_depth = self.depth_bound();
        Ok(parser.parse_document()?)
    }

    /// Checks a built tree's node count against `max_nodes`.
    pub fn check_nodes(&self, nodes: usize) -> Result<(), XsdfError> {
        Ok(self.guard(None).check_nodes(nodes)?)
    }

    /// The cooperative in-pipeline guard for one document: the node,
    /// target, and sense-pair budgets plus an optional deadline. Byte and
    /// depth bounds are enforced by the engine itself before this guard
    /// comes into play.
    pub(crate) fn guard(&self, deadline: Option<Deadline>) -> Guard {
        let mut guard = Guard::unlimited();
        if let Some(max) = self.max_nodes {
            guard = guard.with_max_nodes(max);
        }
        if let Some(max) = self.max_targets {
            guard = guard.with_max_targets(max);
        }
        if let Some(max) = self.max_sense_pairs {
            guard = guard.with_max_sense_pairs(max);
        }
        if let Some(deadline) = deadline {
            guard = guard.with_deadline(deadline);
        }
        guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unlimited() {
        let limits = ResourceLimits::default();
        assert_eq!(limits, ResourceLimits::unlimited());
        assert!(limits.guard(None).is_unlimited());
    }

    #[test]
    fn builder_sets_every_field() {
        let limits = ResourceLimits::unlimited()
            .max_bytes(1)
            .max_nodes(2)
            .max_depth(3)
            .max_targets(4)
            .max_sense_pairs(5);
        assert_eq!(limits.max_bytes, Some(1));
        assert_eq!(limits.max_nodes, Some(2));
        assert_eq!(limits.max_depth, Some(3));
        assert_eq!(limits.max_targets, Some(4));
        assert_eq!(limits.max_sense_pairs, Some(5));
        let guard = limits.guard(None);
        assert!(guard.check_nodes(3).is_err());
        assert!(guard.check_targets(5).is_err());
    }

    #[test]
    fn depth_bound_never_exceeds_the_ceiling() {
        let limits = ResourceLimits::unlimited();
        assert_eq!(limits.depth_bound(), MAX_DEPTH);
        assert_eq!(limits.max_depth(16).depth_bound(), 16);
        assert_eq!(limits.max_depth(MAX_DEPTH + 1).depth_bound(), MAX_DEPTH);
    }

    #[test]
    fn sense_pair_budget_is_denominated_in_evaluation_units() {
        use crate::BatchEngine;
        // One document with a compound target (pairs draw two units each)
        // and one with only single-sense targets (one unit each). The
        // exact unit count comes from an unlimited traced run; the budget
        // must then be exact-to-the-unit: equal passes, one less trips.
        for doc in [
            "<films><star_picture/><cast/></films>",
            "<cd><artist/><track/></cd>",
        ] {
            let probe =
                BatchEngine::new(semnet::mini_wordnet(), xsdf::XsdfConfig::default()).tracing(true);
            let outcome = probe.process_document_observed(doc);
            assert!(outcome.result.is_ok());
            let units = outcome.span.expect("traced").sense_pairs;
            assert!(units > 0, "{doc}: no scoring work observed");

            let at_budget = BatchEngine::new(semnet::mini_wordnet(), xsdf::XsdfConfig::default())
                .limits(ResourceLimits::unlimited().max_sense_pairs(units));
            assert!(at_budget.process_document(doc).is_ok(), "{doc}: at budget");

            let under = BatchEngine::new(semnet::mini_wordnet(), xsdf::XsdfConfig::default())
                .limits(ResourceLimits::unlimited().max_sense_pairs(units - 1));
            let err = under.process_document(doc).unwrap_err();
            assert_eq!(err.kind(), "limit", "{doc}: one unit under must trip");
        }
    }
}
