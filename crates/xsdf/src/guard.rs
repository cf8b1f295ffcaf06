//! Cooperative resource governance for the pipeline: per-document budgets
//! and deadlines, checked at stage boundaries and inside the sense-pair
//! scoring loop.
//!
//! The paper's pipeline assumes well-formed cooperative input, but
//! real-world XML is heterogeneous and sense-scoring cost explodes with
//! polysemy: a mega-fanout or hyper-polysemous document can hold a worker
//! hostage for seconds. A [`Guard`] bounds what one document may consume —
//! tree nodes, selected targets, scored sense pairs, wall-clock time — and
//! the guarded pipeline entry points ([`crate::Xsdf::select_guarded`],
//! [`crate::Xsdf::disambiguate_selected_guarded`]) return a
//! [`GuardError`] instead of running away. Checks are cooperative (no
//! signals, no thread cancellation), so a budget overrun surfaces at the
//! next check site — within one sense-pair evaluation of the overrun.

use std::cell::Cell;
use std::fmt;
use std::time::{Duration, Instant};

/// Which resource bound a document exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitKind {
    /// Raw document size in bytes.
    Bytes,
    /// Number of nodes in the built tree.
    Nodes,
    /// Element nesting depth during parsing.
    Depth,
    /// Number of selected disambiguation targets.
    Targets,
    /// Number of sense pairs scored during disambiguation.
    SensePairs,
}

impl fmt::Display for LimitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Self::Bytes => "document bytes",
            Self::Nodes => "tree nodes",
            Self::Depth => "parse depth",
            Self::Targets => "selected targets",
            Self::SensePairs => "scored sense pairs",
        };
        f.write_str(name)
    }
}

/// A resource-governance failure: the document is not malformed, it is
/// merely too expensive for the budget it was given.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GuardError {
    /// A resource budget was exceeded.
    LimitExceeded {
        /// Which budget.
        which: LimitKind,
        /// The configured bound.
        limit: u64,
        /// The observed (first offending) value.
        actual: u64,
    },
    /// The document's wall-clock deadline passed before the pipeline
    /// finished; the partial work is discarded.
    DeadlineExceeded {
        /// The configured per-document budget.
        budget: Duration,
        /// Elapsed time when the overrun was detected.
        elapsed: Duration,
    },
}

impl fmt::Display for GuardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
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
        }
    }
}

impl std::error::Error for GuardError {}

/// A per-document wall-clock deadline token.
///
/// Cheap to copy and purely cooperative: callers ask [`Deadline::check`] at
/// stage boundaries (and the scoring loop asks periodically), so a runaway
/// document returns an error at the next check site instead of stalling a
/// worker forever.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    started: Instant,
    budget: Duration,
}

impl Deadline {
    /// A deadline expiring `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Self {
            started: Instant::now(),
            budget,
        }
    }

    /// Time elapsed since the deadline was issued.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Whether the budget has run out.
    pub fn expired(&self) -> bool {
        self.elapsed() > self.budget
    }

    /// `Ok` while within budget, [`GuardError::DeadlineExceeded`] after.
    pub fn check(&self) -> Result<(), GuardError> {
        let elapsed = self.elapsed();
        if elapsed > self.budget {
            Err(GuardError::DeadlineExceeded {
                budget: self.budget,
                elapsed,
            })
        } else {
            Ok(())
        }
    }
}

/// How many sense-pair ticks pass between deadline checks inside the
/// scoring loop. `Instant::now` is cheap but not free; one check every 32
/// pairs bounds overrun detection latency to a handful of similarity
/// computations while keeping the common case branch-only.
const DEADLINE_CHECK_MASK: u64 = 31;

/// A per-document budget: optional bounds on tree size, target count,
/// scored sense pairs, and wall-clock time.
///
/// One `Guard` governs one document; the sense-pair counter is interior
/// (the scoring loop holds `&Guard`), so guards are neither `Sync` nor
/// meant to be shared across documents.
///
/// The sense-pair budget is denominated in *single-sense combined-similarity
/// evaluations*: scoring one candidate sense of a single-token label costs
/// one unit, while one candidate pair of a compound label costs two (it
/// evaluates both token senses against the context, per Equation 10), so
/// `max_sense_pairs` bounds the same amount of similarity work regardless
/// of label shape. Every candidate draws its units before it is scored,
/// even one the exact early exit ([`crate::prune`]) then abandons
/// mid-scan; the guard tallies those abandonments
/// ([`Guard::candidates_pruned`]).
#[derive(Debug, Default)]
pub struct Guard {
    max_nodes: Option<usize>,
    max_targets: Option<usize>,
    max_sense_pairs: Option<u64>,
    deadline: Option<Deadline>,
    pairs: Cell<u64>,
    pruned: Cell<u64>,
}

impl Guard {
    /// A guard with no bounds: every check passes. Used by the plain
    /// (unguarded) pipeline entry points.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Bounds the number of nodes in the built tree.
    pub fn with_max_nodes(mut self, max: usize) -> Self {
        self.max_nodes = Some(max);
        self
    }

    /// Bounds the number of selected disambiguation targets.
    pub fn with_max_targets(mut self, max: usize) -> Self {
        self.max_targets = Some(max);
        self
    }

    /// Bounds the number of sense pairs scored for the document.
    pub fn with_max_sense_pairs(mut self, max: u64) -> Self {
        self.max_sense_pairs = Some(max);
        self
    }

    /// Attaches a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Whether any bound is configured at all.
    pub fn is_unlimited(&self) -> bool {
        self.max_nodes.is_none()
            && self.max_targets.is_none()
            && self.max_sense_pairs.is_none()
            && self.deadline.is_none()
    }

    /// Sense pairs scored so far under this guard.
    pub fn pairs_scored(&self) -> u64 {
        self.pairs.get()
    }

    /// Candidates the exact early exit abandoned mid-scan under this
    /// guard: each could provably not beat its target's leader.
    pub fn candidates_pruned(&self) -> u64 {
        self.pruned.get()
    }

    /// Tallies `n` abandoned candidates.
    pub fn note_pruned(&self, n: u64) {
        self.pruned.set(self.pruned.get() + n);
    }

    /// Checks the wall-clock deadline, if one is set.
    pub fn check_deadline(&self) -> Result<(), GuardError> {
        match &self.deadline {
            Some(d) => d.check(),
            None => Ok(()),
        }
    }

    /// Checks the tree-size bound against an observed node count.
    pub fn check_nodes(&self, nodes: usize) -> Result<(), GuardError> {
        check_limit(LimitKind::Nodes, self.max_nodes, nodes)
    }

    /// Checks the target bound against an observed selected-target count.
    pub fn check_targets(&self, targets: usize) -> Result<(), GuardError> {
        check_limit(LimitKind::Targets, self.max_targets, targets)
    }

    /// Accounts one budget unit — a single-sense combined-similarity
    /// evaluation in the scoring loop. Fails once the pair budget is
    /// exhausted; every 32nd tick also re-checks the deadline so a slow
    /// similarity computation cannot hide an overrun for long.
    pub fn tick_sense_pair(&self) -> Result<(), GuardError> {
        let scored = self.pairs.get() + 1;
        self.pairs.set(scored);
        if let Some(max) = self.max_sense_pairs {
            if scored > max {
                return Err(GuardError::LimitExceeded {
                    which: LimitKind::SensePairs,
                    limit: max,
                    actual: scored,
                });
            }
        }
        if scored & DEADLINE_CHECK_MASK == 0 {
            self.check_deadline()?;
        }
        Ok(())
    }

    /// Accounts `n` budget units at once — how the scoring loop charges
    /// each compound candidate pair its true cost of two single-sense
    /// evaluations (Equation 10 scores both token senses against every
    /// context sense). Equivalent to `n` consecutive
    /// [`Guard::tick_sense_pair`] calls.
    pub fn tick_sense_pairs(&self, n: u64) -> Result<(), GuardError> {
        for _ in 0..n {
            self.tick_sense_pair()?;
        }
        Ok(())
    }
}

fn check_limit(which: LimitKind, limit: Option<usize>, actual: usize) -> Result<(), GuardError> {
    match limit {
        Some(max) if actual > max => Err(GuardError::LimitExceeded {
            which,
            limit: max as u64,
            actual: actual as u64,
        }),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_guard_never_fails() {
        let g = Guard::unlimited();
        assert!(g.is_unlimited());
        g.check_deadline().unwrap();
        g.check_nodes(usize::MAX).unwrap();
        g.check_targets(usize::MAX).unwrap();
        for _ in 0..100 {
            g.tick_sense_pair().unwrap();
        }
        assert_eq!(g.pairs_scored(), 100);
    }

    #[test]
    fn node_and_target_bounds() {
        let g = Guard::unlimited().with_max_nodes(10).with_max_targets(2);
        g.check_nodes(10).unwrap();
        let err = g.check_nodes(11).unwrap_err();
        assert_eq!(
            err,
            GuardError::LimitExceeded {
                which: LimitKind::Nodes,
                limit: 10,
                actual: 11
            }
        );
        g.check_targets(2).unwrap();
        assert!(g.check_targets(3).is_err());
    }

    #[test]
    fn sense_pair_budget_trips_exactly_once_past_limit() {
        let g = Guard::unlimited().with_max_sense_pairs(3);
        for _ in 0..3 {
            g.tick_sense_pair().unwrap();
        }
        let err = g.tick_sense_pair().unwrap_err();
        assert!(matches!(
            err,
            GuardError::LimitExceeded {
                which: LimitKind::SensePairs,
                limit: 3,
                actual: 4
            }
        ));
    }

    #[test]
    fn weighted_ticks_draw_the_same_budget_as_single_ticks() {
        // A pair evaluation (2 units) and two single evaluations must be
        // indistinguishable to the budget.
        let g = Guard::unlimited().with_max_sense_pairs(4);
        g.tick_sense_pairs(2).unwrap();
        g.tick_sense_pairs(2).unwrap();
        assert_eq!(g.pairs_scored(), 4);
        let err = g.tick_sense_pairs(2).unwrap_err();
        assert!(matches!(
            err,
            GuardError::LimitExceeded {
                which: LimitKind::SensePairs,
                limit: 4,
                actual: 5
            }
        ));
    }

    #[test]
    fn pruning_tallies_accumulate() {
        let g = Guard::unlimited();
        assert_eq!(g.candidates_pruned(), 0);
        g.note_pruned(3);
        g.note_pruned(2);
        assert_eq!(g.candidates_pruned(), 5);
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.expired());
        let err = d.check().unwrap_err();
        assert!(matches!(err, GuardError::DeadlineExceeded { .. }));
        let g = Guard::unlimited().with_deadline(d);
        assert!(g.check_deadline().is_err());
        // The periodic in-loop check also sees it (32nd tick).
        let g = Guard::unlimited().with_deadline(Deadline::after(Duration::ZERO));
        let mut tripped = false;
        for _ in 0..32 {
            if g.tick_sense_pair().is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "deadline must surface within one check window");
    }

    #[test]
    fn generous_deadline_passes() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(!d.expired());
        d.check().unwrap();
    }

    #[test]
    fn errors_render_human_readably() {
        let e = GuardError::LimitExceeded {
            which: LimitKind::SensePairs,
            limit: 5,
            actual: 6,
        };
        assert_eq!(e.to_string(), "scored sense pairs limit of 5 exceeded (6)");
        let e = GuardError::DeadlineExceeded {
            budget: Duration::from_millis(100),
            elapsed: Duration::from_millis(150),
        };
        assert!(e.to_string().contains("100.0 ms"));
        assert!(e.to_string().contains("150.0 ms"));
    }
}
