//! Precision / recall / f-value and Pearson correlation (Section 4's
//! quality criteria).

/// Aggregated counts and derived precision/recall/f-value.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrfScores {
    /// Target nodes the method assigned a sense to.
    pub assigned: usize,
    /// Assigned nodes whose sense matches the gold standard.
    pub correct: usize,
    /// Total evaluated target nodes.
    pub targets: usize,
}

impl PrfScores {
    /// Accumulates another batch of counts.
    pub fn merge(&mut self, other: PrfScores) {
        self.assigned += other.assigned;
        self.correct += other.correct;
        self.targets += other.targets;
    }

    /// Precision = correct / assigned (1 when nothing was assigned and
    /// nothing was expected, 0 when assigned is 0 but targets exist —
    /// consistent with the f-value being 0 then).
    pub fn precision(&self) -> f64 {
        if self.assigned == 0 {
            return if self.targets == 0 { 1.0 } else { 0.0 };
        }
        self.correct as f64 / self.assigned as f64
    }

    /// Recall = correct / targets.
    pub fn recall(&self) -> f64 {
        if self.targets == 0 {
            return 1.0;
        }
        self.correct as f64 / self.targets as f64
    }

    /// The harmonic mean of precision and recall.
    pub fn f_value(&self) -> f64 {
        f_value(self.precision(), self.recall())
    }
}

/// Harmonic mean of precision and recall; 0 when both are 0.
pub fn f_value(precision: f64, recall: f64) -> f64 {
    if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

/// Pearson's correlation coefficient between two paired samples, the
/// measure of Section 4.2. Returns 0 for degenerate inputs (fewer than two
/// pairs, or zero variance on either side).
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "paired samples must have equal length");
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    (cov / (vx.sqrt() * vy.sqrt())).clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prf_arithmetic() {
        let s = PrfScores {
            assigned: 8,
            correct: 6,
            targets: 10,
        };
        assert!((s.precision() - 0.75).abs() < 1e-12);
        assert!((s.recall() - 0.6).abs() < 1e-12);
        let f = s.f_value();
        assert!((f - 2.0 * 0.75 * 0.6 / 1.35).abs() < 1e-12);
    }

    #[test]
    fn prf_degenerate_cases() {
        let empty = PrfScores::default();
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
        let abstained = PrfScores {
            assigned: 0,
            correct: 0,
            targets: 5,
        };
        assert_eq!(abstained.precision(), 0.0);
        assert_eq!(abstained.recall(), 0.0);
        assert_eq!(abstained.f_value(), 0.0);
    }

    #[test]
    fn prf_merge_accumulates() {
        let mut a = PrfScores {
            assigned: 3,
            correct: 2,
            targets: 4,
        };
        a.merge(PrfScores {
            assigned: 5,
            correct: 4,
            targets: 6,
        });
        assert_eq!(
            a,
            PrfScores {
                assigned: 8,
                correct: 6,
                targets: 10
            }
        );
    }

    #[test]
    fn f_value_bounds() {
        assert_eq!(f_value(0.0, 0.0), 0.0);
        assert_eq!(f_value(1.0, 1.0), 1.0);
        assert!(f_value(0.9, 0.1) < 0.5); // harmonic punishes imbalance
    }

    #[test]
    fn pearson_perfect() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_uncorrelated_and_degenerate() {
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [1.0, -1.0, 1.0, -1.0];
        assert!(pearson(&xs, &ys).abs() < 0.7);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn pearson_length_mismatch_panics() {
        let _ = pearson(&[1.0], &[1.0, 2.0]);
    }
}
