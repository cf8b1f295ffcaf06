//! Sparse labeled vectors and vector similarity measures.
//!
//! Context-based disambiguation (Definition 10) compares the XML sphere
//! context vector with each candidate sense's semantic-network context
//! vector using *cosine* similarity; Jaccard and Pearson are provided as
//! the alternatives the paper's footnote 10 mentions.
//!
//! ## Degenerate inputs
//!
//! Every measure here returns exactly **0.0** when either vector is empty
//! or all-zero (no dimensions, or only zero coordinates): a vector without
//! evidence is similar to nothing. Callers that post-process raw scores —
//! notably `xsdf`'s `VectorSimilarity::apply`, whose Pearson rescale
//! `(r + 1)/2` would turn a degenerate `r = 0` into 0.5 — must preserve
//! this contract by guarding degenerate inputs before remapping.

use std::collections::BTreeMap;

/// A sparse vector with `String` dimension labels (node labels in the
/// paper's Definition 6) and `f64` coordinates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVector {
    coords: BTreeMap<String, f64>,
}

impl SparseVector {
    /// An empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a vector from `(label, weight)` pairs; repeated labels sum.
    pub fn from_pairs<I, S>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S, f64)>,
        S: Into<String>,
    {
        let mut v = Self::new();
        for (label, w) in pairs {
            v.add(label, w);
        }
        v
    }

    /// Adds `weight` to the coordinate of `label`.
    pub fn add(&mut self, label: impl Into<String>, weight: f64) {
        *self.coords.entry(label.into()).or_insert(0.0) += weight;
    }

    /// Sets the coordinate of `label`.
    pub fn set(&mut self, label: impl Into<String>, weight: f64) {
        self.coords.insert(label.into(), weight);
    }

    /// The coordinate of `label` (0 when absent).
    pub fn get(&self, label: &str) -> f64 {
        self.coords.get(label).copied().unwrap_or(0.0)
    }

    /// Number of non-zero dimensions.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// `true` when no dimension is set.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Estimated heap footprint of this vector in bytes, for byte-bounded
    /// caches. Counts each coordinate's label buffer plus a flat
    /// per-entry allowance for the `String` header, the weight, and the
    /// amortized B-tree node overhead. An estimate, not an allocator
    /// query: the point is a stable, monotone measure a cache can budget
    /// against, not byte-exact RSS attribution.
    pub fn heap_bytes(&self) -> usize {
        // String header (ptr/len/cap) + f64 value + ~amortized share of a
        // BTreeMap node (keys/values arrays, edges, header).
        const ENTRY_OVERHEAD: usize =
            std::mem::size_of::<String>() + std::mem::size_of::<f64>() + 24;
        self.coords
            .keys()
            .map(|label| label.capacity() + ENTRY_OVERHEAD)
            .sum()
    }

    /// Iterates over `(label, weight)` pairs in label order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.coords.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// The Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.coords.values().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Dot product with another sparse vector.
    pub fn dot(&self, other: &Self) -> f64 {
        // Iterate over the smaller map.
        let (small, big) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        small.iter().map(|(label, w)| w * big.get(label)).sum()
    }

    /// Cosine similarity in `\[0, 1\]` for non-negative vectors (Definition
    /// 10's measure). Returns 0 when either vector is empty or zero.
    pub fn cosine(&self, other: &Self) -> f64 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            return 0.0;
        }
        (self.dot(other) / denom).clamp(-1.0, 1.0)
    }

    /// Weighted Jaccard similarity: `Σ min / Σ max` over the union of
    /// dimensions, in `\[0, 1\]`.
    pub fn jaccard(&self, other: &Self) -> f64 {
        let mut min_sum = 0.0;
        let mut max_sum = 0.0;
        for (label, w) in self.iter() {
            let o = other.get(label);
            min_sum += w.min(o);
            max_sum += w.max(o);
        }
        for (label, w) in other.iter() {
            if self.get(label) == 0.0 {
                max_sum += w;
            }
        }
        if max_sum == 0.0 {
            0.0
        } else {
            min_sum / max_sum
        }
    }

    /// Pearson correlation of the two vectors over the union of their
    /// dimensions, in `[-1, 1]`. Returns 0 for degenerate inputs.
    pub fn pearson(&self, other: &Self) -> f64 {
        let labels: std::collections::BTreeSet<&str> = self
            .iter()
            .map(|(l, _)| l)
            .chain(other.iter().map(|(l, _)| l))
            .collect();
        let n = labels.len() as f64;
        if n < 2.0 {
            return 0.0;
        }
        let xs: Vec<f64> = labels.iter().map(|l| self.get(l)).collect();
        let ys: Vec<f64> = labels.iter().map(|l| other.get(l)).collect();
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let mut cov = 0.0;
        let mut vx = 0.0;
        let mut vy = 0.0;
        for (x, y) in xs.iter().zip(&ys) {
            cov += (x - mx) * (y - my);
            vx += (x - mx) * (x - mx);
            vy += (y - my) * (y - my);
        }
        if vx == 0.0 || vy == 0.0 {
            return 0.0;
        }
        (cov / (vx.sqrt() * vy.sqrt())).clamp(-1.0, 1.0)
    }
}

impl<S: Into<String>> FromIterator<(S, f64)> for SparseVector {
    fn from_iter<I: IntoIterator<Item = (S, f64)>>(iter: I) -> Self {
        Self::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(&str, f64)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().map(|&(l, w)| (l, w)))
    }

    #[test]
    fn cosine_identical_is_one() {
        let a = v(&[("cast", 0.4), ("picture", 0.2), ("star", 0.4)]);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_orthogonal_is_zero() {
        let a = v(&[("cast", 1.0)]);
        let b = v(&[("star", 1.0)]);
        assert_eq!(a.cosine(&b), 0.0);
    }

    #[test]
    fn cosine_scale_invariant() {
        let a = v(&[("x", 1.0), ("y", 2.0)]);
        let b = v(&[("x", 10.0), ("y", 20.0)]);
        assert!((a.cosine(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_empty_is_zero() {
        let a = v(&[("x", 1.0)]);
        assert_eq!(a.cosine(&SparseVector::new()), 0.0);
        assert_eq!(SparseVector::new().cosine(&SparseVector::new()), 0.0);
    }

    #[test]
    fn repeated_labels_sum() {
        let mut a = SparseVector::new();
        a.add("star", 0.2);
        a.add("star", 0.2);
        assert!((a.get("star") - 0.4).abs() < 1e-12);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn dot_is_symmetric() {
        let a = v(&[("x", 1.0), ("y", 3.0)]);
        let b = v(&[("y", 2.0), ("z", 5.0)]);
        assert_eq!(a.dot(&b), b.dot(&a));
        assert_eq!(a.dot(&b), 6.0);
    }

    #[test]
    fn jaccard_bounds_and_identity() {
        let a = v(&[("x", 1.0), ("y", 2.0)]);
        let b = v(&[("x", 2.0), ("z", 1.0)]);
        let j = a.jaccard(&b);
        assert!((0.0..=1.0).contains(&j));
        assert!((a.jaccard(&a) - 1.0).abs() < 1e-12);
        // min(1,2)/ (max(1,2)+max(2,0)+max(0,1)) = 1/5.
        assert!((j - 0.2).abs() < 1e-12);
    }

    #[test]
    fn jaccard_disjoint_is_zero() {
        let a = v(&[("x", 1.0)]);
        let b = v(&[("y", 1.0)]);
        assert_eq!(a.jaccard(&b), 0.0);
    }

    #[test]
    fn pearson_perfect_correlation() {
        let a = v(&[("x", 1.0), ("y", 2.0), ("z", 3.0)]);
        let b = v(&[("x", 2.0), ("y", 4.0), ("z", 6.0)]);
        assert!((a.pearson(&b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pearson_anticorrelation() {
        let a = v(&[("x", 1.0), ("y", 2.0), ("z", 3.0)]);
        let b = v(&[("x", 3.0), ("y", 2.0), ("z", 1.0)]);
        assert!((a.pearson(&b) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn pearson_degenerate_is_zero() {
        let a = v(&[("x", 1.0)]);
        let b = v(&[("x", 5.0)]);
        assert_eq!(a.pearson(&b), 0.0);
        let c = v(&[("x", 2.0), ("y", 2.0)]);
        let d = v(&[("x", 1.0), ("y", 3.0)]);
        assert_eq!(c.pearson(&d), 0.0); // c has zero variance
    }

    #[test]
    fn all_measures_return_zero_for_zero_or_empty_vectors() {
        // The documented degenerate-input contract: no evidence ⇒ 0.0,
        // for empty vectors and for vectors whose coordinates are all 0.
        let empty = SparseVector::new();
        let zero = v(&[("x", 0.0), ("y", 0.0)]);
        let real = v(&[("x", 1.0), ("y", 2.0)]);
        for degenerate in [&empty, &zero] {
            assert_eq!(degenerate.cosine(&real), 0.0);
            assert_eq!(real.cosine(degenerate), 0.0);
            assert_eq!(degenerate.jaccard(&real), 0.0);
            assert_eq!(real.jaccard(degenerate), 0.0);
            assert_eq!(degenerate.pearson(&real), 0.0);
            assert_eq!(real.pearson(degenerate), 0.0);
            assert_eq!(degenerate.norm(), 0.0);
        }
    }

    #[test]
    fn from_iterator_collects() {
        let a: SparseVector = vec![("x", 1.0), ("y", 2.0)].into_iter().collect();
        assert_eq!(a.len(), 2);
        assert_eq!(a.get("y"), 2.0);
    }

    #[test]
    fn paper_figure7_vector_shape() {
        // V_1(T[2]) from Figure 7: Cast 0.4, Picture 0.2, Star 0.4.
        let v1 = v(&[("cast", 0.4), ("picture", 0.2), ("star", 0.4)]);
        assert_eq!(v1.len(), 3);
        assert!((v1.norm() - (0.16f64 + 0.04 + 0.16).sqrt()).abs() < 1e-12);
    }
}
