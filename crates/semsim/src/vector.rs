//! Sparse vectors over ordered dimension ids, and vector similarity
//! measures.
//!
//! Context-based disambiguation (Definition 10) compares the XML sphere
//! context vector with each candidate sense's semantic-network context
//! vector using *cosine* similarity; Jaccard and Pearson are provided as
//! the alternatives the paper's footnote 10 mentions.
//!
//! A [`SparseVector`] is a *run*: its `(dimension, weight)` pairs sorted by
//! dimension id, plus the Euclidean norm, computed once when the vector is
//! built. Dimensions are `u64` ids whose order is the order of the labels
//! they stand for (the caller interns labels in string order), so every
//! measure is a merge join over two runs and sums its terms in label
//! order. The measures fold from `+0.0`: a pair without a shared
//! dimension has a dot product of `+0.0`, as it had when every absent
//! dimension added a `+0.0` term.
//!
//! ## Degenerate inputs
//!
//! Every measure here returns exactly **0.0** when either vector is empty
//! or all-zero (no dimensions, or only zero coordinates): a vector without
//! evidence is similar to nothing. Callers that post-process raw scores —
//! notably `xsdf`'s `VectorSimilarity::apply`, whose Pearson rescale
//! `(r + 1)/2` would turn a degenerate `r = 0` into 0.5 — must preserve
//! this contract by guarding degenerate inputs before remapping.

/// A sparse vector: `(dimension id, weight)` pairs in increasing id order,
/// with the Euclidean norm computed once at construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVector {
    dims: Box<[(u64, f64)]>,
    norm: f64,
}

impl SparseVector {
    /// An empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A vector over `dims`, which must be sorted by strictly increasing
    /// id. The norm sums the squared weights in that order.
    pub fn from_sorted(dims: Vec<(u64, f64)>) -> Self {
        debug_assert!(
            dims.windows(2).all(|w| w[0].0 < w[1].0),
            "dimension ids must be strictly increasing"
        );
        let norm = dims.iter().fold(0.0, |sum, &(_, w)| sum + w * w).sqrt();
        Self {
            dims: dims.into_boxed_slice(),
            norm,
        }
    }

    /// Builds a vector from `(id, weight)` pairs in any order; the weights
    /// of a repeated id sum in input order.
    pub fn from_ids(pairs: impl IntoIterator<Item = (u64, f64)>) -> Self {
        let mut pairs: Vec<(u64, f64)> = pairs.into_iter().collect();
        // Stable: a repeated id keeps its weights in input order.
        pairs.sort_by_key(|&(id, _)| id);
        let mut dims: Vec<(u64, f64)> = Vec::with_capacity(pairs.len());
        for (id, w) in pairs {
            match dims.last_mut() {
                Some((last, sum)) if *last == id => *sum += w,
                _ => dims.push((id, w)),
            }
        }
        Self::from_sorted(dims)
    }

    /// The coordinate of dimension `id` (0 when absent).
    pub fn get(&self, id: u64) -> f64 {
        self.dims
            .binary_search_by_key(&id, |&(d, _)| d)
            .map_or(0.0, |i| self.dims[i].1)
    }

    /// Number of stored dimensions.
    pub fn len(&self) -> usize {
        self.dims.len()
    }

    /// `true` when no dimension is set.
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// Heap footprint of this vector in bytes, for byte-bounded caches:
    /// the run's buffer, exactly (a run never holds spare capacity).
    pub fn heap_bytes(&self) -> usize {
        self.dims.len() * std::mem::size_of::<(u64, f64)>()
    }

    /// Iterates over `(id, weight)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.dims.iter().copied()
    }

    /// The Euclidean norm, computed when the vector was built.
    pub fn norm(&self) -> f64 {
        self.norm
    }

    /// Dot product with another sparse vector: the products of the shared
    /// dimensions, summed in id order.
    pub fn dot(&self, other: &Self) -> f64 {
        let (a, b) = (&self.dims, &other.dims);
        let (mut i, mut j) = (0, 0);
        let mut sum = 0.0;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    sum += a[i].1 * b[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        sum
    }

    /// Cosine similarity in `\[0, 1\]` for non-negative vectors (Definition
    /// 10's measure). Returns 0 when either vector is empty or zero.
    pub fn cosine(&self, other: &Self) -> f64 {
        let denom = self.norm * other.norm;
        if denom == 0.0 {
            return 0.0;
        }
        (self.dot(other) / denom).clamp(-1.0, 1.0)
    }

    /// Weighted Jaccard similarity: `Σ min / Σ max` over the union of
    /// dimensions, in `\[0, 1\]`. The maxima sum this vector's dimensions
    /// first, then the dimensions only `other` weighs.
    pub fn jaccard(&self, other: &Self) -> f64 {
        let mut min_sum = 0.0;
        let mut max_sum = 0.0;
        for (w, o) in union(&self.dims, &other.dims) {
            if let Some(w) = w {
                let o = o.unwrap_or(0.0);
                min_sum += w.min(o);
                max_sum += w.max(o);
            }
        }
        for (s, w) in union(&self.dims, &other.dims) {
            if let Some(w) = w {
                if s.unwrap_or(0.0) == 0.0 {
                    max_sum += w;
                }
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
        let pairs =
            union(&self.dims, &other.dims).map(|(x, y)| (x.unwrap_or(0.0), y.unwrap_or(0.0)));
        let n = pairs.clone().count() as f64;
        if n < 2.0 {
            return 0.0;
        }
        let mx = pairs.clone().fold(0.0, |sum, (x, _)| sum + x) / n;
        let my = pairs.clone().fold(0.0, |sum, (_, y)| sum + y) / n;
        let mut cov = 0.0;
        let mut vx = 0.0;
        let mut vy = 0.0;
        for (x, y) in pairs {
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

/// The union of two runs' dimensions in id order, each with its weight on
/// either side (`None` where that side lacks the dimension).
fn union<'a>(
    a: &'a [(u64, f64)],
    b: &'a [(u64, f64)],
) -> impl Iterator<Item = (Option<f64>, Option<f64>)> + Clone + 'a {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        let step = match (a.get(i), b.get(j)) {
            (None, None) => return None,
            (Some(&(x, wa)), Some(&(y, wb))) if x == y => (Some(wa), Some(wb)),
            (Some(&(x, wa)), Some(&(y, _))) if x < y => (Some(wa), None),
            (Some(&(_, wa)), None) => (Some(wa), None),
            (_, Some(&(_, wb))) => (None, Some(wb)),
        };
        i += usize::from(step.0.is_some());
        j += usize::from(step.1.is_some());
        Some(step)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u64, f64)]) -> SparseVector {
        SparseVector::from_ids(pairs.iter().copied())
    }

    // Dimension ids of the examples, in label order.
    const CAST: u64 = 0;
    const PICTURE: u64 = 1;
    const STAR: u64 = 2;
    const X: u64 = 10;
    const Y: u64 = 11;
    const Z: u64 = 12;

    #[test]
    fn cosine_identical_is_one() {
        let a = v(&[(CAST, 0.4), (PICTURE, 0.2), (STAR, 0.4)]);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_orthogonal_is_zero() {
        let a = v(&[(CAST, 1.0)]);
        let b = v(&[(STAR, 1.0)]);
        assert_eq!(a.cosine(&b).to_bits(), 0.0f64.to_bits());
        assert_eq!(a.dot(&b).to_bits(), 0.0f64.to_bits(), "+0.0, not -0.0");
    }

    #[test]
    fn cosine_scale_invariant() {
        let a = v(&[(X, 1.0), (Y, 2.0)]);
        let b = v(&[(X, 10.0), (Y, 20.0)]);
        assert!((a.cosine(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_empty_is_zero() {
        let a = v(&[(X, 1.0)]);
        assert_eq!(a.cosine(&SparseVector::new()), 0.0);
        assert_eq!(SparseVector::new().cosine(&SparseVector::new()), 0.0);
    }

    #[test]
    fn repeated_labels_sum() {
        let a = v(&[(STAR, 0.2), (CAST, 1.0), (STAR, 0.2)]);
        assert!((a.get(STAR) - 0.4).abs() < 1e-12);
        assert_eq!(a.len(), 2);
        assert_eq!(a.iter().map(|(id, _)| id).collect::<Vec<_>>(), [CAST, STAR]);
        assert_eq!(a.get(PICTURE), 0.0);
    }

    #[test]
    fn norm_is_computed_once_in_id_order() {
        let a = v(&[(Y, 2.0), (X, 1.0)]);
        assert_eq!(a.norm(), (1.0f64 + 4.0).sqrt());
        assert_eq!(SparseVector::new().norm(), 0.0);
    }

    #[test]
    fn heap_bytes_counts_the_run() {
        assert_eq!(SparseVector::new().heap_bytes(), 0);
        let a = v(&[(X, 1.0), (Y, 2.0), (Z, 3.0)]);
        assert_eq!(a.heap_bytes(), 3 * std::mem::size_of::<(u64, f64)>());
    }

    #[test]
    fn dot_is_symmetric() {
        let a = v(&[(X, 1.0), (Y, 3.0)]);
        let b = v(&[(Y, 2.0), (Z, 5.0)]);
        assert_eq!(a.dot(&b), b.dot(&a));
        assert_eq!(a.dot(&b), 6.0);
    }

    #[test]
    fn jaccard_bounds_and_identity() {
        let a = v(&[(X, 1.0), (Y, 2.0)]);
        let b = v(&[(X, 2.0), (Z, 1.0)]);
        let j = a.jaccard(&b);
        assert!((0.0..=1.0).contains(&j));
        assert!((a.jaccard(&a) - 1.0).abs() < 1e-12);
        // min(1,2)/ (max(1,2)+max(2,0)+max(0,1)) = 1/5.
        assert!((j - 0.2).abs() < 1e-12);
    }

    #[test]
    fn jaccard_disjoint_is_zero() {
        let a = v(&[(X, 1.0)]);
        let b = v(&[(Y, 1.0)]);
        assert_eq!(a.jaccard(&b), 0.0);
    }

    #[test]
    fn pearson_perfect_correlation() {
        let a = v(&[(X, 1.0), (Y, 2.0), (Z, 3.0)]);
        let b = v(&[(X, 2.0), (Y, 4.0), (Z, 6.0)]);
        assert!((a.pearson(&b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pearson_anticorrelation() {
        let a = v(&[(X, 1.0), (Y, 2.0), (Z, 3.0)]);
        let b = v(&[(X, 3.0), (Y, 2.0), (Z, 1.0)]);
        assert!((a.pearson(&b) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn pearson_degenerate_is_zero() {
        let a = v(&[(X, 1.0)]);
        let b = v(&[(X, 5.0)]);
        assert_eq!(a.pearson(&b), 0.0);
        let c = v(&[(X, 2.0), (Y, 2.0)]);
        let d = v(&[(X, 1.0), (Y, 3.0)]);
        assert_eq!(c.pearson(&d), 0.0); // c has zero variance
    }

    #[test]
    fn all_measures_return_zero_for_zero_or_empty_vectors() {
        // The documented degenerate-input contract: no evidence ⇒ 0.0,
        // for empty vectors and for vectors whose coordinates are all 0.
        let empty = SparseVector::new();
        let zero = v(&[(X, 0.0), (Y, 0.0)]);
        let real = v(&[(X, 1.0), (Y, 2.0)]);
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
    fn paper_figure7_vector_shape() {
        // V_1(T[2]) from Figure 7: Cast 0.4, Picture 0.2, Star 0.4.
        let v1 = v(&[(CAST, 0.4), (PICTURE, 0.2), (STAR, 0.4)]);
        assert_eq!(v1.len(), 3);
        assert!((v1.norm() - (0.16f64 + 0.04 + 0.16).sqrt()).abs() < 1e-12);
    }
}
