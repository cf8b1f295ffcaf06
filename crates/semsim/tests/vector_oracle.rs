//! The id-run measures against the string-keyed vector they replace.
//!
//! `SparseVector` used to map label strings to weights in a `BTreeMap`;
//! it now holds `(id, weight)` runs whose ids follow label order. Every
//! measure must reproduce the map's result bit for bit, so the map
//! implementation stays here, unchanged, as the oracle: random labelled
//! vectors are scored both ways and compared by `to_bits`.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use xsdf_semsim::SparseVector;

/// The string-keyed vector and measures as they were before the id runs.
#[derive(Default)]
struct Oracle {
    coords: BTreeMap<String, f64>,
}

impl Oracle {
    fn from_pairs(pairs: &[(String, f64)]) -> Self {
        let mut v = Self::default();
        for (label, w) in pairs {
            *v.coords.entry(label.clone()).or_insert(0.0) += w;
        }
        v
    }

    fn get(&self, label: &str) -> f64 {
        self.coords.get(label).copied().unwrap_or(0.0)
    }

    fn len(&self) -> usize {
        self.coords.len()
    }

    fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.coords.iter().map(|(k, &v)| (k.as_str(), v))
    }

    fn norm(&self) -> f64 {
        self.coords.values().map(|v| v * v).sum::<f64>().sqrt()
    }

    fn dot(&self, other: &Self) -> f64 {
        let (small, big) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        small.iter().map(|(label, w)| w * big.get(label)).sum()
    }

    fn cosine(&self, other: &Self) -> f64 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            return 0.0;
        }
        (self.dot(other) / denom).clamp(-1.0, 1.0)
    }

    fn jaccard(&self, other: &Self) -> f64 {
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

    fn pearson(&self, other: &Self) -> f64 {
        let labels: BTreeSet<&str> = self
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

/// Both vectors as id runs, each label's id its rank among all labels of
/// the pair in string order.
fn runs(a: &[(String, f64)], b: &[(String, f64)]) -> (SparseVector, SparseVector) {
    let labels: BTreeSet<&str> = a.iter().chain(b).map(|(l, _)| l.as_str()).collect();
    let labels: Vec<&str> = labels.into_iter().collect();
    let run = |pairs: &[(String, f64)]| {
        SparseVector::from_ids(pairs.iter().map(|(l, w)| {
            let id = labels
                .binary_search(&l.as_str())
                .expect("label of the pair");
            (id as u64, *w)
        }))
    };
    (run(a), run(b))
}

/// Asserts every measure agrees with the oracle bit for bit, both ways.
fn assert_bits(a: &[(String, f64)], b: &[(String, f64)]) -> Result<(), TestCaseError> {
    let (oa, ob) = (Oracle::from_pairs(a), Oracle::from_pairs(b));
    let (ra, rb) = runs(a, b);
    prop_assert_eq!(ra.len(), oa.len());
    prop_assert_eq!(ra.norm().to_bits(), oa.norm().to_bits(), "norm");
    for ((x, ox), (y, oy)) in [((&ra, &oa), (&rb, &ob)), ((&rb, &ob), (&ra, &oa))] {
        prop_assert_eq!(x.dot(y).to_bits(), ox.dot(oy).to_bits(), "dot");
        prop_assert_eq!(x.cosine(y).to_bits(), ox.cosine(oy).to_bits(), "cosine");
        prop_assert_eq!(x.jaccard(y).to_bits(), ox.jaccard(oy).to_bits(), "jaccard");
        prop_assert_eq!(x.pearson(y).to_bits(), ox.pearson(oy).to_bits(), "pearson");
    }
    Ok(())
}

/// A labelled vector of 1–7 entries (labels may repeat) over `letters`,
/// some weights zero; with `zero_all`, every weight is zero.
fn arb_vector(letters: &'static str) -> impl Strategy<Value = Vec<(String, f64)>> {
    let weight = (prop::bool::ANY, 0.0f64..3.0).prop_map(|(zero, w)| if zero { 0.0 } else { w });
    (
        proptest::collection::vec((letters, weight), 1..8),
        prop::bool::ANY,
    )
        .prop_map(|(pairs, zero_all)| {
            pairs
                .into_iter()
                .map(|(l, w)| (l, if zero_all { 0.0 } else { w }))
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Overlapping label sets (multi-letter labels exercise string order).
    #[test]
    fn overlapping_vectors_match_the_oracle(
        a in arb_vector("[a-c]{1,2}"),
        b in arb_vector("[a-c]{1,2}"),
    ) {
        assert_bits(&a, &b)?;
    }

    /// Disjoint label sets: no shared dimension, a +0.0 dot product.
    #[test]
    fn disjoint_vectors_match_the_oracle(
        a in arb_vector("[a-c]{1,2}"),
        b in arb_vector("[d-f]{1,2}"),
    ) {
        assert_bits(&a, &b)?;
        let (ra, rb) = runs(&a, &b);
        prop_assert_eq!(ra.dot(&rb).to_bits(), 0.0f64.to_bits());
    }

    /// Single-dimension vectors, shared or not.
    #[test]
    fn single_dimension_vectors_match_the_oracle(
        a in arb_vector("[a-b]"),
        b in arb_vector("[a-b]"),
    ) {
        assert_bits(&a, &b)?;
    }
}

#[test]
fn empty_vectors_score_zero_like_the_oracle() {
    // The oracle's empty sums are -0.0 (its norm and dot), the runs' +0.0;
    // the measures guard both to the same 0.0.
    let real = [("a".to_string(), 1.0), ("b".to_string(), 2.0)];
    let (empty, run) = runs(&[], &real);
    let (o_empty, o_real) = (Oracle::from_pairs(&[]), Oracle::from_pairs(&real));
    for (x, y, ox, oy) in [
        (&empty, &run, &o_empty, &o_real),
        (&run, &empty, &o_real, &o_empty),
    ] {
        assert_eq!(x.cosine(y).to_bits(), ox.cosine(oy).to_bits());
        assert_eq!(x.jaccard(y).to_bits(), ox.jaccard(oy).to_bits());
        assert_eq!(x.pearson(y).to_bits(), ox.pearson(oy).to_bits());
    }
}
