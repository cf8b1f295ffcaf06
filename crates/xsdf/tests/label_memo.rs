//! Label-level work is done once per document: repeating a context label
//! adds no similarity lookups (DESIGN.md, "Label table and evidence
//! memo").

use std::cell::Cell;

use semnet::mini_wordnet;
use semsim::{CombinedSimilarity, LocalCache, PairKey, SimilarityCache};
use xsdf::guard::Guard;
use xsdf::{Xsdf, XsdfConfig};

/// A [`LocalCache`] that counts pair lookups.
#[derive(Default)]
struct CountingCache {
    inner: LocalCache,
    lookups: Cell<u64>,
}

impl SimilarityCache for CountingCache {
    fn lookup(&self, key: PairKey) -> Option<f64> {
        self.lookups.set(self.lookups.get() + 1);
        self.inner.lookup(key)
    }

    fn store(&self, key: PairKey, value: f64) {
        self.inner.store(key, value);
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// `(pair lookups, distinct pairs stored)` for disambiguating a cast of
/// `k` identical `<star/>` elements.
fn cast_of(k: usize) -> (u64, usize) {
    let xml = format!(
        "<films><picture><cast>{}</cast></picture></films>",
        "<star/>".repeat(k)
    );
    let config = XsdfConfig::default();
    let sim = CombinedSimilarity::with_cache(config.similarity, CountingCache::default());
    let xsdf = Xsdf::new(mini_wordnet(), config);
    let tree = xsdf.build_tree(&xmltree::parse(&xml).unwrap());
    let guard = Guard::unlimited();
    let selected = xsdf.select_guarded(&tree, &guard).unwrap();
    let result = xsdf
        .disambiguate_selected_guarded(&tree, &selected, &sim, &guard)
        .unwrap();
    assert!(
        result.assigned_count() > 0,
        "k = {k}: nothing was annotated"
    );
    (sim.cache().lookups.get(), sim.cache_len())
}

#[test]
fn repeated_context_labels_add_no_pair_lookups() {
    let (lookups, stored) = cast_of(2);
    for k in [8, 32] {
        assert_eq!(
            cast_of(k),
            (lookups, stored),
            "k = {k} <star/> siblings must cost what k = 2 costs"
        );
    }
    // The scoring loop's exact early exit abandons hopeless candidates
    // before their last context entry, so fewer pairs are ever scored.
    assert_eq!(stored, 119, "distinct sense pairs scored");
}
