//! Pluggable memo caches for pairwise similarity scores and concept
//! context vectors.
//!
//! [`CombinedSimilarity`](crate::CombinedSimilarity) re-queries the same
//! concept pairs many times while disambiguating a document, so it memoizes
//! scores behind the [`SimilarityCache`] trait. Serial callers get the
//! zero-synchronization [`LocalCache`] by default; concurrent batch engines
//! (the `xsdf-runtime` crate) plug in a shared, thread-safe implementation
//! so sense pairs computed for one document are reused across all workers.
//!
//! ## Key discipline
//!
//! A cached value must be a pure function of its key. Pair scores depend on
//! the *weight configuration* as well as the concept pair, so [`PairKey`]
//! carries a [`WeightsFingerprint`] — without it, two measures with
//! different weights sharing one cache (the pattern `combined.rs`
//! explicitly advertises) would silently serve each other's scores.
//! Concept context vectors depend on the sphere radius, so [`VectorKey`] is
//! `(concept, radius)`.
//!
//! ## Key hash
//!
//! Pair lookups are XSDF's inner loop, so every cache map hashes its keys
//! with [`KeyHasher`]: one 64×64→128-bit folded multiply per key word
//! (three per [`PairKey`], two per [`VectorKey`]) instead of SipHash.
//! [`KeyHashBuilder::default`] seeds it once per process, so a document
//! cannot pick colliding keys offline; [`KeyHashBuilder::UNSEEDED`] hashes
//! a key the same way in every process, for placement that must repeat
//! across runs (the shard a shared cache files a key under).

use semnet::ConceptId;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::{Arc, OnceLock};

use crate::vector::SparseVector;

/// An order-independent fingerprint of a
/// [`SimilarityWeights`](crate::SimilarityWeights) configuration, produced
/// by [`SimilarityWeights::fingerprint`](crate::SimilarityWeights::fingerprint)
/// and embedded in every [`PairKey`] so caches shared between differently
/// weighted measures cannot cross-read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct WeightsFingerprint(pub u64);

/// A similarity-score cache key: the weight-configuration fingerprint plus
/// the symmetric concept pair (callers normalize `(a, b)` so that `a <= b`
/// before lookup, making `sim(a, b)` and `sim(b, a)` one entry).
pub type PairKey = (WeightsFingerprint, ConceptId, ConceptId);

/// A concept-context-vector cache key: `(concept, sphere radius)`. The
/// vector of a concept is a pure function of these two inputs (plus the
/// immutable network), so cached vectors are shareable across workers and
/// runs.
pub type VectorKey = (ConceptId, u32);

/// An odd 64-bit constant (the golden-ratio fraction); every key word is
/// multiplied by it.
const KEY_MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// The cache key hash: each key word is xored into the state, multiplied
/// by a fixed odd constant to 128 bits, and the two halves folded back
/// together, so every input bit reaches the low and the high bits of the
/// result. Built by a [`KeyHashBuilder`].
#[derive(Debug, Clone, Copy)]
pub struct KeyHasher {
    state: u64,
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.state ^ n) * u128::from(KEY_MULTIPLIER);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// Builds [`KeyHasher`]s from a seed. The default seed is drawn once per
/// process from [`RandomState`]; [`KeyHashBuilder::UNSEEDED`] is the same
/// in every process.
#[derive(Debug, Clone, Copy)]
pub struct KeyHashBuilder {
    seed: u64,
}

impl KeyHashBuilder {
    /// Seed 0: a key hashes to the same value in every process.
    pub const UNSEEDED: Self = Self::with_seed(0);

    /// A builder with an explicit seed.
    pub const fn with_seed(seed: u64) -> Self {
        Self { seed }
    }
}

impl Default for KeyHashBuilder {
    /// The process-wide random seed.
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        Self::with_seed(*SEED.get_or_init(|| RandomState::new().hash_one(KEY_MULTIPLIER)))
    }
}

impl BuildHasher for KeyHashBuilder {
    type Hasher = KeyHasher;

    #[inline]
    fn build_hasher(&self) -> KeyHasher {
        KeyHasher { state: self.seed }
    }
}

/// A memo table for pairwise similarity scores, with an optional second
/// table for concept context vectors.
///
/// Methods take `&self` so implementations choose their own interior
/// mutability: [`LocalCache`] uses a [`RefCell`], shared implementations use
/// locks or atomics. Implementations may drop entries (e.g. under memory
/// pressure) — the contract is only that [`lookup`](Self::lookup) returns a
/// value previously passed to [`store`](Self::store) for that key, or `None`.
///
/// The vector methods default to a no-op table (every lookup misses, every
/// store is dropped), so implementations that only memoize pair scores
/// remain valid — callers always fall back to computing the vector.
pub trait SimilarityCache {
    /// The cached score for `key`, if present.
    fn lookup(&self, key: PairKey) -> Option<f64>;

    /// Records the score for `key`.
    fn store(&self, key: PairKey, value: f64);

    /// Number of cached pairs (diagnostics).
    fn len(&self) -> usize;

    /// Whether the cache holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached context vector for `key`, if present. Defaults to a
    /// permanent miss.
    fn lookup_vector(&self, _key: VectorKey) -> Option<Arc<SparseVector>> {
        None
    }

    /// Records a context vector for `key`. Defaults to dropping the value.
    fn store_vector(&self, _key: VectorKey, _value: Arc<SparseVector>) {}

    /// Number of cached context vectors (diagnostics).
    fn vectors_len(&self) -> usize {
        0
    }
}

/// The default single-threaded cache: unsynchronized hash maps for pair
/// scores and context vectors, keyed through the seeded [`KeyHasher`].
#[derive(Debug, Clone, Default)]
pub struct LocalCache {
    map: RefCell<HashMap<PairKey, f64, KeyHashBuilder>>,
    vectors: RefCell<HashMap<VectorKey, Arc<SparseVector>, KeyHashBuilder>>,
}

impl LocalCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SimilarityCache for LocalCache {
    fn lookup(&self, key: PairKey) -> Option<f64> {
        self.map.borrow().get(&key).copied()
    }

    fn store(&self, key: PairKey, value: f64) {
        self.map.borrow_mut().insert(key, value);
    }

    fn len(&self) -> usize {
        self.map.borrow().len()
    }

    fn lookup_vector(&self, key: VectorKey) -> Option<Arc<SparseVector>> {
        self.vectors.borrow().get(&key).cloned()
    }

    fn store_vector(&self, key: VectorKey, value: Arc<SparseVector>) {
        self.vectors.borrow_mut().insert(key, value);
    }

    fn vectors_len(&self) -> usize {
        self.vectors.borrow().len()
    }
}

// The forwarding impls must forward the vector methods explicitly: the
// trait's no-op defaults would otherwise shadow the underlying cache's
// vector table and silently disable vector memoization behind `&C`/`Arc<C>`.

impl<C: SimilarityCache + ?Sized> SimilarityCache for &C {
    fn lookup(&self, key: PairKey) -> Option<f64> {
        (**self).lookup(key)
    }

    fn store(&self, key: PairKey, value: f64) {
        (**self).store(key, value)
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn lookup_vector(&self, key: VectorKey) -> Option<Arc<SparseVector>> {
        (**self).lookup_vector(key)
    }

    fn store_vector(&self, key: VectorKey, value: Arc<SparseVector>) {
        (**self).store_vector(key, value)
    }

    fn vectors_len(&self) -> usize {
        (**self).vectors_len()
    }
}

impl<C: SimilarityCache + ?Sized> SimilarityCache for Arc<C> {
    fn lookup(&self, key: PairKey) -> Option<f64> {
        (**self).lookup(key)
    }

    fn store(&self, key: PairKey, value: f64) {
        (**self).store(key, value)
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn lookup_vector(&self, key: VectorKey) -> Option<Arc<SparseVector>> {
        (**self).lookup_vector(key)
    }

    fn store_vector(&self, key: VectorKey, value: Arc<SparseVector>) {
        (**self).store_vector(key, value)
    }

    fn vectors_len(&self) -> usize {
        (**self).vectors_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimilarityWeights;
    use semnet::mini_wordnet;

    fn key(a: &str, b: &str) -> PairKey {
        let sn = mini_wordnet();
        let (a, b) = (sn.by_key(a).unwrap(), sn.by_key(b).unwrap());
        let fp = SimilarityWeights::equal().fingerprint();
        if a <= b {
            (fp, a, b)
        } else {
            (fp, b, a)
        }
    }

    #[test]
    fn local_cache_round_trips() {
        let cache = LocalCache::new();
        let k = key("cast.actors", "star.performer");
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(k), None);
        cache.store(k, 0.75);
        assert_eq!(cache.lookup(k), Some(0.75));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_fingerprints_are_distinct_entries() {
        let cache = LocalCache::new();
        let (fp_equal, a, b) = key("cast.actors", "star.performer");
        let fp_gloss = SimilarityWeights::gloss_only().fingerprint();
        assert_ne!(fp_equal, fp_gloss);
        cache.store((fp_equal, a, b), 0.4);
        cache.store((fp_gloss, a, b), 0.9);
        assert_eq!(cache.lookup((fp_equal, a, b)), Some(0.4));
        assert_eq!(cache.lookup((fp_gloss, a, b)), Some(0.9));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn vector_table_round_trips() {
        let cache = LocalCache::new();
        let sn = mini_wordnet();
        let c = sn.by_key("cast.actors").unwrap();
        let k: VectorKey = (c, 2);
        assert!(cache.lookup_vector(k).is_none());
        assert_eq!(cache.vectors_len(), 0);
        cache.store_vector(k, Arc::new(SparseVector::from_ids([(7, 1.0)])));
        let got = cache.lookup_vector(k).expect("stored vector");
        assert_eq!(got.get(7), 1.0);
        assert_eq!(cache.vectors_len(), 1);
        // A different radius or concept is a different entry.
        assert!(cache.lookup_vector((c, 3)).is_none());
        let other = sn.by_key("star.performer").unwrap();
        assert!(cache.lookup_vector((other, 2)).is_none());
    }

    // The Arc-of-LocalCache below is deliberately single-threaded: the
    // point is the forwarding impl, not sharing.
    #[allow(clippy::arc_with_non_send_sync)]
    #[test]
    fn reference_and_arc_forward() {
        let cache = LocalCache::new();
        let k = key("film.movie", "cast.actors");
        {
            let by_ref: &LocalCache = &cache;
            by_ref.store(k, 0.5);
        }
        assert_eq!(cache.lookup(k), Some(0.5));
        let shared = Arc::new(LocalCache::new());
        shared.store(k, 0.25);
        assert_eq!(shared.len(), 1);
    }

    #[allow(clippy::arc_with_non_send_sync)]
    #[test]
    fn reference_and_arc_forward_vectors() {
        // Regression guard: the blanket impls must not fall back to the
        // trait's no-op vector defaults.
        let sn = mini_wordnet();
        let c = sn.by_key("film.movie").unwrap();
        let k: VectorKey = (c, 1);
        let shared = Arc::new(LocalCache::new());
        shared.store_vector(k, Arc::new(SparseVector::new()));
        assert_eq!(shared.vectors_len(), 1);
        assert!(shared.lookup_vector(k).is_some());
        let inner = LocalCache::new();
        let by_ref: &LocalCache = &inner;
        by_ref.store_vector(k, Arc::new(SparseVector::new()));
        assert!(inner.lookup_vector(k).is_some());
        assert_eq!(by_ref.vectors_len(), 1);
    }
}
