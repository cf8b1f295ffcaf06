//! Thread-safe shared multi-table similarity cache with capacity bounds
//! and byte accounting.
//!
//! Sense-pair similarities and concept context vectors are
//! document-independent: once `Sim(c1, c2)` or `V_d(s_p)` is computed for
//! one document, every other document in the batch (and every later run
//! over the same engine) can reuse it. [`SharedCache`] makes that reuse
//! safe across worker threads while keeping contention low by sharding
//! *both* tables — pair scores and context vectors — over independent
//! [`RwLock`]-protected maps: readers on different shards (and even on the
//! same shard) never serialize, and writers only lock 1/16th of a table.
//! Stored `Arc<SparseVector>` values make vector hits clone-free.
//!
//! # Bounded operation
//!
//! A batch over 32 documents can let the cache grow freely; a resident
//! server cannot — the working set of a streaming corpus grows without
//! bound. [`SharedCache::with_budget`] turns on eviction:
//!
//! * **Recency tracking** is clock-style: every entry carries a stamp from
//!   a per-table logical clock, refreshed on hit with a relaxed atomic
//!   store — the hot read path never takes a write lock.
//! * **Eviction** happens on insert, per shard, while the write lock is
//!   already held: when the shard would exceed its slice of the entry or
//!   byte budget, the coldest segment (lowest stamps, at least a quarter
//!   of the shard) is dropped in one batch, amortizing the sort.
//! * **Byte accounting** charges each entry its key + slot footprint plus,
//!   for vectors, [`SparseVector::heap_bytes`]. Budgets are split across
//!   shards up front (and, for bytes, halved between the two tables), so
//!   the invariant is local: no shard ever holds more than its slice,
//!   hence the whole cache never exceeds its budget — there is no global
//!   enforcement race to lose.
//!
//! `CacheBudget::unbounded()` (both limits 0) preserves the original
//! behavior exactly: no stamps are refreshed, nothing is ever evicted.

use semsim::{PairKey, SimilarityCache, SparseVector, VectorKey};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::fault;

/// Number of independent shards per table. A small power of two: enough to
/// keep a typical worker pool (≤ #cores) from colliding, cheap to index by
/// masking.
const SHARDS: usize = 16;

/// Flat per-entry allowance for the `HashMap` bucket (hash + control bytes
/// + load-factor slack) on top of the key and slot sizes.
const MAP_ENTRY_OVERHEAD: usize = 16;

/// Capacity budget for a [`SharedCache`]. Either limit set to `0` means
/// "unbounded" on that axis; the default is unbounded on both, preserving
/// batch behavior.
///
/// * `max_entries` caps **each table** (pair scores, context vectors) at
///   that many entries.
/// * `max_bytes` caps the **whole cache**: the byte budget is split evenly
///   between the two tables, then across each table's 16 shards, so the
///   sum of all shard footprints can never exceed it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheBudget {
    /// Maximum entries per table (0 = unlimited).
    pub max_entries: usize,
    /// Maximum total bytes across both tables (0 = unlimited).
    pub max_bytes: usize,
}

impl CacheBudget {
    /// No limits on either axis.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// `true` when at least one axis is limited.
    pub fn is_bounded(&self) -> bool {
        self.max_entries != 0 || self.max_bytes != 0
    }
}

/// One cached value plus its recency stamp and byte cost.
struct Slot<V> {
    value: V,
    /// Bytes charged against the shard budget when this entry landed.
    cost: usize,
    /// Logical insertion/access time; refreshed on hit (relaxed store
    /// under the read lock), compared when picking eviction victims.
    stamp: AtomicU64,
}

/// The locked interior of one shard: the map plus its byte footprint.
struct ShardMap<K, V> {
    map: HashMap<K, Slot<V>>,
    bytes: usize,
}

impl<K, V> ShardMap<K, V> {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            bytes: 0,
        }
    }
}

/// Eviction/byte gauges shared by both tables of one cache.
#[derive(Default)]
struct Counters {
    /// Current bytes across both tables (sum of shard footprints).
    bytes: AtomicU64,
    /// High watermark of `bytes` over the cache's lifetime.
    bytes_peak: AtomicU64,
    /// Entries dropped to stay within budget (including stores rejected
    /// because a single entry exceeds its shard's slice).
    evictions: AtomicU64,
}

impl Counters {
    /// Applies one insert/evict's net byte delta and eviction count.
    /// Called while the mutating shard's write lock is still held, so the
    /// global gauge is always a consistent sum of shard footprints.
    fn apply(&self, added: usize, freed: usize, evicted: u64) {
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        let now = if added >= freed {
            self.bytes
                .fetch_add((added - freed) as u64, Ordering::Relaxed)
                + (added - freed) as u64
        } else {
            self.bytes
                .fetch_sub((freed - added) as u64, Ordering::Relaxed)
                - (freed - added) as u64
        };
        self.bytes_peak.fetch_max(now, Ordering::Relaxed);
    }
}

/// One 16-way sharded, optionally bounded table.
struct Table<K, V> {
    shards: [RwLock<ShardMap<K, V>>; SHARDS],
    /// Logical clock driving recency stamps. Only advanced when bounded.
    clock: AtomicU64,
    /// Per-shard entry caps (`usize::MAX` = unbounded). Budgets are
    /// distributed with remainder so the caps sum exactly to the total.
    entry_caps: [usize; SHARDS],
    /// Per-shard byte caps (`usize::MAX` = unbounded).
    byte_caps: [usize; SHARDS],
    /// `true` when either axis is bounded — gates stamp refreshes so the
    /// unbounded hot path stays store-free.
    bounded: bool,
    /// Failpoint context (`"pair"` / `"vector"`) for eviction chaos tests.
    fp_ctx: &'static str,
}

/// Splits `total` over the shards, remainder to the lowest indices, so the
/// per-shard caps sum exactly to `total`. `0` (unbounded) maps every shard
/// to `usize::MAX`.
fn distribute(total: usize) -> [usize; SHARDS] {
    if total == 0 {
        return [usize::MAX; SHARDS];
    }
    std::array::from_fn(|i| total / SHARDS + usize::from(i < total % SHARDS))
}

impl<K: Eq + Hash + Copy, V: Clone> Table<K, V> {
    fn new(max_entries: usize, max_bytes: usize, fp_ctx: &'static str) -> Self {
        Self {
            shards: std::array::from_fn(|_| RwLock::new(ShardMap::new())),
            clock: AtomicU64::new(0),
            entry_caps: distribute(max_entries),
            byte_caps: distribute(max_bytes),
            bounded: max_entries != 0 || max_bytes != 0,
            fp_ctx,
        }
    }

    fn shard_index(&self, key: &K) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) & (SHARDS - 1)
    }

    // Poisoned-shard audit: the batch engine catches panics at the document
    // boundary, so a worker can panic while holding a shard lock, poisoning
    // it for every surviving worker. Recovering the guard is sound here
    // because a shard only ever maps keys to pure, idempotent values (any
    // worker recomputing an entry stores an identical one), and every
    // multi-step mutation keeps `ShardMap::bytes` in sync with `map` before
    // any point that can unwind — the eviction failpoint fires *before* the
    // first removal, so even an injected panic never tears the accounting.
    // Propagating the poison instead would turn one caught panic into a
    // cascade that kills the surviving documents — exactly what panic
    // isolation exists to prevent.
    fn read_shard(&self, idx: usize) -> RwLockReadGuard<'_, ShardMap<K, V>> {
        self.shards[idx]
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn write_shard(&self, idx: usize) -> RwLockWriteGuard<'_, ShardMap<K, V>> {
        self.shards[idx]
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn get(&self, key: &K) -> Option<V> {
        let shard = self.read_shard(self.shard_index(key));
        shard.map.get(key).map(|slot| {
            if self.bounded {
                // Recency refresh under the *read* lock: hits stay
                // contention-free, eviction still sees warm entries last.
                slot.stamp.store(
                    self.clock.fetch_add(1, Ordering::Relaxed),
                    Ordering::Relaxed,
                );
            }
            slot.value.clone()
        })
    }

    /// Inserts `key → value` charging `cost` bytes, evicting the coldest
    /// segment of the target shard first if the insert would overflow its
    /// slice of the budget. Oversized entries (cost alone above the shard
    /// byte cap, or a zero entry cap) are rejected and counted as an
    /// eviction — the caller keeps its freshly computed value; it is
    /// simply not retained.
    fn insert(&self, key: K, value: V, cost: usize, counters: &Counters) {
        let idx = self.shard_index(&key);
        let (entry_cap, byte_cap) = (self.entry_caps[idx], self.byte_caps[idx]);
        let mut shard = self.write_shard(idx);
        let mut freed = 0usize;
        let mut evicted = 0u64;
        if let Some(old) = shard.map.remove(&key) {
            shard.bytes -= old.cost;
            freed += old.cost;
        }
        if entry_cap == 0 || cost > byte_cap {
            // Can never fit: reject (and record the replacement's removal).
            counters.apply(0, freed, evicted + 1);
            return;
        }
        if shard.map.len() + 1 > entry_cap || shard.bytes + cost > byte_cap {
            let (n, b) = evict_coldest(&mut shard, entry_cap - 1, byte_cap - cost, self.fp_ctx);
            evicted += n;
            freed += b;
        }
        // Stamps advance on every insert (inserts are rare and already
        // write-locked), so even an unbounded table trims oldest-first
        // under the server's watermark path; only the hit-refresh is gated
        // on `bounded` to keep the unbounded hot path store-free.
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        shard.map.insert(
            key,
            Slot {
                value,
                cost,
                stamp: AtomicU64::new(stamp),
            },
        );
        shard.bytes += cost;
        // Gauges update before the lock drops (see `Counters::apply`).
        counters.apply(cost, freed, evicted);
    }

    fn len(&self) -> usize {
        (0..SHARDS).map(|i| self.read_shard(i).map.len()).sum()
    }

    /// Drops the coldest segment of every shard (at least one entry per
    /// non-empty shard). One trim round for the watermark path; callers
    /// loop until the global gauge is low enough.
    fn trim_round(&self, counters: &Counters) -> u64 {
        let mut total = 0;
        for idx in 0..SHARDS {
            let mut shard = self.write_shard(idx);
            if shard.map.is_empty() {
                continue;
            }
            // `usize::MAX` targets: nothing is "over", so only the
            // quarter-segment minimum applies — one cold segment per round.
            let (n, b) = evict_coldest(&mut shard, usize::MAX, usize::MAX, self.fp_ctx);
            counters.apply(0, b, n);
            total += n;
        }
        total
    }
}

/// Evicts the coldest entries (lowest stamps) from `shard` until it holds
/// at most `max_entries` entries and `max_bytes` bytes — but always at
/// least a quarter of the shard, so the per-insert sort amortizes to
/// O(log n). Returns `(entries_evicted, bytes_freed)`.
fn evict_coldest<K: Eq + Hash + Copy, V>(
    shard: &mut ShardMap<K, V>,
    max_entries: usize,
    max_bytes: usize,
    fp_ctx: &str,
) -> (u64, usize) {
    // Chaos hook: fires before any mutation, so an injected panic poisons
    // the lock without ever tearing the byte accounting.
    fault::hit("cache-evict", fp_ctx);
    let mut order: Vec<(u64, K)> = shard
        .map
        .iter()
        .map(|(k, slot)| (slot.stamp.load(Ordering::Relaxed), *k))
        .collect();
    order.sort_unstable_by_key(|&(stamp, _)| stamp);
    let quarter = shard.map.len().div_ceil(4);
    let mut evicted = 0u64;
    let mut freed = 0usize;
    for (i, (_, key)) in order.iter().enumerate() {
        let over = shard.map.len() > max_entries || shard.bytes > max_bytes;
        if !over && i >= quarter {
            break;
        }
        if let Some(slot) = shard.map.remove(key) {
            shard.bytes -= slot.cost;
            freed += slot.cost;
            evicted += 1;
        }
    }
    (evicted, freed)
}

/// A sharded, thread-safe concept-pair + context-vector cache with
/// hit/miss accounting, optional capacity bounds, and byte accounting.
///
/// Implements [`SimilarityCache`], so a
/// [`CombinedSimilarity`](semsim::CombinedSimilarity) scores straight
/// through it: wrap the cache in an [`Arc`] and hand each
/// worker `CombinedSimilarity::with_cache(weights, Arc::clone(&cache))`.
pub struct SharedCache {
    pairs: Table<PairKey, f64>,
    vectors: Table<VectorKey, Arc<SparseVector>>,
    budget: CacheBudget,
    counters: Counters,
    hits: AtomicU64,
    misses: AtomicU64,
    vector_hits: AtomicU64,
    vector_misses: AtomicU64,
}

/// Bytes charged for one pair-score entry (key + slot + map overhead).
fn pair_cost() -> usize {
    std::mem::size_of::<PairKey>() + std::mem::size_of::<Slot<f64>>() + MAP_ENTRY_OVERHEAD
}

/// Bytes charged for one context-vector entry: key + slot + map overhead
/// plus the vector's own struct and heap footprint. The `Arc` may be
/// shared with readers, but the cache is what keeps it alive, so it is
/// charged in full.
fn vector_cost(v: &SparseVector) -> usize {
    std::mem::size_of::<VectorKey>()
        + std::mem::size_of::<Slot<Arc<SparseVector>>>()
        + MAP_ENTRY_OVERHEAD
        + std::mem::size_of::<SparseVector>()
        + v.heap_bytes()
}

impl SharedCache {
    /// An empty, unbounded cache (batch behavior: nothing is ever
    /// evicted).
    pub fn new() -> Self {
        Self::with_budget(CacheBudget::unbounded())
    }

    /// An empty cache enforcing `budget` (see [`CacheBudget`] for how the
    /// limits are split across tables and shards).
    pub fn with_budget(budget: CacheBudget) -> Self {
        // The byte budget covers both tables; each gets half, remainder to
        // the vector table (its entries are the big ones).
        let (pair_bytes, vector_bytes) = if budget.max_bytes == 0 {
            (0, 0)
        } else {
            let half = budget.max_bytes / 2;
            (half, budget.max_bytes - half)
        };
        Self {
            pairs: Table::new(budget.max_entries, pair_bytes, "pair"),
            vectors: Table::new(budget.max_entries, vector_bytes, "vector"),
            budget,
            counters: Counters::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            vector_hits: AtomicU64::new(0),
            vector_misses: AtomicU64::new(0),
        }
    }

    /// The budget this cache enforces.
    pub fn budget(&self) -> CacheBudget {
        self.budget
    }

    /// Current accounted bytes across both tables. Never exceeds
    /// `budget().max_bytes` when that is non-zero.
    pub fn bytes(&self) -> u64 {
        self.counters.bytes.load(Ordering::Relaxed)
    }

    /// Lifetime high watermark of [`SharedCache::bytes`].
    pub fn bytes_peak(&self) -> u64 {
        self.counters.bytes_peak.load(Ordering::Relaxed)
    }

    /// Entries dropped to stay within budget (both tables, including
    /// watermark trims and rejected oversized stores).
    pub fn evictions(&self) -> u64 {
        self.counters.evictions.load(Ordering::Relaxed)
    }

    /// Evicts cold segments from both tables until the accounted bytes
    /// drop to `target_bytes` or the cache is empty. The server's
    /// soft/hard-watermark response; returns entries evicted. Safe (and
    /// useful) even on an unbounded cache.
    pub fn trim_to(&self, target_bytes: u64) -> u64 {
        let mut evicted = 0;
        while self.bytes() > target_bytes {
            let round =
                self.pairs.trim_round(&self.counters) + self.vectors.trim_round(&self.counters);
            evicted += round;
            if round == 0 {
                break;
            }
        }
        evicted
    }

    /// Lookups that found a cached score.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed (each followed by a fresh computation).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// `hits / (hits + misses)`, or 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }

    /// Vector-table lookups that found a cached context vector.
    pub fn vector_hits(&self) -> u64 {
        self.vector_hits.load(Ordering::Relaxed)
    }

    /// Vector-table lookups that missed (each followed by a fresh sphere
    /// BFS + vector build).
    pub fn vector_misses(&self) -> u64 {
        self.vector_misses.load(Ordering::Relaxed)
    }
}

impl Default for SharedCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SharedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedCache")
            .field("entries", &self.len())
            .field("vector_entries", &self.vectors_len())
            .field("bytes", &self.bytes())
            .field("evictions", &self.evictions())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl SimilarityCache for SharedCache {
    fn lookup(&self, key: PairKey) -> Option<f64> {
        let found = self.pairs.get(&key);
        match found {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn store(&self, key: PairKey, value: f64) {
        self.pairs.insert(key, value, pair_cost(), &self.counters);
    }

    fn len(&self) -> usize {
        self.pairs.len()
    }

    fn lookup_vector(&self, key: VectorKey) -> Option<Arc<SparseVector>> {
        let found = self.vectors.get(&key);
        match found {
            Some(v) => {
                self.vector_hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.vector_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn store_vector(&self, key: VectorKey, value: Arc<SparseVector>) {
        let cost = vector_cost(&value);
        self.vectors.insert(key, value, cost, &self.counters);
    }

    fn vectors_len(&self) -> usize {
        self.vectors.len()
    }
}

/// A per-worker view of the [`SharedCache`] that additionally tallies this
/// worker's own hits and misses.
///
/// The shared cache's global counters are cumulative across *every* run
/// that ever touched the cache, so two concurrent [`crate::BatchEngine`]
/// runs sharing an engine would skew each other's before/after deltas.
/// Each worker instead scores through its own `TallyCache`; the engine
/// sums the tallies, giving exact per-run hit/miss counts no matter how
/// many runs share the underlying table.
#[derive(Debug)]
pub struct TallyCache {
    shared: Arc<SharedCache>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    vector_hits: Cell<u64>,
    vector_misses: Cell<u64>,
    /// When tracing wants per-document miss attribution, the keys of
    /// every missed pair lookup since [`TallyCache::begin_miss_recording`].
    /// `None` (the default) records nothing and costs one branch per miss.
    miss_log: RefCell<Option<Vec<PairKey>>>,
}

impl TallyCache {
    /// A fresh tally over the given shared table.
    pub fn new(shared: Arc<SharedCache>) -> Self {
        Self {
            shared,
            hits: Cell::new(0),
            misses: Cell::new(0),
            vector_hits: Cell::new(0),
            vector_misses: Cell::new(0),
            miss_log: RefCell::new(None),
        }
    }

    /// Starts (or restarts) recording the keys of missed pair lookups.
    /// The batch executor calls this per document when tracing, then
    /// drains with [`TallyCache::take_missed_pairs`], giving exact
    /// per-document miss attribution.
    pub fn begin_miss_recording(&self) {
        *self.miss_log.borrow_mut() = Some(Vec::new());
    }

    /// Stops miss recording and returns the missed pair keys since
    /// [`TallyCache::begin_miss_recording`] (empty if never started).
    pub fn take_missed_pairs(&self) -> Vec<PairKey> {
        self.miss_log.borrow_mut().take().unwrap_or_default()
    }

    /// Lookups through this tally that hit.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups through this tally that missed.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Vector lookups through this tally that hit (vectors reused).
    pub fn vector_hits(&self) -> u64 {
        self.vector_hits.get()
    }

    /// Vector lookups through this tally that missed (vectors built).
    pub fn vector_misses(&self) -> u64 {
        self.vector_misses.get()
    }
}

impl SimilarityCache for TallyCache {
    fn lookup(&self, key: PairKey) -> Option<f64> {
        let found = self.shared.lookup(key);
        match found {
            Some(_) => self.hits.set(self.hits.get() + 1),
            None => {
                self.misses.set(self.misses.get() + 1);
                if let Some(log) = self.miss_log.borrow_mut().as_mut() {
                    log.push(key);
                }
            }
        }
        found
    }

    fn store(&self, key: PairKey, value: f64) {
        self.shared.store(key, value);
    }

    fn len(&self) -> usize {
        self.shared.len()
    }

    fn lookup_vector(&self, key: VectorKey) -> Option<Arc<SparseVector>> {
        let found = self.shared.lookup_vector(key);
        match found {
            Some(_) => self.vector_hits.set(self.vector_hits.get() + 1),
            None => self.vector_misses.set(self.vector_misses.get() + 1),
        }
        found
    }

    fn store_vector(&self, key: VectorKey, value: Arc<SparseVector>) {
        self.shared.store_vector(key, value);
    }

    fn vectors_len(&self) -> usize {
        self.shared.vectors_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semnet::mini_wordnet;
    use semsim::{CombinedSimilarity, SimilarityWeights};
    use std::sync::Arc;

    fn pair_key(a: semnet::ConceptId, b: semnet::ConceptId) -> PairKey {
        let fp = SimilarityWeights::equal().fingerprint();
        if a <= b {
            (fp, a, b)
        } else {
            (fp, b, a)
        }
    }

    #[test]
    fn round_trip_and_counters() {
        let sn = mini_wordnet();
        let (a, b) = (
            sn.by_key("cast.actors").unwrap(),
            sn.by_key("star.performer").unwrap(),
        );
        let key = pair_key(a, b);
        let cache = SharedCache::new();
        assert_eq!(cache.lookup(key), None);
        cache.store(key, 0.5);
        assert_eq!(cache.lookup(key), Some(0.5));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shared_across_measures() {
        // Two measures over one cache: the second sees the first's work.
        let sn = mini_wordnet();
        let cache = Arc::new(SharedCache::new());
        let m1 = CombinedSimilarity::with_cache(SimilarityWeights::equal(), Arc::clone(&cache));
        let m2 = CombinedSimilarity::with_cache(SimilarityWeights::equal(), Arc::clone(&cache));
        let (a, b) = (
            sn.by_key("kelly.grace").unwrap(),
            sn.by_key("stewart.james").unwrap(),
        );
        let v1 = m1.similarity(sn, a, b);
        let misses_after_first = cache.misses();
        let v2 = m2.similarity(sn, b, a); // symmetric key
        assert_eq!(v1, v2);
        assert_eq!(cache.misses(), misses_after_first, "second lookup must hit");
        assert!(cache.hits() >= 1);
    }

    #[test]
    fn concurrent_writers_converge() {
        let sn = mini_wordnet();
        let cache = Arc::new(SharedCache::new());
        let keys: Vec<_> = ["cast.actors", "star.performer", "film.movie", "kelly.grace"]
            .iter()
            .map(|k| sn.by_key(k).unwrap())
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                let keys = &keys;
                scope.spawn(move || {
                    let sim = CombinedSimilarity::with_cache(SimilarityWeights::equal(), cache);
                    for &a in keys {
                        for &b in keys {
                            sim.similarity(sn, a, b);
                        }
                    }
                });
            }
        });
        // 4 distinct concepts -> 10 unordered pairs (incl. identity).
        assert_eq!(cache.len(), 10);
        assert!(cache.hits() > 0);
    }

    #[test]
    fn tally_cache_counts_per_view_not_globally() {
        let sn = mini_wordnet();
        let shared = Arc::new(SharedCache::new());
        let (a, b) = (
            sn.by_key("cast.actors").unwrap(),
            sn.by_key("star.performer").unwrap(),
        );
        let key = pair_key(a, b);
        let first = TallyCache::new(Arc::clone(&shared));
        assert_eq!(first.lookup(key), None);
        first.store(key, 0.5);
        assert_eq!(first.lookup(key), Some(0.5));
        assert_eq!((first.hits(), first.misses()), (1, 1));
        // A second view starts from zero while the shared table stays warm.
        let second = TallyCache::new(Arc::clone(&shared));
        assert_eq!(second.lookup(key), Some(0.5));
        assert_eq!((second.hits(), second.misses()), (1, 0));
        assert_eq!((shared.hits(), shared.misses()), (2, 1));
        assert_eq!(second.len(), 1);
    }

    #[test]
    fn vector_table_round_trip_and_counters() {
        let sn = mini_wordnet();
        let c = sn.by_key("cast.actors").unwrap();
        let key: VectorKey = (c, 2, semnet::graph::RelationFilter::All.fingerprint());
        let cache = SharedCache::new();
        assert!(cache.lookup_vector(key).is_none());
        let mut v = SparseVector::new();
        v.add("cast", 1.0);
        let v = Arc::new(v);
        cache.store_vector(key, Arc::clone(&v));
        let got = cache.lookup_vector(key).unwrap();
        assert!(Arc::ptr_eq(&got, &v), "hits must share the stored vector");
        assert_eq!((cache.vector_hits(), cache.vector_misses()), (1, 1));
        assert_eq!(cache.vectors_len(), 1);
        // The pair tables are untouched by vector traffic.
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 0, 0));
    }

    #[test]
    fn tally_cache_counts_vector_traffic_per_view() {
        let sn = mini_wordnet();
        let c = sn.by_key("star.performer").unwrap();
        let key: VectorKey = (c, 1, semnet::graph::RelationFilter::All.fingerprint());
        let shared = Arc::new(SharedCache::new());
        let first = TallyCache::new(Arc::clone(&shared));
        assert!(first.lookup_vector(key).is_none());
        first.store_vector(key, Arc::new(SparseVector::new()));
        assert!(first.lookup_vector(key).is_some());
        assert_eq!((first.vector_hits(), first.vector_misses()), (1, 1));
        let second = TallyCache::new(Arc::clone(&shared));
        assert!(second.lookup_vector(key).is_some());
        assert_eq!((second.vector_hits(), second.vector_misses()), (1, 0));
        assert_eq!((shared.vector_hits(), shared.vector_misses()), (2, 1));
        assert_eq!(second.vectors_len(), 1);
    }

    #[test]
    fn miss_recording_captures_missed_keys_only_while_enabled() {
        let sn = mini_wordnet();
        let shared = Arc::new(SharedCache::new());
        let tally = TallyCache::new(Arc::clone(&shared));
        let (a, b) = (
            sn.by_key("cast.actors").unwrap(),
            sn.by_key("star.performer").unwrap(),
        );
        let key = pair_key(a, b);
        // Disabled by default: misses are counted but not logged.
        assert_eq!(tally.lookup(key), None);
        assert!(tally.take_missed_pairs().is_empty());
        tally.begin_miss_recording();
        assert_eq!(tally.lookup(key), None);
        tally.store(key, 0.5);
        assert_eq!(tally.lookup(key), Some(0.5), "hits are not logged");
        assert_eq!(tally.take_missed_pairs(), vec![key]);
        // Draining stops recording again.
        let (c,) = (sn.by_key("film.movie").unwrap(),);
        assert_eq!(tally.lookup(pair_key(a, c)), None);
        assert!(tally.take_missed_pairs().is_empty());
    }

    #[test]
    fn different_weights_sharing_one_cache_match_fresh_caches() {
        // Regression for the cache-poisoning bug: before keys carried a
        // weight fingerprint, the second weight configuration silently read
        // scores computed under the first.
        let sn = mini_wordnet();
        let gloss_only = SimilarityWeights::gloss_only();
        let keys: Vec<_> = ["cast.actors", "star.performer", "film.movie", "kelly.grace"]
            .iter()
            .map(|k| sn.by_key(k).unwrap())
            .collect();
        let shared = Arc::new(SharedCache::new());
        let m_eq = CombinedSimilarity::with_cache(SimilarityWeights::equal(), Arc::clone(&shared));
        let m_gl = CombinedSimilarity::with_cache(gloss_only, Arc::clone(&shared));
        let fresh_eq = CombinedSimilarity::new(SimilarityWeights::equal());
        let fresh_gl = CombinedSimilarity::new(gloss_only);
        let mut pairs = 0;
        for &a in &keys {
            for &b in &keys {
                if a <= b {
                    pairs += 1;
                }
                // Interleave so each config's second pass reads a table the
                // other config has already populated.
                assert_eq!(m_eq.similarity(sn, a, b), fresh_eq.similarity(sn, a, b));
                assert_eq!(m_gl.similarity(sn, a, b), fresh_gl.similarity(sn, a, b));
            }
        }
        // One entry per (fingerprint, pair): the configs never collide.
        assert_eq!(shared.len(), 2 * pairs);
    }

    #[test]
    fn poisoned_shard_recovers_instead_of_cascading() {
        let sn = mini_wordnet();
        let cache = SharedCache::new();
        let (a, b) = (
            sn.by_key("film.movie").unwrap(),
            sn.by_key("kelly.grace").unwrap(),
        );
        let key = pair_key(a, b);
        cache.store(key, 0.25);
        // Panic while holding the shard's write lock, the worst case a
        // caught per-document panic can leave behind.
        let idx = cache.pairs.shard_index(&key);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cache.pairs.shards[idx].write().unwrap();
            panic!("worker died mid-store");
        }));
        assert!(result.is_err());
        assert!(cache.pairs.shards[idx].is_poisoned());
        // Surviving workers keep reading, writing, and sizing the table.
        assert_eq!(cache.lookup(key), Some(0.25));
        cache.store(key, 0.25);
        assert_eq!(cache.len(), 1);
    }

    // ---- bounded-operation tests ----

    /// Distinct pair keys for budget tests: synthetic weight fingerprints
    /// give as many distinct keys as needed without touching a network.
    fn distinct_keys(n: usize) -> Vec<PairKey> {
        let id = semnet::ConceptId(0);
        (0..n)
            .map(|i| (semsim::WeightsFingerprint(i as u64), id, id))
            .collect()
    }

    #[test]
    fn entry_budget_caps_both_tables_and_counts_evictions() {
        let cache = SharedCache::with_budget(CacheBudget {
            max_entries: 4,
            max_bytes: 0,
        });
        for (i, key) in distinct_keys(64).into_iter().enumerate() {
            cache.store(key, i as f64);
        }
        assert!(cache.len() <= 4, "pair table over budget: {}", cache.len());
        assert!(cache.evictions() > 0);
        let filter = semnet::graph::RelationFilter::All.fingerprint();
        for i in 0..64u32 {
            let key: VectorKey = (semnet::ConceptId(i), 2, filter);
            cache.store_vector(key, Arc::new(SparseVector::new()));
        }
        assert!(cache.vectors_len() <= 4, "vector table over budget");
    }

    #[test]
    fn byte_budget_is_never_exceeded_and_peak_is_tracked() {
        let budget = CacheBudget {
            max_entries: 0,
            max_bytes: 4096,
        };
        let cache = SharedCache::with_budget(budget);
        let filter = semnet::graph::RelationFilter::All.fingerprint();
        for (i, key) in distinct_keys(40).into_iter().enumerate() {
            cache.store(key, i as f64);
            let mut v = SparseVector::new();
            for d in 0..8 {
                v.add(format!("dim-{i}-{d}"), 1.0);
            }
            cache.store_vector((key.1, i as u32, filter), Arc::new(v));
            assert!(
                cache.bytes() <= budget.max_bytes as u64,
                "bytes {} over budget after store {i}",
                cache.bytes()
            );
        }
        assert!(cache.evictions() > 0, "tiny budget must evict");
        assert!(cache.bytes_peak() <= budget.max_bytes as u64);
        assert!(cache.bytes_peak() >= cache.bytes());
        assert!(cache.bytes() > 0);
    }

    #[test]
    fn recently_hit_entries_survive_eviction_of_cold_ones() {
        // Flood a single shard (cap 4 entries) with cold keys while one
        // hot key is re-read before every insert: eviction must always
        // pick the cold segment, never the freshly refreshed entry.
        let cache = SharedCache::with_budget(CacheBudget {
            max_entries: 64, // 4 per shard
            max_bytes: 0,
        });
        let hot = distinct_keys(1)[0];
        let hot_shard = cache.pairs.shard_index(&hot);
        let same_shard: Vec<PairKey> = distinct_keys(512)
            .into_iter()
            .skip(1)
            .filter(|k| cache.pairs.shard_index(k) == hot_shard)
            .take(24)
            .collect();
        assert!(same_shard.len() >= 12, "need enough colliding keys");
        cache.store(hot, 42.0);
        for (i, &key) in same_shard.iter().enumerate() {
            // Keep the hot key warm while cold traffic floods its shard.
            assert_eq!(cache.lookup(hot), Some(42.0), "hot key evicted at {i}");
            cache.store(key, i as f64);
        }
        assert_eq!(cache.lookup(hot), Some(42.0));
        assert!(cache.evictions() > 0);
    }

    #[test]
    fn oversized_entry_is_rejected_not_stored() {
        let cache = SharedCache::with_budget(CacheBudget {
            max_entries: 0,
            max_bytes: 256, // vector half = 128 bytes, split over 16 shards
        });
        let sn = mini_wordnet();
        let c = sn.by_key("cast.actors").unwrap();
        let mut big = SparseVector::new();
        for d in 0..64 {
            big.add(format!("dimension-{d}"), 1.0);
        }
        let key: VectorKey = (c, 2, semnet::graph::RelationFilter::All.fingerprint());
        let before = cache.evictions();
        cache.store_vector(key, Arc::new(big));
        assert!(cache.lookup_vector(key).is_none(), "oversized entry kept");
        assert_eq!(cache.vectors_len(), 0);
        assert_eq!(cache.bytes(), 0);
        assert!(cache.evictions() > before, "rejection must be visible");
    }

    #[test]
    fn trim_to_drains_the_cache_and_counts_evictions() {
        let cache = SharedCache::new();
        let filter = semnet::graph::RelationFilter::All.fingerprint();
        for (i, key) in distinct_keys(32).into_iter().enumerate() {
            cache.store(key, i as f64);
            let mut v = SparseVector::new();
            v.add(format!("dim-{i}"), 1.0);
            cache.store_vector((key.1, i as u32, filter), Arc::new(v));
        }
        let before_bytes = cache.bytes();
        assert!(before_bytes > 0);
        let evicted = cache.trim_to(before_bytes / 2);
        assert!(cache.bytes() <= before_bytes / 2);
        assert!(evicted > 0);
        assert_eq!(cache.evictions(), evicted);
        // Trim to zero empties both tables completely.
        cache.trim_to(0);
        assert_eq!((cache.bytes(), cache.len(), cache.vectors_len()), (0, 0, 0));
        assert!(cache.bytes_peak() >= before_bytes);
    }

    #[test]
    fn unbounded_cache_accounts_bytes_but_never_evicts() {
        let cache = SharedCache::new();
        for (i, key) in distinct_keys(64).into_iter().enumerate() {
            cache.store(key, i as f64);
        }
        assert_eq!(cache.len(), 64);
        assert_eq!(cache.evictions(), 0);
        assert!(cache.bytes() >= 64 * pair_cost() as u64);
        assert_eq!(cache.bytes_peak(), cache.bytes());
    }

    #[test]
    fn replacing_a_key_does_not_leak_bytes() {
        let cache = SharedCache::with_budget(CacheBudget {
            max_entries: 0,
            max_bytes: 1 << 20,
        });
        let key = distinct_keys(1)[0];
        cache.store(key, 1.0);
        let once = cache.bytes();
        for i in 0..100 {
            cache.store(key, i as f64);
        }
        assert_eq!(cache.bytes(), once, "replacement must not accumulate");
        assert_eq!(cache.len(), 1);
    }
}
