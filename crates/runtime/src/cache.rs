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
//! Stored `Arc<SparseVector>` values make vector hits clone-free: a hit
//! hands out the cached id run itself, norm included.
//!
//! # Read path
//!
//! A hit costs two [`semsim::KeyHasher`] passes (one folded multiply per key
//! word), a shared lock on one shard and the map probe; it writes nothing
//! shared on an unbounded table. The shard pick hashes unseeded
//! ([`KeyHashBuilder::UNSEEDED`]), so a key lands in the same shard in
//! every process and the per-shard budgets evict the same entries in
//! every single-threaded run. The shard maps hash with the per-process
//! seed ([`KeyHashBuilder::default`]), since their keys come from
//! untrusted documents. The cache keeps no hit or miss totals: each
//! worker counts its own lookups through a [`TallyCache`].
//!
//! # Bounded operation
//!
//! A batch over 32 documents can let the cache grow freely; a resident
//! server cannot — the working set of a streaming corpus grows without
//! bound. [`SharedCache::with_budget`] turns on eviction:
//!
//! * **Recency tracking** is by insert epoch: each shard counts its
//!   inserts under its write lock, and every entry carries the epoch of
//!   its last use. A hit under the *read* lock stores the shard's current
//!   epoch into the entry, and only when the entry holds a different one,
//!   so the hot read path neither takes a write lock nor touches an
//!   atomic shared by the whole table.
//! * **Eviction** happens on insert, per shard, while the write lock is
//!   already held: when the shard would exceed its slice of the entry or
//!   byte budget, the coldest segment (lowest `(stamp, key)`, at least a
//!   quarter of the shard) is dropped in one batch. A linear selection
//!   finds the quarter; the rest is sorted only when the quarter is not
//!   enough. Entries used within one epoch tie on the stamp; the key
//!   breaks the tie, so a single-threaded run evicts the same entries
//!   every time.
//! * **Byte accounting** charges each entry its key + slot footprint plus,
//!   for vectors, [`SparseVector::heap_bytes`]. Budgets are split across
//!   shards up front (and, for bytes, halved between the two tables), so
//!   the invariant is local: no shard ever holds more than its slice,
//!   hence the whole cache never exceeds its budget — there is no global
//!   enforcement race to lose.
//!
//! `CacheBudget::unbounded()` (both limits 0) preserves the original
//! behavior exactly: no stamps are refreshed, nothing is ever evicted.

use semsim::{KeyHashBuilder, PairKey, SimilarityCache, SparseVector, VectorKey};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
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
    /// The shard's insert epoch at this entry's last use: set on insert,
    /// refreshed on hit (relaxed store under the read lock), compared
    /// when picking eviction victims.
    stamp: AtomicU64,
}

/// The locked interior of one shard: the map, its byte footprint and its
/// insert epoch.
struct ShardMap<K, V> {
    map: HashMap<K, Slot<V>, KeyHashBuilder>,
    bytes: usize,
    /// Inserts into this shard so far; only advanced under the write lock.
    epoch: u64,
}

impl<K, V> ShardMap<K, V> {
    fn new(hasher: KeyHashBuilder) -> Self {
        Self {
            map: HashMap::with_hasher(hasher),
            bytes: 0,
            epoch: 0,
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

impl<K: Ord + Hash + Copy, V: Clone> Table<K, V> {
    fn new(
        max_entries: usize,
        max_bytes: usize,
        fp_ctx: &'static str,
        hasher: KeyHashBuilder,
    ) -> Self {
        Self {
            shards: std::array::from_fn(|_| RwLock::new(ShardMap::new(hasher))),
            entry_caps: distribute(max_entries),
            byte_caps: distribute(max_bytes),
            bounded: max_entries != 0 || max_bytes != 0,
            fp_ctx,
        }
    }

    /// The shard `key` is filed under: its unseeded
    /// [`semsim::KeyHasher`] hash, so the same in every process.
    fn shard_index(&self, key: &K) -> usize {
        (KeyHashBuilder::UNSEEDED.hash_one(key) as usize) & (SHARDS - 1)
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
        let slot = shard.map.get(key)?;
        // Recency refresh under the *read* lock, and only once per entry
        // and epoch: hits stay contention-free, eviction still sees warm
        // entries last.
        if self.bounded && slot.stamp.load(Ordering::Relaxed) != shard.epoch {
            slot.stamp.store(shard.epoch, Ordering::Relaxed);
        }
        Some(slot.value.clone())
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
        // The epoch advances on every insert (inserts are rare and already
        // write-locked); only the hit-refresh is gated on `bounded` to keep
        // the unbounded hot path store-free. Hits after this insert stamp
        // the new epoch, so they rank warmer than the entry stored here.
        let stamp = shard.epoch;
        shard.epoch += 1;
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
}

/// Evicts the coldest entries (lowest `(stamp, key)`) from `shard` until
/// it holds at most `max_entries` entries and `max_bytes` bytes — but
/// always at least a quarter of the shard, so one eviction makes room for
/// many inserts. Entries used within one epoch share a stamp, so the key
/// breaks the tie and the victims do not depend on the map's per-process
/// iteration order. Returns `(entries_evicted, bytes_freed)`.
///
/// The coldest quarter is split off by selection, in linear time; the rest
/// is sorted only when the quarter leaves the shard over a target. The
/// victims are the same set a full sort would pick: the quarter smallest
/// keys, then the smallest of the rest in order while the shard is over.
fn evict_coldest<K: Ord + Hash + Copy, V>(
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
    let quarter = order.len().div_ceil(4);
    if quarter < order.len() {
        order.select_nth_unstable(quarter);
    }
    let mut evicted = 0u64;
    let mut freed = 0usize;
    let mut evict = |shard: &mut ShardMap<K, V>, key: &K| {
        if let Some(slot) = shard.map.remove(key) {
            shard.bytes -= slot.cost;
            freed += slot.cost;
            evicted += 1;
        }
    };
    let (cold, rest) = order.split_at_mut(quarter);
    for (_, key) in cold.iter() {
        evict(shard, key);
    }
    let over = |shard: &ShardMap<K, V>| shard.map.len() > max_entries || shard.bytes > max_bytes;
    if over(shard) {
        rest.sort_unstable();
        for (_, key) in rest.iter() {
            if !over(shard) {
                break;
            }
            evict(shard, key);
        }
    }
    (evicted, freed)
}

/// A sharded, thread-safe concept-pair + context-vector cache with
/// optional capacity bounds and byte accounting. Hits and misses are
/// counted per worker, by a [`TallyCache`] over it.
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
        Self::with_budget_and_hasher(budget, KeyHashBuilder::default())
    }

    /// [`SharedCache::with_budget`] with the shard maps hashing through
    /// `hasher` (tests stand in another process's seed with it).
    fn with_budget_and_hasher(budget: CacheBudget, hasher: KeyHashBuilder) -> Self {
        // The byte budget covers both tables; each gets half, remainder to
        // the vector table (its entries are the big ones).
        let (pair_bytes, vector_bytes) = if budget.max_bytes == 0 {
            (0, 0)
        } else {
            let half = budget.max_bytes / 2;
            (half, budget.max_bytes - half)
        };
        Self {
            pairs: Table::new(budget.max_entries, pair_bytes, "pair", hasher),
            vectors: Table::new(budget.max_entries, vector_bytes, "vector", hasher),
            budget,
            counters: Counters::default(),
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
    /// rejected oversized stores).
    pub fn evictions(&self) -> u64 {
        self.counters.evictions.load(Ordering::Relaxed)
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
            .finish()
    }
}

impl SimilarityCache for SharedCache {
    fn lookup(&self, key: PairKey) -> Option<f64> {
        self.pairs.get(&key)
    }

    fn store(&self, key: PairKey, value: f64) {
        self.pairs.insert(key, value, pair_cost(), &self.counters);
    }

    fn len(&self) -> usize {
        self.pairs.len()
    }

    fn lookup_vector(&self, key: VectorKey) -> Option<Arc<SparseVector>> {
        self.vectors.get(&key)
    }

    fn store_vector(&self, key: VectorKey, value: Arc<SparseVector>) {
        let cost = vector_cost(&value);
        self.vectors.insert(key, value, cost, &self.counters);
    }

    fn vectors_len(&self) -> usize {
        self.vectors.len()
    }
}

/// A per-worker view of the [`SharedCache`] that tallies this worker's own
/// hits and misses.
///
/// The shared cache keeps no lookup totals: a counter every worker bumps
/// would put one contended cache line on every hit, and would mix the
/// counts of concurrent [`crate::BatchEngine`] runs sharing an engine.
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
        let cache = Arc::new(SharedCache::new());
        let tally = TallyCache::new(Arc::clone(&cache));
        assert_eq!(tally.lookup(key), None);
        tally.store(key, 0.5);
        assert_eq!(tally.lookup(key), Some(0.5));
        assert_eq!(
            cache.lookup(key),
            Some(0.5),
            "the store lands in the shared table"
        );
        assert_eq!((tally.hits(), tally.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shared_across_measures() {
        // Two measures over one cache: the second sees the first's work.
        let sn = mini_wordnet();
        let cache = Arc::new(SharedCache::new());
        let view = || TallyCache::new(Arc::clone(&cache));
        let m1 = CombinedSimilarity::with_cache(SimilarityWeights::equal(), view());
        let m2 = CombinedSimilarity::with_cache(SimilarityWeights::equal(), view());
        let (a, b) = (
            sn.by_key("kelly.grace").unwrap(),
            sn.by_key("stewart.james").unwrap(),
        );
        let v1 = m1.similarity(sn, a, b);
        assert_eq!((m1.cache().hits(), m1.cache().misses()), (0, 1));
        let v2 = m2.similarity(sn, b, a); // symmetric key
        assert_eq!(v1, v2);
        assert_eq!(
            (m2.cache().hits(), m2.cache().misses()),
            (1, 0),
            "second lookup must hit"
        );
    }

    #[test]
    fn concurrent_writers_converge() {
        let sn = mini_wordnet();
        let cache = Arc::new(SharedCache::new());
        let keys: Vec<_> = ["cast.actors", "star.performer", "film.movie", "kelly.grace"]
            .iter()
            .map(|k| sn.by_key(k).unwrap())
            .collect();
        let tallies: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    let tally = TallyCache::new(Arc::clone(&cache));
                    let keys = &keys;
                    scope.spawn(move || {
                        let sim = CombinedSimilarity::with_cache(SimilarityWeights::equal(), tally);
                        for &a in keys {
                            for &b in keys {
                                sim.similarity(sn, a, b);
                            }
                        }
                        (sim.cache().hits(), sim.cache().misses())
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        // 4 distinct concepts -> 10 unordered pairs (incl. identity).
        assert_eq!(cache.len(), 10);
        let (hits, misses) = tallies
            .iter()
            .fold((0, 0), |(h, m), &(wh, wm)| (h + wh, m + wm));
        assert_eq!(hits + misses, 4 * 16, "every lookup is counted once");
        assert!(hits > 0);
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
        assert_eq!((first.hits(), first.misses()), (1, 1), "views count apart");
        assert_eq!(second.len(), 1);
    }

    #[test]
    fn vector_table_round_trip_and_counters() {
        let sn = mini_wordnet();
        let c = sn.by_key("cast.actors").unwrap();
        let key: VectorKey = (c, 2);
        let cache = Arc::new(SharedCache::new());
        let tally = TallyCache::new(Arc::clone(&cache));
        assert!(tally.lookup_vector(key).is_none());
        let v = Arc::new(SparseVector::from_ids([(0, 1.0)]));
        tally.store_vector(key, Arc::clone(&v));
        let got = tally.lookup_vector(key).unwrap();
        assert!(Arc::ptr_eq(&got, &v), "hits must share the stored vector");
        assert_eq!((tally.vector_hits(), tally.vector_misses()), (1, 1));
        assert_eq!(cache.vectors_len(), 1);
        // The pair tables are untouched by vector traffic.
        assert_eq!((tally.hits(), tally.misses(), cache.len()), (0, 0, 0));
    }

    #[test]
    fn tally_cache_counts_vector_traffic_per_view() {
        let sn = mini_wordnet();
        let c = sn.by_key("star.performer").unwrap();
        let key: VectorKey = (c, 1);
        let shared = Arc::new(SharedCache::new());
        let first = TallyCache::new(Arc::clone(&shared));
        assert!(first.lookup_vector(key).is_none());
        first.store_vector(key, Arc::new(SparseVector::new()));
        assert!(first.lookup_vector(key).is_some());
        assert_eq!((first.vector_hits(), first.vector_misses()), (1, 1));
        let second = TallyCache::new(Arc::clone(&shared));
        assert!(second.lookup_vector(key).is_some());
        assert_eq!((second.vector_hits(), second.vector_misses()), (1, 0));
        assert_eq!((first.vector_hits(), first.vector_misses()), (1, 1));
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
        for i in 0..64u32 {
            let key: VectorKey = (semnet::ConceptId(i), 2);
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
        for (i, key) in distinct_keys(40).into_iter().enumerate() {
            cache.store(key, i as f64);
            let v = SparseVector::from_ids((0..8).map(|d| (d, 1.0)));
            cache.store_vector((key.1, i as u32), Arc::new(v));
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
    fn mini_wordnet_pair_keys_spread_over_every_shard() {
        // The unseeded shard pick must not crowd real keys (small,
        // consecutive concept ids under one weight fingerprint) into a
        // few shards: each shard's budget slice assumes an even spread.
        let sn = mini_wordnet();
        let n = 91u32; // 91 · 92 / 2 = 4186 pairs
        assert!(sn.len() >= n as usize);
        let cache = SharedCache::new();
        let mut per_shard = [0usize; SHARDS];
        let mut keys = 0;
        for a in 0..n {
            for b in a..n {
                let key = pair_key(semnet::ConceptId(a), semnet::ConceptId(b));
                per_shard[cache.pairs.shard_index(&key)] += 1;
                keys += 1;
            }
        }
        assert!(keys >= 4096);
        let share = keys / SHARDS;
        assert!(
            per_shard.iter().all(|&k| k > 0),
            "empty shard: {per_shard:?}"
        );
        assert!(
            per_shard.iter().all(|&k| k <= 2 * share),
            "a shard holds over twice its share of {share}: {per_shard:?}"
        );
    }

    /// Every pair key held by `cache`, in key order.
    fn held_pairs(cache: &SharedCache) -> Vec<PairKey> {
        let mut keys: Vec<PairKey> = (0..SHARDS)
            .flat_map(|i| {
                cache
                    .pairs
                    .read_shard(i)
                    .map
                    .keys()
                    .copied()
                    .collect::<Vec<_>>()
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn eviction_is_the_same_under_any_map_seed() {
        // Two caches whose shard maps iterate in different orders (the
        // seeds of two processes) replay one single-threaded sequence.
        // Between inserts, every held key is hit, so whole shards share
        // one stamp and the key alone must pick the victims.
        let budget = CacheBudget {
            max_entries: 64, // 4 per shard
            max_bytes: 0,
        };
        let caches = [
            SharedCache::with_budget_and_hasher(budget, semsim::KeyHashBuilder::with_seed(1)),
            SharedCache::with_budget_and_hasher(budget, semsim::KeyHashBuilder::with_seed(2)),
        ];
        let keys = distinct_keys(1024);
        for cache in &caches {
            for (i, chunk) in keys.chunks(8).enumerate() {
                for (j, &key) in chunk.iter().enumerate() {
                    cache.store(key, (8 * i + j) as f64);
                }
                for &key in &keys[(8 * i).saturating_sub(64)..8 * (i + 1)] {
                    cache.lookup(key);
                }
            }
        }
        let [first, second] = &caches;
        assert!(first.evictions() > 0);
        assert_eq!(first.evictions(), second.evictions());
        assert_eq!(held_pairs(first), held_pairs(second));
        assert_eq!(held_pairs(first).len(), first.len());
    }

    #[test]
    fn oversized_entry_is_rejected_not_stored() {
        let cache = SharedCache::with_budget(CacheBudget {
            max_entries: 0,
            max_bytes: 256, // vector half = 128 bytes, split over 16 shards
        });
        let sn = mini_wordnet();
        let c = sn.by_key("cast.actors").unwrap();
        let big = SparseVector::from_ids((0..64).map(|d| (d, 1.0)));
        let key: VectorKey = (c, 2);
        let before = cache.evictions();
        cache.store_vector(key, Arc::new(big));
        assert!(cache.lookup_vector(key).is_none(), "oversized entry kept");
        assert_eq!(cache.vectors_len(), 0);
        assert_eq!(cache.bytes(), 0);
        assert!(cache.evictions() > before, "rejection must be visible");
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

    /// The full-sort eviction, kept as the oracle of [`evict_coldest`]:
    /// sort every `(stamp, key)` of the shard, then drop in that order the
    /// coldest quarter and whatever more the targets still need.
    fn reference_evict_coldest<K: Ord + Hash + Copy, V>(
        shard: &mut ShardMap<K, V>,
        max_entries: usize,
        max_bytes: usize,
    ) -> (u64, usize) {
        let mut order: Vec<(u64, K)> = shard
            .map
            .iter()
            .map(|(k, slot)| (slot.stamp.load(Ordering::Relaxed), *k))
            .collect();
        order.sort_unstable();
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

    /// A vector-table shard of `entries` (key, stamp, vector length) under
    /// the map hash seed `seed`, each charged its [`vector_cost`].
    fn vector_shard(
        entries: &[(VectorKey, u64, usize)],
        seed: u64,
    ) -> ShardMap<VectorKey, Arc<SparseVector>> {
        let mut shard = ShardMap::new(semsim::KeyHashBuilder::with_seed(seed));
        for &(key, stamp, len) in entries {
            let value = Arc::new(SparseVector::from_ids((0..len as u64).map(|d| (d, 1.0))));
            let cost = vector_cost(&value);
            let stamp = AtomicU64::new(stamp);
            shard.map.insert(key, Slot { value, cost, stamp });
            shard.bytes += cost;
        }
        shard
    }

    fn held<K: Ord + Copy, V>(shard: &ShardMap<K, V>) -> Vec<K> {
        let mut keys: Vec<K> = shard.map.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn eviction_picks_the_full_sort_victims() {
        // Random stamps from a narrow range (so many entries tie on the
        // stamp and the key decides) and random vector lengths (so costs
        // differ and dropping a quarter often leaves the shard over its
        // byte target). The two shards hash with different seeds, so they
        // also iterate in different orders.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut below = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let mut past_the_quarter = 0;
        for round in 0..2_000 {
            let n = 1 + below(120) as usize;
            let entries: Vec<(VectorKey, u64, usize)> = (0..n as u32)
                .map(|i| {
                    let key = (semnet::ConceptId(i), 1 + below(3) as u32);
                    (key, below(1 + n as u64 / 4), below(40) as usize)
                })
                .collect();
            let mut expected = vector_shard(&entries, 1);
            let mut actual = vector_shard(&entries, 2);
            let total = expected.bytes;
            let (max_entries, max_bytes) = match round % 4 {
                0 => (usize::MAX, usize::MAX),
                1 => (below(n as u64) as usize, usize::MAX),
                2 => (usize::MAX, below(total as u64) as usize),
                _ => (below(n as u64) as usize, below(total as u64) as usize),
            };
            let want = reference_evict_coldest(&mut expected, max_entries, max_bytes);
            let got = evict_coldest(&mut actual, max_entries, max_bytes, "vector");
            assert_eq!(got, want, "round {round}: (evicted, freed)");
            assert_eq!(held(&actual), held(&expected), "round {round}: survivors");
            assert_eq!(actual.bytes, expected.bytes, "round {round}: bytes");
            assert_eq!(actual.bytes + got.1, total);
            past_the_quarter += usize::from(got.0 as usize > n.div_ceil(4));
        }
        assert!(
            past_the_quarter > 500,
            "only {past_the_quarter} rounds evicted past the quarter"
        );
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
