//! The object store: cache, roots, and transaction factory.

use crate::class::{ClassRegistry, Persistent};
use crate::error::{ObjectStoreError, Result};
use crate::locks::LockManager;
use crate::pickle::{Pickler, Unpickler};
use crate::txn::{Transaction, TxnCore};
use crate::{ChunkId, ObjectId};
use chunk_store::{ChunkStore, Durability};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tdb_obs::{Counter, Gauge, Registry};

/// Tuning knobs for the object store.
///
/// Prefer building one through [`StoreOptions`], which validates the values
/// and can pull overrides from `TDB_*` environment variables.
#[derive(Clone, Debug)]
pub struct ObjectStoreConfig {
    /// Enable transactional locking. "The application may even switch off
    /// locking to avoid the locking overhead in the absence of concurrent
    /// transactions." (paper §4.2.3)
    pub locking: bool,
    /// How long a lock acquisition waits before breaking a potential
    /// deadlock with [`ObjectStoreError::LockTimeout`].
    pub lock_timeout: Duration,
    /// Object cache budget in (approximate, pickled) bytes. The paper's
    /// evaluation used a 4 MB cache (§7.2).
    pub cache_budget: usize,
    /// Number of independent object-cache shards (power of two). More
    /// shards reduce mutex contention on the cache-hit path at the cost of
    /// coarser per-shard byte budgets.
    pub cache_shards: usize,
}

impl Default for ObjectStoreConfig {
    fn default() -> Self {
        ObjectStoreConfig {
            locking: true,
            lock_timeout: Duration::from_millis(1000),
            cache_budget: 4 * 1024 * 1024,
            cache_shards: DEFAULT_CACHE_SHARDS,
        }
    }
}

/// Builder for [`ObjectStoreConfig`] with validation and environment
/// overrides. Replaces ad-hoc field poking and scattered `TDB_*` parsing:
///
/// ```
/// use object_store::StoreOptions;
/// let cfg = StoreOptions::new()
///     .cache_bytes(8 * 1024 * 1024)
///     .cache_shards(32)
///     .lock_timeout_ms(250)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.cache_shards, 32);
/// ```
#[derive(Clone, Debug, Default)]
pub struct StoreOptions {
    locking: Option<bool>,
    lock_timeout: Option<Duration>,
    cache_budget: Option<usize>,
    cache_shards: Option<usize>,
}

impl StoreOptions {
    /// Start from the defaults of [`ObjectStoreConfig`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable or disable transactional locking (default: enabled).
    pub fn locking(mut self, on: bool) -> Self {
        self.locking = Some(on);
        self
    }

    /// Lock wait before deadlock-breaking timeout (default: 1000 ms).
    pub fn lock_timeout(mut self, timeout: Duration) -> Self {
        self.lock_timeout = Some(timeout);
        self
    }

    /// Convenience: lock timeout in milliseconds.
    pub fn lock_timeout_ms(self, ms: u64) -> Self {
        self.lock_timeout(Duration::from_millis(ms))
    }

    /// Object cache budget in bytes (default: 4 MiB).
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_budget = Some(bytes);
        self
    }

    /// Number of cache shards; must be a power of two in `1..=1024`
    /// (default: 16).
    pub fn cache_shards(mut self, shards: usize) -> Self {
        self.cache_shards = Some(shards);
        self
    }

    /// Apply overrides from the environment: `TDB_CACHE_BYTES`,
    /// `TDB_CACHE_SHARDS`, `TDB_LOCK_TIMEOUT_MS`, `TDB_LOCKING` (`0`/`off`
    /// disables). Unset or unparsable variables leave the current value.
    pub fn from_env(mut self) -> Self {
        fn parse<T: std::str::FromStr>(name: &str) -> Option<T> {
            std::env::var(name).ok()?.trim().parse().ok()
        }
        if let Some(b) = parse::<usize>("TDB_CACHE_BYTES") {
            self.cache_budget = Some(b);
        }
        if let Some(s) = parse::<usize>("TDB_CACHE_SHARDS") {
            self.cache_shards = Some(s);
        }
        if let Some(ms) = parse::<u64>("TDB_LOCK_TIMEOUT_MS") {
            self.lock_timeout = Some(Duration::from_millis(ms));
        }
        if let Ok(v) = std::env::var("TDB_LOCKING") {
            self.locking = Some(!matches!(v.trim(), "0" | "off" | "false"));
        }
        self
    }

    /// Validate and produce the config. Fails with
    /// [`ObjectStoreError::Config`] on out-of-range values.
    pub fn build(self) -> Result<ObjectStoreConfig> {
        let defaults = ObjectStoreConfig::default();
        let shards = self.cache_shards.unwrap_or(defaults.cache_shards);
        if !shards.is_power_of_two() || shards > 1024 {
            return Err(ObjectStoreError::Config(format!(
                "cache_shards must be a power of two in 1..=1024, got {shards}"
            )));
        }
        let budget = self.cache_budget.unwrap_or(defaults.cache_budget);
        let timeout = self.lock_timeout.unwrap_or(defaults.lock_timeout);
        if timeout.is_zero() {
            return Err(ObjectStoreError::Config(
                "lock_timeout must be non-zero".into(),
            ));
        }
        Ok(ObjectStoreConfig {
            locking: self.locking.unwrap_or(defaults.locking),
            lock_timeout: timeout,
            cache_budget: budget,
            cache_shards: shards,
        })
    }
}

/// A cached object: the unpickled, decrypted, validated, type-checked form
/// ready for direct application access (§4.2.2's argument for caching
/// objects rather than chunks).
pub(crate) struct ObjectCell {
    pub(crate) id: ObjectId,
    pub(crate) data: RwLock<Box<dyn Persistent>>,
    /// Dirty objects are pinned in the cache until their transaction
    /// commits — the no-steal policy (§4.2.2).
    pub(crate) dirty: AtomicBool,
    /// Approximate pickled size for cache accounting.
    pub(crate) size: AtomicUsize,
    /// Upper bound on the chunk-store commit sequence at which this cached
    /// (clean) content became current. Snapshot readers use it for their
    /// lock-free cache fast path: if `version <= snapshot.commit_seq()` and
    /// the cell is clean, the cached content is exactly what the snapshot
    /// would read. The stamp is conservative — commit stamps the precise
    /// commit sequence, loads stamp the store's current sequence (≥ the
    /// writing commit) — so a too-new stamp only forces the slower
    /// snapshot-chunk-read fallback, never a wrong read.
    pub(crate) version: AtomicU64,
}

struct CacheSlot {
    cell: Arc<ObjectCell>,
    tick: u64,
}

/// Default number of independent cache shards. Objects hash to a shard,
/// each with its own mutex, LRU clock and slice of the byte budget, so
/// concurrent transactions dereferencing different objects never serialize
/// on a common cache lock (the cache-hit path used to be a store-wide
/// critical section, which flattened multi-threaded throughput).
const DEFAULT_CACHE_SHARDS: usize = 16;

/// Shard index for an object id (Fibonacci hash — ids are sequential, so
/// plain modulo would put neighbouring, co-accessed objects together).
/// `shards` must be a power of two.
fn cache_shard_of(oid: u64, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    (oid.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - shards.trailing_zeros())) as usize
}

/// One cache shard: its slice of the object cache plus LRU bookkeeping.
#[derive(Default)]
struct CacheShard {
    cache: HashMap<u64, CacheSlot>,
    tick: u64,
    bytes: usize,
}

impl CacheShard {
    /// Bytes held by dirty (no-steal pinned) objects right now.
    fn pinned_bytes(&self) -> usize {
        self.cache
            .values()
            .filter(|slot| slot.cell.dirty.load(Ordering::Acquire))
            .map(|slot| slot.cell.size.load(Ordering::Relaxed))
            .sum()
    }
}

/// Cache instruments, registered as `cache.*` in the chunk store's
/// observability registry. Clones share cells, so shards update them
/// without any shared lock.
struct CacheObs {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    /// Mirrors the summed shard occupancy via deltas.
    bytes_gauge: Gauge,
}

pub(crate) struct StoreState {
    /// Named root object ids, persisted in the reserved roots chunk.
    pub(crate) roots: HashMap<String, ObjectId>,
}

pub(crate) struct OsInner {
    pub(crate) chunks: Arc<ChunkStore>,
    pub(crate) registry: ClassRegistry,
    pub(crate) state: Mutex<StoreState>,
    cache_shards: Vec<Mutex<CacheShard>>,
    cache_obs: CacheObs,
    next_txn: AtomicU64,
    pub(crate) locks: LockManager,
    pub(crate) cfg: ObjectStoreConfig,
    pub(crate) roots_chunk: ObjectId,
}

/// The object store handle (cheap to clone; all clones share state).
#[derive(Clone)]
pub struct ObjectStore {
    pub(crate) inner: Arc<OsInner>,
}

/// Cache statistics snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Objects served from cache.
    pub hits: u64,
    /// Objects fetched (and unpickled) from the chunk store.
    pub misses: u64,
    /// Objects evicted under cache pressure.
    pub evictions: u64,
    /// Current approximate cache occupancy in bytes.
    pub bytes: u64,
    /// Bytes held by dirty objects pinned under the no-steal policy
    /// (§4.2.2); never evictable until their transaction commits.
    pub pinned_bytes: u64,
    /// Currently cached objects.
    pub objects: u64,
}

impl CacheStats {
    /// Fraction of lookups served from cache (0.0 when no lookups yet).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const ROOTS_MAGIC: u32 = 0x54_44_42_52; // "TDBR"

impl ObjectStore {
    /// Create an object store over a **fresh** chunk store (of any shard
    /// count). Reserves chunk id 0 for the persistent root registry.
    pub fn create(
        chunks: Arc<ChunkStore>,
        registry: ClassRegistry,
        cfg: ObjectStoreConfig,
    ) -> Result<Self> {
        let mut batch = chunks.begin_batch();
        let roots_chunk = batch.allocate_chunk_id()?;
        if roots_chunk.0 != 0 {
            return Err(ObjectStoreError::Chunk(
                chunk_store::ChunkStoreError::ConfigMismatch(
                    "ObjectStore::create requires a fresh chunk store (roots chunk must be id 0)"
                        .into(),
                ),
            ));
        }
        Self::persist_roots_into(&HashMap::new(), roots_chunk, &mut batch)?;
        chunks.commit_batch(batch, Durability::Durable)?;
        Ok(Self::build(chunks, registry, cfg, roots_chunk))
    }

    /// Open an object store over an existing chunk store.
    pub fn open(
        chunks: Arc<ChunkStore>,
        registry: ClassRegistry,
        cfg: ObjectStoreConfig,
    ) -> Result<Self> {
        let roots_chunk = ChunkId(0);
        let bytes = chunks.read(roots_chunk)?;
        let roots = Self::unpickle_roots(&bytes)?;
        let store = Self::build(chunks, registry, cfg, roots_chunk);
        store.inner.state.lock().roots = roots;
        Ok(store)
    }

    fn build(
        chunks: Arc<ChunkStore>,
        registry: ClassRegistry,
        mut cfg: ObjectStoreConfig,
        roots_chunk: ObjectId,
    ) -> Self {
        // Defensive normalization for configs built by hand rather than
        // through the validating `StoreOptions` builder.
        if !cfg.cache_shards.is_power_of_two() || cfg.cache_shards > 1024 {
            cfg.cache_shards = cfg.cache_shards.next_power_of_two().clamp(1, 1024);
        }
        let shards = cfg.cache_shards;
        let obs = chunks.obs();
        ObjectStore {
            inner: Arc::new(OsInner {
                registry,
                state: Mutex::new(StoreState {
                    roots: HashMap::new(),
                }),
                cache_shards: (0..shards).map(|_| Mutex::default()).collect(),
                cache_obs: CacheObs {
                    hits: obs.counter("cache.hits"),
                    misses: obs.counter("cache.misses"),
                    evictions: obs.counter("cache.evictions"),
                    bytes_gauge: obs.gauge("cache.bytes"),
                },
                next_txn: AtomicU64::new(1),
                locks: LockManager::with_registry(&obs),
                chunks,
                cfg,
                roots_chunk,
            }),
        }
    }

    pub(crate) fn unpickle_roots(bytes: &[u8]) -> Result<HashMap<String, ObjectId>> {
        let mut r = Unpickler::new(bytes);
        let magic = r.u32().map_err(ObjectStoreError::Unpickle)?;
        if magic != ROOTS_MAGIC {
            return Err(ObjectStoreError::Unpickle(crate::pickle::PickleError(
                "bad roots chunk magic".into(),
            )));
        }
        let n = r.u32().map_err(ObjectStoreError::Unpickle)? as usize;
        let mut roots = HashMap::with_capacity(n);
        for _ in 0..n {
            let name = r.string().map_err(ObjectStoreError::Unpickle)?;
            let id = r.object_id().map_err(ObjectStoreError::Unpickle)?;
            roots.insert(name, id);
        }
        r.finish().map_err(ObjectStoreError::Unpickle)?;
        Ok(roots)
    }

    /// Stage the roots chunk write into `batch` (caller commits the batch).
    pub(crate) fn persist_roots_into(
        roots: &HashMap<String, ObjectId>,
        roots_chunk: ObjectId,
        batch: &mut chunk_store::WriteBatch,
    ) -> Result<()> {
        let mut w = Pickler::new();
        w.u32(ROOTS_MAGIC);
        let mut entries: Vec<(&String, &ObjectId)> = roots.iter().collect();
        entries.sort();
        w.u32(entries.len() as u32);
        for (name, id) in entries {
            w.string(name);
            w.object_id(*id);
        }
        batch.write(roots_chunk, &w.into_bytes())?;
        Ok(())
    }

    /// Apply a transaction's root-registry updates under the state lock
    /// and stage the new roots chunk into `batch` — the pickling happens
    /// directly from the guarded map, no clone. Returns the undo list
    /// (`(name, previous value)`); if staging fails the updates are
    /// already reverted.
    pub(crate) fn apply_root_updates(
        &self,
        updates: &HashMap<String, Option<ObjectId>>,
        batch: &mut chunk_store::WriteBatch,
    ) -> Result<Vec<(String, Option<ObjectId>)>> {
        let mut state = self.inner.state.lock();
        let mut undo = Vec::with_capacity(updates.len());
        for (name, update) in updates {
            let prev = match update {
                Some(id) => state.roots.insert(name.clone(), *id),
                None => state.roots.remove(name),
            };
            undo.push((name.clone(), prev));
        }
        match Self::persist_roots_into(&state.roots, self.inner.roots_chunk, batch) {
            Ok(()) => Ok(undo),
            Err(e) => {
                Self::undo_root_updates(&mut state, undo);
                Err(e)
            }
        }
    }

    /// Roll back root updates applied by [`ObjectStore::apply_root_updates`]
    /// after a later commit step failed.
    pub(crate) fn revert_roots(&self, undo: Vec<(String, Option<ObjectId>)>) {
        if undo.is_empty() {
            return;
        }
        let mut state = self.inner.state.lock();
        Self::undo_root_updates(&mut state, undo);
    }

    fn undo_root_updates(state: &mut StoreState, undo: Vec<(String, Option<ObjectId>)>) {
        for (name, prev) in undo {
            match prev {
                Some(id) => state.roots.insert(name, id),
                None => state.roots.remove(&name),
            };
        }
    }

    /// The class registry this store unpickles objects with. Network
    /// front ends use it to decode/encode objects at the wire boundary
    /// without naming concrete Rust types.
    pub fn classes(&self) -> &crate::ClassRegistry {
        &self.inner.registry
    }

    /// Start a new transaction.
    pub fn begin(&self) -> Transaction {
        let id = self.inner.next_txn.fetch_add(1, Ordering::Relaxed);
        Transaction::new(self.clone(), Arc::new(TxnCore::new(id)))
    }

    /// Start a snapshot-isolated read-only transaction.
    ///
    /// The reader pins a copy-on-write chunk-store snapshot and never
    /// touches the lock manager: it sees the database exactly as of the
    /// last commit, regardless of concurrent writers or the log cleaner.
    /// See [`ReadTransaction`](crate::ReadTransaction).
    pub fn begin_read(&self) -> crate::read_txn::ReadTransaction {
        crate::read_txn::ReadTransaction::new(self.clone(), self.inner.chunks.snapshot())
    }

    /// Read a registered root object id outside any transaction (roots are
    /// store-level metadata; reading them does not need locks).
    pub fn root(&self, name: &str) -> Option<ObjectId> {
        self.inner.state.lock().roots.get(name).copied()
    }

    /// All registered root names.
    pub fn root_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.state.lock().roots.keys().cloned().collect();
        names.sort();
        names
    }

    /// The underlying chunk store — for snapshots, backups, stats.
    pub fn chunk_store(&self) -> &Arc<ChunkStore> {
        &self.inner.chunks
    }

    /// The trust anchor a client verifies this store's proofs against
    /// (see [`ReadTransaction::read_proven`](crate::ReadTransaction)).
    /// Contains MAC key material — hand it only to parties entitled to
    /// verify.
    pub fn trust_anchor(&self) -> Result<tdb_proof::TrustAnchor> {
        Ok(self.inner.chunks.trust_anchor()?)
    }

    /// Cache statistics (summed over the shards). A pure read; pinned bytes
    /// come from a scan of the shards.
    pub fn cache_stats(&self) -> CacheStats {
        let mut bytes = 0usize;
        let mut pinned = 0usize;
        let mut objects = 0u64;
        for shard in &self.inner.cache_shards {
            let shard = shard.lock();
            bytes += shard.bytes;
            pinned += shard.pinned_bytes();
            objects += shard.cache.len() as u64;
        }
        let obs = &self.inner.cache_obs;
        CacheStats {
            hits: obs.hits.get(),
            misses: obs.misses.get(),
            evictions: obs.evictions.get(),
            bytes: bytes as u64,
            pinned_bytes: pinned as u64,
            objects,
        }
    }

    /// The stack's observability registry (owned by the chunk store; the
    /// object store's `cache.*` and `lock.*` instruments live in it too).
    pub fn obs(&self) -> Arc<Registry> {
        self.inner.chunks.obs()
    }

    /// Byte budget of one cache shard.
    fn shard_budget(&self) -> usize {
        self.inner.cfg.cache_budget / self.inner.cache_shards.len()
    }

    /// The cache shard responsible for an object id.
    fn shard_for(&self, oid: ObjectId) -> &Mutex<CacheShard> {
        &self.inner.cache_shards[cache_shard_of(oid.0, self.inner.cache_shards.len())]
    }

    /// Probe the cache without populating on miss (bumps the LRU clock on
    /// hit). Snapshot readers use this: they must not install content that
    /// was loaded *bypassing* their snapshot, and a miss falls back to a
    /// snapshot chunk read that is private to the reader.
    pub(crate) fn lookup_cell(&self, oid: ObjectId) -> Option<Arc<ObjectCell>> {
        let mut shard = self.shard_for(oid).lock();
        shard.tick += 1;
        let tick = shard.tick;
        let slot = shard.cache.get_mut(&oid.0)?;
        slot.tick = tick;
        Some(slot.cell.clone())
    }

    /// Fetch a cell from cache or load (read + validate + decrypt +
    /// unpickle) from the chunk store.
    pub(crate) fn load_cell(&self, oid: ObjectId) -> Result<Arc<ObjectCell>> {
        let obs = &self.inner.cache_obs;
        let shard_mutex = self.shard_for(oid);
        let mut shard = shard_mutex.lock();
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(slot) = shard.cache.get_mut(&oid.0) {
            slot.tick = tick;
            let cell = slot.cell.clone();
            drop(shard);
            obs.hits.inc();
            return Ok(cell);
        }
        drop(shard); // do not hold the shard mutex across chunk I/O
        obs.misses.inc();
        // Read the chunk together with an upper bound on the commit
        // sequence that produced it, so snapshot readers can trust the
        // cached copy for snapshots at least that recent.
        let (bytes, seq) = self.inner.chunks.read_versioned(oid)?;
        let obj = self.inner.registry.unpickle_object(&bytes)?;
        let cell = Arc::new(ObjectCell {
            id: oid,
            data: RwLock::new(obj),
            dirty: AtomicBool::new(false),
            size: AtomicUsize::new(bytes.len()),
            version: AtomicU64::new(seq),
        });
        let mut shard = shard_mutex.lock();
        // Racing loaders: keep whichever got in first so all transactions
        // share one cell per object.
        if let Some(slot) = shard.cache.get(&oid.0) {
            return Ok(slot.cell.clone());
        }
        shard.bytes += bytes.len();
        obs.bytes_gauge.add(bytes.len() as i64);
        shard.cache.insert(
            oid.0,
            CacheSlot {
                cell: cell.clone(),
                tick,
            },
        );
        Self::evict_over_budget(&mut shard, self.shard_budget(), obs);
        Ok(cell)
    }

    /// Insert a fresh (dirty) cell for a newly inserted object.
    pub(crate) fn install_cell(&self, cell: Arc<ObjectCell>) {
        let obs = &self.inner.cache_obs;
        let mut shard = self.shard_for(cell.id).lock();
        shard.tick += 1;
        let tick = shard.tick;
        let grown = cell.size.load(Ordering::Relaxed);
        shard.bytes += grown;
        obs.bytes_gauge.add(grown as i64);
        shard.cache.insert(cell.id.0, CacheSlot { cell, tick });
        Self::evict_over_budget(&mut shard, self.shard_budget(), obs);
    }

    /// Drop an object from the cache (abort of a written object, or
    /// removal).
    pub(crate) fn evict_cell(&self, oid: ObjectId) {
        let mut shard = self.shard_for(oid).lock();
        if let Some(slot) = shard.cache.remove(&oid.0) {
            let size = slot.cell.size.load(Ordering::Relaxed);
            shard.bytes = shard.bytes.saturating_sub(size);
            self.inner.cache_obs.bytes_gauge.add(-(size as i64));
        }
    }

    /// Update accounting after a commit re-pickled an object.
    pub(crate) fn update_cell_size(&self, oid: ObjectId, new_size: usize) {
        let mut shard = self.shard_for(oid).lock();
        if let Some(slot) = shard.cache.get(&oid.0) {
            let old = slot.cell.size.swap(new_size, Ordering::Relaxed);
            shard.bytes = shard.bytes.saturating_sub(old) + new_size;
            self.inner
                .cache_obs
                .bytes_gauge
                .add(new_size as i64 - old as i64);
        }
    }

    /// LRU eviction of clean, unreferenced objects ("objects referenced by
    /// the application are protected against eviction … using a reference
    /// count", §4.2.2 — here the `Arc` strong count). Per shard, against
    /// the shard's slice of the byte budget.
    fn evict_over_budget(shard: &mut CacheShard, budget: usize, obs: &CacheObs) {
        if shard.bytes <= budget {
            return;
        }
        // Hysteresis: evict down to 90% of the budget so the (O(n log n))
        // scan amortizes over many subsequent insertions instead of
        // running on every operation at the boundary.
        let budget = budget - budget / 10;
        let mut candidates: Vec<(u64, u64)> = shard
            .cache
            .iter()
            .filter(|(_, slot)| {
                Arc::strong_count(&slot.cell) == 1 && !slot.cell.dirty.load(Ordering::Acquire)
            })
            .map(|(id, slot)| (slot.tick, *id))
            .collect();
        candidates.sort_unstable();
        for (_, id) in candidates {
            if shard.bytes <= budget {
                break;
            }
            if let Some(slot) = shard.cache.remove(&id) {
                let size = slot.cell.size.load(Ordering::Relaxed);
                shard.bytes = shard.bytes.saturating_sub(size);
                obs.bytes_gauge.add(-(size as i64));
                obs.evictions.inc();
            }
        }
    }

    /// Test aid: `(accounted_bytes, recomputed_bytes, pinned_bytes)` where
    /// `accounted_bytes` is the incrementally maintained occupancy and
    /// `recomputed_bytes` a fresh walk of the cache. The two must agree or
    /// eviction accounting has drifted.
    #[doc(hidden)]
    pub fn debug_cache_accounting(&self) -> (u64, u64, u64) {
        let mut accounted = 0usize;
        let mut recomputed = 0usize;
        let mut pinned = 0usize;
        for shard in &self.inner.cache_shards {
            let shard = shard.lock();
            accounted += shard.bytes;
            recomputed += shard
                .cache
                .values()
                .map(|slot| slot.cell.size.load(Ordering::Relaxed))
                .sum::<usize>();
            pinned += shard.pinned_bytes();
        }
        (accounted as u64, recomputed as u64, pinned as u64)
    }

    /// Run an eviction pass (called after commits release no-steal pins).
    pub(crate) fn evict_pass(&self) {
        let budget = self.shard_budget();
        for shard in &self.inner.cache_shards {
            Self::evict_over_budget(&mut shard.lock(), budget, &self.inner.cache_obs);
        }
    }

    pub(crate) fn lock_timeout(&self) -> Duration {
        self.inner.cfg.lock_timeout
    }

    pub(crate) fn locking(&self) -> bool {
        self.inner.cfg.locking
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roots_pickle_roundtrip() {
        let mut roots = HashMap::new();
        roots.insert("profile".to_string(), ChunkId(42));
        roots.insert("collections".to_string(), ChunkId(7));
        let mut w = Pickler::new();
        w.u32(ROOTS_MAGIC);
        let mut entries: Vec<_> = roots.iter().collect();
        entries.sort();
        w.u32(entries.len() as u32);
        for (name, id) in entries {
            w.string(name);
            w.object_id(*id);
        }
        let parsed = ObjectStore::unpickle_roots(&w.into_bytes()).unwrap();
        assert_eq!(parsed, roots);
    }

    #[test]
    fn roots_bad_magic_rejected() {
        let mut w = Pickler::new();
        w.u32(0xDEAD);
        w.u32(0);
        assert!(ObjectStore::unpickle_roots(&w.into_bytes()).is_err());
    }
}
