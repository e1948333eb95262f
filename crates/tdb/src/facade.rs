//! The top-level API: [`Db`], [`Options`], and typed
//! [`CollectionHandle`]s.
//!
//! One handle and one configuration over the layered stores:
//!
//! * [`Options`] — one builder for substrates (in-memory, directory, or
//!   custom), class/extractor registries, security mode, and tuning knobs
//!   ([`StoreOptions`], [`ChunkStoreConfig`]).
//! * [`Db::open`] — open-or-create from an [`Options`];
//!   [`Db::restore_latest_from`] — restore a backup chain onto the
//!   substrates an [`Options`] names.
//! * [`Db::begin`] → [`CTransaction`] — a read-write transaction (strict
//!   2PL), committed with an explicit [`Durability`](crate::Durability).
//! * [`Db::begin_read`] → [`ReadCTransaction`] — a snapshot-isolated
//!   read-only transaction: zero locks, stable scans, never blocks or
//!   aborts writers.
//!
//! The layers stay reachable from the handle ([`Db::collections`],
//! [`Db::object_store`], [`Db::chunk_store`]) for maintenance, backups and
//! observability. [`Db::collection`] produces a typed
//! [`CollectionHandle<K, V>`] binding a collection name to a key type `K`
//! (convertible to [`Key`]) and a member object type `V` ([`Persistent`]),
//! so lookups and inserts are checked at the facade instead of sprinkling
//! downcasts through application code.

use crate::{
    obs, require_one_shard, BackupManager, CIter, CTransaction, ChunkStore, ChunkStoreConfig,
    ChunkStoreError, ClassRegistry, Collection, CollectionStore, ExtractorRegistry, IndexSpec, Key,
    ObjectId, ObjectStore, Persistent, ReadCTransaction, ReadCollection, Result, SecurityMode,
    StoreOptions, TdbError,
};
use std::marker::PhantomData;
use std::ops::Bound;
use std::path::PathBuf;
use std::sync::Arc;
use tdb_platform::secret::SECRET_LEN;
use tdb_platform::{
    ArchivalStore, DirStore, FileCounter, FileSecretStore, MemSecretStore, MemStore, OneWayCounter,
    SecretStore, UntrustedStore, VolatileCounter,
};

enum Substrates {
    /// Volatile in-memory substrates (tests, examples, benches).
    Memory { label: String },
    /// Directory-backed substrates: `DirStore` for the log, a secret file,
    /// and a file-backed one-way counter.
    Dir { dir: PathBuf },
    /// Caller-supplied substrates (fault injection, custom hardware).
    Custom {
        untrusted: Arc<dyn UntrustedStore>,
        secret: Box<dyn SecretStore>,
        counter: Arc<dyn OneWayCounter>,
    },
}

/// Builder for opening a [`Db`]. Collects the platform substrates, the
/// application's class and extractor registries, and every tuning knob in
/// one place with validated defaults.
pub struct Options {
    substrates: Substrates,
    classes: ClassRegistry,
    extractors: ExtractorRegistry,
    chunk: ChunkStoreConfig,
    store: StoreOptions,
}

impl Default for Options {
    fn default() -> Self {
        Options::in_memory()
    }
}

impl Options {
    /// Volatile in-memory database (the default): `MemStore`, a secret
    /// derived from a fixed label, and a volatile one-way counter. Ideal
    /// for tests and examples; nothing survives the process.
    pub fn in_memory() -> Self {
        Options {
            substrates: Substrates::Memory {
                label: "tdb".to_string(),
            },
            classes: ClassRegistry::new(),
            extractors: ExtractorRegistry::new(),
            chunk: ChunkStoreConfig::default(),
            store: StoreOptions::new(),
        }
    }

    /// Derive the in-memory secret from `label` instead of the default
    /// (distinct labels give cryptographically unrelated databases).
    pub fn secret_label(mut self, label: impl Into<String>) -> Self {
        if let Substrates::Memory { label: l } = &mut self.substrates {
            *l = label.into();
        }
        self
    }

    /// Store the database under `dir`: the log in `DirStore`, the platform
    /// secret in `dir/secret.key` (created on first open), and the one-way
    /// counter in `dir/counter`.
    pub fn at_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.substrates = Substrates::Dir { dir: dir.into() };
        self
    }

    /// Use caller-supplied platform substrates (e.g. fault-injection
    /// wrappers or real hardware bindings).
    pub fn with_substrates(
        mut self,
        untrusted: Arc<dyn UntrustedStore>,
        secret: impl SecretStore + 'static,
        counter: Arc<dyn OneWayCounter>,
    ) -> Self {
        self.substrates = Substrates::Custom {
            untrusted,
            secret: Box::new(secret),
            counter,
        };
        self
    }

    /// Replace the class registry wholesale.
    pub fn classes(mut self, classes: ClassRegistry) -> Self {
        self.classes = classes;
        self
    }

    /// Register one persistent class (see [`ClassRegistry::register`]).
    pub fn register_class(
        mut self,
        id: crate::ClassId,
        name: &'static str,
        unpickler: object_store::UnpickleFn,
    ) -> Self {
        self.classes.register(id, name, unpickler);
        self
    }

    /// Replace the extractor registry wholesale.
    pub fn extractors(mut self, extractors: ExtractorRegistry) -> Self {
        self.extractors = extractors;
        self
    }

    /// Register one functional-index extractor.
    pub fn register_extractor(mut self, name: &str, f: crate::ExtractorFn) -> Self {
        self.extractors.register(name, f);
        self
    }

    /// Set the security mode (default: full encryption + tamper detection).
    pub fn security(mut self, mode: SecurityMode) -> Self {
        self.chunk.security = mode;
        self
    }

    /// Replace the chunk-store configuration (segment size, utilization,
    /// checkpoint threshold, ...).
    pub fn chunk_config(mut self, chunk: ChunkStoreConfig) -> Self {
        self.chunk = chunk;
        self
    }

    /// Partition the chunk store across `n` shards, each with its own log,
    /// location map, and commit pipeline, all anchored under one
    /// root-of-roots and one one-way counter (default: 1, unsharded). The
    /// count is fixed at creation; reopening with a different count fails.
    pub fn shards(mut self, n: usize) -> Self {
        self.chunk.shards = n;
        self
    }

    /// Replace the object-store tuning knobs (cache budget, lock timeout,
    /// locking on/off).
    pub fn store_options(mut self, store: StoreOptions) -> Self {
        self.store = store;
        self
    }

    /// Overlay `TDB_*` environment variables onto the store options (see
    /// [`StoreOptions::from_env`]) and the chunk configuration
    /// (`TDB_SHARDS`). Unset or unparsable variables leave current values.
    pub fn from_env(mut self) -> Self {
        self.store = self.store.from_env();
        if let Some(n) = std::env::var("TDB_SHARDS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            self.chunk.shards = n;
        }
        self
    }
}

/// The untrusted store, secret store and one-way counter a database runs on.
type Platform = (
    Arc<dyn UntrustedStore>,
    Box<dyn SecretStore>,
    Arc<dyn OneWayCounter>,
);

impl Substrates {
    /// Materialise the platform substrates this variant names.
    fn resolve(self) -> Result<Platform> {
        Ok(match self {
            Substrates::Memory { label } => (
                Arc::new(MemStore::new()),
                Box::new(MemSecretStore::from_label(&label)),
                Arc::new(VolatileCounter::new()),
            ),
            Substrates::Dir { dir } => {
                let untrusted = Arc::new(DirStore::new(&dir).map_err(ChunkStoreError::from)?);
                // First open seeds the secret file from a per-directory
                // label; it is the file's presence that carries the secret
                // afterwards, exactly like a provisioning step would.
                let seed = MemSecretStore::from_label(&format!("tdb-dir:{}", dir.display()))
                    .master_secret()
                    .map_err(ChunkStoreError::from)?;
                let mut initial = [0u8; SECRET_LEN];
                initial.copy_from_slice(&seed);
                let secret = FileSecretStore::open_or_init(dir.join("secret.key"), initial)
                    .map_err(ChunkStoreError::from)?;
                let counter =
                    FileCounter::open(dir.join("counter")).map_err(ChunkStoreError::from)?;
                (untrusted, Box::new(secret), Arc::new(counter))
            }
            Substrates::Custom {
                untrusted,
                secret,
                counter,
            } => (untrusted, secret, counter),
        })
    }
}

/// An open TDB database: the collection store and, through it, the object
/// and chunk stores beneath. Cheap to clone; all clones share the same
/// store.
#[derive(Clone)]
pub struct Db {
    collections: CollectionStore,
}

impl Db {
    /// Open the database described by `options`, creating it if it does not
    /// exist yet. Opening runs recovery plus tamper and replay validation;
    /// under [`SecurityMode::Full`] an empty store whose one-way counter has
    /// already advanced is refused as a replay (see
    /// [`ChunkStore::open_or_create`]).
    pub fn open(options: Options) -> Result<Self> {
        let object = options.store.build()?;
        let (untrusted, secret, counter) = options.substrates.resolve()?;
        let fresh = !ChunkStore::database_exists(&*untrusted)?;
        let chunks = Arc::new(ChunkStore::open_or_create(
            untrusted,
            secret.as_ref(),
            counter,
            options.chunk,
        )?);
        let collections = if fresh {
            CollectionStore::create(chunks, options.classes, options.extractors, object)?
        } else {
            CollectionStore::open(chunks, options.classes, options.extractors, object)?
        };
        Ok(Db { collections })
    }

    /// Restore the latest backup chain from `archive` onto the substrates
    /// `options` names and open the result: device migration in one call.
    /// The untrusted store must be empty, `options` must ask for one shard,
    /// and its secret must be the one the backups were taken under.
    pub fn restore_latest_from(archive: &dyn ArchivalStore, options: Options) -> Result<Self> {
        require_one_shard("restore_latest_from", options.chunk.shards)?;
        let object = options.store.build()?;
        let security = options.chunk.security;
        let (untrusted, secret, counter) = options.substrates.resolve()?;
        let chunks = Arc::new(ChunkStore::create(
            untrusted,
            secret.as_ref(),
            counter,
            options.chunk,
        )?);
        BackupManager::restore_latest(archive, secret.as_ref(), security, &chunks)?;
        let collections =
            CollectionStore::open(chunks, options.classes, options.extractors, object)?;
        Ok(Db { collections })
    }

    /// Start a read-write transaction (strict 2PL, private write staging),
    /// committed with an explicit [`Durability`](crate::Durability).
    pub fn begin(&self) -> CTransaction {
        self.collections.begin()
    }

    /// Start a snapshot-isolated read-only transaction. It observes the
    /// latest committed state, takes **no** locks, and pins its snapshot's
    /// segments against relocation by the cleaner until it is dropped or
    /// [`finish`](ReadCTransaction::finish)ed.
    pub fn begin_read(&self) -> ReadCTransaction {
        self.collections.begin_read()
    }

    /// Start a snapshot-isolated read transaction **validated for
    /// proof-carrying reads**: fails up front with a configuration error
    /// if the database runs without security (no MAC keys to attest
    /// under), so every later
    /// [`read_proven`](object_store::ReadTransaction::read_proven),
    /// [`exact_proven`](collection_store::ReadCollection::exact_proven),
    /// and [`Proven::prove`](chunk_store::Proven::prove) on this reader
    /// is guaranteed not to fail for configuration reasons.
    ///
    /// The reader is otherwise an ordinary one — the default read path
    /// builds no proofs and pays nothing beyond the snapshot pin; proofs
    /// are extracted lazily, per read, on demand.
    pub fn begin_read_proven(&self) -> Result<ReadCTransaction> {
        if self.security() != SecurityMode::Full {
            return Err(TdbError::Chunk(ChunkStoreError::ConfigMismatch(
                "proof-carrying reads require SecurityMode::Full \
                     (a store created with SecurityMode::Off has no MAC keys to attest under)"
                    .into(),
            )));
        }
        Ok(self.begin_read())
    }

    /// The trust anchor clients verify this database's proofs against:
    /// the current one-way counter binding plus the MAC key(s) proofs are
    /// attested under. **Contains key material** — hand it only to
    /// parties entitled to verify. Build a
    /// [`tdb_proof::Verifier`] around it to check proofs offline.
    pub fn trust_anchor(&self) -> Result<tdb_proof::TrustAnchor> {
        Ok(self.chunk_store().trust_anchor()?)
    }

    /// A typed handle to the collection `name`, keyed by `K` through its
    /// functional indexes with members of type `V`. The handle itself does
    /// no I/O — pair it with a transaction from [`begin`](Self::begin) or
    /// [`begin_read`](Self::begin_read).
    pub fn collection<K, V>(&self, name: impl Into<String>) -> CollectionHandle<K, V>
    where
        K: Into<Key>,
        V: Persistent,
    {
        CollectionHandle {
            name: name.into(),
            _types: PhantomData,
        }
    }

    /// The collection store.
    pub fn collections(&self) -> &CollectionStore {
        &self.collections
    }

    /// The object store.
    pub fn object_store(&self) -> &ObjectStore {
        self.collections.object_store()
    }

    /// The chunk store (one shard by default).
    pub fn chunk_store(&self) -> &Arc<ChunkStore> {
        self.collections.chunk_store()
    }

    /// Security mode the database runs in.
    pub fn security(&self) -> SecurityMode {
        self.chunk_store().security()
    }

    /// Idle-time maintenance: checkpoint the location map (the paper defers
    /// log reorganization to idle periods, §1).
    pub fn checkpoint(&self) -> Result<()> {
        self.chunk_store().checkpoint()?;
        Ok(())
    }

    /// Idle-time maintenance: run a cleaner pass; returns segments freed.
    pub fn clean(&self) -> Result<usize> {
        Ok(self.chunk_store().clean()?)
    }

    /// The observability registry shared by every layer of this database
    /// (counters, gauges, and latency histograms; see [`crate::obs`]).
    pub fn obs(&self) -> Arc<obs::Registry> {
        self.chunk_store().obs()
    }

    /// Assemble a diagnostic dump on demand: the same JSON document the
    /// stall watchdog emits (schema `tdb-diag-v1` — registered store
    /// states, in-flight operations, and the recent flight-recorder
    /// trace), with `reason` recorded inside it. Process-wide: a process
    /// holding several databases sees all of them in one dump.
    pub fn diagnostics(&self, reason: &str) -> obs::Json {
        obs::diag::collect(reason)
    }

    /// [`diagnostics`](Self::diagnostics), also written to `TDB_DIAG_DIR`
    /// (returns the path, or `None` when the variable is unset).
    pub fn diagnostics_to_dir(&self, reason: &str) -> std::io::Result<Option<PathBuf>> {
        let dump = self.diagnostics(reason);
        obs::diag::write_dump(&dump, "manual")
    }

    /// Current on-disk size of the log in bytes (Figure 11's metric).
    pub fn disk_size(&self) -> u64 {
        self.chunk_store().disk_size()
    }

    /// Current database utilization.
    pub fn utilization(&self) -> f64 {
        self.chunk_store().utilization()
    }

    /// Build a backup manager writing to `archive` with keys derived from
    /// `secret` (must be the database's platform secret).
    pub fn backup_manager(
        &self,
        archive: Arc<dyn ArchivalStore>,
        secret: &dyn SecretStore,
    ) -> Result<BackupManager> {
        Ok(BackupManager::new(archive, secret, self.security())?)
    }

    /// This same handle. Kept for the layer ladder in `benchmark/`
    /// (`ladder.rs` calls `env.db.layers().{object_store, begin,
    /// chunk_store}()`), which predates these methods living on `Db`.
    #[doc(hidden)]
    pub fn layers(&self) -> &Db {
        self
    }
}

/// A typed, I/O-free binding of a collection name to a key type `K` and a
/// member type `V`. Obtained from [`Db::collection`].
pub struct CollectionHandle<K, V> {
    name: String,
    _types: PhantomData<fn() -> (K, V)>,
}

impl<K, V> Clone for CollectionHandle<K, V> {
    fn clone(&self) -> Self {
        CollectionHandle {
            name: self.name.clone(),
            _types: PhantomData,
        }
    }
}

impl<K, V> CollectionHandle<K, V>
where
    K: Into<Key>,
    V: Persistent,
{
    /// The collection name this handle binds.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Create the collection with `specs` if it does not exist yet.
    pub fn ensure(&self, txn: &CTransaction, specs: &[IndexSpec]) -> Result<()> {
        match txn.create_collection(&self.name, specs) {
            Ok(_) => Ok(()),
            Err(crate::CollectionError::CollectionExists(_)) => Ok(()),
            Err(e) => Err(TdbError::Collection(e)),
        }
    }

    /// Insert a member object.
    pub fn insert(&self, txn: &CTransaction, object: V) -> Result<ObjectId> {
        let coll = txn
            .write_collection(&self.name)
            .map_err(TdbError::Collection)?;
        coll.insert(Box::new(object)).map_err(TdbError::Collection)
    }

    /// Writable iterator-based handle within a read-write transaction.
    pub fn write<'t>(&self, txn: &'t CTransaction) -> Result<Collection<'t>> {
        txn.write_collection(&self.name)
            .map_err(TdbError::Collection)
    }

    /// Snapshot handle within a read-only transaction.
    pub fn read<'t>(&self, rt: &'t ReadCTransaction) -> Result<ReadCollection<'t>> {
        rt.read_collection(&self.name).map_err(TdbError::Collection)
    }

    /// Apply `f` to the first member whose `index` key equals `key`, as of
    /// the snapshot. Returns `None` if no member matches.
    pub fn get<R>(
        &self,
        rt: &ReadCTransaction,
        index: &str,
        key: K,
        f: impl FnOnce(&V) -> R,
    ) -> Result<Option<R>> {
        let coll = self.read(rt)?;
        let ids = coll
            .exact(index, &key.into())
            .map_err(TdbError::Collection)?;
        match ids.first() {
            Some(&oid) => Ok(Some(
                coll.get::<V, R>(oid, f).map_err(TdbError::Collection)?,
            )),
            None => Ok(None),
        }
    }

    /// `(key, id)` entries of `index` in its natural order, as of the
    /// snapshot.
    pub fn scan(&self, rt: &ReadCTransaction, index: &str) -> Result<Vec<(Key, ObjectId)>> {
        self.read(rt)?.scan(index).map_err(TdbError::Collection)
    }

    /// Range query over an ordered index, as of the snapshot.
    pub fn range(
        &self,
        rt: &ReadCTransaction,
        index: &str,
        min: Bound<&Key>,
        max: Bound<&Key>,
    ) -> Result<Vec<(Key, ObjectId)>> {
        self.read(rt)?
            .range(index, min, max)
            .map_err(TdbError::Collection)
    }

    /// Member count as of the snapshot.
    pub fn len(&self, rt: &ReadCTransaction) -> Result<u64> {
        self.read(rt)?.len().map_err(TdbError::Collection)
    }

    /// Whether the collection is empty as of the snapshot.
    pub fn is_empty(&self, rt: &ReadCTransaction) -> Result<bool> {
        Ok(self.len(rt)? == 0)
    }

    /// Update in place: apply `f` to every member whose `index` key equals
    /// `key`, through a writable insensitive iterator. Returns the number
    /// of members updated. Index maintenance runs when the iterator closes.
    pub fn update(
        &self,
        txn: &CTransaction,
        index: &str,
        key: K,
        mut f: impl FnMut(&mut V),
    ) -> Result<usize> {
        let coll = self.write(txn)?;
        let mut iter: CIter<'_> = coll
            .exact(index, &key.into())
            .map_err(TdbError::Collection)?;
        let mut updated = 0;
        while !iter.end() {
            {
                let obj = iter.write::<V>().map_err(TdbError::Collection)?;
                f(&mut obj.get_mut());
                updated += 1;
            }
            iter.next();
        }
        iter.close().map_err(TdbError::Collection)?;
        Ok(updated)
    }
}
