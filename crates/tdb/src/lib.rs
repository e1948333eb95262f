//! # TDB — a trusted database system for Digital Rights Management
//!
//! A Rust reproduction of *TDB: A Database System for Digital Rights
//! Management* (Vingralek, Maheshwari, Shapiro; EDBT 2002 / InterTrust STAR
//! Lab TR, 2001). TDB keeps DRM state — usage meters, prepaid balances,
//! audit records, content keys — on storage the *user of the device fully
//! controls*, and still guarantees:
//!
//! * **secrecy**: every stored byte is encrypted (AES-128-CBC here; the
//!   paper used 3DES);
//! * **tamper detection**: a Merkle hash tree embedded in the log's
//!   location map, rooted in a MAC'd anchor bound to a hardware **one-way
//!   counter**, detects any modification — including replaying a complete
//!   saved copy of the database;
//! * **transactional atomicity** on a log-structured store (the log *is*
//!   the database) with durable and nondurable commits, a cleaner, and a
//!   utilization knob;
//! * **fast backups**: O(1) copy-on-write snapshots, incremental backups by
//!   pruned snapshot diffing, validated and sequence-enforced restore;
//! * **typed objects and collections**: explicit pickling, strict 2PL with
//!   timeout, an LRU object cache with no-steal pinning, functional indexes
//!   (B-tree / dynamic hash / list) maintained automatically through
//!   insensitive iterators.
//!
//! The layers are independent crates, mirroring the paper's modular
//! architecture (Fig. 1) so "applications link only with the modules they
//! require": [`tdb_platform`], [`tdb_crypto`], [`chunk_store`],
//! [`backup_store`], [`object_store`], [`collection_store`]. This crate
//! re-exports them and adds two facades: the recommended [`Db`] /
//! [`Options`] / [`Txn`] / [`ReadTxn`] API, and the layer-explicit
//! [`Database`].
//!
//! # Quickstart
//!
//! ```
//! use tdb::{Db, Durability, IndexKind, IndexSpec, Key, Options};
//! use tdb::{impl_persistent_boilerplate, Persistent, Pickler, Unpickler, PickleError};
//!
//! struct Meter { id: i64, views: i64 }
//! impl Persistent for Meter {
//!     impl_persistent_boilerplate!(0x4D45_0001);
//!     fn pickle(&self, w: &mut Pickler) { w.i64(self.id); w.i64(self.views); }
//! }
//! fn unpickle_meter(r: &mut Unpickler) -> Result<Box<dyn Persistent>, PickleError> {
//!     Ok(Box::new(Meter { id: r.i64()?, views: r.i64()? }))
//! }
//!
//! let db = Db::open(Options::in_memory()
//!     .register_class(0x4D45_0001, "Meter", unpickle_meter)
//!     .register_extractor("meter.id", |obj| {
//!         tdb::extractor_typed::<Meter>(obj, |m| Key::I64(m.id))
//!     })).unwrap();
//! let meters = db.collection::<i64, Meter>("meters");
//!
//! // Read-write transaction: strict 2PL, explicit durability.
//! let t = db.begin();
//! meters.ensure(&t, &[IndexSpec::new("by-id", "meter.id", true, IndexKind::BTree)]).unwrap();
//! meters.insert(&t, Meter { id: 1, views: 7 }).unwrap();
//! t.commit(Durability::Durable).unwrap();
//!
//! // Snapshot-isolated read: zero locks, stable against concurrent
//! // writers and the log cleaner.
//! let r = db.begin_read();
//! assert_eq!(meters.get(&r, "by-id", 1, |m| m.views).unwrap(), Some(7));
//! assert_eq!(meters.len(&r).unwrap(), 1);
//! r.finish();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

pub mod facade;
pub mod session;

pub use facade::{CollectionHandle, Db, Options, ReadTxn, Txn};
pub use session::{
    EmbeddedSession, ProvenBytes, ProvenEntries, SResult, Session, SessionRead, SessionStats,
    SessionTxn,
};
pub use tdb_core::{Durability, Error, ErrorKind};

pub use backup_store::{BackupError, BackupManager};
pub use chunk_store::Proven;
pub use chunk_store::{
    ChunkId, ChunkStore, ChunkStoreConfig, ChunkStoreError, RecoveryReport, SecurityMode, Snapshot,
    SnapshotDiff,
};
pub use collection_store::{
    CIter, CTransaction, Collection, CollectionError, CollectionStore, ExtractorFn,
    ExtractorRegistry, IndexKind, IndexSpec, Key, ObjectId, ProvenLookup, ReadCTransaction,
    ReadCollection,
};
pub use object_store::{
    impl_persistent_boilerplate, ClassId, ClassRegistry, ObjectReader, ObjectStore,
    ObjectStoreConfig, ObjectStoreError, Persistent, PickleError, Pickler, ReadTransaction,
    ReadonlyRef, StoreOptions, Transaction, Unpickler, WritableRef,
};

pub use collection_store::extractor::typed as extractor_typed;

/// Platform substrates (untrusted store, secret store, one-way counter,
/// archival store, fault injection).
pub mod platform {
    pub use tdb_platform::*;
}

/// Cryptographic primitives (SHA-256, HMAC, AES-128-CBC, HMAC-DRBG).
pub mod crypto {
    pub use tdb_crypto::*;
}

/// The extracted trust layer: the store-independent [`proof::Verifier`],
/// [`proof::TrustAnchor`]s ([`Db::trust_anchor`](crate::Db::trust_anchor)),
/// chunk and keyed proofs, and their stable wire encoding. A client needs
/// only this module (crate `tdb-proof`) — not the database — to check
/// proofs offline.
pub mod proof {
    pub use tdb_proof::*;
}

/// Observability: the metrics registry, histograms, span timers, and the
/// JSON value type used for bench telemetry. Every layer of an open
/// database records into one shared [`obs::Registry`], reachable via
/// [`Database::obs`].
pub mod obs {
    pub use tdb_obs::*;
}

use tdb_platform::{ArchivalStore, OneWayCounter, SecretStore, UntrustedStore};

/// Unified error type of the facade.
#[derive(Debug)]
pub enum TdbError {
    /// Chunk store error (tamper/replay detection, I/O, space).
    Chunk(ChunkStoreError),
    /// Object store error (locks, types, pickling).
    Object(ObjectStoreError),
    /// Collection store error (indexes, uniqueness, iterators).
    Collection(CollectionError),
    /// Backup store error.
    Backup(BackupError),
}

impl std::fmt::Display for TdbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TdbError::Chunk(e) => write!(f, "{e}"),
            TdbError::Object(e) => write!(f, "{e}"),
            TdbError::Collection(e) => write!(f, "{e}"),
            TdbError::Backup(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TdbError {}

impl From<ChunkStoreError> for TdbError {
    fn from(e: ChunkStoreError) -> Self {
        TdbError::Chunk(e)
    }
}

impl From<ObjectStoreError> for TdbError {
    fn from(e: ObjectStoreError) -> Self {
        TdbError::Object(e)
    }
}

impl From<CollectionError> for TdbError {
    fn from(e: CollectionError) -> Self {
        TdbError::Collection(e)
    }
}

impl From<BackupError> for TdbError {
    fn from(e: BackupError) -> Self {
        TdbError::Backup(e)
    }
}

impl TdbError {
    /// Stable, layer-independent classification (see [`ErrorKind`]).
    /// Applications should branch on this — e.g. retry on
    /// [`ErrorKind::LockTimeout`] / [`ErrorKind::Deadlock`], refuse to open
    /// on [`ErrorKind::Tamper`] / [`ErrorKind::Replay`] — instead of
    /// matching layer-specific variants.
    pub fn kind(&self) -> ErrorKind {
        match self {
            TdbError::Chunk(e) => e.kind(),
            TdbError::Object(e) => e.kind(),
            TdbError::Collection(e) => e.kind(),
            TdbError::Backup(e) => e.kind(),
        }
    }

    /// Whether retrying the transaction is reasonable (lock timeouts and
    /// deadlock victims).
    pub fn is_retryable(&self) -> bool {
        matches!(self.kind(), ErrorKind::LockTimeout | ErrorKind::Deadlock)
    }
}

impl From<TdbError> for Error {
    fn from(e: TdbError) -> Self {
        Error::with_source(e.kind(), e)
    }
}

/// Result alias for facade operations.
pub type Result<T> = std::result::Result<T, TdbError>;

/// Top-level configuration: the chunk-store and object-store knobs.
#[derive(Clone, Debug, Default)]
pub struct DatabaseConfig {
    /// Chunk store configuration (segment size, security mode, utilization,
    /// checkpoint threshold, ...).
    pub chunk: ChunkStoreConfig,
    /// Object store configuration (locking, lock timeout, cache budget).
    pub object: ObjectStoreConfig,
}

impl DatabaseConfig {
    /// Default configuration but with security off — the paper's "TDB"
    /// (vs. "TDB-S") evaluation configuration.
    pub fn without_security() -> Self {
        let mut cfg = Self::default();
        cfg.chunk.security = SecurityMode::Off;
        cfg
    }
}

/// An open TDB database: the collection store plus handles to the layers
/// beneath it.
#[derive(Clone)]
pub struct Database {
    collections: CollectionStore,
    security: SecurityMode,
}

impl Database {
    /// Create a fresh database in `untrusted`.
    pub fn create(
        untrusted: Arc<dyn UntrustedStore>,
        secret: &dyn SecretStore,
        counter: Arc<dyn OneWayCounter>,
        classes: ClassRegistry,
        extractors: ExtractorRegistry,
        cfg: DatabaseConfig,
    ) -> Result<Self> {
        let security = cfg.chunk.security;
        let chunks = Arc::new(ChunkStore::create(untrusted, secret, counter, cfg.chunk)?);
        let collections = CollectionStore::create(chunks, classes, extractors, cfg.object)?;
        Ok(Database {
            collections,
            security,
        })
    }

    /// Open an existing database, running recovery and tamper/replay
    /// validation.
    pub fn open(
        untrusted: Arc<dyn UntrustedStore>,
        secret: &dyn SecretStore,
        counter: Arc<dyn OneWayCounter>,
        classes: ClassRegistry,
        extractors: ExtractorRegistry,
        cfg: DatabaseConfig,
    ) -> Result<Self> {
        let security = cfg.chunk.security;
        let chunks = Arc::new(ChunkStore::open(untrusted, secret, counter, cfg.chunk)?);
        let collections = CollectionStore::open(chunks, classes, extractors, cfg.object)?;
        Ok(Database {
            collections,
            security,
        })
    }

    /// Open if present, else create.
    pub fn open_or_create(
        untrusted: Arc<dyn UntrustedStore>,
        secret: &dyn SecretStore,
        counter: Arc<dyn OneWayCounter>,
        classes: ClassRegistry,
        extractors: ExtractorRegistry,
        cfg: DatabaseConfig,
    ) -> Result<Self> {
        let exists = ChunkStore::database_exists(untrusted.as_ref()).unwrap_or(false);
        if exists {
            Self::open(untrusted, secret, counter, classes, extractors, cfg)
        } else {
            Self::create(untrusted, secret, counter, classes, extractors, cfg)
        }
    }

    /// Start a transaction (collections + typed object access through
    /// [`CollectionStore::object_store`]).
    pub fn begin(&self) -> CTransaction {
        self.collections.begin()
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
        self.security
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
    pub fn diagnostics_to_dir(&self, reason: &str) -> std::io::Result<Option<std::path::PathBuf>> {
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

    /// Restore the latest backup chain from `archive` onto fresh platform
    /// substrates and open the result: device migration in one call. The
    /// untrusted store must be empty, and `cfg` must ask for one shard.
    #[allow(clippy::too_many_arguments)]
    pub fn restore_latest_from(
        archive: &dyn ArchivalStore,
        untrusted: Arc<dyn UntrustedStore>,
        secret: &dyn SecretStore,
        counter: Arc<dyn OneWayCounter>,
        classes: ClassRegistry,
        extractors: ExtractorRegistry,
        cfg: DatabaseConfig,
    ) -> Result<Self> {
        require_one_shard("restore_latest_from", cfg.chunk.shards)?;
        let security = cfg.chunk.security;
        let chunks = Arc::new(ChunkStore::create(untrusted, secret, counter, cfg.chunk)?);
        BackupManager::restore_latest(archive, secret, security, &chunks)?;
        let collections = CollectionStore::open(chunks, classes, extractors, cfg.object)?;
        Ok(Database {
            collections,
            security,
        })
    }

    /// Build a backup manager writing to `archive` with keys derived from
    /// `secret` (must be the database's platform secret).
    pub fn backup_manager(
        &self,
        archive: Arc<dyn ArchivalStore>,
        secret: &dyn SecretStore,
    ) -> Result<BackupManager> {
        Ok(BackupManager::new(archive, secret, self.security)?)
    }
}

/// The one refusal of every backup and restore entry point
/// ([`Database::restore_latest_from`] and the session's `backup_full`,
/// `backup_incremental` and `restore_latest`): backups speak in the chunk
/// ids of one log, so a database of several shards is refused here, with
/// the operation name and the shard count in the message.
pub(crate) fn require_one_shard(operation: &str, shards: usize) -> Result<()> {
    if shards == 1 {
        return Ok(());
    }
    Err(TdbError::Chunk(ChunkStoreError::ConfigMismatch(format!(
        "{operation} requires an unsharded store, but this database has {shards} shards; \
         per-shard backup/restore is not supported yet — see DESIGN.md \
         \"Sharding & the root-of-roots\""
    ))))
}
