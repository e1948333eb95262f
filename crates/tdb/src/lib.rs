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
//! re-exports them and adds one front door: a [`Db`] handle opened from
//! [`Options`], whose transactions are the collection store's own
//! [`CTransaction`] and [`ReadCTransaction`].
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

pub mod facade;
pub mod session;

pub use facade::{CollectionHandle, Db, Options};
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
/// [`Db::obs`].
pub mod obs {
    pub use tdb_obs::*;
}

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

/// The one refusal of every backup and restore entry point
/// ([`Db::restore_latest_from`] and the session's `backup_full`,
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
