//! Transport-agnostic sessions: one API, two backends.
//!
//! A [`Session`] is the narrow waist between applications and a TDB
//! database: transaction lifecycle (begin / commit / abort), byte-level
//! object access, collection queries, proof-carrying reads, and the
//! administrative calls (checkpoint, stats, backup). It is deliberately
//! *untyped* — objects cross the boundary as pickled bytes with the class
//! id embedded (see [`object_store::pickle_object`]) — because the same
//! calls must work when the database is in-process **and** when it is on
//! the other end of a TCP connection (`tdb-client` / `tdb-server`).
//!
//! * [`EmbeddedSession`] wraps a [`Db`] directly; every call is a plain
//!   function call into the collection store.
//! * `tdb_client::RemoteDb` (crate `tdb-client`) implements the same trait
//!   over the length-prefixed wire protocol, so examples and the TPC-B
//!   driver run unmodified against either backend.
//!
//! Errors cross the boundary as [`tdb_core::Error`] — the stable
//! `(ErrorKind, message)` pair — so `is_retryable()` means the same thing
//! on both sides of the wire. Proofs cross as `tdb-proof` wire bytes:
//! a client verifies them with [`tdb_proof::Verifier`] against a
//! wire-decoded [`tdb_proof::TrustAnchor`] and never needs a server type.

use std::ops::Bound;
use std::sync::Arc;

use crate::{Db, Durability, Error, ErrorKind, IndexSpec, Key, ObjectId, TdbError};
use object_store::{pickle_object, ClassRegistry, Persistent};
use tdb_platform::{ArchivalStore, SecretStore};

/// Result alias for session operations: the error is always the
/// layer-independent [`tdb_core::Error`] so it can round-trip a wire.
pub type SResult<T> = std::result::Result<T, Error>;

fn terr(e: impl Into<TdbError>) -> Error {
    Error::from(e.into())
}

// ---------------------------------------------------------------------------
// Data carried across the session boundary
// ---------------------------------------------------------------------------

/// Point-in-time database statistics a session exposes. The group-commit
/// fields let an external bench compute the mean commit group size from
/// before/after deltas without reaching into server internals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// On-disk log size in bytes.
    pub disk_size: u64,
    /// Total bytes appended to the log.
    pub bytes_appended: u64,
    /// Shard count of the underlying chunk store.
    pub shards: u64,
    /// Samples recorded in the `commit.group_size` histogram (one per
    /// durable group).
    pub group_size_count: u64,
    /// Sum of recorded group sizes (commits covered by those groups).
    pub group_size_sum: u64,
}

impl SessionStats {
    /// Mean commits amortized per durable sync (0.0 when no groups yet).
    pub fn group_size_mean(&self) -> f64 {
        if self.group_size_count == 0 {
            0.0
        } else {
            self.group_size_sum as f64 / self.group_size_count as f64
        }
    }
}

/// A proof-carrying byte read: the value (or provable absence) plus the
/// chunk proof in `tdb-proof` wire encoding. Self-contained — verify
/// against a trust anchor with [`ProvenBytes::verify`]; no database
/// connection or server type needed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvenBytes {
    /// The pickled object bytes, or `None` for provable absence.
    pub value: Option<Vec<u8>>,
    /// Commit sequence of the snapshot the proof pins.
    pub commit_seq: u64,
    /// Wire-encoded [`tdb_proof::ChunkProof`].
    pub proof: Vec<u8>,
}

impl ProvenBytes {
    /// Verify the proof binds exactly `self.value` under `verifier`'s
    /// anchor. Tamper/replay/usage failures map onto the matching
    /// [`ErrorKind`].
    pub fn verify(&self, verifier: &tdb_proof::Verifier) -> SResult<()> {
        let proof = tdb_proof::wire::decode_chunk_proof(&self.proof)
            .map_err(|e| Error::new(ErrorKind::Codec, e.to_string()))?;
        verifier
            .verify_chunk(&proof, self.value.as_deref())
            .map_err(proof_err)
    }
}

/// A proof-carrying exact lookup: the matching `(key, id)` entries plus a
/// keyed (non-)membership proof in wire encoding, and the query they
/// answer. An empty entry list is provably empty.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenEntries {
    /// Matching entries in committed order.
    pub entries: Vec<(Key, ObjectId)>,
    /// Wire-encoded [`tdb_proof::KeyedProof`].
    pub proof: Vec<u8>,
    /// The queried collection, index and key. The caller fills these from
    /// its own arguments, never from a response, so [`verify`](Self::verify)
    /// checks the proof answers the question that was asked.
    pub coll: String,
    /// See [`coll`](Self::coll).
    pub index: String,
    /// See [`coll`](Self::coll).
    pub key: Key,
}

impl ProvenEntries {
    /// Verify the proof answers this query — scope `"{coll}/{index}"` and
    /// exactly `key`'s range — and attests **exactly** the ids in
    /// `self.entries` (in order), each under `key`.
    pub fn verify(&self, verifier: &tdb_proof::Verifier) -> SResult<()> {
        let proof = tdb_proof::wire::decode_keyed_proof(&self.proof)
            .map_err(|e| Error::new(ErrorKind::Codec, e.to_string()))?;
        let scope = format!("{}/{}", self.coll, self.index);
        let lo = self.key.encode_ordered();
        let hi = tdb_proof::key_successor(&lo);
        if proof.scope != scope || proof.lo != lo || proof.hi.as_ref() != Some(&hi) {
            return Err(Error::new(
                ErrorKind::Tamper,
                format!(
                    "keyed proof answers scope {:?} range {:?}..{:?}, query is {scope:?} key {:?}",
                    proof.scope, proof.lo, proof.hi, self.key
                ),
            ));
        }
        let proved = verifier.verify_keyed(&proof).map_err(proof_err)?;
        let claimed: Vec<u64> = self.entries.iter().map(|(_, id)| id.0).collect();
        if proved != claimed || self.entries.iter().any(|(k, _)| *k != self.key) {
            return Err(Error::new(
                ErrorKind::Tamper,
                format!(
                    "keyed proof attests ids {proved:?} under {:?}, result claims {:?}",
                    self.key, self.entries
                ),
            ));
        }
        Ok(())
    }
}

fn proof_err(e: tdb_proof::ProofError) -> Error {
    let kind = match &e {
        tdb_proof::ProofError::Tamper(_) => ErrorKind::Tamper,
        tdb_proof::ProofError::Replay { .. } => ErrorKind::Replay,
        tdb_proof::ProofError::Usage(_) => ErrorKind::Usage,
    };
    Error::new(kind, e.to_string())
}

// ---------------------------------------------------------------------------
// The traits
// ---------------------------------------------------------------------------

/// A read-write transaction held through a session. Strict 2PL underneath:
/// locks acquired by reads/updates are held until `commit`/`abort` (or the
/// handle is dropped, which aborts).
pub trait SessionTxn {
    /// Create the collection with `specs` if it does not exist yet.
    fn ensure_collection(&self, coll: &str, specs: &[IndexSpec]) -> SResult<()>;
    /// Insert a pickled object into a collection; returns its id.
    fn insert(&self, coll: &str, bytes: &[u8]) -> SResult<ObjectId>;
    /// Exact-match lookup returning member ids (shared index access; no
    /// object locks taken).
    fn lookup_ids(&self, coll: &str, index: &str, key: &Key) -> SResult<Vec<ObjectId>>;
    /// Read a member's pickled bytes under a shared lock.
    fn read(&self, coll: &str, oid: ObjectId) -> SResult<Vec<u8>>;
    /// Lock a member exclusively and return its pickled bytes; complete
    /// the read-modify-write with [`SessionTxn::write_back`].
    fn get_for_update(&self, coll: &str, oid: ObjectId) -> SResult<Vec<u8>>;
    /// Replace a member from pickled bytes, running index maintenance.
    fn write_back(&self, coll: &str, oid: ObjectId, bytes: &[u8]) -> SResult<()>;
    /// Commit with the given durability. Consumes the handle.
    fn commit(self: Box<Self>, durability: Durability) -> SResult<()>;
    /// Abort, discarding all staged writes. Consumes the handle.
    fn abort(self: Box<Self>) -> SResult<()>;
}

/// A snapshot-isolated read-only transaction held through a session.
pub trait SessionRead {
    /// The commit sequence this reader observes.
    fn commit_seq(&self) -> SResult<u64>;
    /// Member count of a collection.
    fn count(&self, coll: &str) -> SResult<u64>;
    /// Exact-match lookup.
    fn exact(&self, coll: &str, index: &str, key: &Key) -> SResult<Vec<ObjectId>>;
    /// Full scan in index order.
    fn scan(&self, coll: &str, index: &str) -> SResult<Vec<(Key, ObjectId)>>;
    /// Range query over an ordered index.
    fn range(
        &self,
        coll: &str,
        index: &str,
        min: Bound<Key>,
        max: Bound<Key>,
    ) -> SResult<Vec<(Key, ObjectId)>>;
    /// Read a member's pickled bytes as of the snapshot.
    fn read(&self, oid: ObjectId) -> SResult<Vec<u8>>;
    /// Proof-carrying byte read (requires `SecurityMode::Full`).
    fn read_proven(&self, oid: ObjectId) -> SResult<ProvenBytes>;
    /// Proof-carrying exact lookup with provable absence.
    fn exact_proven(&self, coll: &str, index: &str, key: &Key) -> SResult<ProvenEntries>;
    /// End the transaction, releasing the snapshot pin. Consumes the
    /// handle.
    fn finish(self: Box<Self>) -> SResult<()>;
}

/// A transport-agnostic handle to a TDB database: implemented by
/// [`EmbeddedSession`] (in-process) and `tdb_client::RemoteDb` (TCP).
/// Concurrent workers each [`fork`](Session::fork) their own session —
/// transactions themselves are single-threaded, sessions are the unit of
/// concurrency, and concurrent sessions' durable commits amortize through
/// group commit on both backends.
pub trait Session: Send + Sync {
    /// Start a read-write transaction.
    fn begin(&self) -> SResult<Box<dyn SessionTxn + '_>>;
    /// Start a snapshot-isolated read-only transaction.
    fn begin_read(&self) -> SResult<Box<dyn SessionRead + '_>>;
    /// Start a reader validated for proof-carrying reads (fails up front
    /// without `SecurityMode::Full`).
    fn begin_read_proven(&self) -> SResult<Box<dyn SessionRead + '_>>;
    /// An independent session over the same database (embedded: a handle
    /// clone; remote: a new connection). The unit of concurrency.
    fn fork(&self) -> SResult<Box<dyn Session>>;
    /// The class registry this side unpickles objects with.
    fn classes(&self) -> &ClassRegistry;
    /// The wire-encoded [`tdb_proof::TrustAnchor`] to verify this
    /// database's proofs against. **Contains key material** — servers may
    /// refuse it to unentitled tenants.
    fn trust_anchor(&self) -> SResult<Vec<u8>>;
    /// Point-in-time statistics.
    fn stats(&self) -> SResult<SessionStats>;
    /// Checkpoint the database (force a clean log prefix).
    fn checkpoint(&self) -> SResult<()>;
    /// Take a full backup into the session's configured archive; returns
    /// the archive object name. Gated to unsharded databases — on a
    /// sharded store this fails with the same structured
    /// [`ErrorKind::Usage`] error on both backends.
    fn backup_full(&self) -> SResult<String>;
    /// Take an incremental backup against the last full one.
    fn backup_incremental(&self) -> SResult<String>;
    /// Restore is an offline operation (the target store must be empty) —
    /// through a live session this always fails, but it fails with the
    /// *same* structured error chain as embedded: the shard-count gate
    /// first (shard count intact), then the offline-restore usage error.
    fn restore_latest(&self) -> SResult<()>;
}

// ---------------------------------------------------------------------------
// Typed helpers over the byte-level boundary
// ---------------------------------------------------------------------------

/// Pickle a typed object for the session boundary (class id embedded).
pub fn to_bytes<T: Persistent>(value: &T) -> Vec<u8> {
    pickle_object(value)
}

/// Unpickle session bytes and apply `f` to them downcast to `T`.
pub fn with_bytes<T: Persistent + 'static, R>(
    classes: &ClassRegistry,
    bytes: &[u8],
    f: impl FnOnce(&T) -> R,
) -> SResult<R> {
    let obj = classes.unpickle_object(bytes).map_err(terr)?;
    let typed = obj.as_any().downcast_ref::<T>().ok_or_else(|| {
        Error::new(
            ErrorKind::Usage,
            "session bytes decode to a different class",
        )
    })?;
    Ok(f(typed))
}

/// Unpickle, mutate through `f`, and re-pickle: the client half of a
/// [`SessionTxn::get_for_update`] / [`SessionTxn::write_back`]
/// read-modify-write.
pub fn modify_bytes<T: Persistent + 'static>(
    classes: &ClassRegistry,
    bytes: &[u8],
    f: impl FnOnce(&mut T),
) -> SResult<Vec<u8>> {
    let mut obj = classes.unpickle_object(bytes).map_err(terr)?;
    let typed = obj.as_any_mut().downcast_mut::<T>().ok_or_else(|| {
        Error::new(
            ErrorKind::Usage,
            "session bytes decode to a different class",
        )
    })?;
    f(typed);
    Ok(pickle_object(&*obj))
}

// ---------------------------------------------------------------------------
// The embedded backend
// ---------------------------------------------------------------------------

/// Archive binding for the backup/restore session calls.
struct BackupCtx {
    archive: Arc<dyn ArchivalStore>,
    secret: Arc<dyn SecretStore>,
    manager: std::sync::Mutex<Option<crate::BackupManager>>,
}

/// The in-process [`Session`] backend: every call is a direct function
/// call into the facade [`Db`]. Obtained via [`Db::session`] (or
/// [`EmbeddedSession::with_backup`] to enable the backup calls).
pub struct EmbeddedSession {
    db: Db,
    backup: Option<Arc<BackupCtx>>,
}

impl EmbeddedSession {
    /// Wrap a database handle.
    pub fn new(db: Db) -> Self {
        EmbeddedSession { db, backup: None }
    }

    /// Wrap a database handle with an archive for `backup_*` calls.
    pub fn with_backup(
        db: Db,
        archive: Arc<dyn ArchivalStore>,
        secret: Arc<dyn SecretStore>,
    ) -> Self {
        EmbeddedSession {
            db,
            backup: Some(Arc::new(BackupCtx {
                archive,
                secret,
                manager: std::sync::Mutex::new(None),
            })),
        }
    }

    /// The wrapped database.
    pub fn db(&self) -> &Db {
        &self.db
    }

    fn backup_ctx(&self) -> SResult<&BackupCtx> {
        self.backup.as_deref().ok_or_else(|| {
            Error::new(
                ErrorKind::Usage,
                "this session has no backup archive configured",
            )
        })
    }

    fn with_manager<R>(
        &self,
        op: &'static str,
        f: impl FnOnce(&mut crate::BackupManager, &chunk_store::ChunkStore) -> crate::Result<R>,
    ) -> SResult<R> {
        // The shard-count gate runs first so a sharded database reports the
        // structured Usage error (operation name + shard count) before any
        // archive-configuration complaints — and identically through both
        // backends.
        crate::require_one_shard(op, self.db.chunk_store().shards()).map_err(terr)?;
        let ctx = self.backup_ctx()?;
        let mut mgr = ctx.manager.lock().expect("backup manager lock poisoned");
        if mgr.is_none() {
            *mgr = Some(
                self.db
                    .backup_manager(ctx.archive.clone(), ctx.secret.as_ref())
                    .map_err(terr)?,
            );
        }
        f(
            mgr.as_mut().expect("manager installed above"),
            self.db.chunk_store(),
        )
        .map_err(terr)
    }
}

/// Shorthand: `db.session()` wraps the handle in an [`EmbeddedSession`].
impl Db {
    /// This database as a transport-agnostic [`Session`] backend.
    pub fn session(&self) -> EmbeddedSession {
        EmbeddedSession::new(self.clone())
    }
}

impl Session for EmbeddedSession {
    fn begin(&self) -> SResult<Box<dyn SessionTxn + '_>> {
        Ok(Box::new(EmbeddedTxn {
            txn: Some(self.db.begin()),
        }))
    }

    fn begin_read(&self) -> SResult<Box<dyn SessionRead + '_>> {
        Ok(Box::new(EmbeddedRead {
            rt: self.db.begin_read(),
        }))
    }

    fn begin_read_proven(&self) -> SResult<Box<dyn SessionRead + '_>> {
        let rt = self.db.begin_read_proven().map_err(terr)?;
        Ok(Box::new(EmbeddedRead { rt }))
    }

    fn fork(&self) -> SResult<Box<dyn Session>> {
        Ok(Box::new(EmbeddedSession {
            db: self.db.clone(),
            backup: self.backup.clone(),
        }))
    }

    fn classes(&self) -> &ClassRegistry {
        self.db.object_store().classes()
    }

    fn trust_anchor(&self) -> SResult<Vec<u8>> {
        let anchor = self.db.trust_anchor().map_err(terr)?;
        Ok(tdb_proof::wire::encode_trust_anchor(&anchor))
    }

    fn stats(&self) -> SResult<SessionStats> {
        Ok(session_stats(&self.db))
    }

    fn checkpoint(&self) -> SResult<()> {
        self.db.checkpoint().map_err(terr)
    }

    fn backup_full(&self) -> SResult<String> {
        self.with_manager("backup_full", |mgr, store| {
            mgr.backup_full(store).map_err(TdbError::Backup)
        })
    }

    fn backup_incremental(&self) -> SResult<String> {
        self.with_manager("backup_incremental", |mgr, store| {
            mgr.backup_incremental(store).map_err(TdbError::Backup)
        })
    }

    fn restore_latest(&self) -> SResult<()> {
        crate::require_one_shard("restore_latest", self.db.chunk_store().shards()).map_err(terr)?;
        Err(restore_is_offline())
    }
}

/// The error both backends return for `restore_latest` on an unsharded
/// live database (the sharded case fails earlier, at the shard-count gate).
pub(crate) fn restore_is_offline() -> Error {
    Error::new(
        ErrorKind::Usage,
        "restore requires an offline, empty database; \
         use Db::restore_latest_from on fresh substrates",
    )
}

/// Assemble [`SessionStats`] from a database's obs registry.
fn session_stats(db: &Db) -> SessionStats {
    let snap = db.chunk_store().obs_snapshot();
    let group = snap.histograms.get("commit.group_size");
    SessionStats {
        disk_size: db.disk_size(),
        bytes_appended: snap.counter("chunk.bytes_appended"),
        shards: db.chunk_store().shards() as u64,
        group_size_count: group.map(|h| h.count()).unwrap_or(0),
        group_size_sum: group.map(|h| h.sum).unwrap_or(0),
    }
}

struct EmbeddedTxn {
    /// `Some` until commit/abort consumes it (the handle is boxed, so the
    /// consuming methods take `Box<Self>` and move out of the option).
    txn: Option<crate::CTransaction>,
}

impl EmbeddedTxn {
    fn t(&self) -> &crate::CTransaction {
        self.txn.as_ref().expect("transaction already finished")
    }
}

impl SessionTxn for EmbeddedTxn {
    fn ensure_collection(&self, coll: &str, specs: &[IndexSpec]) -> SResult<()> {
        match self.t().create_collection(coll, specs) {
            Ok(_) => Ok(()),
            Err(crate::CollectionError::CollectionExists(_)) => Ok(()),
            Err(e) => Err(terr(TdbError::Collection(e))),
        }
    }

    fn insert(&self, coll: &str, bytes: &[u8]) -> SResult<ObjectId> {
        let c = self.t().write_collection(coll).map_err(terr)?;
        c.insert_bytes(bytes).map_err(terr)
    }

    fn lookup_ids(&self, coll: &str, index: &str, key: &Key) -> SResult<Vec<ObjectId>> {
        let c = self.t().write_collection(coll).map_err(terr)?;
        c.lookup_ids(index, key).map_err(terr)
    }

    fn read(&self, coll: &str, oid: ObjectId) -> SResult<Vec<u8>> {
        let c = self.t().read_collection(coll).map_err(terr)?;
        c.read_object_bytes(oid).map_err(terr)
    }

    fn get_for_update(&self, coll: &str, oid: ObjectId) -> SResult<Vec<u8>> {
        let c = self.t().write_collection(coll).map_err(terr)?;
        c.get_for_update(oid).map_err(terr)
    }

    fn write_back(&self, coll: &str, oid: ObjectId, bytes: &[u8]) -> SResult<()> {
        let c = self.t().write_collection(coll).map_err(terr)?;
        c.update_object_bytes(oid, bytes).map_err(terr)
    }

    fn commit(mut self: Box<Self>, durability: Durability) -> SResult<()> {
        self.txn
            .take()
            .expect("transaction already finished")
            .commit(durability)
            .map_err(terr)
    }

    fn abort(mut self: Box<Self>) -> SResult<()> {
        self.txn
            .take()
            .expect("transaction already finished")
            .abort();
        Ok(())
    }
}

struct EmbeddedRead {
    rt: crate::ReadCTransaction,
}

impl SessionRead for EmbeddedRead {
    fn commit_seq(&self) -> SResult<u64> {
        Ok(self.rt.commit_seq())
    }

    fn count(&self, coll: &str) -> SResult<u64> {
        let c = self.rt.read_collection(coll).map_err(terr)?;
        c.len().map_err(terr)
    }

    fn exact(&self, coll: &str, index: &str, key: &Key) -> SResult<Vec<ObjectId>> {
        let c = self.rt.read_collection(coll).map_err(terr)?;
        c.exact(index, key).map_err(terr)
    }

    fn scan(&self, coll: &str, index: &str) -> SResult<Vec<(Key, ObjectId)>> {
        let c = self.rt.read_collection(coll).map_err(terr)?;
        c.scan(index).map_err(terr)
    }

    fn range(
        &self,
        coll: &str,
        index: &str,
        min: Bound<Key>,
        max: Bound<Key>,
    ) -> SResult<Vec<(Key, ObjectId)>> {
        let c = self.rt.read_collection(coll).map_err(terr)?;
        c.range(index, as_ref_bound(&min), as_ref_bound(&max))
            .map_err(terr)
    }

    fn read(&self, oid: ObjectId) -> SResult<Vec<u8>> {
        self.rt.read_bytes(oid).map_err(terr)
    }

    fn read_proven(&self, oid: ObjectId) -> SResult<ProvenBytes> {
        let proven = self
            .rt
            .object_reader()
            .read_proven_bytes(oid)
            .map_err(terr)?;
        let proof = proven.prove().map_err(|e| terr(TdbError::Chunk(e)))?;
        Ok(ProvenBytes {
            commit_seq: proven.commit_seq(),
            proof: tdb_proof::wire::encode_chunk_proof(&proof),
            value: proven.value,
        })
    }

    fn exact_proven(&self, coll: &str, index: &str, key: &Key) -> SResult<ProvenEntries> {
        let c = self.rt.read_collection(coll).map_err(terr)?;
        let lookup = c.exact_proven(index, key).map_err(terr)?;
        Ok(ProvenEntries {
            entries: lookup.entries,
            proof: tdb_proof::wire::encode_keyed_proof(&lookup.proof),
            coll: coll.to_string(),
            index: index.to_string(),
            key: key.clone(),
        })
    }

    fn finish(self: Box<Self>) -> SResult<()> {
        self.rt.finish();
        Ok(())
    }
}

fn as_ref_bound(b: &Bound<Key>) -> Bound<&Key> {
    match b {
        Bound::Included(k) => Bound::Included(k),
        Bound::Excluded(k) => Bound::Excluded(k),
        Bound::Unbounded => Bound::Unbounded,
    }
}
