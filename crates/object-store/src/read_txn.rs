//! Snapshot-isolated read-only transactions.
//!
//! A [`ReadTransaction`] pins a copy-on-write snapshot of the chunk store
//! and reads against it with **zero** 2PL locks. Writers and the log
//! cleaner proceed concurrently; the cleaner will not relocate or free any
//! segment a pinned snapshot still references, so the reader's view stays
//! intact for its whole lifetime. Dropping the reader releases the pin.
//!
//! Reads take two paths:
//!
//! * **cache fast path** — if the shared object cache holds a *clean* cell
//!   whose version stamp is `<=` the snapshot's commit sequence, the cached
//!   (current) content is exactly what the snapshot would decode, and it is
//!   returned without touching the chunk store. Version stamps are upper
//!   bounds, so a stale-looking stamp only costs a fallback, never
//!   correctness.
//! * **snapshot fallback** — otherwise the chunk is read *as of the
//!   snapshot* (possibly from a since-overwritten log record), unpickled,
//!   and memoized privately in the transaction. Fallback cells are never
//!   installed into the shared cache: their content may be older than the
//!   current version.

use crate::error::{ObjectStoreError, Result};
use crate::reader::ObjectReader;
use crate::store::{ObjectCell, ObjectStore};
use crate::{ObjectId, Persistent};
use chunk_store::{Proven, Snapshot};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use tdb_obs::Counter;

/// A snapshot-isolated read-only transaction; see the
/// [module docs](crate::read_txn). Created by [`ObjectStore::begin_read`].
///
/// Unlike [`Transaction`](crate::Transaction), there is nothing to commit
/// or roll back: the reader observes one consistent state and simply ends
/// when dropped (or via [`finish`](ReadTransaction::finish)).
pub struct ReadTransaction {
    store: ObjectStore,
    snap: Snapshot,
    /// Snapshot-private cells decoded via the fallback path, memoized so a
    /// scan touching the same node twice unpickles once.
    fallback: Mutex<HashMap<u64, Arc<ObjectCell>>>,
    /// Roots as of the snapshot, decoded lazily on first use.
    roots: Mutex<Option<Arc<HashMap<String, ObjectId>>>>,
    fast_hits: Counter,
    snap_reads: Counter,
}

impl ReadTransaction {
    pub(crate) fn new(store: ObjectStore, snap: Snapshot) -> Self {
        let obs = store.obs();
        tdb_obs::trace::emit(
            tdb_obs::TraceLayer::Object,
            tdb_obs::TraceKind::SnapPin,
            0,
            snap.commit_seq(),
            0,
        );
        ReadTransaction {
            store,
            snap,
            fallback: Mutex::new(HashMap::new()),
            roots: Mutex::new(None),
            fast_hits: obs.counter("read.cache_fast"),
            snap_reads: obs.counter("read.snapshot_fallbacks"),
        }
    }

    /// The highest chunk-store commit sequence this reader observes
    /// across shards. With one shard every commit with sequence `<=` this
    /// value is visible, every later one is not; with several, visibility
    /// is per shard (see [`Snapshot::seq_for`]).
    pub fn commit_seq(&self) -> u64 {
        self.snap.commit_seq()
    }

    /// The underlying pinned snapshot (for diffing/backup interop).
    pub fn snapshot(&self) -> &Snapshot {
        &self.snap
    }

    /// Apply `f` to the object as a `dyn Persistent`, as of the snapshot.
    pub fn with_readonly<R>(
        &self,
        oid: ObjectId,
        f: impl FnOnce(&dyn Persistent) -> R,
    ) -> Result<R> {
        self.with_cell(oid, |obj| Ok(f(obj)))
    }

    /// Apply `f` to the object downcast to `T`, as of the snapshot.
    pub fn read<T: Persistent, R>(&self, oid: ObjectId, f: impl FnOnce(&T) -> R) -> Result<R> {
        self.with_cell(oid, |obj| match obj.as_any().downcast_ref::<T>() {
            Some(t) => Ok(f(t)),
            None => Err(ObjectStoreError::TypeMismatch {
                id: oid,
                found: obj.class_id(),
            }),
        })
    }

    /// Class id of an object without naming its Rust type.
    pub fn class_of(&self, oid: ObjectId) -> Result<crate::ClassId> {
        self.with_readonly(oid, |obj| obj.class_id())
    }

    /// Proof-carrying read: apply `f` to the object downcast to `T` and
    /// return the result together with a deferred inclusion proof, or a
    /// provable `None` if the object does not exist as of the snapshot.
    ///
    /// Unlike [`read`](ReadTransaction::read), this always takes the
    /// snapshot path — the proof must speak about the pinned chunk bytes,
    /// so the shared cache's fast path cannot be used. Call
    /// [`Proven::prove`](chunk_store::Proven::prove) at any later time
    /// (even after writers commit and the cleaner relocates segments) to
    /// obtain the [`tdb_proof::ChunkProof`] a standalone verifier checks
    /// against the store's trust anchor.
    /// The chunk proof binds the object's **pickled bytes** (that is what
    /// the store hashes); a verifier therefore needs those bytes, either
    /// from [`read_proven_bytes`](ReadTransaction::read_proven_bytes) or
    /// by re-pickling the typed object (pickling is deterministic).
    pub fn read_proven<T: Persistent, R>(
        &self,
        oid: ObjectId,
        f: impl FnOnce(&T) -> R,
    ) -> Result<Proven<Option<R>>> {
        let proven = self
            .store
            .inner
            .chunks
            .proven_at_snapshot(&self.snap, oid)?;
        let decoded = match &proven.value {
            Some(bytes) => {
                let obj = self.store.inner.registry.unpickle_object(bytes)?;
                match obj.as_any().downcast_ref::<T>() {
                    Some(t) => Some(f(t)),
                    None => {
                        return Err(ObjectStoreError::TypeMismatch {
                            id: oid,
                            found: obj.class_id(),
                        })
                    }
                }
            }
            None => None,
        };
        Ok(proven.map(|_| decoded))
    }

    /// Proof-carrying read of the object's raw pickled bytes — the
    /// transferable form: ship `(bytes, proof)` to a client and it can
    /// check [`Verifier::verify_chunk`](tdb_proof::Verifier::verify_chunk)
    /// with exactly these bytes, then unpickle locally.
    pub fn read_proven_bytes(&self, oid: ObjectId) -> Result<Proven<Option<Vec<u8>>>> {
        Ok(self
            .store
            .inner
            .chunks
            .proven_at_snapshot(&self.snap, oid)?)
    }

    /// Mint a keyed-root attestation bound to this reader's snapshot
    /// (counter value and commit sequence). The collection layer uses this
    /// to attest the root of a [`tdb_proof::KeyedTree`] rebuilt from an
    /// index scan at the same snapshot.
    pub fn keyed_attest(
        &self,
        scope: &str,
        total: u64,
        root: &tdb_proof::Digest,
    ) -> Result<tdb_proof::KeyedAttestation> {
        Ok(self
            .store
            .inner
            .chunks
            .keyed_attest_at(&self.snap, scope, total, root)?)
    }

    /// A named root object id **as of the snapshot** (a root registered by
    /// a commit after this reader began is not visible).
    pub fn root(&self, name: &str) -> Option<ObjectId> {
        self.roots_map().ok()?.get(name).copied()
    }

    /// All root names as of the snapshot, sorted.
    pub fn root_names(&self) -> Vec<String> {
        let mut names: Vec<String> = match self.roots_map() {
            Ok(roots) => roots.keys().cloned().collect(),
            Err(_) => Vec::new(),
        };
        names.sort();
        names
    }

    /// End the transaction, releasing the snapshot pin. Equivalent to
    /// dropping; provided so call sites can make the end explicit.
    pub fn finish(self) {}

    fn roots_map(&self) -> Result<Arc<HashMap<String, ObjectId>>> {
        let mut cached = self.roots.lock();
        if let Some(roots) = cached.as_ref() {
            return Ok(roots.clone());
        }
        let bytes = self
            .store
            .inner
            .chunks
            .read_at_snapshot(&self.snap, self.store.inner.roots_chunk)?;
        let roots = Arc::new(ObjectStore::unpickle_roots(&bytes)?);
        *cached = Some(roots.clone());
        Ok(roots)
    }

    /// Core read: cache fast path, else snapshot fallback. `f` runs under a
    /// short-lived read guard; it must not call back into this transaction
    /// for the same object.
    fn with_cell<R>(
        &self,
        oid: ObjectId,
        f: impl FnOnce(&dyn Persistent) -> Result<R>,
    ) -> Result<R> {
        if let Some(cell) = self.store.lookup_cell(oid) {
            // The checks must run *under* the data guard: `dirty` is set
            // before a writer can take the write lock, and commits stamp
            // `version` before clearing `dirty`. So observing a clean cell
            // here proves the guarded content is the committed version the
            // stamp describes.
            let guard = cell.data.read();
            if !cell.dirty.load(Ordering::Acquire)
                && cell.version.load(Ordering::Acquire) <= self.snap.seq_for(oid)
            {
                self.fast_hits.inc();
                return f(&**guard);
            }
        }
        let cell = self.fallback_cell(oid)?;
        let guard = cell.data.read();
        f(&**guard)
    }

    fn fallback_cell(&self, oid: ObjectId) -> Result<Arc<ObjectCell>> {
        if let Some(cell) = self.fallback.lock().get(&oid.0) {
            return Ok(cell.clone());
        }
        self.snap_reads.inc();
        let bytes = self
            .store
            .inner
            .chunks
            .read_at_snapshot(&self.snap, oid)
            .map_err(|e| match e {
                chunk_store::ChunkStoreError::NotAllocated(id)
                | chunk_store::ChunkStoreError::NotWritten(id) => ObjectStoreError::NotFound(id),
                other => ObjectStoreError::Chunk(other),
            })?;
        let obj = self.store.inner.registry.unpickle_object(&bytes)?;
        let cell = Arc::new(ObjectCell {
            id: oid,
            data: RwLock::new(obj),
            dirty: AtomicBool::new(false),
            size: AtomicUsize::new(bytes.len()),
            version: AtomicU64::new(self.snap.seq_for(oid)),
        });
        Ok(self.fallback.lock().entry(oid.0).or_insert(cell).clone())
    }
}

impl Drop for ReadTransaction {
    fn drop(&mut self) {
        tdb_obs::trace::emit(
            tdb_obs::TraceLayer::Object,
            tdb_obs::TraceKind::SnapUnpin,
            0,
            self.snap.commit_seq(),
            0,
        );
    }
}

impl ObjectReader for ReadTransaction {
    fn with_persistent<R>(&self, oid: ObjectId, f: impl FnOnce(&dyn Persistent) -> R) -> Result<R> {
        self.with_readonly(oid, f)
    }

    fn try_with_object<T: Persistent, R>(
        &self,
        oid: ObjectId,
        f: impl FnOnce(&T) -> Result<R>,
    ) -> Result<R> {
        self.with_cell(oid, |obj| match obj.as_any().downcast_ref::<T>() {
            Some(t) => f(t),
            None => Err(ObjectStoreError::TypeMismatch {
                id: oid,
                found: obj.class_id(),
            }),
        })
    }

    fn root_id(&self, name: &str) -> Option<ObjectId> {
        self.root(name)
    }
}
