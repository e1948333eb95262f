//! Transactions over persistent objects (paper Fig. 3 / §4.2.3).

use crate::class::pickle_object;
use crate::error::{ObjectStoreError, Result};
use crate::locks::LockMode;
use crate::refs::{ReadonlyRef, WritableRef};
use crate::store::{ObjectCell, ObjectStore};
use crate::{ChunkId, ObjectId, Persistent};
use chunk_store::{Durability, WriteBatch};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Shared transaction state; `Ref`s hold it to check validity at deref.
pub(crate) struct TxnCore {
    pub(crate) id: u64,
    pub(crate) active: AtomicBool,
    pub(crate) sets: Mutex<TxnSets>,
}

impl TxnCore {
    pub(crate) fn new(id: u64) -> Self {
        TxnCore {
            id,
            active: AtomicBool::new(true),
            sets: Mutex::new(TxnSets::default()),
        }
    }
}

/// "Each transaction remembers the ids of the objects inserted, read,
/// written, and removed. These sets help avoid locking an object multiple
/// times, and provide the identities of objects to be committed or removed
/// at commit time." (§4.2.3)
#[derive(Default)]
pub(crate) struct TxnSets {
    /// Objects inserted or opened writable (to pickle at commit).
    pub written: BTreeMap<u64, Arc<ObjectCell>>,
    /// Ids allocated by this transaction (returned to the pool on abort).
    pub inserted: Vec<ObjectId>,
    /// Objects removed (deallocated at commit).
    pub removed: BTreeSet<u64>,
    /// Ids read (diagnostic; locking dedup is handled by the lock table).
    pub read: BTreeSet<u64>,
    /// Root registry updates (`None` = unregister).
    pub root_updates: HashMap<String, Option<ObjectId>>,
}

/// A transaction. Created by [`ObjectStore::begin`]; must end with
/// [`commit`](Transaction::commit) or [`abort`](Transaction::abort)
/// (dropping an active transaction aborts it).
pub struct Transaction {
    store: ObjectStore,
    core: Arc<TxnCore>,
    /// This transaction's private chunk staging area. Ids allocate from it
    /// and pickled objects stage into it, so concurrent transactions never
    /// share write state; `None` once commit has consumed it.
    batch: Mutex<Option<WriteBatch>>,
}

impl Transaction {
    pub(crate) fn new(store: ObjectStore, core: Arc<TxnCore>) -> Self {
        let batch = store.inner.chunks.begin_batch();
        Transaction {
            store,
            core,
            batch: Mutex::new(Some(batch)),
        }
    }

    /// This transaction's numeric id (diagnostics).
    pub fn id(&self) -> u64 {
        self.core.id
    }

    /// Whether the transaction can still be used.
    pub fn is_active(&self) -> bool {
        self.core.active.load(Ordering::Acquire)
    }

    fn check_active(&self) -> Result<()> {
        if self.is_active() {
            Ok(())
        } else {
            Err(ObjectStoreError::TransactionInactive)
        }
    }

    fn lock(&self, oid: ObjectId, mode: LockMode) -> Result<()> {
        if self.store.locking() {
            self.store
                .inner
                .locks
                .acquire(self.core.id, oid, mode, self.store.lock_timeout())?;
        }
        Ok(())
    }

    /// Insert a new object; returns its persistent id (paper Fig. 3:
    /// `insert`).
    pub fn insert(&self, object: Box<dyn Persistent>) -> Result<ObjectId> {
        self.check_active()?;
        if !self.store.inner.registry.contains(object.class_id()) {
            return Err(ObjectStoreError::ClassNotRegistered(object.class_id()));
        }
        let oid = {
            let mut batch = self.batch.lock();
            batch
                .as_mut()
                .expect("active transaction owns its batch")
                .allocate_chunk_id()?
        };
        self.lock(oid, LockMode::Exclusive)?;
        let cell = Arc::new(ObjectCell {
            id: oid,
            data: RwLock::new(object),
            dirty: AtomicBool::new(true),
            size: AtomicUsize::new(256), // refined at commit
            // Dirty content has no committed version yet; the commit stamps
            // the real sequence. MAX keeps snapshot readers off it even if
            // they race the dirty flag.
            version: AtomicU64::new(u64::MAX),
        });
        self.store.install_cell(cell.clone());
        let mut sets = self.core.sets.lock();
        sets.written.insert(oid.0, cell);
        sets.inserted.push(oid);
        Ok(oid)
    }

    fn open_cell(&self, oid: ObjectId, mode: LockMode) -> Result<Arc<ObjectCell>> {
        self.check_active()?;
        if self.core.sets.lock().removed.contains(&oid.0) {
            return Err(ObjectStoreError::NotFound(oid));
        }
        self.lock(oid, mode)?;
        self.store.load_cell(oid)
    }

    fn check_type<T: Persistent>(&self, cell: &Arc<ObjectCell>, oid: ObjectId) -> Result<()> {
        let data = cell.data.read();
        if data.as_any().downcast_ref::<T>().is_none() {
            return Err(ObjectStoreError::TypeMismatch {
                id: oid,
                found: data.class_id(),
            });
        }
        Ok(())
    }

    /// Open an object read-only with a shared lock (paper Fig. 3:
    /// `openReadonly`). The type check replaces the paper's runtime-checked
    /// `Ref` construction.
    pub fn open_readonly<T: Persistent>(&self, oid: ObjectId) -> Result<ReadonlyRef<T>> {
        let cell = self.open_cell(oid, LockMode::Shared)?;
        self.check_type::<T>(&cell, oid)?;
        self.core.sets.lock().read.insert(oid.0);
        Ok(ReadonlyRef {
            cell,
            txn: self.core.clone(),
            _p: PhantomData,
        })
    }

    /// Open an object read-write with an exclusive lock (paper Fig. 3:
    /// `openWritable`). The object is marked dirty and pinned until the
    /// transaction ends (no-steal).
    pub fn open_writable<T: Persistent>(&self, oid: ObjectId) -> Result<WritableRef<T>> {
        let cell = self.open_cell(oid, LockMode::Exclusive)?;
        self.check_type::<T>(&cell, oid)?;
        cell.dirty.store(true, Ordering::Release);
        self.core.sets.lock().written.insert(oid.0, cell.clone());
        Ok(WritableRef {
            cell,
            txn: self.core.clone(),
            _p: PhantomData,
        })
    }

    /// Open an object read-only and apply `f` to it as a `dyn Persistent`
    /// (shared lock held for the call). Used by layers that process objects
    /// generically, e.g. the collection store applying extractor functions.
    pub fn with_readonly<R>(
        &self,
        oid: ObjectId,
        f: impl FnOnce(&dyn Persistent) -> R,
    ) -> Result<R> {
        let cell = self.open_cell(oid, LockMode::Shared)?;
        self.core.sets.lock().read.insert(oid.0);
        let guard = cell.data.read();
        Ok(f(&**guard))
    }

    /// Class id of an object without naming its Rust type.
    pub fn class_of(&self, oid: ObjectId) -> Result<crate::ClassId> {
        self.with_readonly(oid, |obj| obj.class_id())
    }

    // -- untyped byte-level access (network session boundary) -----------
    //
    // A remote client cannot pass closures or concrete Rust types across
    // the wire, so the session layer works in pickled bytes: the class id
    // is embedded in the pickle (see `pickle_object`), and both sides
    // unpickle through their own `ClassRegistry`.

    /// Read an object as its pickled bytes under a shared lock.
    pub fn read_object_bytes(&self, oid: ObjectId) -> Result<Vec<u8>> {
        self.with_readonly(oid, pickle_object)
    }

    /// Take an exclusive lock on an object and return its pickled bytes,
    /// marking it written (no-steal pin until the transaction ends). The
    /// caller mutates the bytes off-node and applies them back with
    /// [`Transaction::replace_bytes`]; the exclusive lock held in between
    /// makes the read-modify-write atomic.
    pub fn open_writable_bytes(&self, oid: ObjectId) -> Result<Vec<u8>> {
        let cell = self.open_cell(oid, LockMode::Exclusive)?;
        cell.dirty.store(true, Ordering::Release);
        self.core.sets.lock().written.insert(oid.0, cell.clone());
        let guard = cell.data.read();
        Ok(pickle_object(&**guard))
    }

    /// Unpickle bytes through the store's class registry (the class id is
    /// embedded in the pickle).
    pub fn unpickle(&self, bytes: &[u8]) -> Result<Box<dyn Persistent>> {
        self.store.inner.registry.unpickle_object(bytes)
    }

    /// Replace an object's contents from pickled bytes. The object must
    /// already be held exclusively by this transaction (normally via
    /// [`Transaction::open_writable_bytes`]); the replacement must keep
    /// the same class so indexes and typed readers stay coherent.
    pub fn replace_bytes(&self, oid: ObjectId, bytes: &[u8]) -> Result<()> {
        let new_obj = self.store.inner.registry.unpickle_object(bytes)?;
        let cell = self.open_cell(oid, LockMode::Exclusive)?;
        {
            let data = cell.data.read();
            if data.class_id() != new_obj.class_id() {
                return Err(ObjectStoreError::TypeMismatch {
                    id: oid,
                    found: new_obj.class_id(),
                });
            }
        }
        cell.dirty.store(true, Ordering::Release);
        *cell.data.write() = new_obj;
        self.core.sets.lock().written.insert(oid.0, cell);
        Ok(())
    }

    /// Remove an object and free its id for reuse (paper Fig. 3: `remove`).
    pub fn remove(&self, oid: ObjectId) -> Result<()> {
        self.check_active()?;
        self.lock(oid, LockMode::Exclusive)?;
        if !self.store.inner.chunks.is_allocated(oid) {
            return Err(ObjectStoreError::NotFound(oid));
        }
        let mut sets = self.core.sets.lock();
        if sets.removed.contains(&oid.0) {
            return Err(ObjectStoreError::NotFound(oid));
        }
        sets.written.remove(&oid.0);
        sets.removed.insert(oid.0);
        Ok(())
    }

    /// Register (or update) a named root object id; applied at commit.
    /// "The application can also register a 'root' object id with the
    /// object store" (§4.1).
    pub fn set_root(&self, name: &str, oid: ObjectId) -> Result<()> {
        self.check_active()?;
        self.core
            .sets
            .lock()
            .root_updates
            .insert(name.to_string(), Some(oid));
        Ok(())
    }

    /// Unregister a named root; applied at commit.
    pub fn remove_root(&self, name: &str) -> Result<()> {
        self.check_active()?;
        self.core
            .sets
            .lock()
            .root_updates
            .insert(name.to_string(), None);
        Ok(())
    }

    /// Read a named root, seeing this transaction's pending updates.
    pub fn root(&self, name: &str) -> Option<ObjectId> {
        if let Some(update) = self.core.sets.lock().root_updates.get(name) {
            return *update;
        }
        self.store.root(name)
    }

    /// Commit: pickle every inserted/written object into this
    /// transaction's private chunk batch, apply removals, and atomically
    /// commit the batch at the chunk level. `durability` matches the chunk
    /// store's durable/nondurable commit semantics (a durable commit may
    /// share its sync/anchor round with concurrent committers via group
    /// commit). Invalidates this transaction and all its `Ref`s.
    pub fn commit(self, durability: Durability) -> Result<()> {
        self.check_active()?;
        let sets = {
            let mut sets = self.core.sets.lock();
            std::mem::take(&mut *sets)
        };
        let mut batch = self
            .batch
            .lock()
            .take()
            .expect("active transaction owns its batch");
        let chunks = &self.store.inner.chunks;

        // Stage everything into the private batch: removals, pickled
        // writes, the roots chunk. Pickling and (at append time) sealing
        // happen outside any store-wide critical path.
        let mut roots_undo = Vec::new();
        let staged = (|| -> Result<Vec<(ObjectId, usize)>> {
            let mut sizes = Vec::new();
            for oid in &sets.removed {
                batch.deallocate(ChunkId(*oid))?;
            }
            for (oid, cell) in &sets.written {
                if sets.removed.contains(oid) {
                    continue;
                }
                let bytes = pickle_object(&**cell.data.read());
                batch.write(ChunkId(*oid), &bytes)?;
                sizes.push((ChunkId(*oid), bytes.len()));
            }
            if !sets.root_updates.is_empty() {
                roots_undo = self
                    .store
                    .apply_root_updates(&sets.root_updates, &mut batch)?;
            }
            Ok(sizes)
        })();

        let sizes = match staged {
            Ok(sizes) => sizes,
            Err(e) => {
                // Roll back *this* transaction only: its batch and its
                // root updates. Other transactions' staged writes live in
                // their own batches and are untouched.
                self.store.revert_roots(roots_undo);
                batch.discard();
                self.abort_with_sets(sets);
                return Err(e);
            }
        };

        // Append the batch's commit record to the log — the commit point.
        let ticket = match chunks.append_batch(batch, durability) {
            Ok(ticket) => ticket,
            Err(e) => {
                self.store.revert_roots(roots_undo);
                self.abort_with_sets(sets);
                return Err(e.into());
            }
        };

        for (oid, cell) in sets.written.iter() {
            // Stamp the commit sequence *before* clearing dirty: a snapshot
            // reader that observes `!dirty` must also observe a version
            // that tells it whether its snapshot predates this commit. The
            // stamp is per object: in a sharded store each shard has its
            // own sequence space, so the version must be the sequence the
            // object's *own* shard assigned to this commit.
            cell.version
                .store(ticket.seq_for(ChunkId(*oid)), Ordering::Release);
            cell.dirty.store(false, Ordering::Release);
        }
        for oid in &sets.removed {
            self.store.evict_cell(ChunkId(*oid));
        }
        for (oid, size) in sizes {
            self.store.update_cell_size(oid, size);
        }
        // Release our Arc clones before the eviction pass, or the
        // just-committed cells look externally referenced.
        drop(sets);
        // Strict 2PL releases at the commit point (our records are in the
        // log), *before* waiting out group durability: any later
        // transaction that reads our writes appends after us in log
        // order, so the durable anchor that covers it covers us first.
        self.finish();
        let result = chunks.wait_durable(ticket);
        self.store.evict_pass();
        result.map_err(Into::into)
    }

    /// Undo all changes made during the transaction (paper Fig. 3:
    /// `abort`). "The object store evicts all objects opened for writing
    /// from the cache, deallocates the chunk ids corresponding to the
    /// objects inserted, and releases all locks." (§4.2.3)
    pub fn abort(self) {
        let sets = {
            let mut sets = self.core.sets.lock();
            std::mem::take(&mut *sets)
        };
        self.abort_with_sets(sets);
    }

    fn abort_with_sets(&self, sets: TxnSets) {
        // Dropping the batch discards its staged operations and returns
        // its allocated ids to the free pool (no-op if commit already
        // consumed it).
        drop(self.batch.lock().take());
        for (oid, _) in sets.written {
            self.store.evict_cell(ChunkId(oid));
        }
        self.store
            .inner
            .chunks
            .release_unwritten_ids(&sets.inserted);
        self.finish();
    }

    /// Common end-of-transaction path: invalidate refs, release locks.
    fn finish(&self) {
        self.core.active.store(false, Ordering::Release);
        if self.store.locking() {
            self.store.inner.locks.release_all(self.core.id);
        }
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        if self.is_active() {
            let sets = {
                let mut sets = self.core.sets.lock();
                std::mem::take(&mut *sets)
            };
            self.abort_with_sets(sets);
        }
    }
}
