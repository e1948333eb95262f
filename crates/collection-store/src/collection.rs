//! The `Collection` handle: inserts, index management, queries (paper
//! Fig. 6), and the deferred index-maintenance engine (§5.2.3).

use crate::btree;
use crate::ctxn::CTransaction;
use crate::dynhash;
use crate::error::{CollectionError, Result};
use crate::iterator::CIter;
use crate::key::Key;
use crate::listindex;
use crate::meta::{CollectionObj, IndexKind, IndexMeta, IndexSpec};
use crate::ObjectId;
use object_store::Persistent;
use std::ops::Bound;

/// A handle to a named collection within a [`CTransaction`].
pub struct Collection<'t> {
    ct: &'t CTransaction,
    oid: ObjectId,
    name: String,
    writable: bool,
}

// ---------------------------------------------------------------------------
// Index dispatch
// ---------------------------------------------------------------------------

pub(crate) fn create_index_root(ct: &CTransaction, kind: IndexKind) -> Result<ObjectId> {
    let txn = &ct.txn;
    match kind {
        IndexKind::BTree => btree::create(txn),
        IndexKind::Hash => dynhash::create(txn),
        IndexKind::List => listindex::create(txn),
    }
}

/// Insert into an index; returns `Some(new_root)` if the root object
/// changed (B-tree splits).
fn idx_insert(
    ct: &CTransaction,
    kind: IndexKind,
    root: ObjectId,
    key: Key,
    oid: ObjectId,
) -> Result<Option<ObjectId>> {
    ct.obs.inserts.inc();
    let txn = &ct.txn;
    match kind {
        IndexKind::BTree => btree::insert(txn, root, key, oid),
        IndexKind::Hash => {
            dynhash::insert(txn, root, key, oid)?;
            Ok(None)
        }
        IndexKind::List => {
            listindex::insert(txn, root, key, oid)?;
            Ok(None)
        }
    }
}

fn idx_remove(
    ct: &CTransaction,
    kind: IndexKind,
    root: ObjectId,
    key: &Key,
    oid: ObjectId,
) -> Result<bool> {
    ct.obs.removes.inc();
    let txn = &ct.txn;
    match kind {
        IndexKind::BTree => btree::remove(txn, root, key, oid),
        IndexKind::Hash => dynhash::remove(txn, root, key, oid),
        IndexKind::List => listindex::remove(txn, root, key, oid),
    }
}

fn idx_lookup(
    ct: &CTransaction,
    kind: IndexKind,
    root: ObjectId,
    key: &Key,
) -> Result<Vec<ObjectId>> {
    ct.obs.lookups.inc();
    let txn = &ct.txn;
    match kind {
        IndexKind::BTree => btree::lookup(txn, root, key),
        IndexKind::Hash => dynhash::lookup(txn, root, key),
        IndexKind::List => listindex::lookup(txn, root, key),
    }
}

fn idx_scan(ct: &CTransaction, kind: IndexKind, root: ObjectId) -> Result<Vec<(Key, ObjectId)>> {
    ct.obs.scans.inc();
    let txn = &ct.txn;
    match kind {
        IndexKind::BTree => btree::scan(txn, root),
        IndexKind::Hash => dynhash::scan(txn, root),
        IndexKind::List => listindex::scan(txn, root),
    }
}

fn idx_destroy(ct: &CTransaction, kind: IndexKind, root: ObjectId) -> Result<()> {
    let txn = &ct.txn;
    match kind {
        IndexKind::BTree => btree::destroy(txn, root),
        IndexKind::Hash => dynhash::destroy(txn, root),
        IndexKind::List => listindex::destroy(txn, root),
    }
}

// ---------------------------------------------------------------------------
// Shared helpers over the collection object
// ---------------------------------------------------------------------------

pub(crate) fn load_metas(ct: &CTransaction, coll: ObjectId) -> Result<Vec<IndexMeta>> {
    let c = ct.txn.open_readonly::<CollectionObj>(coll)?;
    let metas = c.get().indexes.clone();
    Ok(metas)
}

fn update_root(
    ct: &CTransaction,
    coll: ObjectId,
    index_name: &str,
    new_root: ObjectId,
) -> Result<()> {
    let c = ct.txn.open_writable::<CollectionObj>(coll)?;
    let mut c = c.get_mut();
    if let Some(meta) = c.indexes.iter_mut().find(|m| m.spec.name == index_name) {
        meta.root = new_root;
    }
    Ok(())
}

/// Compute index keys for an object (the "key snapshot" of §5.2.3).
/// Indexes declared immutable are skipped (`None`) unless
/// `include_immutable` — the paper's storage-saving optimization for
/// iterator snapshots, where immutable keys never need re-checking.
pub(crate) fn key_snapshot(
    ct: &CTransaction,
    coll_name: &str,
    metas: &[IndexMeta],
    oid: ObjectId,
    include_immutable: bool,
) -> Result<Vec<Option<Key>>> {
    let extractors: Vec<Option<crate::extractor::ExtractorFn>> = metas
        .iter()
        .map(|m| {
            if m.spec.immutable && !include_immutable {
                Ok(None)
            } else {
                ct.extractors.get(&m.spec.extractor).map(Some)
            }
        })
        .collect::<Result<_>>()?;
    let keys: std::result::Result<Vec<Option<Key>>, u32> = ct.txn.with_readonly(oid, |obj| {
        extractors
            .iter()
            .map(|f| match f {
                Some(f) => f(obj).ok_or(obj.class_id()).map(Some),
                None => Ok(None),
            })
            .collect()
    })?;
    keys.map_err(|class_id| CollectionError::SchemaMismatch {
        collection: coll_name.to_string(),
        class_id,
    })
}

/// Remove every member object and index structure (paper Fig. 5:
/// `removeCollection`).
pub(crate) fn destroy_collection(ct: &CTransaction, coll: ObjectId) -> Result<()> {
    let metas = load_metas(ct, coll)?;
    let members = idx_scan(ct, metas[0].spec.kind, metas[0].root)?;
    for (_, member) in members {
        ct.txn.remove(member)?;
    }
    for meta in &metas {
        idx_destroy(ct, meta.spec.kind, meta.root)?;
    }
    ct.txn.remove(coll)?;
    Ok(())
}

impl<'t> Collection<'t> {
    pub(crate) fn new(ct: &'t CTransaction, oid: ObjectId, name: String, writable: bool) -> Self {
        Collection {
            ct,
            oid,
            name,
            writable,
        }
    }

    /// Collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Object id of the collection object itself.
    pub fn id(&self) -> ObjectId {
        self.oid
    }

    /// Number of member objects, derived by counting the first index —
    /// a per-insert persistent counter would double every insert's write
    /// volume, which the paper's 523-bytes-per-transaction profile (§7.4)
    /// clearly does not pay.
    pub fn len(&self) -> Result<u64> {
        let metas = load_metas(self.ct, self.oid)?;
        match metas[0].spec.kind {
            IndexKind::BTree => btree::count(&self.ct.txn, metas[0].root),
            _ => Ok(idx_scan(self.ct, metas[0].spec.kind, metas[0].root)?.len() as u64),
        }
    }

    /// Whether the collection has no members.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Names of the indexes on this collection.
    pub fn index_names(&self) -> Result<Vec<String>> {
        Ok(load_metas(self.ct, self.oid)?
            .into_iter()
            .map(|m| m.spec.name)
            .collect())
    }

    fn require_writable(&self) -> Result<()> {
        if self.writable {
            Ok(())
        } else {
            Err(CollectionError::ReadOnlyCollection(self.name.clone()))
        }
    }

    fn meta_named(&self, index: &str) -> Result<IndexMeta> {
        load_metas(self.ct, self.oid)?
            .into_iter()
            .find(|m| m.spec.name == index)
            .ok_or_else(|| CollectionError::NoSuchIndex(index.to_string()))
    }

    /// Insert an object into the collection (paper Fig. 6: `insert`).
    /// The object is stored in the object store and entered into every
    /// index; uniqueness violations reject the insert atomically. The
    /// member leaves the object cache when the transaction commits (its
    /// index nodes stay): a record written once, like a transfer's history
    /// entry, would otherwise hold cache and memory nobody reads.
    pub fn insert(&self, object: Box<dyn Persistent>) -> Result<ObjectId> {
        self.require_writable()?;
        let metas = load_metas(self.ct, self.oid)?;
        // Compute keys before inserting so a schema mismatch costs nothing.
        let mut keys = Vec::with_capacity(metas.len());
        for meta in &metas {
            let extractor = self.ct.extractors.get(&meta.spec.extractor)?;
            let key = extractor(&*object).ok_or_else(|| CollectionError::SchemaMismatch {
                collection: self.name.clone(),
                class_id: object.class_id(),
            })?;
            keys.push(key);
        }
        // Uniqueness pre-check.
        for (meta, key) in metas.iter().zip(&keys) {
            if meta.spec.unique && !idx_lookup(self.ct, meta.spec.kind, meta.root, key)?.is_empty()
            {
                return Err(CollectionError::DuplicateKey {
                    index: meta.spec.name.clone(),
                });
            }
        }
        let oid = self.ct.txn.insert_uncached(object)?;
        for (meta, key) in metas.iter().zip(keys) {
            if let Some(new_root) = idx_insert(self.ct, meta.spec.kind, meta.root, key, oid)? {
                update_root(self.ct, self.oid, &meta.spec.name, new_root)?;
            }
        }
        Ok(oid)
    }

    /// Insert a pickled object (the class id is embedded in the pickle).
    /// Byte-level twin of [`Collection::insert`] for session layers that
    /// receive objects off the wire.
    pub fn insert_bytes(&self, bytes: &[u8]) -> Result<ObjectId> {
        let object = self.ct.txn.unpickle(bytes)?;
        self.insert(object)
    }

    /// Lock a member exclusively and return its pickled bytes, beginning a
    /// byte-level read-modify-write that [`Collection::update_object_bytes`]
    /// completes. The exclusive 2PL lock held in between keeps the
    /// pre-update index keys stable even though the snapshot is taken at
    /// write-back time.
    pub fn get_for_update(&self, oid: ObjectId) -> Result<Vec<u8>> {
        self.require_writable()?;
        if self.ct.open_iters_on(self.oid) != 0 {
            return Err(CollectionError::IteratorConflict);
        }
        Ok(self.ct.txn.open_writable_bytes(oid)?)
    }

    /// Replace a member object from pickled bytes and immediately run
    /// index maintenance for it (pre-update keys are snapshotted before
    /// the swap, post-update keys after — the same protocol an iterator's
    /// `write()` + `close()` performs, compressed into one call).
    ///
    /// The exclusive lock is taken *before* the key snapshot, mirroring
    /// `CIter::write`'s deadlock-avoidance ordering. Callers that obtained
    /// the bytes via [`Collection::get_for_update`] already hold the lock,
    /// so the snapshot still observes the pre-update state.
    pub fn update_object_bytes(&self, oid: ObjectId, bytes: &[u8]) -> Result<()> {
        self.require_writable()?;
        if self.ct.open_iters_on(self.oid) != 0 {
            return Err(CollectionError::IteratorConflict);
        }
        let metas = load_metas(self.ct, self.oid)?;
        // Lock first (no-op if get_for_update already holds it), then
        // snapshot pre-update keys while the old contents are still in
        // place.
        self.ct.txn.open_writable_bytes(oid)?;
        let pre = key_snapshot(self.ct, &self.name, &metas, oid, false)?;
        self.ct.txn.replace_bytes(oid, bytes)?;
        maintain(self.ct, self.oid, &self.name, vec![(oid, pre)], vec![])
    }

    /// Exact-match lookup returning raw object ids (no iterator is
    /// registered, so this composes with byte-level updates).
    pub fn lookup_ids(&self, index: &str, key: &Key) -> Result<Vec<ObjectId>> {
        let meta = self.meta_named(index)?;
        idx_lookup(self.ct, meta.spec.kind, meta.root, key)
    }

    /// Read a member's pickled bytes under a shared lock.
    pub fn read_object_bytes(&self, oid: ObjectId) -> Result<Vec<u8>> {
        Ok(self.ct.txn.read_object_bytes(oid)?)
    }

    /// Create a new index over the existing members (paper Fig. 6:
    /// `createIndex`). "Raises an exception if indexer specifies an unique
    /// index and any of the objects in the collection violates uniqueness."
    pub fn create_index(&self, spec: IndexSpec) -> Result<()> {
        self.require_writable()?;
        let metas = load_metas(self.ct, self.oid)?;
        if metas.iter().any(|m| m.spec.name == spec.name) {
            return Err(CollectionError::IndexExists(spec.name));
        }
        let extractor = self.ct.extractors.get(&spec.extractor)?;
        let members = idx_scan(self.ct, metas[0].spec.kind, metas[0].root)?;
        let mut root = create_index_root(self.ct, spec.kind)?;
        let build = (|| -> Result<ObjectId> {
            let mut seen = std::collections::BTreeSet::new();
            for (_, member) in &members {
                let key = self
                    .ct
                    .txn
                    .with_readonly(*member, |obj| extractor(obj).ok_or(obj.class_id()))?
                    .map_err(|class_id| CollectionError::SchemaMismatch {
                        collection: self.name.clone(),
                        class_id,
                    })?;
                if spec.unique && !seen.insert(key.clone()) {
                    return Err(CollectionError::DuplicateKey {
                        index: spec.name.clone(),
                    });
                }
                if let Some(new_root) = idx_insert(self.ct, spec.kind, root, key, *member)? {
                    root = new_root;
                }
            }
            Ok(root)
        })();
        match build {
            Ok(root) => {
                let c = self.ct.txn.open_writable::<CollectionObj>(self.oid)?;
                c.get_mut().indexes.push(IndexMeta { spec, root });
                Ok(())
            }
            Err(e) => {
                idx_destroy(self.ct, spec.kind, root)?;
                Err(e)
            }
        }
    }

    /// Remove an index (paper Fig. 6: `removeIndex`). "Raises an exception
    /// if there is only one index on the collection."
    pub fn remove_index(&self, index: &str) -> Result<()> {
        self.require_writable()?;
        let metas = load_metas(self.ct, self.oid)?;
        let meta = metas
            .iter()
            .find(|m| m.spec.name == index)
            .ok_or_else(|| CollectionError::NoSuchIndex(index.to_string()))?;
        if metas.len() <= 1 {
            return Err(CollectionError::LastIndex(index.to_string()));
        }
        idx_destroy(self.ct, meta.spec.kind, meta.root)?;
        let c = self.ct.txn.open_writable::<CollectionObj>(self.oid)?;
        c.get_mut().indexes.retain(|m| m.spec.name != index);
        Ok(())
    }

    // -- queries (paper Fig. 6: the three `query` overloads) -------------

    fn make_iter(&self, ids: Vec<ObjectId>) -> CIter<'t> {
        CIter::new(self.ct, self.oid, self.name.clone(), self.writable, ids)
    }

    /// Scan query: every member, in the index's natural order.
    pub fn scan(&self, index: &str) -> Result<CIter<'t>> {
        let meta = self.meta_named(index)?;
        let entries = idx_scan(self.ct, meta.spec.kind, meta.root)?;
        Ok(self.make_iter(entries.into_iter().map(|(_, id)| id).collect()))
    }

    /// Exact-match query.
    pub fn exact(&self, index: &str, key: &Key) -> Result<CIter<'t>> {
        let meta = self.meta_named(index)?;
        let ids = idx_lookup(self.ct, meta.spec.kind, meta.root, key)?;
        Ok(self.make_iter(ids))
    }

    /// Range query (`min..=max` with explicit bounds). Only ordered
    /// indexes (B-tree) support ranges.
    pub fn range(&self, index: &str, min: Bound<&Key>, max: Bound<&Key>) -> Result<CIter<'t>> {
        let meta = self.meta_named(index)?;
        match meta.spec.kind {
            IndexKind::BTree => {
                let entries = btree::range(&self.ct.txn, meta.root, min, max)?;
                Ok(self.make_iter(entries.into_iter().map(|(_, id)| id).collect()))
            }
            IndexKind::Hash | IndexKind::List => Err(CollectionError::UnsupportedQuery {
                index: index.to_string(),
                what: "range queries",
            }),
        }
    }

    /// Entry count of one index (diagnostics; should equal `len()` unless
    /// maintenance is pending in an open iterator).
    pub fn index_entry_count(&self, index: &str) -> Result<u64> {
        let meta = self.meta_named(index)?;
        match meta.spec.kind {
            IndexKind::BTree => btree::count(&self.ct.txn, meta.root),
            _ => Ok(idx_scan(self.ct, meta.spec.kind, meta.root)?.len() as u64),
        }
    }
}

// ---------------------------------------------------------------------------
// Deferred index maintenance (§5.2.3), invoked by iterator close.
// ---------------------------------------------------------------------------

/// Apply deferred updates and deletions from a closing iterator.
///
/// For each updated object the pre-update key snapshot is compared against
/// keys computed from the current (cached) object version; only affected
/// indexes are touched. Updates that violate a unique index cause the
/// offending object to be *removed from the collection* and reported.
pub(crate) fn maintain(
    ct: &CTransaction,
    coll: ObjectId,
    coll_name: &str,
    writes: Vec<(ObjectId, Vec<Option<Key>>)>,
    deletes: Vec<(ObjectId, Vec<Option<Key>>)>,
) -> Result<()> {
    let mut metas = load_metas(ct, coll)?;
    let mut violations: Vec<ObjectId> = Vec::new();
    ct.obs
        .maintenance
        .add((writes.len() + deletes.len()) as u64);

    'objects: for (oid, pre_keys) in writes {
        if deletes.iter().any(|(d, _)| *d == oid) {
            continue;
        }
        let post_keys = key_snapshot(ct, coll_name, &metas, oid, false)?;
        debug_assert_eq!(pre_keys.len(), post_keys.len());

        // Pass 1: check uniqueness for every changed key before touching
        // anything, so a violating object is removed cleanly. Immutable
        // indexes (snapshot `None`) cannot change by contract.
        for (i, meta) in metas.iter().enumerate() {
            let (Some(pre), Some(post)) = (&pre_keys[i], &post_keys[i]) else {
                continue;
            };
            if pre == post || !meta.spec.unique {
                continue;
            }
            let holders = idx_lookup(ct, meta.spec.kind, meta.root, post)?;
            if holders.iter().any(|h| *h != oid) {
                // Violation: remove the object from the collection under
                // its real current keys (including immutable ones).
                let all_keys = key_snapshot(ct, coll_name, &metas, oid, true)?;
                for (j, meta) in metas.iter().enumerate() {
                    // Entries live under the pre-update key where we have
                    // one; immutable keys equal the current extraction.
                    let key = pre_keys[j].as_ref().or(all_keys[j].as_ref()).expect("some");
                    idx_remove(ct, meta.spec.kind, meta.root, key, oid)?;
                }
                violations.push(oid);
                continue 'objects;
            }
        }
        // Pass 2: apply the redo — remove old entries, insert new ones.
        for (i, meta) in metas.iter_mut().enumerate() {
            let (Some(pre), Some(post)) = (&pre_keys[i], &post_keys[i]) else {
                continue;
            };
            if pre == post {
                continue;
            }
            idx_remove(ct, meta.spec.kind, meta.root, pre, oid)?;
            if let Some(new_root) = idx_insert(ct, meta.spec.kind, meta.root, post.clone(), oid)? {
                meta.root = new_root;
                update_root(ct, coll, &meta.spec.name.clone(), new_root)?;
            }
        }
    }

    for (oid, keys) in deletes {
        for (i, meta) in metas.iter().enumerate() {
            let key = keys[i].as_ref().expect("delete snapshots include all keys");
            idx_remove(ct, meta.spec.kind, meta.root, key, oid)?;
        }
        ct.txn.remove(oid)?;
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(CollectionError::UniquenessViolation {
            removed: violations,
        })
    }
}
