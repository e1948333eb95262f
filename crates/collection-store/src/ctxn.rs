//! Collection-store transactions (paper Fig. 5).
//!
//! "Collection store applications are required to use the `CTransaction`
//! class which, unlike the `Transaction` class, does not provide methods to
//! directly create, update and delete objects" (§5.2.2, constraint 1) —
//! which is why the wrapped object-store transaction is crate-private:
//! writable references to collection objects can only be obtained by
//! dereferencing an iterator.
//!
//! Concurrency-wise a `CTransaction` is self-contained: the wrapped
//! object-store transaction carries its own chunk-level `WriteBatch`, so
//! collection mutations (objects, index nodes, directory updates) stage
//! privately and only meet other transactions at the log-tail append and
//! the shared group-commit round. A failed or aborted `CTransaction`
//! discards just its own staged writes.

use crate::collection::{self, Collection};
use crate::error::{CollectionError, Result};
use crate::extractor::ExtractorRegistry;
use crate::meta::{CollectionObj, DirectoryObj, IndexSpec, DIRECTORY_ROOT};
use crate::ObjectId;
use object_store::{Durability, Transaction};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use tdb_obs::{Counter, Registry};

/// Index-operation counters, registered as `index.*` in the stack's
/// observability registry. Resolved once per [`CollectionStore`] and shared
/// by every transaction, so incrementing is a single relaxed atomic add.
///
/// [`CollectionStore`]: crate::CollectionStore
pub(crate) struct IndexCounters {
    pub(crate) inserts: Counter,
    pub(crate) removes: Counter,
    pub(crate) lookups: Counter,
    pub(crate) scans: Counter,
    /// Objects processed by deferred index maintenance (§5.2.3).
    pub(crate) maintenance: Counter,
}

impl IndexCounters {
    pub(crate) fn with_registry(registry: &Registry) -> Self {
        IndexCounters {
            inserts: registry.counter("index.inserts"),
            removes: registry.counter("index.removes"),
            lookups: registry.counter("index.lookups"),
            scans: registry.counter("index.scans"),
            maintenance: registry.counter("index.maintenance"),
        }
    }
}

/// A collection-store transaction.
pub struct CTransaction {
    pub(crate) txn: Transaction,
    pub(crate) extractors: Arc<ExtractorRegistry>,
    /// Open iterators per collection (insensitivity constraint 2).
    pub(crate) iters: RefCell<HashMap<u64, usize>>,
    pub(crate) obs: Arc<IndexCounters>,
}

impl CTransaction {
    pub(crate) fn new(
        txn: Transaction,
        extractors: Arc<ExtractorRegistry>,
        obs: Arc<IndexCounters>,
    ) -> Self {
        CTransaction {
            txn,
            extractors,
            iters: RefCell::new(HashMap::new()),
            obs,
        }
    }

    /// Commit in the given durability mode.
    pub fn commit(self, durability: Durability) -> Result<()> {
        self.txn.commit(durability).map_err(CollectionError::from)
    }

    /// Abort the transaction.
    pub fn abort(self) {
        self.txn.abort()
    }

    fn directory_id(&self) -> Result<ObjectId> {
        self.txn
            .root(DIRECTORY_ROOT)
            .ok_or_else(|| CollectionError::NoSuchCollection("<directory missing>".into()))
    }

    pub(crate) fn lookup_collection(&self, name: &str) -> Result<Option<ObjectId>> {
        let dir_id = self.directory_id()?;
        let dir = self.txn.open_readonly::<DirectoryObj>(dir_id)?;
        let found = dir.get().get(name);
        Ok(found)
    }

    /// Create a named collection with the given indexes (at least one —
    /// paper Fig. 5's `createCollection` takes an indexer). Returns a
    /// writable handle.
    pub fn create_collection(&self, name: &str, specs: &[IndexSpec]) -> Result<Collection<'_>> {
        if specs.is_empty() {
            return Err(CollectionError::NeedsIndex(name.to_string()));
        }
        if self.lookup_collection(name)?.is_some() {
            return Err(CollectionError::CollectionExists(name.to_string()));
        }
        for (i, spec) in specs.iter().enumerate() {
            self.extractors.get(&spec.extractor)?;
            if specs[..i].iter().any(|s| s.name == spec.name) {
                return Err(CollectionError::IndexExists(spec.name.clone()));
            }
        }
        let mut indexes = Vec::with_capacity(specs.len());
        for spec in specs {
            let root = collection::create_index_root(self, spec.kind)?;
            indexes.push(crate::meta::IndexMeta {
                spec: spec.clone(),
                root,
            });
        }
        let coll_id = self.txn.insert(Box::new(CollectionObj {
            name: name.to_string(),
            indexes,
            count: 0,
        }))?;
        let dir_id = self.directory_id()?;
        {
            let dir = self.txn.open_writable::<DirectoryObj>(dir_id)?;
            dir.get_mut().entries.push((name.to_string(), coll_id));
        }
        Ok(Collection::new(self, coll_id, name.to_string(), true))
    }

    /// Read-only handle to an existing collection (paper: `readCollection`).
    pub fn read_collection(&self, name: &str) -> Result<Collection<'_>> {
        let oid = self
            .lookup_collection(name)?
            .ok_or_else(|| CollectionError::NoSuchCollection(name.to_string()))?;
        Ok(Collection::new(self, oid, name.to_string(), false))
    }

    /// Writable handle to an existing collection (paper: `writeCollection`).
    pub fn write_collection(&self, name: &str) -> Result<Collection<'_>> {
        let oid = self
            .lookup_collection(name)?
            .ok_or_else(|| CollectionError::NoSuchCollection(name.to_string()))?;
        Ok(Collection::new(self, oid, name.to_string(), true))
    }

    /// Remove a collection "along with all objects that were previously
    /// inserted into the collection" (paper Fig. 5).
    pub fn remove_collection(&self, name: &str) -> Result<()> {
        let oid = self
            .lookup_collection(name)?
            .ok_or_else(|| CollectionError::NoSuchCollection(name.to_string()))?;
        collection::destroy_collection(self, oid)?;
        let dir_id = self.directory_id()?;
        let dir = self.txn.open_writable::<DirectoryObj>(dir_id)?;
        dir.get_mut().entries.retain(|(n, _)| n != name);
        Ok(())
    }

    /// Register (or update) a named root object id (applied at commit).
    pub fn set_root(&self, name: &str, oid: ObjectId) -> Result<()> {
        self.txn.set_root(name, oid).map_err(CollectionError::from)
    }

    /// Read a named root, seeing this transaction's pending updates.
    pub fn root(&self, name: &str) -> Option<ObjectId> {
        self.txn.root(name)
    }

    /// Unregister a named root (applied at commit).
    pub fn remove_root(&self, name: &str) -> Result<()> {
        self.txn.remove_root(name).map_err(CollectionError::from)
    }

    /// Names of all collections.
    pub fn collection_names(&self) -> Result<Vec<String>> {
        let dir_id = self.directory_id()?;
        let dir = self.txn.open_readonly::<DirectoryObj>(dir_id)?;
        let mut names: Vec<String> = dir.get().entries.iter().map(|(n, _)| n.clone()).collect();
        names.sort();
        Ok(names)
    }

    /// The underlying object-store transaction. Session layers use it for
    /// untyped byte-level object access; the collection invariants still
    /// apply — mutate collection members through
    /// [`Collection::update_object_bytes`](crate::Collection::update_object_bytes),
    /// not directly, so index maintenance runs.
    pub fn object_txn(&self) -> &Transaction {
        &self.txn
    }

    // -- iterator registry (insensitivity constraint 2) -----------------

    pub(crate) fn register_iter(&self, coll: ObjectId) {
        *self.iters.borrow_mut().entry(coll.0).or_insert(0) += 1;
    }

    pub(crate) fn unregister_iter(&self, coll: ObjectId) {
        let mut iters = self.iters.borrow_mut();
        if let Some(count) = iters.get_mut(&coll.0) {
            *count -= 1;
            if *count == 0 {
                iters.remove(&coll.0);
            }
        }
    }

    pub(crate) fn open_iters_on(&self, coll: ObjectId) -> usize {
        self.iters.borrow().get(&coll.0).copied().unwrap_or(0)
    }
}
