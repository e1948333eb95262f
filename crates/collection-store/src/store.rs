//! The `CollectionStore`: the top of the TDB stack.

use crate::ctxn::{CTransaction, IndexCounters};
use crate::error::Result;
use crate::extractor::ExtractorRegistry;
use crate::meta::{register_internal_classes, DirectoryObj, DIRECTORY_ROOT};
use crate::read::ReadCTransaction;
use chunk_store::{ChunkStore, Durability};
use object_store::{ClassRegistry, ObjectStore, ObjectStoreConfig};
use std::sync::Arc;

/// The collection store. Owns the object store (and through it, the chunk
/// store) plus the application's extractor registry.
#[derive(Clone)]
pub struct CollectionStore {
    objects: ObjectStore,
    extractors: Arc<ExtractorRegistry>,
    obs: Arc<IndexCounters>,
}

impl CollectionStore {
    /// Create a collection store over a **fresh** chunk store. The
    /// collection store registers its internal classes (collection
    /// directory, collection objects, index nodes) into the application's
    /// class registry.
    pub fn create(
        chunks: Arc<ChunkStore>,
        mut classes: ClassRegistry,
        extractors: ExtractorRegistry,
        cfg: ObjectStoreConfig,
    ) -> Result<Self> {
        register_internal_classes(&mut classes);
        let objects = ObjectStore::create(chunks, classes, cfg)?;
        let txn = objects.begin();
        let dir = txn.insert(Box::new(DirectoryObj {
            entries: Vec::new(),
        }))?;
        txn.set_root(DIRECTORY_ROOT, dir)?;
        txn.commit(Durability::Durable)?;
        let obs = Arc::new(IndexCounters::with_registry(&objects.obs()));
        Ok(CollectionStore {
            objects,
            extractors: Arc::new(extractors),
            obs,
        })
    }

    /// Open an existing collection store.
    pub fn open(
        chunks: Arc<ChunkStore>,
        mut classes: ClassRegistry,
        extractors: ExtractorRegistry,
        cfg: ObjectStoreConfig,
    ) -> Result<Self> {
        register_internal_classes(&mut classes);
        let objects = ObjectStore::open(chunks, classes, cfg)?;
        let obs = Arc::new(IndexCounters::with_registry(&objects.obs()));
        Ok(CollectionStore {
            objects,
            extractors: Arc::new(extractors),
            obs,
        })
    }

    /// Start a collection-store transaction.
    pub fn begin(&self) -> CTransaction {
        CTransaction::new(
            self.objects.begin(),
            self.extractors.clone(),
            self.obs.clone(),
        )
    }

    /// Start a snapshot-isolated read-only transaction: collection lookups
    /// and scans against a pinned snapshot, with zero locks. Concurrent
    /// writers and the log cleaner do not affect what this reader sees.
    pub fn begin_read(&self) -> ReadCTransaction {
        ReadCTransaction::new(self.objects.begin_read(), self.obs.clone())
    }

    /// The underlying object store (for direct typed-object work alongside
    /// collections — e.g. registering application roots).
    pub fn object_store(&self) -> &ObjectStore {
        &self.objects
    }

    /// The underlying chunk store (snapshots, backups, stats).
    pub fn chunk_store(&self) -> &Arc<ChunkStore> {
        self.objects.chunk_store()
    }
}
