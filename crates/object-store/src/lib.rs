//! The TDB **object store** (paper §4): type-safe, transactional storage of
//! application objects over the trusted chunk store.
//!
//! The C++ original stores application-defined classes directly, using
//! explicit pickling, smart-pointer `Ref`s that are invalidated when their
//! transaction ends, strict two-phase locking with a deadlock-breaking
//! timeout, and an LRU object cache with a no-steal policy (dirty objects
//! are pinned until commit). This Rust reproduction maps each mechanism:
//!
//! | paper (C++)                         | here (Rust)                            |
//! |-------------------------------------|----------------------------------------|
//! | subclass of `Object` + class id     | [`Persistent`] trait + [`ClassId`]     |
//! | registered unpickling constructor   | [`ClassRegistry::register`]            |
//! | `ReadonlyRef<T>` / `WritableRef<T>` | [`ReadonlyRef`] / [`WritableRef`] whose `get`/`get_mut` fail after the transaction ends |
//! | runtime-checked `Ref` subtyping     | checked downcast at `open_*::<T>`      |
//! | strict 2PL, shared/exclusive locks  | [`locks::LockManager`] with timeout    |
//! | object cache, no-steal, pinning     | [`store::ObjectStore`] LRU cache       |
//! | one object per chunk (§4.2.1)       | `ObjectId` *is* the `ChunkId`          |
//!
//! There is one way in: [`ObjectStore::create`] / [`ObjectStore::open`]
//! over an `Arc<`[`ChunkStore`](chunk_store::ChunkStore)`>` of any shard
//! count. Object ids are the store's global chunk ids, so nothing here
//! knows how many shards lie underneath; with several, only version stamps
//! are per shard ([`Snapshot::seq_for`](chunk_store::Snapshot::seq_for)).
//!
//! ```
//! use object_store::{ClassRegistry, ObjectStore, ObjectStoreConfig, Persistent, Pickler,
//!                    Unpickler, PickleError, impl_persistent_boilerplate};
//! use chunk_store::{ChunkStore, ChunkStoreConfig, Durability};
//! use tdb_platform::{MemStore, MemSecretStore, VolatileCounter};
//! use std::sync::Arc;
//!
//! struct Meter { views: u32 }
//! impl Persistent for Meter {
//!     impl_persistent_boilerplate!(0x4d45_5445); // "METE"
//!     fn pickle(&self, w: &mut Pickler) { w.u32(self.views); }
//! }
//! fn unpickle_meter(r: &mut Unpickler) -> Result<Box<dyn Persistent>, PickleError> {
//!     Ok(Box::new(Meter { views: r.u32()? }))
//! }
//!
//! let chunks = Arc::new(ChunkStore::create(
//!     Arc::new(MemStore::new()), &MemSecretStore::from_label("os-doc"),
//!     Arc::new(VolatileCounter::new()), ChunkStoreConfig::default()).unwrap());
//! let mut registry = ClassRegistry::new();
//! registry.register(0x4d45_5445, "Meter", unpickle_meter);
//! let store = ObjectStore::create(chunks, registry, ObjectStoreConfig::default()).unwrap();
//!
//! let txn = store.begin();
//! let id = txn.insert(Box::new(Meter { views: 0 })).unwrap();
//! txn.commit(Durability::Durable).unwrap();
//!
//! let txn = store.begin();
//! let meter = txn.open_writable::<Meter>(id).unwrap();
//! meter.get_mut().views += 1;
//! drop(meter);
//! txn.commit(Durability::Durable).unwrap();
//!
//! // Snapshot-isolated read: no locks, unaffected by later commits.
//! let reader = store.begin_read();
//! assert_eq!(reader.read::<Meter, _>(id, |m| m.views).unwrap(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod class;
pub mod error;
pub mod locks;
pub mod pickle;
pub mod read_txn;
pub mod reader;
pub mod refs;
pub mod store;
pub mod txn;

pub use chunk_store::{ChunkId, Durability, Proven};
pub use class::{pickle_object, ClassId, ClassRegistry, Persistent, UnpickleFn};
pub use error::{ObjectStoreError, Result};
pub use locks::LockMode;
pub use pickle::{PickleError, Pickler, Unpickler};
pub use read_txn::ReadTransaction;
pub use reader::ObjectReader;
pub use refs::{ReadonlyRef, WritableRef};
pub use store::{CacheStats, ObjectStore, ObjectStoreConfig, StoreOptions};
pub use txn::Transaction;

/// The persistent name of an object. TDB stores one object per chunk, so an
/// object's id *is* its chunk's id (paper §4.2.1).
pub type ObjectId = ChunkId;
