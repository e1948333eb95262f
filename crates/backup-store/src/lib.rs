//! The TDB **backup store** (paper §2, detailed in the OSDI'00 companion
//! paper \[23\]).
//!
//! "The backup store creates and securely restores database backups, which
//! can be either full or incremental. The backup store restores only valid
//! backups. In addition, it restores incremental backups in the same
//! sequence as they were created. Backups are created using the database
//! snapshots provided by the chunk store."
//!
//! * A **full backup** serializes every chunk of a copy-on-write snapshot.
//! * An **incremental backup** serializes only the chunks whose location-map
//!   entries changed since the previous backup's snapshot — computed by the
//!   chunk store's subtree-hash-pruned snapshot diff, which is why frequent
//!   small backups are cheap (§3.2.1).
//! * Every backup stream is encrypted and MAC'd under keys derived from the
//!   platform secret with a backup-specific domain, so the archival store is
//!   trusted for nothing. Restore refuses invalid MACs, gaps, reordered or
//!   cross-database streams.
//!
//! Every entry point takes the one [`ChunkStore`](chunk_store::ChunkStore)
//! type. Backups list and read chunks by the store's global ids; a restore
//! installs them at those exact ids into one log, so its target must be a
//! fresh store with one shard (a store of several refuses, naming the
//! operation and the shard count).
//!
//! ```
//! use backup_store::BackupManager;
//! use chunk_store::{ChunkStore, ChunkStoreConfig, Durability};
//! use tdb_platform::{MemArchive, MemSecretStore, MemStore, VolatileCounter};
//! use std::sync::Arc;
//!
//! let secret = MemSecretStore::from_label("backup-doc");
//! let store = ChunkStore::create(
//!     Arc::new(MemStore::new()), &secret,
//!     Arc::new(VolatileCounter::new()), ChunkStoreConfig::default()).unwrap();
//! let mut batch = store.begin_batch();
//! let id = batch.allocate_chunk_id().unwrap();
//! batch.write(id, b"meter").unwrap();
//! store.commit_batch(batch, Durability::Durable).unwrap();
//!
//! let archive = Arc::new(MemArchive::new());
//! let mut mgr = BackupManager::new(archive.clone(), &secret,
//!     chunk_store::SecurityMode::Full).unwrap();
//! let name = mgr.backup_full(&store).unwrap();
//!
//! // Restore into a fresh device.
//! let restored = ChunkStore::create(
//!     Arc::new(MemStore::new()), &secret,
//!     Arc::new(VolatileCounter::new()), ChunkStoreConfig::default()).unwrap();
//! BackupManager::restore_chain(&*archive, &secret,
//!     chunk_store::SecurityMode::Full, &[name], &restored).unwrap();
//! assert_eq!(restored.read(id).unwrap(), b"meter");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod format;
pub mod manager;

pub use error::{BackupError, Result};
pub use format::{BackupKind, BackupPayload};
pub use manager::BackupManager;
