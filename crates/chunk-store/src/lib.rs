//! The TDB **chunk store** — trusted storage on untrusted media (paper §3).
//!
//! The chunk store keeps a set of named, variable-sized byte sequences
//! (*chunks*) on storage the attacker fully controls, and guarantees:
//!
//! * **secrecy** — every stored byte (chunk payloads, location-map pages,
//!   commit records, the anchor) is encrypted with a key derived from the
//!   platform secret store;
//! * **tamper detection** — the whole database is covered by a Merkle hash
//!   tree embedded in the hierarchical location map; the root hash, together
//!   with the current one-way counter value, is MAC'd into a small *trusted
//!   anchor*. Any modification of the untrusted store is detected on read
//!   ([`ChunkStoreError::TamperDetected`]), and replaying an old copy of the
//!   whole database is detected against the one-way counter
//!   ([`ChunkStoreError::ReplayDetected`]);
//! * **atomicity** — any number of writes/deallocations group into a commit
//!   that is atomic with respect to crashes. Commits may be *durable* or
//!   *nondurable* (§3.2.2): a nondurable commit is guaranteed **not** to
//!   survive a crash until a later durable commit completes;
//! * **log-structured storage** (§3.2.1) — the log is the *only* storage;
//!   committed chunk versions are appended, never updated in place, which
//!   frustrates traffic analysis and makes copy-on-write snapshots (and
//!   therefore incremental backups) cheap. A cleaner reclaims obsolete chunk
//!   versions, bounded by a maximum-utilization knob; if cleaning cannot
//!   free enough space the store grows instead (§3.2.1).
//!
//! ```
//! use chunk_store::{ChunkStore, ChunkStoreConfig, Durability};
//! use tdb_platform::{MemStore, MemSecretStore, VolatileCounter};
//! use std::sync::Arc;
//!
//! let store = ChunkStore::create(
//!     Arc::new(MemStore::new()),
//!     &MemSecretStore::from_label("doc-test"),
//!     Arc::new(VolatileCounter::new()),
//!     ChunkStoreConfig::default(),
//! ).unwrap();
//!
//! // The paper's Fig. 2 operations live on a per-transaction `WriteBatch`.
//! let mut batch = store.begin_batch();
//! let id = batch.allocate_chunk_id().unwrap();
//! batch.write(id, b"pay-per-view meter: 3").unwrap();
//! assert_eq!(batch.read(id).unwrap(), b"pay-per-view meter: 3");
//! store.commit_batch(batch, Durability::Durable).unwrap();
//! assert_eq!(store.read(id).unwrap(), b"pay-per-view meter: 3");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anchor;
pub mod cleaner;
pub mod config;
pub mod crypto_ctx;
pub mod error;
pub mod ids;
pub mod layout;
pub(crate) mod maintenance;
pub mod map;
pub mod proof;
pub mod recovery;
pub mod segment;
pub mod sharded;
pub mod snapshot;
pub mod stats;
pub mod store;

pub use config::{ChunkStoreConfig, SecurityMode};
pub use error::{ChunkStoreError, Result};
pub use ids::{ChunkId, SegmentId};
pub use map::Location;
pub use proof::{ProofBookmark, Proven};
pub use recovery::RecoveryReport;
pub use sharded::{ShardedChunkStore, ShardedCommitTicket, ShardedSnapshot, ShardedWriteBatch};
pub use snapshot::{Snapshot, SnapshotDiff};
pub use stats::StatsSnapshot;
pub use store::{ChunkStore, CommitTicket, WriteBatch};
pub use tdb_core::Durability;
