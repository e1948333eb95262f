//! Footprint probe: chunk store + backup store.
use backup_store::BackupManager;
use chunk_store::Durability;
use chunk_store::{ChunkStore, ChunkStoreConfig, SecurityMode};
use std::sync::Arc;
use tdb_platform::{MemArchive, MemSecretStore, MemStore, VolatileCounter};

fn main() {
    let secret = MemSecretStore::from_label("fp");
    let store = ChunkStore::create(
        Arc::new(MemStore::new()),
        &secret,
        Arc::new(VolatileCounter::new()),
        ChunkStoreConfig::default(),
    )
    .unwrap();
    let mut batch = store.begin_batch();
    let id = batch.allocate_chunk_id().unwrap();
    batch.write(id, b"probe").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    let archive = Arc::new(MemArchive::new());
    let mut mgr = BackupManager::new(archive.clone(), &secret, SecurityMode::Full).unwrap();
    let full = mgr.backup_full(&store).unwrap();
    let incr_base = mgr.backup_incremental(&store).unwrap();
    let restored = ChunkStore::create(
        Arc::new(MemStore::new()),
        &secret,
        Arc::new(VolatileCounter::new()),
        ChunkStoreConfig::default(),
    )
    .unwrap();
    BackupManager::restore_chain(
        &*archive,
        &secret,
        SecurityMode::Full,
        &[full, incr_base],
        &restored,
    )
    .unwrap();
    println!("{}", restored.live_chunks());
}
