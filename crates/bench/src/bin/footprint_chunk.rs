//! Footprint probe: the chunk store (TDB's minimal configuration).
use chunk_store::Durability;
use chunk_store::{ChunkStore, ChunkStoreConfig};
use std::sync::Arc;
use tdb_platform::{MemSecretStore, MemStore, VolatileCounter};

fn main() {
    let store = ChunkStore::create(
        Arc::new(MemStore::new()),
        &MemSecretStore::from_label("fp"),
        Arc::new(VolatileCounter::new()),
        ChunkStoreConfig::default(),
    )
    .unwrap();
    let mut batch = store.begin_batch();
    let id = batch.allocate_chunk_id().unwrap();
    batch.write(id, b"probe").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    let snap = store.snapshot();
    store.checkpoint().unwrap();
    store.clean().unwrap();
    println!("{} {}", store.read(id).unwrap().len(), snap.len());
}
