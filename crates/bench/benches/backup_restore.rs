//! Backup/restore microbenchmarks: full vs incremental creation (the
//! §3.2.1 claim that COW snapshots + map diffing make incrementals cheap),
//! and validated restore.

use backup_store::BackupManager;
use chunk_store::Durability;
use chunk_store::{ChunkStoreConfig, SecurityMode};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use tdb_bench::bench_chunk_store;
use tdb_platform::{MemArchive, MemSecretStore};

fn bench_backup(c: &mut Criterion) {
    let secret = MemSecretStore::from_label("bench");
    let store = bench_chunk_store(ChunkStoreConfig::default());
    let mut batch = store.begin_batch();
    let ids: Vec<_> = (0..2000)
        .map(|i: u32| {
            let id = batch.allocate_chunk_id().unwrap();
            batch.write(id, &i.to_le_bytes().repeat(25)).unwrap();
            id
        })
        .collect();
    store.commit_batch(batch, Durability::Durable).unwrap();

    c.bench_function("backup_full_2k_chunks", |b| {
        b.iter(|| {
            let archive = Arc::new(MemArchive::new());
            let mut mgr = BackupManager::new(archive, &secret, SecurityMode::Full).unwrap();
            mgr.backup_full(&store).unwrap()
        })
    });

    c.bench_function("backup_incremental_after_1_change", |b| {
        let archive = Arc::new(MemArchive::new());
        let mut mgr = BackupManager::new(archive, &secret, SecurityMode::Full).unwrap();
        mgr.backup_full(&store).unwrap();
        let mut round = 0u32;
        b.iter(|| {
            let mut batch = store.begin_batch();
            batch
                .write(ids[0], &round.to_le_bytes().repeat(25))
                .unwrap();
            store.commit_batch(batch, Durability::Durable).unwrap();
            round += 1;
            mgr.backup_incremental(&store).unwrap()
        })
    });
}

criterion_group!(benches, bench_backup);
criterion_main!(benches);
