//! Microbenchmarks of chunk store primitives (write/commit, read,
//! checkpoint) in both security modes.

use chunk_store::Durability;
use chunk_store::{ChunkStoreConfig, SecurityMode};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tdb_bench::bench_chunk_store;

fn bench_write_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("chunk_write_commit_100B");
    group.throughput(Throughput::Elements(1));
    for (name, mode) in [("off", SecurityMode::Off), ("full", SecurityMode::Full)] {
        let cfg = ChunkStoreConfig {
            security: mode,
            ..Default::default()
        };
        let store = bench_chunk_store(cfg);
        let payload = vec![0x5Au8; 100];
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut batch = store.begin_batch();
                let id = batch.allocate_chunk_id().unwrap();
                batch.write(id, &payload).unwrap();
                store.commit_batch(batch, Durability::Durable).unwrap();
            })
        });
    }
    group.finish();
}

fn bench_read(c: &mut Criterion) {
    let mut group = c.benchmark_group("chunk_read_100B");
    for (name, mode) in [("off", SecurityMode::Off), ("full", SecurityMode::Full)] {
        let cfg = ChunkStoreConfig {
            security: mode,
            ..Default::default()
        };
        let store = bench_chunk_store(cfg);
        let mut batch = store.begin_batch();
        let ids: Vec<_> = (0..1000)
            .map(|i| {
                let id = batch.allocate_chunk_id().unwrap();
                batch.write(id, &[i as u8; 100]).unwrap();
                id
            })
            .collect();
        store.commit_batch(batch, Durability::Durable).unwrap();
        let mut i = 0usize;
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                i = (i + 7) % ids.len();
                store.read(ids[i]).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_checkpoint(c: &mut Criterion) {
    let store = bench_chunk_store(ChunkStoreConfig::default());
    let mut batch = store.begin_batch();
    for i in 0..500u32 {
        let id = batch.allocate_chunk_id().unwrap();
        batch.write(id, &i.to_le_bytes().repeat(25)).unwrap();
    }
    store.commit_batch(batch, Durability::Durable).unwrap();
    c.bench_function("chunk_checkpoint_after_one_commit", |b| {
        b.iter(|| {
            let id = chunk_store::ChunkId(0);
            let mut batch = store.begin_batch();
            batch.write(id, b"dirty one path").unwrap();
            store.commit_batch(batch, Durability::Durable).unwrap();
            store.checkpoint().unwrap();
        })
    });
}

criterion_group!(benches, bench_write_commit, bench_read, bench_checkpoint);
criterion_main!(benches);
