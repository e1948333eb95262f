//! Ablation A1 (§4.2.1): single-object vs multi-object chunks.
//!
//! TDB chose single-object chunks: "only modified objects are written to
//! the log". This bench makes the tradeoff measurable at the chunk layer:
//! updating 1 of N logical 100-byte objects when each lives in its own
//! chunk vs when all N are packed into one chunk (which must be rewritten
//! whole, as §4.2.1's recomposition argument describes).

use chunk_store::ChunkStoreConfig;
use chunk_store::Durability;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tdb_bench::bench_chunk_store;

fn bench_packing(c: &mut Criterion) {
    const OBJ: usize = 100;
    let mut group = c.benchmark_group("update_one_of_N_objects");
    for n in [1usize, 4, 16] {
        // Single-object chunks: write just the touched object.
        let store = bench_chunk_store(ChunkStoreConfig::default());
        let mut batch = store.begin_batch();
        let ids: Vec<_> = (0..n)
            .map(|_| {
                let id = batch.allocate_chunk_id().unwrap();
                batch.write(id, &[1u8; OBJ]).unwrap();
                id
            })
            .collect();
        store.commit_batch(batch, Durability::Durable).unwrap();
        group.bench_function(BenchmarkId::new("single_object_chunks", n), |b| {
            b.iter(|| {
                let mut batch = store.begin_batch();
                batch.write(ids[0], &[2u8; OBJ]).unwrap();
                store.commit_batch(batch, Durability::Durable).unwrap();
            })
        });

        // Multi-object chunk: the container is re-composed and rewritten.
        let store = bench_chunk_store(ChunkStoreConfig::default());
        let mut batch = store.begin_batch();
        let packed = batch.allocate_chunk_id().unwrap();
        batch.write(packed, &vec![1u8; OBJ * n]).unwrap();
        store.commit_batch(batch, Durability::Durable).unwrap();
        group.bench_function(BenchmarkId::new("multi_object_chunk", n), |b| {
            b.iter(|| {
                let mut all = store.read(packed).unwrap();
                all[..OBJ].copy_from_slice(&[2u8; OBJ]);
                let mut batch = store.begin_batch();
                batch.write(packed, &all).unwrap();
                store.commit_batch(batch, Durability::Durable).unwrap();
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_packing);
criterion_main!(benches);
