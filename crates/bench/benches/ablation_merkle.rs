//! Ablation A2 (§3.2.1): the cost of the security machinery on the chunk
//! read/write path — encryption + hashing + Merkle maintenance (Full) vs
//! none (Off). The paper's claim: "the extra CPU overhead of hashing and
//! encryption was relatively small (less than 10% of the total CPU
//! overhead)" on their disk-bound runs; on a memory-backed store the CPU
//! delta is fully visible.

use chunk_store::Durability;
use chunk_store::{ChunkStoreConfig, SecurityMode};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tdb_bench::bench_chunk_store;

fn bench_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("merkle_roundtrip_1KB");
    group.throughput(Throughput::Bytes(1024));
    for (name, mode) in [("off", SecurityMode::Off), ("full", SecurityMode::Full)] {
        let cfg = ChunkStoreConfig {
            security: mode,
            ..Default::default()
        };
        let store = bench_chunk_store(cfg);
        let mut batch = store.begin_batch();
        let id = batch.allocate_chunk_id().unwrap();
        batch.write(id, &[7u8; 1024]).unwrap();
        store.commit_batch(batch, Durability::Durable).unwrap();
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut batch = store.begin_batch();
                batch.write(id, &[7u8; 1024]).unwrap();
                store.commit_batch(batch, Durability::Durable).unwrap();
                store.read(id).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_roundtrip);
criterion_main!(benches);
