//! Ablation A3 (§5.2.4): index implementation choice — B-tree vs dynamic
//! hash vs list — for inserts and exact-match lookups.

use chunk_store::{ChunkStore, ChunkStoreConfig, SecurityMode};
use collection_store::{CollectionStore, Durability, ExtractorRegistry, IndexKind, IndexSpec, Key};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use object_store::{
    impl_persistent_boilerplate, ClassRegistry, ObjectStoreConfig, Persistent, PickleError,
    Pickler, Unpickler,
};
use std::sync::Arc;
use tdb_platform::{MemSecretStore, MemStore, VolatileCounter};

struct Item {
    id: u64,
}
impl Persistent for Item {
    impl_persistent_boilerplate!(0x17E4);
    fn pickle(&self, w: &mut Pickler) {
        w.u64(self.id);
    }
}
fn unpickle(r: &mut Unpickler) -> Result<Box<dyn Persistent>, PickleError> {
    Ok(Box::new(Item { id: r.u64()? }))
}

/// The collection store the paper's §5.2.4 ablation measures, over an
/// in-memory chunk store without security.
fn db() -> CollectionStore {
    let mut classes = ClassRegistry::new();
    classes.register(0x17E4, "Item", unpickle);
    let mut extractors = ExtractorRegistry::new();
    extractors.register("item.id", |o| {
        collection_store::extractor::typed::<Item>(o, |i| Key::U64(i.id))
    });
    let chunks = ChunkStore::create(
        Arc::new(MemStore::new()),
        &MemSecretStore::from_label("bench"),
        Arc::new(VolatileCounter::new()),
        ChunkStoreConfig {
            security: SecurityMode::Off,
            ..ChunkStoreConfig::default()
        },
    )
    .unwrap();
    CollectionStore::create(
        Arc::new(chunks),
        classes,
        extractors,
        ObjectStoreConfig::default(),
    )
    .unwrap()
}

fn kinds() -> [(&'static str, IndexKind); 3] {
    [
        ("btree", IndexKind::BTree),
        ("hash", IndexKind::Hash),
        ("list", IndexKind::List),
    ]
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_insert");
    for (name, kind) in kinds() {
        let database = db();
        let t = database.begin();
        t.create_collection("c", &[IndexSpec::new("i", "item.id", false, kind)])
            .unwrap();
        t.commit(Durability::Durable).unwrap();
        let mut next = 0u64;
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let t = database.begin();
                let coll = t.write_collection("c").unwrap();
                coll.insert(Box::new(Item { id: next })).unwrap();
                next += 1;
                drop(coll);
                t.commit(Durability::Durable).unwrap();
            })
        });
    }
    group.finish();
}

fn bench_lookup(c: &mut Criterion) {
    // Lists are linear: keep the preload modest so the bench terminates
    // promptly while still showing the asymptotic difference.
    const N: u64 = 2000;
    let mut group = c.benchmark_group("index_exact_lookup_2k");
    for (name, kind) in kinds() {
        let database = db();
        let t = database.begin();
        let coll = t
            .create_collection("c", &[IndexSpec::new("i", "item.id", false, kind)])
            .unwrap();
        for id in 0..N {
            coll.insert(Box::new(Item { id })).unwrap();
        }
        drop(coll);
        t.commit(Durability::Durable).unwrap();
        let mut probe = 0u64;
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                probe = (probe + 997) % N;
                let t = database.begin();
                let coll = t.read_collection("c").unwrap();
                let it = coll.exact("i", &Key::U64(probe)).unwrap();
                let n = it.result_len();
                it.close().unwrap();
                drop(coll);
                t.commit(Durability::Lazy).unwrap();
                n
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_insert, bench_lookup);
criterion_main!(benches);
