//! Footprint probe: the full TDB stack (all modules) — chunk, backup,
//! object and collection stores linked directly, without the `tdb` facade
//! and the directory substrates it carries.
use backup_store::BackupManager;
use chunk_store::{ChunkStore, ChunkStoreConfig};
use collection_store::{CollectionStore, Durability, ExtractorRegistry, IndexKind, IndexSpec, Key};
use object_store::{
    impl_persistent_boilerplate, ClassRegistry, ObjectStoreConfig, Persistent, PickleError,
    Pickler, Unpickler,
};
use std::sync::Arc;
use tdb_platform::{MemArchive, MemSecretStore, MemStore, VolatileCounter};

struct Probe {
    n: u32,
}
impl Persistent for Probe {
    impl_persistent_boilerplate!(0xF00D);
    fn pickle(&self, w: &mut Pickler) {
        w.u32(self.n);
    }
}
fn unpickle(r: &mut Unpickler) -> Result<Box<dyn Persistent>, PickleError> {
    Ok(Box::new(Probe { n: r.u32()? }))
}

fn main() {
    let mut classes = ClassRegistry::new();
    classes.register(0xF00D, "Probe", unpickle);
    let mut extractors = ExtractorRegistry::new();
    extractors.register("probe.n", |o| {
        collection_store::extractor::typed::<Probe>(o, |p| Key::U64(p.n as u64))
    });
    let secret = MemSecretStore::from_label("fp");
    let cfg = ChunkStoreConfig::default();
    let security = cfg.security;
    let chunks = Arc::new(
        ChunkStore::create(
            Arc::new(MemStore::new()),
            &secret,
            Arc::new(VolatileCounter::new()),
            cfg,
        )
        .unwrap(),
    );
    let db =
        CollectionStore::create(chunks, classes, extractors, ObjectStoreConfig::default()).unwrap();
    let t = db.begin();
    let c = t
        .create_collection(
            "probe",
            &[
                IndexSpec::new("bt", "probe.n", false, IndexKind::BTree),
                IndexSpec::new("h", "probe.n", false, IndexKind::Hash),
                IndexSpec::new("l", "probe.n", false, IndexKind::List),
            ],
        )
        .unwrap();
    c.insert(Box::new(Probe { n: 7 })).unwrap();
    let it = c.exact("h", &Key::U64(7)).unwrap();
    let n = it.read::<Probe>().unwrap().get().n;
    it.close().unwrap();
    drop(c);
    t.commit(Durability::Durable).unwrap();
    let mut mgr = BackupManager::new(Arc::new(MemArchive::new()), &secret, security).unwrap();
    let _ = mgr.backup_full(db.chunk_store()).unwrap();
    println!("{n}");
}
