//! Footprint probe: the full TDB stack (all modules).
use std::sync::Arc;
use tdb::platform::{MemArchive, MemSecretStore, MemStore, VolatileCounter};
use tdb::Durability;
use tdb::{
    impl_persistent_boilerplate, ClassRegistry, Database, DatabaseConfig, ExtractorRegistry,
    IndexKind, IndexSpec, Key, Persistent, PickleError, Pickler, Unpickler,
};

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
        tdb::extractor_typed::<Probe>(o, |p| Key::U64(p.n as u64))
    });
    let secret = MemSecretStore::from_label("fp");
    let db = Database::create(
        Arc::new(MemStore::new()),
        &secret,
        Arc::new(VolatileCounter::new()),
        classes,
        extractors,
        DatabaseConfig::default(),
    )
    .unwrap();
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
    let mut mgr = db
        .backup_manager(Arc::new(MemArchive::new()), &secret)
        .unwrap();
    let _ = mgr.backup_full(db.chunk_store()).unwrap();
    println!("{n}");
}
