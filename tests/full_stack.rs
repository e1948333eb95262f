//! Cross-crate integration tests: the whole TDB stack (platform → crypto →
//! chunk → object → collection → backup) exercised together, including
//! crash injection through every layer and on-disk (DirStore) operation.

use std::sync::Arc;
use tdb::platform::{
    DirStore, FaultPlan, FaultStore, FileCounter, FileSecretStore, MemArchive, MemSecretStore,
    MemStore, VolatileCounter,
};
use tdb::Durability;
use tdb::{
    impl_persistent_boilerplate, ClassRegistry, Database, DatabaseConfig, ExtractorRegistry,
    IndexKind, IndexSpec, Key, Persistent, PickleError, Pickler, Unpickler,
};

const CLASS_METER: u32 = 0x1234_0001;

struct Meter {
    id: u64,
    count: i64,
}

impl Persistent for Meter {
    impl_persistent_boilerplate!(CLASS_METER);
    fn pickle(&self, w: &mut Pickler) {
        w.u64(self.id);
        w.i64(self.count);
    }
}

fn unpickle_meter(r: &mut Unpickler) -> Result<Box<dyn Persistent>, PickleError> {
    Ok(Box::new(Meter {
        id: r.u64()?,
        count: r.i64()?,
    }))
}

fn registries() -> (ClassRegistry, ExtractorRegistry) {
    let mut classes = ClassRegistry::new();
    classes.register(CLASS_METER, "Meter", unpickle_meter);
    let mut extractors = ExtractorRegistry::new();
    extractors.register("meter.id", |o| {
        tdb::extractor_typed::<Meter>(o, |m| Key::U64(m.id))
    });
    extractors.register("meter.count", |o| {
        tdb::extractor_typed::<Meter>(o, |m| Key::I64(m.count))
    });
    (classes, extractors)
}

fn specs() -> [IndexSpec; 2] {
    [
        IndexSpec::new("by-id", "meter.id", true, IndexKind::Hash),
        IndexSpec::new("by-count", "meter.count", false, IndexKind::BTree),
    ]
}

fn bump(db: &Database, id: u64, delta: i64) {
    let t = db.begin();
    let c = t.write_collection("meters").unwrap();
    let mut it = c.exact("by-id", &Key::U64(id)).unwrap();
    {
        let m = it.write::<Meter>().unwrap();
        m.get_mut().count += delta;
    }
    it.close().unwrap();
    drop(c);
    t.commit(Durability::Durable).unwrap();
}

fn count_of(db: &Database, id: u64) -> i64 {
    let t = db.begin();
    let c = t.read_collection("meters").unwrap();
    let it = c.exact("by-id", &Key::U64(id)).unwrap();
    let m = it.read::<Meter>().unwrap();
    let n = m.get().count;
    drop(m);
    it.close().unwrap();
    drop(c);
    t.commit(Durability::Lazy).unwrap();
    n
}

#[test]
fn full_stack_on_real_files() {
    let dir = tempfile::tempdir().unwrap();
    let secret = FileSecretStore::open_or_init(dir.path().join("secret"), [9u8; 32]).unwrap();
    let counter = Arc::new(FileCounter::open(dir.path().join("counter")).unwrap());
    let (classes, extractors) = registries();
    {
        let db = Database::create(
            Arc::new(DirStore::new(dir.path().join("db")).unwrap()),
            &secret,
            counter.clone(),
            classes,
            extractors,
            DatabaseConfig::default(),
        )
        .unwrap();
        let t = db.begin();
        let c = t.create_collection("meters", &specs()).unwrap();
        for id in 0..100 {
            c.insert(Box::new(Meter { id, count: 0 })).unwrap();
        }
        drop(c);
        t.commit(Durability::Durable).unwrap();
        for round in 0..10 {
            bump(&db, round % 100, 1);
        }
        db.checkpoint().unwrap();
    }
    // Fresh process: reopen from disk with a fresh FileCounter handle.
    let counter = Arc::new(FileCounter::open(dir.path().join("counter")).unwrap());
    let (classes, extractors) = registries();
    let db = Database::open(
        Arc::new(DirStore::new(dir.path().join("db")).unwrap()),
        &secret,
        counter,
        classes,
        extractors,
        DatabaseConfig::default(),
    )
    .unwrap();
    // Rounds 0..10 bumped ids 0..10 once each.
    for id in 0..10 {
        assert_eq!(count_of(&db, id), 1, "meter {id}");
    }
    assert_eq!(count_of(&db, 50), 0);
}

#[test]
fn crash_at_every_layer_boundary_preserves_invariants() {
    // Drive the full stack through a fault-injected store and crash at a
    // spread of byte budgets; after recovery the database must be
    // consistent: every meter readable, every index entry pointing at a
    // live object, total count = committed increments.
    for budget in [50u64, 500, 2_000, 8_000, 20_000] {
        let mem = MemStore::new();
        let counter = VolatileCounter::new();
        let secret = MemSecretStore::from_label("crash-stack");
        let plan = FaultPlan::unlimited();
        let (classes, extractors) = registries();
        let committed = {
            let db = Database::create(
                Arc::new(FaultStore::new(mem.clone(), plan.clone())),
                &secret,
                Arc::new(counter.clone()),
                classes,
                extractors,
                DatabaseConfig::default(),
            )
            .unwrap();
            let t = db.begin();
            let c = t.create_collection("meters", &specs()).unwrap();
            for id in 0..20 {
                c.insert(Box::new(Meter { id, count: 0 })).unwrap();
            }
            drop(c);
            t.commit(Durability::Durable).unwrap();

            plan.rearm(budget);
            let mut committed = 0i64;
            for round in 0..200u64 {
                let id = round % 20;
                let t = db.begin();
                let result = (|| -> Result<(), String> {
                    let c = t.write_collection("meters").map_err(|e| e.to_string())?;
                    let mut it = c.exact("by-id", &Key::U64(id)).map_err(|e| e.to_string())?;
                    {
                        let m = it.write::<Meter>().map_err(|e| e.to_string())?;
                        m.get_mut().count += 1;
                    }
                    it.close().map_err(|e| e.to_string())?;
                    Ok(())
                })();
                if result.is_err() {
                    break;
                }
                match t.commit(Durability::Durable) {
                    Ok(()) => committed += 1,
                    Err(_) => break,
                }
            }
            committed
        };

        // Recover from the surviving bytes.
        let (classes, extractors) = registries();
        let db = Database::open(
            Arc::new(mem),
            &secret,
            Arc::new(counter),
            classes,
            extractors,
            DatabaseConfig::default(),
        )
        .unwrap();
        let t = db.begin();
        let c = t.read_collection("meters").unwrap();
        let mut total = 0i64;
        let mut seen = 0;
        let mut it = c.scan("by-id").unwrap();
        while !it.end() {
            let m = it.read::<Meter>().unwrap();
            total += m.get().count;
            drop(m);
            seen += 1;
            it.next();
        }
        it.close().unwrap();
        assert_eq!(seen, 20, "budget {budget}: collection membership damaged");
        // The last acknowledged commit may or may not have fully landed
        // before the crash tore the *next* one; recovery may legitimately
        // hold one more than acknowledged (commit acked after anchor
        // write) — never less.
        assert!(
            total == committed || total == committed + 1,
            "budget {budget}: {total} increments recovered, {committed} acknowledged"
        );
        // The B-tree index over counts is coherent with the objects.
        assert_eq!(c.index_entry_count("by-count").unwrap(), 20);
    }
}

#[test]
fn backup_cycle_through_facade() {
    let mem = MemStore::new();
    let secret = MemSecretStore::from_label("backup-stack");
    let (classes, extractors) = registries();
    let db = Database::create(
        Arc::new(mem),
        &secret,
        Arc::new(VolatileCounter::new()),
        classes,
        extractors,
        DatabaseConfig::default(),
    )
    .unwrap();
    let t = db.begin();
    let c = t.create_collection("meters", &specs()).unwrap();
    for id in 0..50 {
        c.insert(Box::new(Meter {
            id,
            count: id as i64,
        }))
        .unwrap();
    }
    drop(c);
    t.commit(Durability::Durable).unwrap();

    let archive = Arc::new(MemArchive::new());
    let mut mgr = db.backup_manager(archive.clone(), &secret).unwrap();
    mgr.backup_full(db.chunk_store()).unwrap();
    bump(&db, 7, 100);
    mgr.backup_incremental(db.chunk_store()).unwrap();
    bump(&db, 8, 100);
    mgr.backup_incremental(db.chunk_store()).unwrap();

    let (classes, extractors) = registries();
    let restored = Database::restore_latest_from(
        &*archive,
        Arc::new(MemStore::new()),
        &secret,
        Arc::new(VolatileCounter::new()),
        classes,
        extractors,
        DatabaseConfig::default(),
    )
    .unwrap();
    assert_eq!(count_of(&restored, 7), 107);
    assert_eq!(count_of(&restored, 8), 108);
    assert_eq!(count_of(&restored, 9), 9);
    // The restored database is fully operational.
    bump(&restored, 9, 1);
    assert_eq!(count_of(&restored, 9), 10);
    // Indexes restored too: range query over counts.
    let t = restored.begin();
    let c = t.read_collection("meters").unwrap();
    let it = c
        .range(
            "by-count",
            std::ops::Bound::Included(&Key::I64(100)),
            std::ops::Bound::Unbounded,
        )
        .unwrap();
    assert_eq!(it.result_len(), 2); // meters 7 (107) and 8 (108)
    it.close().unwrap();
}

#[test]
fn mixed_object_and_collection_access() {
    // The object store and collection store share one transaction space:
    // roots registered through CTransaction, typed objects navigated via
    // the object store, collections on top — all atomically.
    let mem = MemStore::new();
    let secret = MemSecretStore::from_label("mixed");
    let (classes, extractors) = registries();
    let db = Database::create(
        Arc::new(mem),
        &secret,
        Arc::new(VolatileCounter::new()),
        classes,
        extractors,
        DatabaseConfig::default(),
    )
    .unwrap();

    // Collection + a root pointing at a distinguished meter.
    let special = {
        let t = db.begin();
        let c = t.create_collection("meters", &specs()).unwrap();
        let special = c.insert(Box::new(Meter { id: 999, count: -5 })).unwrap();
        drop(c);
        t.set_root("special-meter", special).unwrap();
        t.commit(Durability::Durable).unwrap();
        special
    };

    // Navigate from the root through the *object store* API.
    let os = db.object_store();
    let t = os.begin();
    assert_eq!(t.root("special-meter"), Some(special));
    let m = t.open_readonly::<Meter>(special).unwrap();
    assert_eq!(m.get().count, -5);
    drop(m);
    t.commit(Durability::Lazy).unwrap();
}
