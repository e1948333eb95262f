//! An e-book reader's ledger with full + incremental backups and a
//! device-migration restore — the backup store of paper §2 end to end,
//! including what happens when the archive is corrupted in transit.
//!
//! ```sh
//! cargo run --example backup_restore
//! ```

use std::ops::Bound;
use std::sync::Arc;
use tdb::platform::{ArchivalStore, MemArchive, MemSecretStore, MemStore, VolatileCounter};
use tdb::{
    impl_persistent_boilerplate, ClassRegistry, Database, DatabaseConfig, Db, Durability,
    ExtractorRegistry, IndexKind, IndexSpec, Key, Options, Persistent, PickleError, Pickler,
    Unpickler,
};

const CLASS_BOOK: u32 = 0xB00C_0001;

struct BookLedger {
    title: String,
    pages_read: i64,
}

impl Persistent for BookLedger {
    impl_persistent_boilerplate!(CLASS_BOOK);
    fn pickle(&self, w: &mut Pickler) {
        w.string(&self.title);
        w.i64(self.pages_read);
    }
}

fn unpickle_book(r: &mut Unpickler) -> Result<Box<dyn Persistent>, PickleError> {
    Ok(Box::new(BookLedger {
        title: r.string()?,
        pages_read: r.i64()?,
    }))
}

fn registries() -> (ClassRegistry, ExtractorRegistry) {
    let mut classes = ClassRegistry::new();
    classes.register(CLASS_BOOK, "BookLedger", unpickle_book);
    let mut extractors = ExtractorRegistry::new();
    extractors.register("book.title", |o| {
        tdb::extractor_typed::<BookLedger>(o, |b| Key::str(b.title.clone()))
    });
    // A functional index on a *derived* value — progress bucket — which
    // offset-based ISAM indexes cannot express (paper §5.1.1).
    extractors.register("book.progress", |o| {
        tdb::extractor_typed::<BookLedger>(o, |b| Key::I64(b.pages_read / 100))
    });
    (classes, extractors)
}

fn new_device(label: &str) -> (Db, MemSecretStore) {
    let secret = MemSecretStore::from_label(label);
    let (classes, extractors) = registries();
    let db = Db::open(
        Options::in_memory()
            .with_substrates(
                Arc::new(MemStore::new()),
                secret.clone(),
                Arc::new(VolatileCounter::new()),
            )
            .classes(classes)
            .extractors(extractors),
    )
    .unwrap();
    (db, secret)
}

/// Restore the archive's latest chain onto a brand-new (empty) device.
fn restore_device(archive: &dyn ArchivalStore, label: &str) -> Result<Database, tdb::TdbError> {
    let secret = MemSecretStore::from_label(label);
    let (classes, extractors) = registries();
    Database::restore_latest_from(
        archive,
        Arc::new(MemStore::new()),
        &secret,
        Arc::new(VolatileCounter::new()),
        classes,
        extractors,
        DatabaseConfig::default(),
    )
}

fn main() {
    // Same platform secret on both devices (provisioned by the DRM
    // authority); separate one-way counters and storage.
    let (db, secret) = new_device("reader-family-secret");

    let t = db.begin();
    let books = t
        .create_collection(
            "books",
            &[
                IndexSpec::new("by-title", "book.title", true, IndexKind::BTree),
                IndexSpec::new("by-progress", "book.progress", false, IndexKind::BTree),
            ],
        )
        .unwrap();
    for (title, pages) in [
        ("Anathem", 250),
        ("Permutation City", 40),
        ("The Dispossessed", 0),
    ] {
        books
            .insert(Box::new(BookLedger {
                title: title.into(),
                pages_read: pages,
            }))
            .unwrap();
    }
    drop(books);
    t.commit(Durability::Durable).unwrap();

    // Nightly full backup to the archival store.
    let archive = Arc::new(MemArchive::new());
    let mut mgr = db.backup_manager(archive.clone(), &secret).unwrap();
    let full = mgr.backup_full(db.chunk_store()).unwrap();
    println!(
        "full backup:        {full} ({} bytes)",
        archive.len_of(&full).unwrap()
    );

    // Read a few pages, take a small incremental.
    let t = db.begin();
    let books = t.write_collection("books").unwrap();
    let mut it = books
        .exact("by-title", &Key::str("Permutation City"))
        .unwrap();
    {
        let b = it.write::<BookLedger>().unwrap();
        b.get_mut().pages_read += 120;
    }
    it.close().unwrap();
    drop(books);
    t.commit(Durability::Durable).unwrap();
    let incr = mgr.backup_incremental(db.chunk_store()).unwrap();
    println!(
        "incremental backup: {incr} ({} bytes — snapshot-diff pruned)",
        archive.len_of(&incr).unwrap()
    );

    // The reader is dropped in a lake. Restore onto a new device.
    let replacement = restore_device(&*archive, "reader-family-secret").unwrap();
    // Verify through a snapshot-isolated read transaction (layer API — the
    // restore handed back a `Database`).
    let r = replacement.collections().begin_read();
    let books = r.read_collection("books").unwrap();
    let ids = books
        .exact("by-title", &Key::str("Permutation City"))
        .unwrap();
    let pages = books
        .get::<BookLedger, _>(ids[0], |b| b.pages_read)
        .unwrap();
    println!("restored ledger:    Permutation City at page {pages}");
    assert_eq!(pages, 160);

    // Range query on the derived-progress index: books with 100+ pages read.
    print!("well underway:     ");
    for (_key, oid) in books
        .range(
            "by-progress",
            Bound::Included(&Key::I64(1)),
            Bound::Unbounded,
        )
        .unwrap()
    {
        let title = books
            .get::<BookLedger, _>(oid, |b| b.title.clone())
            .unwrap();
        print!(" {title:?}");
    }
    println!();
    r.finish();

    // A corrupted backup never restores, and never half-restores.
    archive.corrupt(&full, 50, 4).unwrap();
    match restore_device(&*archive, "reader-family-secret") {
        Err(e) => println!("corrupted archive rejected: {e}"),
        Ok(_) => unreachable!("corruption must be detected"),
    }
}
