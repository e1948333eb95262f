//! End-to-end collection store tests, centered on the paper's Figure 7
//! scenario: a "profile" collection of Meter objects with a unique hash
//! index on id and a non-unique B-tree index on derived total usage.

use chunk_store::{ChunkStore, ChunkStoreConfig};
use collection_store::Durability;
use collection_store::{
    extractor::typed, CIter, CollectionError, CollectionStore, ExtractorRegistry, IndexKind,
    IndexSpec, Key, Persistent, Pickler, Unpickler,
};
use object_store::{impl_persistent_boilerplate, ClassRegistry, ObjectStoreConfig, PickleError};
use std::ops::Bound;
use std::sync::Arc;
use tdb_platform::{MemSecretStore, MemStore, VolatileCounter};

// --- Figure 7's (modified) Meter class -------------------------------------

const CLASS_METER: u32 = 0x4d455445;

#[derive(Debug, PartialEq)]
struct Meter {
    id: i64,
    view_count: i64,
    print_count: i64,
}

impl Persistent for Meter {
    impl_persistent_boilerplate!(CLASS_METER);
    fn pickle(&self, w: &mut Pickler) {
        w.i64(self.id);
        w.i64(self.view_count);
        w.i64(self.print_count);
    }
}

fn unpickle_meter(r: &mut Unpickler) -> Result<Box<dyn Persistent>, PickleError> {
    Ok(Box::new(Meter {
        id: r.i64()?,
        view_count: r.i64()?,
        print_count: r.i64()?,
    }))
}

// Figure 7's extractors: `idEx` and `usageCountEx` (a derived value —
// exactly what offset-based ISAM indexes cannot express).
fn id_ex(obj: &dyn Persistent) -> Option<Key> {
    typed::<Meter>(obj, |m| Key::I64(m.id))
}

fn usage_count_ex(obj: &dyn Persistent) -> Option<Key> {
    typed::<Meter>(obj, |m| Key::I64(m.view_count + m.print_count))
}

fn registries() -> (ClassRegistry, ExtractorRegistry) {
    let mut classes = ClassRegistry::new();
    classes.register(CLASS_METER, "Meter", unpickle_meter);
    let mut extractors = ExtractorRegistry::new();
    extractors.register("meter.id", id_ex);
    extractors.register("meter.usage", usage_count_ex);
    (classes, extractors)
}

struct Fixture {
    mem: MemStore,
    counter: VolatileCounter,
}

impl Fixture {
    fn new() -> Self {
        Fixture {
            mem: MemStore::new(),
            counter: VolatileCounter::new(),
        }
    }

    fn chunks(&self, create: bool) -> Arc<ChunkStore> {
        let make = if create {
            ChunkStore::create
        } else {
            ChunkStore::open
        };
        Arc::new(
            make(
                Arc::new(self.mem.clone()),
                &MemSecretStore::from_label("collection-tests"),
                Arc::new(self.counter.clone()),
                ChunkStoreConfig::small_for_tests(),
            )
            .unwrap(),
        )
    }

    fn create(&self) -> CollectionStore {
        let (classes, extractors) = registries();
        CollectionStore::create(
            self.chunks(true),
            classes,
            extractors,
            ObjectStoreConfig::default(),
        )
        .unwrap()
    }

    fn reopen(&self) -> CollectionStore {
        let (classes, extractors) = registries();
        CollectionStore::open(
            self.chunks(false),
            classes,
            extractors,
            ObjectStoreConfig::default(),
        )
        .unwrap()
    }
}

fn id_indexer() -> IndexSpec {
    IndexSpec::new("by-id", "meter.id", true, IndexKind::Hash)
}

fn usage_indexer() -> IndexSpec {
    IndexSpec::new("by-usage", "meter.usage", false, IndexKind::BTree)
}

fn meter(id: i64, views: i64, prints: i64) -> Box<Meter> {
    Box::new(Meter {
        id,
        view_count: views,
        print_count: prints,
    })
}

/// Collect (id, usage) pairs from an iterator without mutating anything.
fn drain_meters(iter: &mut CIter<'_>) -> Vec<(i64, i64)> {
    let mut out = Vec::new();
    while !iter.end() {
        let m = iter.read::<Meter>().unwrap();
        {
            let g = m.get();
            out.push((g.id, g.view_count + g.print_count));
        }
        iter.next();
    }
    out
}

/// The full Figure 7 scenario.
#[test]
fn figure_7_scenario() {
    let fx = Fixture::new();
    let store = fx.create();

    // Create the "profile" collection with a unique hash index on _id.
    let t = store.begin();
    {
        let profile = t.create_collection("profile", &[id_indexer()]).unwrap();
        // Insert Meter objects.
        for i in 0..20 {
            profile.insert(meter(i, i * 10, 5)).unwrap();
        }
        // Create a new non-unique B-tree index on derived total usage.
        profile.create_index(usage_indexer()).unwrap();
    }
    t.commit(Durability::Durable).unwrap();

    // "Reset all Meter objects that have total count exceeding 100."
    let t = store.begin();
    {
        let profile = t.write_collection("profile").unwrap();
        let mut i = profile
            .range(
                "by-usage",
                Bound::Excluded(&Key::I64(100)),
                Bound::Unbounded,
            )
            .unwrap();
        let mut resets = 0;
        while !i.end() {
            let m = i.write::<Meter>().unwrap();
            {
                let mut g = m.get_mut();
                g.view_count = 0;
                g.print_count = 0;
            }
            resets += 1;
            i.next();
        }
        // Meters 10..20 have usage 105..195 > 100.
        assert_eq!(resets, 10);
        i.close().unwrap();
    }
    t.commit(Durability::Durable).unwrap();

    // Verify: usage index reflects the resets (Halloween-free).
    let t = store.begin();
    let profile = t.read_collection("profile").unwrap();
    let mut zeroes = profile.exact("by-usage", &Key::I64(0)).unwrap();
    assert_eq!(zeroes.result_len(), 10);
    let got = drain_meters(&mut zeroes);
    assert!(got.iter().all(|(_, usage)| *usage == 0));
    zeroes.close().unwrap();
    // And the unique id index still finds everything.
    for i in 0..20 {
        let hit = profile.exact("by-id", &Key::I64(i)).unwrap();
        assert_eq!(hit.result_len(), 1, "meter {i}");
        hit.close().unwrap();
    }
    t.commit(Durability::Lazy).unwrap();
}

#[test]
fn collections_survive_reopen() {
    let fx = Fixture::new();
    {
        let store = fx.create();
        let t = store.begin();
        let c = t
            .create_collection("profile", &[id_indexer(), usage_indexer()])
            .unwrap();
        for i in 0..50 {
            c.insert(meter(i, i, i)).unwrap();
        }
        t.commit(Durability::Durable).unwrap();
    }
    let store = fx.reopen();
    let t = store.begin();
    assert_eq!(t.collection_names().unwrap(), vec!["profile".to_string()]);
    let c = t.read_collection("profile").unwrap();
    assert_eq!(c.len().unwrap(), 50);
    let it = c.exact("by-id", &Key::I64(33)).unwrap();
    let m = it.read::<Meter>().unwrap();
    assert_eq!(m.get().id, 33);
    drop(m);
    it.close().unwrap();
    // Ordered range over the B-tree.
    let mut it = c
        .range(
            "by-usage",
            Bound::Included(&Key::I64(90)),
            Bound::Included(&Key::I64(94)),
        )
        .unwrap();
    let got = drain_meters(&mut it);
    assert_eq!(
        got.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        vec![45, 46, 47]
    );
    it.close().unwrap();
}

#[test]
fn unique_index_rejects_duplicate_insert() {
    let fx = Fixture::new();
    let store = fx.create();
    let t = store.begin();
    let c = t.create_collection("profile", &[id_indexer()]).unwrap();
    c.insert(meter(7, 0, 0)).unwrap();
    match c.insert(meter(7, 1, 1)) {
        Err(CollectionError::DuplicateKey { index }) => assert_eq!(index, "by-id"),
        other => panic!("expected DuplicateKey, got {:?}", other.map(|_| ())),
    }
    // The failed insert left nothing behind.
    assert_eq!(c.len().unwrap(), 1);
    assert_eq!(c.index_entry_count("by-id").unwrap(), 1);
}

#[test]
fn non_unique_index_accepts_duplicates() {
    let fx = Fixture::new();
    let store = fx.create();
    let t = store.begin();
    let c = t
        .create_collection(
            "profile",
            &[IndexSpec::new("u", "meter.usage", false, IndexKind::BTree)],
        )
        .unwrap();
    for i in 0..5 {
        c.insert(meter(i, 10, 0)).unwrap(); // all usage 10
    }
    let it = c.exact("u", &Key::I64(10)).unwrap();
    assert_eq!(it.result_len(), 5);
    it.close().unwrap();
}

#[test]
fn create_index_on_nonempty_collection_checks_uniqueness() {
    let fx = Fixture::new();
    let store = fx.create();
    let t = store.begin();
    let c = t.create_collection("profile", &[id_indexer()]).unwrap();
    c.insert(meter(1, 5, 0)).unwrap();
    c.insert(meter(2, 5, 0)).unwrap(); // same usage
                                       // Unique usage index cannot be built over duplicate usages.
    let err = c
        .create_index(IndexSpec::new("uu", "meter.usage", true, IndexKind::BTree))
        .unwrap_err();
    assert!(matches!(err, CollectionError::DuplicateKey { .. }));
    assert_eq!(c.index_names().unwrap(), vec!["by-id".to_string()]);
    // Non-unique works.
    c.create_index(usage_indexer()).unwrap();
    assert_eq!(c.index_entry_count("by-usage").unwrap(), 2);
}

#[test]
fn remove_index_keeps_last_one() {
    let fx = Fixture::new();
    let store = fx.create();
    let t = store.begin();
    let c = t
        .create_collection("p", &[id_indexer(), usage_indexer()])
        .unwrap();
    c.insert(meter(1, 1, 1)).unwrap();
    c.remove_index("by-usage").unwrap();
    assert_eq!(c.index_names().unwrap(), vec!["by-id".to_string()]);
    assert!(matches!(
        c.remove_index("by-id"),
        Err(CollectionError::LastIndex(_))
    ));
    assert!(matches!(
        c.remove_index("ghost"),
        Err(CollectionError::NoSuchIndex(_))
    ));
}

#[test]
fn read_only_collection_blocks_mutation() {
    let fx = Fixture::new();
    let store = fx.create();
    let t = store.begin();
    t.create_collection("p", &[id_indexer()])
        .unwrap()
        .insert(meter(1, 0, 0))
        .unwrap();
    t.commit(Durability::Durable).unwrap();

    let t = store.begin();
    let c = t.read_collection("p").unwrap();
    assert!(matches!(
        c.insert(meter(2, 0, 0)),
        Err(CollectionError::ReadOnlyCollection(_))
    ));
    let mut it = c.scan("by-id").unwrap();
    assert!(matches!(
        it.write::<Meter>(),
        Err(CollectionError::ReadOnlyCollection(_))
    ));
    assert!(matches!(
        it.delete(),
        Err(CollectionError::ReadOnlyCollection(_))
    ));
    // Reading is fine.
    assert_eq!(drain_meters(&mut it).len(), 1);
    it.close().unwrap();
}

#[test]
fn writable_deref_requires_sole_iterator() {
    let fx = Fixture::new();
    let store = fx.create();
    let t = store.begin();
    let c = t.create_collection("p", &[id_indexer()]).unwrap();
    for i in 0..3 {
        c.insert(meter(i, 0, 0)).unwrap();
    }
    let mut it1 = c.scan("by-id").unwrap();
    let it2 = c.scan("by-id").unwrap();
    assert!(matches!(
        it1.write::<Meter>(),
        Err(CollectionError::IteratorConflict)
    ));
    it2.close().unwrap();
    // Now it1 is alone and may write.
    assert!(it1.write::<Meter>().is_ok());
    it1.close().unwrap();
}

#[test]
fn iterator_is_insensitive_to_own_updates() {
    // The Halloween setup: iterate by the usage index while pushing every
    // meter's usage *up*; with sensitive iterators objects could be
    // re-encountered. Here the result set is frozen and each object is
    // visited exactly once.
    let fx = Fixture::new();
    let store = fx.create();
    let t = store.begin();
    let c = t.create_collection("p", &[usage_indexer()]).unwrap();
    for i in 0..10 {
        c.insert(meter(i, i, 0)).unwrap();
    }
    let mut it = c.scan("by-usage").unwrap();
    let mut visited = 0;
    while !it.end() {
        let m = it.write::<Meter>().unwrap();
        m.get_mut().view_count += 1000; // moves it to the end of the index
        drop(m);
        visited += 1;
        it.next();
    }
    assert_eq!(visited, 10, "each object enumerated at most once");
    it.close().unwrap();

    // After close, the index reflects the new keys.
    let it = c
        .range(
            "by-usage",
            Bound::Included(&Key::I64(1000)),
            Bound::Unbounded,
        )
        .unwrap();
    assert_eq!(it.result_len(), 10);
    it.close().unwrap();
}

#[test]
fn query_before_close_sees_old_index_state() {
    let fx = Fixture::new();
    let store = fx.create();
    let t = store.begin();
    let c = t.create_collection("p", &[usage_indexer()]).unwrap();
    c.insert(meter(1, 5, 0)).unwrap();

    let mut it = c.scan("by-usage").unwrap();
    {
        let m = it.write::<Meter>().unwrap();
        m.get_mut().view_count = 50;
    }
    it.close().unwrap();

    // Maintenance ran at close; the new key is 50.
    let hit = c.exact("by-usage", &Key::I64(50)).unwrap();
    assert_eq!(hit.result_len(), 1);
    hit.close().unwrap();
    let miss = c.exact("by-usage", &Key::I64(5)).unwrap();
    assert_eq!(miss.result_len(), 0);
    miss.close().unwrap();
}

#[test]
fn uniqueness_violation_at_close_removes_offender_and_reports() {
    let fx = Fixture::new();
    let store = fx.create();
    let t = store.begin();
    let c = t.create_collection("p", &[id_indexer()]).unwrap();
    let _a = c.insert(meter(1, 0, 0)).unwrap();
    let b = c.insert(meter(2, 0, 0)).unwrap();

    // Update meter 2's id to collide with meter 1 — undetectable until
    // close, exactly the §5.2.3 situation.
    let mut it = c.exact("by-id", &Key::I64(2)).unwrap();
    {
        let m = it.write::<Meter>().unwrap();
        m.get_mut().id = 1;
    }
    match it.close() {
        Err(CollectionError::UniquenessViolation { removed }) => {
            assert_eq!(removed, vec![b]);
        }
        other => panic!("expected UniquenessViolation, got {other:?}"),
    }
    // The offender is out of the collection but not destroyed (the app
    // can re-integrate it).
    assert_eq!(c.len().unwrap(), 1);
    assert_eq!(c.index_entry_count("by-id").unwrap(), 1);
}

#[test]
fn delete_through_iterator() {
    let fx = Fixture::new();
    let store = fx.create();
    let t = store.begin();
    let c = t
        .create_collection("p", &[id_indexer(), usage_indexer()])
        .unwrap();
    for i in 0..10 {
        c.insert(meter(i, i, 0)).unwrap();
    }
    // Delete the even-id meters.
    let mut it = c.scan("by-id").unwrap();
    while !it.end() {
        let is_even = {
            let m = it.read::<Meter>().unwrap();
            let even = m.get().id % 2 == 0;
            even
        };
        if is_even {
            it.delete().unwrap();
        }
        it.next();
    }
    it.close().unwrap();

    assert_eq!(c.len().unwrap(), 5);
    assert_eq!(c.index_entry_count("by-id").unwrap(), 5);
    assert_eq!(c.index_entry_count("by-usage").unwrap(), 5);
    let mut it = c.scan("by-id").unwrap();
    let got = drain_meters(&mut it);
    assert!(got.iter().all(|(id, _)| id % 2 == 1));
    it.close().unwrap();
}

#[test]
fn scan_exact_range_across_all_index_kinds() {
    let fx = Fixture::new();
    let store = fx.create();
    let t = store.begin();
    let specs = [
        IndexSpec::new("bt", "meter.id", false, IndexKind::BTree),
        IndexSpec::new("h", "meter.id", false, IndexKind::Hash),
        IndexSpec::new("l", "meter.id", false, IndexKind::List),
    ];
    let c = t.create_collection("p", &specs).unwrap();
    for i in 0..100 {
        c.insert(meter(i, 0, 0)).unwrap();
    }

    for index in ["bt", "h", "l"] {
        let it = c.scan(index).unwrap();
        assert_eq!(it.result_len(), 100, "scan on {index}");
        it.close().unwrap();
        let mut it = c.exact(index, &Key::I64(42)).unwrap();
        let got = drain_meters(&mut it);
        assert_eq!(got, vec![(42, 0)], "exact on {index}");
        it.close().unwrap();
    }

    // Range: B-tree ordered and inclusive/exclusive bounds honoured.
    let mut it = c
        .range(
            "bt",
            Bound::Included(&Key::I64(10)),
            Bound::Excluded(&Key::I64(13)),
        )
        .unwrap();
    let got: Vec<i64> = drain_meters(&mut it)
        .into_iter()
        .map(|(id, _)| id)
        .collect();
    assert_eq!(got, vec![10, 11, 12]);
    it.close().unwrap();

    // Range on hash / list is unsupported.
    for index in ["h", "l"] {
        assert!(matches!(
            c.range(index, Bound::Unbounded, Bound::Unbounded),
            Err(CollectionError::UnsupportedQuery { .. })
        ));
    }
}

#[test]
fn btree_scan_is_key_ordered() {
    let fx = Fixture::new();
    let store = fx.create();
    let t = store.begin();
    let c = t
        .create_collection(
            "p",
            &[IndexSpec::new("bt", "meter.id", true, IndexKind::BTree)],
        )
        .unwrap();
    // Insert in scrambled order.
    let mut ids: Vec<i64> = (0..200).collect();
    let mut state = 12345u64;
    for i in (1..ids.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ids.swap(i, (state % (i as u64 + 1)) as usize);
    }
    for id in &ids {
        c.insert(meter(*id, 0, 0)).unwrap();
    }
    let mut it = c.scan("bt").unwrap();
    let got: Vec<i64> = drain_meters(&mut it)
        .into_iter()
        .map(|(id, _)| id)
        .collect();
    let expect: Vec<i64> = (0..200).collect();
    assert_eq!(got, expect);
    it.close().unwrap();
}

#[test]
fn schema_mismatch_rejected() {
    struct Alien;
    impl Persistent for Alien {
        impl_persistent_boilerplate!(0xA11E);
        fn pickle(&self, _w: &mut Pickler) {}
    }
    fn unpickle_alien(_r: &mut Unpickler) -> Result<Box<dyn Persistent>, PickleError> {
        Ok(Box::new(Alien))
    }

    let fx = Fixture::new();
    let (mut classes, extractors) = registries();
    classes.register(0xA11E, "Alien", unpickle_alien);
    let store = CollectionStore::create(
        fx.chunks(true),
        classes,
        extractors,
        ObjectStoreConfig::default(),
    )
    .unwrap();
    let t = store.begin();
    let c = t.create_collection("p", &[id_indexer()]).unwrap();
    assert!(matches!(
        c.insert(Box::new(Alien)),
        Err(CollectionError::SchemaMismatch { .. })
    ));
}

#[test]
fn collection_management_errors() {
    let fx = Fixture::new();
    let store = fx.create();
    let t = store.begin();
    assert!(matches!(
        t.create_collection("p", &[]),
        Err(CollectionError::NeedsIndex(_))
    ));
    t.create_collection("p", &[id_indexer()]).unwrap();
    assert!(matches!(
        t.create_collection("p", &[id_indexer()]),
        Err(CollectionError::CollectionExists(_))
    ));
    assert!(matches!(
        t.read_collection("ghost"),
        Err(CollectionError::NoSuchCollection(_))
    ));
    assert!(matches!(
        t.create_collection(
            "q",
            &[IndexSpec::new(
                "x",
                "no.such.extractor",
                false,
                IndexKind::List
            )]
        ),
        Err(CollectionError::ExtractorNotRegistered(_))
    ));
}

#[test]
fn remove_collection_destroys_members() {
    let fx = Fixture::new();
    let store = fx.create();
    let t = store.begin();
    let c = t
        .create_collection("p", &[id_indexer(), usage_indexer()])
        .unwrap();
    for i in 0..30 {
        c.insert(meter(i, i, i)).unwrap();
    }
    t.commit(Durability::Durable).unwrap();
    let live_before = store.chunk_store().live_chunks();

    let t = store.begin();
    t.remove_collection("p").unwrap();
    t.commit(Durability::Durable).unwrap();
    let live_after = store.chunk_store().live_chunks();
    assert!(
        live_after + 30 <= live_before,
        "members not reclaimed: {live_before} -> {live_after}"
    );
    let t = store.begin();
    assert!(t.collection_names().unwrap().is_empty());
}

#[test]
fn abort_rolls_back_collection_changes() {
    let fx = Fixture::new();
    let store = fx.create();
    let t = store.begin();
    let c = t.create_collection("p", &[id_indexer()]).unwrap();
    c.insert(meter(1, 0, 0)).unwrap();
    t.commit(Durability::Durable).unwrap();

    let t = store.begin();
    {
        let c = t.write_collection("p").unwrap();
        c.insert(meter(2, 0, 0)).unwrap();
    }
    t.abort();

    let t = store.begin();
    let c = t.read_collection("p").unwrap();
    assert_eq!(c.len().unwrap(), 1);
    let it = c.exact("by-id", &Key::I64(2)).unwrap();
    assert_eq!(it.result_len(), 0);
    it.close().unwrap();
}

#[test]
fn large_collection_stress_all_kinds() {
    // Realistic (default) segment size: the hash directory object grows
    // with the table and needs the production chunk-size budget.
    let fx = Fixture::new();
    let (classes, extractors) = registries();
    let chunks = Arc::new(
        ChunkStore::create(
            Arc::new(fx.mem.clone()),
            &MemSecretStore::from_label("collection-tests"),
            Arc::new(fx.counter.clone()),
            ChunkStoreConfig::default(),
        )
        .unwrap(),
    );
    let store =
        CollectionStore::create(chunks, classes, extractors, ObjectStoreConfig::default()).unwrap();
    let t = store.begin();
    let c = t
        .create_collection(
            "big",
            &[
                IndexSpec::new("bt", "meter.id", true, IndexKind::BTree),
                IndexSpec::new("h", "meter.id", true, IndexKind::Hash),
            ],
        )
        .unwrap();
    for i in 0..2000 {
        c.insert(meter(i, i % 7, 0)).unwrap();
    }
    t.commit(Durability::Durable).unwrap();

    let t = store.begin();
    let c = t.read_collection("big").unwrap();
    assert_eq!(c.len().unwrap(), 2000);
    // Hash exact-match and B-tree range agree.
    for probe in [0i64, 1, 999, 1999] {
        let h = c.exact("h", &Key::I64(probe)).unwrap();
        let b = c.exact("bt", &Key::I64(probe)).unwrap();
        assert_eq!(h.current(), b.current(), "probe {probe}");
        assert_eq!(h.result_len(), 1);
        h.close().unwrap();
        b.close().unwrap();
    }
    let r = c
        .range(
            "bt",
            Bound::Included(&Key::I64(500)),
            Bound::Excluded(&Key::I64(600)),
        )
        .unwrap();
    assert_eq!(r.result_len(), 100);
    r.close().unwrap();
}

/// Cache admission: a member a transaction inserted leaves the object
/// cache when the transaction commits, while the index nodes the insert
/// touched stay resident (snapshot readers never refill them); a later
/// read reloads the member.
#[test]
fn committed_members_leave_the_cache_and_their_index_nodes_stay() {
    let fx = Fixture::new();
    let store = fx.create();
    let os = store.object_store();
    let t = store.begin();
    t.create_collection("profile", &[id_indexer(), usage_indexer()])
        .unwrap();
    t.commit(Durability::Durable).unwrap();

    let cache_bytes = || os.chunk_store().obs_snapshot().gauges["cache.bytes"];
    let before = cache_bytes();
    let t = store.begin();
    let oid = t
        .write_collection("profile")
        .unwrap()
        .insert(meter(1, 10, 5))
        .unwrap();
    let pinned = cache_bytes();
    assert!(pinned > before, "uncommitted member must stay pinned");
    t.commit(Durability::Durable).unwrap();
    assert!(cache_bytes() < pinned, "committed member still resident");

    let misses = || os.cache_stats().misses;
    let before = misses();
    let t = store.begin();
    {
        let profile = t.write_collection("profile").unwrap();
        assert_eq!(profile.lookup_ids("by-id", &Key::I64(1)).unwrap(), [oid]);
        assert_eq!(
            profile.lookup_ids("by-usage", &Key::I64(15)).unwrap(),
            [oid]
        );
        assert_eq!(misses(), before, "an index node left the cache");
        profile.read_object_bytes(oid).unwrap();
        assert_eq!(misses(), before + 1, "the read must reload the member");
    }
    t.commit(Durability::Lazy).unwrap();
    let t = store.begin();
    t.write_collection("profile")
        .unwrap()
        .read_object_bytes(oid)
        .unwrap();
    t.commit(Durability::Lazy).unwrap();
    assert_eq!(misses(), before + 1, "a member that was read stays cached");
}
