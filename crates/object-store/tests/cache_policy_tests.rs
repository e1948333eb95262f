//! Tests for the §4.2.2 cache policies: no-steal pinning, reference-count
//! protection, and lock-timeout configurability.

use chunk_store::{ChunkStore, ChunkStoreConfig};
use object_store::Durability;
use object_store::{
    impl_persistent_boilerplate, ClassRegistry, ObjectStore, ObjectStoreConfig, ObjectStoreError,
    Persistent, PickleError, Pickler, Unpickler,
};
use std::sync::Arc;
use std::time::Duration;
use tdb_platform::{MemSecretStore, MemStore, VolatileCounter};

const CLASS_BLOB: u32 = 0xB10B;

struct Blob {
    tag: u32,
    data: Vec<u8>,
}

impl Persistent for Blob {
    impl_persistent_boilerplate!(CLASS_BLOB);
    fn pickle(&self, w: &mut Pickler) {
        w.u32(self.tag);
        w.bytes(&self.data);
    }
}

fn unpickle(r: &mut Unpickler) -> Result<Box<dyn Persistent>, PickleError> {
    Ok(Box::new(Blob {
        tag: r.u32()?,
        data: r.bytes()?.to_vec(),
    }))
}

fn store_with(cfg: ObjectStoreConfig) -> ObjectStore {
    let chunks = Arc::new(
        ChunkStore::create(
            Arc::new(MemStore::new()),
            &MemSecretStore::from_label("cache-policy"),
            Arc::new(VolatileCounter::new()),
            ChunkStoreConfig::default(),
        )
        .unwrap(),
    );
    let mut reg = ClassRegistry::new();
    reg.register(CLASS_BLOB, "Blob", unpickle);
    ObjectStore::create(chunks, reg, cfg).unwrap()
}

/// No-steal: a dirty object is pinned regardless of cache pressure; its
/// uncommitted state must stay reachable until commit.
#[test]
fn dirty_objects_pinned_under_pressure() {
    let os = store_with(ObjectStoreConfig {
        cache_budget: 2048,
        ..Default::default()
    });

    // Open a transaction that dirties one large object...
    let t = os.begin();
    let big = t
        .insert(Box::new(Blob {
            tag: 1,
            data: vec![0xAA; 1500],
        }))
        .unwrap();

    // ...then blast the cache with unrelated objects from the same txn.
    let mut others = Vec::new();
    for i in 0..50u32 {
        others.push(
            t.insert(Box::new(Blob {
                tag: i + 100,
                data: vec![1; 200],
            }))
            .unwrap(),
        );
    }
    // The dirty object's uncommitted state is still there.
    let r = t.open_readonly::<Blob>(big).unwrap();
    assert_eq!(r.get().data.len(), 1500);
    assert_eq!(r.get().tag, 1);
    drop(r);
    t.commit(Durability::Durable).unwrap();

    // After commit everything is durable and re-loadable even if evicted.
    let t = os.begin();
    assert_eq!(
        t.open_readonly::<Blob>(big).unwrap().get().data,
        vec![0xAA; 1500]
    );
    for (i, id) in others.iter().enumerate() {
        assert_eq!(
            t.open_readonly::<Blob>(*id).unwrap().get().tag,
            i as u32 + 100
        );
    }
    let stats = os.cache_stats();
    assert!(
        stats.evictions > 0,
        "pressure must have evicted something: {stats:?}"
    );
}

/// Reference counting: an object the application holds a Ref to is never
/// evicted, even when clean.
#[test]
fn referenced_objects_survive_eviction_waves() {
    let os = store_with(ObjectStoreConfig {
        cache_budget: 1024,
        ..Default::default()
    });
    let t = os.begin();
    let held = t
        .insert(Box::new(Blob {
            tag: 7,
            data: vec![7; 300],
        }))
        .unwrap();
    t.commit(Durability::Durable).unwrap();

    let t = os.begin();
    let held_ref = t.open_readonly::<Blob>(held).unwrap();
    // Wave of traffic that overflows the budget several times.
    for i in 0..100u32 {
        let id = t
            .insert(Box::new(Blob {
                tag: i,
                data: vec![2; 200],
            }))
            .unwrap();
        let _ = id;
    }
    // The guard still works without refetching (same cached cell).
    assert_eq!(held_ref.get().tag, 7);
    drop(held_ref);
    t.commit(Durability::Durable).unwrap();
}

#[test]
fn lock_timeout_is_configurable() {
    let os = store_with(ObjectStoreConfig {
        lock_timeout: Duration::from_millis(30),
        ..Default::default()
    });
    let t = os.begin();
    let id = t
        .insert(Box::new(Blob {
            tag: 0,
            data: vec![],
        }))
        .unwrap();
    t.commit(Durability::Durable).unwrap();

    let holder = os.begin();
    let _guard = holder.open_writable::<Blob>(id).unwrap();
    let started = std::time::Instant::now();
    let os2 = os.clone();
    let waiter = std::thread::spawn(move || {
        let t2 = os2.begin();
        t2.open_readonly::<Blob>(id).map(|_| ())
    });
    let result = waiter.join().unwrap();
    let waited = started.elapsed();
    assert!(matches!(result, Err(ObjectStoreError::LockTimeout(_))));
    assert!(
        waited >= Duration::from_millis(25),
        "returned too early: {waited:?}"
    );
    assert!(
        waited < Duration::from_millis(2000),
        "ignored the configured timeout: {waited:?}"
    );
}

/// The paper's retry guidance: after a timeout the application "may
/// either retry the failed operation or abort and retry the entire
/// transaction" — both must work.
#[test]
fn retry_after_timeout_succeeds() {
    let os = store_with(ObjectStoreConfig {
        lock_timeout: Duration::from_millis(20),
        ..Default::default()
    });
    let t = os.begin();
    let id = t
        .insert(Box::new(Blob {
            tag: 0,
            data: vec![],
        }))
        .unwrap();
    t.commit(Durability::Durable).unwrap();

    let holder = os.begin();
    let guard = holder.open_writable::<Blob>(id).unwrap();
    let t2 = os.begin();
    // First attempt times out...
    assert!(matches!(
        t2.open_readonly::<Blob>(id),
        Err(ObjectStoreError::LockTimeout(_))
    ));
    // ...the holder finishes...
    drop(guard);
    holder.commit(Durability::Durable).unwrap();
    // ...and the *same transaction* retries the failed operation.
    assert!(t2.open_readonly::<Blob>(id).is_ok());
    t2.commit(Durability::Lazy).unwrap();
}

/// Eviction accounting stays consistent while dirty objects are pinned:
/// the incrementally maintained byte count must equal a fresh walk of the
/// cache at every phase (pressure with pins held, after commit, after the
/// post-commit eviction pass), pinned bytes must cover the dirty set, and
/// eviction must never have touched a pinned object.
#[test]
fn eviction_accounting_consistent_under_pinning() {
    let os = store_with(ObjectStoreConfig {
        cache_budget: 4096,
        ..Default::default()
    });

    let check = |phase: &str| {
        let (accounted, recomputed, pinned) = os.debug_cache_accounting();
        assert_eq!(
            accounted, recomputed,
            "cache byte accounting drifted ({phase})"
        );
        assert!(
            pinned <= accounted,
            "pinned {pinned} exceeds occupancy {accounted} ({phase})"
        );
        pinned
    };

    // Dirty a couple of large objects, then flood well past the budget.
    let t = os.begin();
    let big_a = t
        .insert(Box::new(Blob {
            tag: 1,
            data: vec![0xA; 1200],
        }))
        .unwrap();
    let big_b = t
        .insert(Box::new(Blob {
            tag: 2,
            data: vec![0xB; 1200],
        }))
        .unwrap();
    for i in 0..80u32 {
        t.insert(Box::new(Blob {
            tag: i + 10,
            data: vec![3; 150],
        }))
        .unwrap();
    }
    let pinned_under_pressure = check("under pressure");
    assert!(
        pinned_under_pressure >= 2400,
        "both dirty objects must be pinned: {pinned_under_pressure}"
    );
    let stats = os.cache_stats();
    assert_eq!(stats.pinned_bytes, pinned_under_pressure);
    assert!(stats.bytes >= stats.pinned_bytes);
    assert!(stats.hit_ratio() >= 0.0 && stats.hit_ratio() <= 1.0);

    // Pinned objects survived whatever eviction the flood triggered.
    assert_eq!(
        t.open_readonly::<Blob>(big_a).unwrap().get().data.len(),
        1200
    );
    assert_eq!(
        t.open_readonly::<Blob>(big_b).unwrap().get().data.len(),
        1200
    );

    t.commit(Durability::Durable).unwrap();
    // Commit unpins; the eviction pass may now reclaim them, but the books
    // must still balance and nothing may remain pinned.
    let pinned_after = check("after commit");
    assert_eq!(pinned_after, 0, "commit must release every pin");
    let stats = os.cache_stats();
    assert_eq!(stats.pinned_bytes, 0);
    assert!(
        stats.bytes <= 4096,
        "eviction pass must respect the budget once pins are gone: {stats:?}"
    );
}

/// Cache statistics move in the expected directions.
#[test]
fn cache_stats_accounting() {
    let os = store_with(ObjectStoreConfig::default());
    let t = os.begin();
    let id = t
        .insert(Box::new(Blob {
            tag: 1,
            data: vec![0; 64],
        }))
        .unwrap();
    t.commit(Durability::Durable).unwrap();
    let s0 = os.cache_stats();
    let t = os.begin();
    let _ = t.open_readonly::<Blob>(id).unwrap();
    t.commit(Durability::Lazy).unwrap();
    let s1 = os.cache_stats();
    assert!(
        s1.hits > s0.hits,
        "repeat open should hit: {s0:?} -> {s1:?}"
    );
    assert!(s1.bytes > 0 && s1.objects > 0);
}

/// Every `cache.*` gauge in the registry agrees with the cache's own scan
/// while dirty objects are pinned in an open transaction — read before
/// anything calls `cache_stats()`, so a gauge that only that call refreshes
/// would show up stale here.
#[test]
fn cache_gauges_match_the_cache_scan_with_dirty_objects_held() {
    let os = store_with(ObjectStoreConfig {
        cache_budget: 4096,
        ..Default::default()
    });
    let t = os.begin();
    for i in 0..8u32 {
        t.insert(Box::new(Blob {
            tag: i,
            data: vec![i as u8; 700],
        }))
        .unwrap();
    }
    let gauges = os.chunk_store().obs_snapshot().gauges;
    let scan = os.cache_stats();
    assert!(scan.pinned_bytes > 0, "dirty objects must be pinned");
    assert!(gauges.contains_key("cache.bytes"));
    for (name, value) in gauges.iter().filter(|(n, _)| n.starts_with("cache.")) {
        let scanned = match name.as_str() {
            "cache.bytes" => scan.bytes,
            "cache.pinned_bytes" => scan.pinned_bytes,
            other => panic!("gauge {other} has no counterpart in the cache scan"),
        };
        assert_eq!(*value as u64, scanned, "{name} disagrees with the scan");
    }
    t.commit(Durability::Durable).unwrap();
}

/// The budget is charged resident bytes, not pickled bytes, and the books
/// stay balanced on every path that adds or removes a cell: loads through
/// a writer's `load_cell`, snapshot reads (cache probes plus private
/// fallbacks), commits that re-pickle, and evictions. A cell costs at least
/// its pickled length plus the `Blob` struct and the `Arc`'s two counts, so
/// a small budget can hold at most `budget / that` objects — far fewer
/// than `budget / pickled length`, which is what a pickled-bytes charge
/// would have let in.
#[test]
fn cache_charges_resident_bytes_and_books_balance() {
    let budget = 16 * 1024;
    let os = store_with(ObjectStoreConfig {
        cache_budget: budget,
        ..Default::default()
    });
    let check = |phase: &str| {
        let (accounted, recomputed, _) = os.debug_cache_accounting();
        assert_eq!(accounted, recomputed, "cache books drifted ({phase})");
    };

    let mut ids = Vec::new();
    for batch in 0..20u32 {
        let t = os.begin();
        for i in 0..100 {
            ids.push(
                t.insert(Box::new(Blob {
                    tag: batch * 100 + i,
                    data: Vec::new(),
                }))
                .unwrap(),
            );
        }
        t.commit(Durability::Durable).unwrap();
        check("insert commit");
    }
    // Every object through a writer (load_cell on a miss), every other one
    // rewritten so commits re-pickle and re-charge cached cells.
    for chunk in ids.chunks(100) {
        let t = os.begin();
        for (i, id) in chunk.iter().enumerate() {
            if i % 2 == 0 {
                t.open_writable::<Blob>(*id).unwrap().get_mut().tag += 1;
            } else {
                t.open_readonly::<Blob>(*id).unwrap();
            }
        }
        t.commit(Durability::Lazy).unwrap();
        check("load and update commit");
    }
    let r = os.begin_read();
    for id in &ids {
        r.read::<Blob, _>(*id, |b| b.tag).unwrap();
    }
    drop(r);
    check("snapshot reads");
    // A last writer commit runs the post-commit eviction pass.
    let t = os.begin();
    t.open_readonly::<Blob>(ids[0]).unwrap();
    t.commit(Durability::Durable).unwrap();
    check("final commit");

    let stats = os.cache_stats();
    assert!(stats.evictions > 0, "the budget never bound: {stats:?}");
    let pickled = {
        let mut w = Pickler::new();
        Blob {
            tag: 0,
            data: Vec::new(),
        }
        .pickle(&mut w);
        w.into_bytes().len()
    };
    let min_charge = pickled + std::mem::size_of::<Blob>() + 2 * std::mem::size_of::<usize>();
    assert!(stats.bytes as usize <= budget, "{stats:?}");
    assert!(
        stats.objects as usize <= budget / min_charge,
        "{} objects in a {budget}-byte budget at >= {min_charge} bytes each",
        stats.objects
    );
    assert!(
        stats.bytes >= stats.objects * min_charge as u64,
        "{stats:?}"
    );
}

/// Cache admission: an object inserted with `insert_uncached` is pinned
/// while its transaction runs, leaves the cache at commit — the byte
/// gauge is back at its pre-insert value — and a later read reloads it.
#[test]
fn uncached_inserts_leave_the_cache_at_commit() {
    let os = store_with(ObjectStoreConfig::default());
    let bytes_gauge = |os: &ObjectStore| os.chunk_store().obs_snapshot().gauges["cache.bytes"];
    let before = bytes_gauge(&os);

    let t = os.begin();
    let id = t
        .insert_uncached(Box::new(Blob {
            tag: 7,
            data: vec![7; 300],
        }))
        .unwrap();
    assert!(bytes_gauge(&os) > before, "an uncommitted insert is pinned");
    t.commit(Durability::Durable).unwrap();
    assert_eq!(
        bytes_gauge(&os),
        before,
        "committed uncached insert resident"
    );

    let misses = os.cache_stats().misses;
    let t = os.begin();
    assert_eq!(t.open_readonly::<Blob>(id).unwrap().get().tag, 7);
    t.commit(Durability::Lazy).unwrap();
    assert_eq!(os.cache_stats().misses, misses + 1, "the read reloads it");
    let t = os.begin();
    t.open_readonly::<Blob>(id).unwrap();
    t.commit(Durability::Lazy).unwrap();
    assert_eq!(os.cache_stats().misses, misses + 1, "a read object stays");
}
