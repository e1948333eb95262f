//! Tests for the subtler chunk-store semantics the paper calls out
//! explicitly: the §3.2.2 nondurable-commit/cleaner interaction, free-list
//! bounds, chunk size limits, and snapshot/checkpoint interplay.

use chunk_store::Durability;
use chunk_store::{ChunkId, ChunkStore, ChunkStoreConfig, ChunkStoreError};
use std::sync::Arc;
use tdb_platform::{MemSecretStore, MemStore, VolatileCounter};

fn secret() -> MemSecretStore {
    MemSecretStore::from_label("semantics")
}

struct Fx {
    mem: MemStore,
    counter: VolatileCounter,
    cfg: ChunkStoreConfig,
}

impl Fx {
    fn new(cfg: ChunkStoreConfig) -> Self {
        Fx {
            mem: MemStore::new(),
            counter: VolatileCounter::new(),
            cfg,
        }
    }

    fn create(&self) -> ChunkStore {
        ChunkStore::create(
            Arc::new(self.mem.clone()),
            &secret(),
            Arc::new(self.counter.clone()),
            self.cfg.clone(),
        )
        .unwrap()
    }

    fn open(&self) -> ChunkStore {
        ChunkStore::open(
            Arc::new(self.mem.clone()),
            &secret(),
            Arc::new(self.counter.clone()),
            self.cfg.clone(),
        )
        .unwrap()
    }
}

/// The paper's §3.2.2 scenario: "Assume an existing chunk version A was
/// modified and rewritten as A' during a nondurable commit … the cleaner
/// [must not] reclaim the space used by the now-obsolete chunk version A
/// … until a durable commit occurs." Our cleaner takes a durable
/// checkpoint before reclaiming, which *promotes* the nondurable commit;
/// either way a crash must recover a consistent version, never garbage.
#[test]
fn nondurable_versions_survive_cleaning_pressure() {
    let fx = Fx::new(ChunkStoreConfig::small_for_tests());
    let store = fx.create();
    let mut batch = store.begin_batch();
    let a = batch.allocate_chunk_id().unwrap();
    batch.write(a, b"version A (durable)").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();

    // Nondurable overwrite, then heavy traffic + explicit cleaning that
    // would love to reclaim A's extent.
    let mut batch = store.begin_batch();
    batch.write(a, b"version A' (nondurable)").unwrap();
    store.commit_batch(batch, Durability::Lazy).unwrap();
    for i in 0..50u32 {
        let mut batch = store.begin_batch();
        let id = batch.allocate_chunk_id().unwrap();
        batch.write(id, &i.to_le_bytes().repeat(30)).unwrap();
        store.commit_batch(batch, Durability::Lazy).unwrap();
    }
    store.clean().unwrap();

    // Crash and recover: the cleaner checkpointed (a durable event), so A'
    // is the surviving version — and it must be exactly A', not torn.
    drop(store);
    let store = fx.open();
    assert_eq!(store.read(a).unwrap(), b"version A' (nondurable)");
}

/// Without any intervening durable event, a crash after a nondurable
/// overwrite recovers A — and A's bytes must still be intact even though
/// they were "obsolete" in memory.
#[test]
fn nondurable_overwrite_crash_recovers_old_version() {
    let fx = Fx::new(ChunkStoreConfig::small_for_tests());
    let store = fx.create();
    let mut batch = store.begin_batch();
    let a = batch.allocate_chunk_id().unwrap();
    batch.write(a, b"version A (durable)").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    let mut batch = store.begin_batch();
    batch.write(a, b"version A' (nondurable)").unwrap();
    store.commit_batch(batch, Durability::Lazy).unwrap();
    drop(store);
    let store = fx.open();
    assert_eq!(store.read(a).unwrap(), b"version A (durable)");
}

#[test]
fn chunk_size_limit_enforced_and_boundary_works() {
    let fx = Fx::new(ChunkStoreConfig::small_for_tests());
    let store = fx.create();
    let max = store.max_chunk_size();
    let mut batch = store.begin_batch();
    let id = batch.allocate_chunk_id().unwrap();
    // Exactly max: fine.
    batch.write(id, &vec![7u8; max]).unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    assert_eq!(store.read(id).unwrap().len(), max);
    // One over: clean error.
    let mut batch = store.begin_batch();
    assert!(matches!(
        batch.write(id, &vec![7u8; max + 1]),
        Err(ChunkStoreError::ChunkTooLarge { .. })
    ));
    // Zero-length chunks are legal.
    let z = batch.allocate_chunk_id().unwrap();
    batch.write(z, b"").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    assert_eq!(store.read(z).unwrap(), b"");
}

#[test]
fn free_list_cap_leaks_ids_but_stays_correct() {
    // The anchor remembers at most 4096 free ids; freeing more than that
    // leaks the excess across a restart.
    const CAP: u64 = 4096;
    const N: u64 = CAP + 20;
    let fx = Fx::new(ChunkStoreConfig::small_for_tests());
    {
        let store = fx.create();
        let mut batch = store.begin_batch();
        let ids: Vec<ChunkId> = (0..N).map(|_| batch.allocate_chunk_id().unwrap()).collect();
        for id in &ids {
            batch.write(*id, b"x").unwrap();
        }
        store.commit_batch(batch, Durability::Durable).unwrap();
        let mut batch = store.begin_batch();
        for id in &ids {
            batch.deallocate(*id).unwrap();
        }
        store.commit_batch(batch, Durability::Durable).unwrap();
        // The cap applies to the *anchored* free list; without a
        // checkpoint the deallocations would simply be replayed from the
        // residual log and nothing would leak.
        store.checkpoint().unwrap();
    }
    let store = fx.open();
    // At most `cap` freed ids were remembered; the rest leak (documented).
    let mut reused = 0;
    let mut batch = store.begin_batch();
    for _ in 0..N {
        let id = batch.allocate_chunk_id().unwrap();
        if id.0 < N {
            reused += 1;
        }
        batch.write(id, b"y").unwrap();
    }
    store.commit_batch(batch, Durability::Durable).unwrap();
    assert!(reused <= CAP, "cap violated: {reused}");
    assert!(store.live_chunks() == N);
}

#[test]
fn empty_durable_commit_still_advances_anchor() {
    let fx = Fx::new(ChunkStoreConfig::small_for_tests());
    let store = fx.create();
    let mut batch = store.begin_batch();
    let id = batch.allocate_chunk_id().unwrap();
    batch.write(id, b"v1").unwrap();
    store.commit_batch(batch, Durability::Lazy).unwrap(); // nondurable only

    // An empty durable commit must persist the earlier nondurable one.
    store
        .commit_batch(store.begin_batch(), Durability::Durable)
        .unwrap();
    drop(store);
    let store = fx.open();
    assert_eq!(store.read(id).unwrap(), b"v1");
}

#[test]
fn snapshot_diff_across_checkpoint_and_cleaning() {
    let fx = Fx::new(ChunkStoreConfig::small_for_tests());
    let store = fx.create();
    let mut batch = store.begin_batch();
    let ids: Vec<ChunkId> = (0..10)
        .map(|_| batch.allocate_chunk_id().unwrap())
        .collect();
    for id in &ids {
        batch.write(*id, b"base").unwrap();
    }
    store.commit_batch(batch, Durability::Durable).unwrap();
    let before = store.snapshot();

    let mut batch = store.begin_batch();
    batch.write(ids[3], b"changed").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    store.checkpoint().unwrap();
    // Churn + clean: relocations must not show up as spurious diffs.
    for round in 0..100u32 {
        let mut batch = store.begin_batch();
        let id = batch.allocate_chunk_id().unwrap();
        batch.write(id, &round.to_le_bytes().repeat(20)).unwrap();
        store.commit_batch(batch, Durability::Durable).unwrap();
        let mut batch = store.begin_batch();
        batch.deallocate(id).unwrap();
        store.commit_batch(batch, Durability::Durable).unwrap();
    }
    store.clean().unwrap();
    let after = store.snapshot();

    let diff = store.diff_snapshots(&before, &after);
    let changed_ids: Vec<u64> = diff.changed.iter().map(|(id, _)| id.0).collect();
    assert!(changed_ids.contains(&ids[3].0));
    assert!(diff.removed.is_empty());
    // Relocation-only churn of the *unchanged* chunks may surface as
    // location changes, but their content must be identical.
    for (id, _) in &diff.changed {
        if *id != ids[3] {
            assert_eq!(store.read_at_snapshot(&after, *id).unwrap(), b"base");
        }
    }
}

#[test]
fn reopen_in_wrong_mode_rejected_without_damage() {
    let fx = Fx::new(ChunkStoreConfig::small_for_tests());
    {
        let store = fx.create();
        let mut batch = store.begin_batch();
        let id = batch.allocate_chunk_id().unwrap();
        batch.write(id, b"precious").unwrap();
        store.commit_batch(batch, Durability::Durable).unwrap();
    }
    let mut off = ChunkStoreConfig::small_for_tests();
    off.security = chunk_store::SecurityMode::Off;
    assert!(ChunkStore::open(
        Arc::new(fx.mem.clone()),
        &secret(),
        Arc::new(fx.counter.clone()),
        off
    )
    .is_err());
    // The failed open must not have harmed anything.
    let store = fx.open();
    assert_eq!(store.read(ChunkId(0)).unwrap(), b"precious");
}

#[test]
fn reopen_with_wrong_geometry_rejected() {
    let fx = Fx::new(ChunkStoreConfig::small_for_tests());
    {
        let _ = fx.create();
    }
    let mut other = ChunkStoreConfig::small_for_tests();
    other.segment_size *= 2;
    assert!(matches!(
        ChunkStore::open(
            Arc::new(fx.mem.clone()),
            &secret(),
            Arc::new(fx.counter.clone()),
            other
        ),
        Err(ChunkStoreError::ConfigMismatch(_))
    ));
    let mut other = ChunkStoreConfig::small_for_tests();
    other.map_fanout *= 2;
    assert!(matches!(
        ChunkStore::open(
            Arc::new(fx.mem.clone()),
            &secret(),
            Arc::new(fx.counter.clone()),
            other
        ),
        Err(ChunkStoreError::ConfigMismatch(_))
    ));
}

#[test]
fn many_reopen_cycles_accumulate_no_damage() {
    let fx = Fx::new(ChunkStoreConfig::small_for_tests());
    {
        let store = fx.create();
        let mut batch = store.begin_batch();
        let id = batch.allocate_chunk_id().unwrap();
        batch.write(id, 0u64.to_le_bytes().as_slice()).unwrap();
        store.commit_batch(batch, Durability::Durable).unwrap();
    }
    for cycle in 1..=30u64 {
        let store = fx.open();
        let prev = u64::from_le_bytes(store.read(ChunkId(0)).unwrap().try_into().unwrap());
        assert_eq!(prev, cycle - 1, "cycle {cycle}");
        let mut batch = store.begin_batch();
        batch
            .write(ChunkId(0), cycle.to_le_bytes().as_slice())
            .unwrap();
        // Alternate durability modes and maintenance across cycles.
        store
            .commit_batch(batch, Durability::from(cycle % 2 == 0))
            .unwrap();
        if cycle % 2 == 1 {
            // Nondurable would be lost on crash; make it durable via an
            // explicit checkpoint half the time to exercise both paths.
            store.checkpoint().unwrap();
        }
        if cycle % 5 == 0 {
            store.clean().unwrap();
        }
    }
    let store = fx.open();
    assert_eq!(
        u64::from_le_bytes(store.read(ChunkId(0)).unwrap().try_into().unwrap()),
        30
    );
}

/// The §3.2.2 durability contract, checked at the device level: a
/// *nondurable* commit must never reach for the disk's sync primitive
/// (that is the whole point of offering it), while a *durable* commit
/// must sync before acknowledging.
#[test]
fn nondurable_commit_never_syncs_durable_commit_does() {
    use tdb_platform::{FaultPlan, FaultStore};
    let plan = FaultPlan::unlimited();
    let store = ChunkStore::create(
        Arc::new(FaultStore::new(MemStore::new(), plan.clone())),
        &secret(),
        Arc::new(VolatileCounter::new()),
        ChunkStoreConfig::small_for_tests(),
    )
    .unwrap();

    let baseline = plan.sync_count();
    let mut batch = store.begin_batch();
    let id = batch.allocate_chunk_id().unwrap();
    batch.write(id, b"not worth a platter rotation").unwrap();
    store.commit_batch(batch, Durability::Lazy).unwrap();
    assert_eq!(
        plan.sync_count(),
        baseline,
        "nondurable commit must not sync"
    );

    let mut batch = store.begin_batch();
    batch.write(id, b"worth acknowledging durably").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    assert!(
        plan.sync_count() > baseline,
        "durable commit must sync before acking"
    );
}

/// Recovery reports what it found: how many durable commits it replayed
/// and how many chain-valid nondurable leftovers it discarded.
#[test]
fn recovery_report_counts_replayed_and_discarded_commits() {
    let fx = Fx::new(ChunkStoreConfig::small_for_tests());
    let id = {
        let store = fx.create();
        assert!(
            store.recovery_reports()[0].is_none(),
            "fresh store ran no recovery"
        );
        let mut batch = store.begin_batch();
        let id = batch.allocate_chunk_id().unwrap();
        for v in 0..3u32 {
            batch.write(id, &v.to_le_bytes()).unwrap();
            store.commit_batch(batch, Durability::Durable).unwrap();
            batch = store.begin_batch();
        }
        for v in 3..7u32 {
            batch.write(id, &v.to_le_bytes()).unwrap();
            store.commit_batch(batch, Durability::Lazy).unwrap();
            batch = store.begin_batch();
        }
        id
    };
    let store = fx.open();
    let report = store.recovery_reports()[0]
        .clone()
        .expect("opened store carries a report");
    assert_eq!(report.last_seq - report.base_seq, report.commits_replayed);
    assert_eq!(
        report.nondurable_discarded, 4,
        "the four nondurable leftovers are discarded, and counted: {report:?}"
    );
    assert!(
        !report.counter_repaired,
        "clean shutdown needs no counter repair"
    );
    // And the discard is real: the durable version survives.
    assert_eq!(store.read(id).unwrap(), 2u32.to_le_bytes());
}
