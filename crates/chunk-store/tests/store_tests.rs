//! End-to-end chunk store tests: the trusted-storage guarantees of paper §3.

use chunk_store::Durability;
use chunk_store::{ChunkStore, ChunkStoreConfig, ChunkStoreError, SecurityMode};
use std::sync::Arc;
use tdb_platform::{
    FaultPlan, FaultStore, MemSecretStore, MemStore, OneWayCounter, TamperableCounter,
    UntrustedStore, VolatileCounter,
};

fn cfg() -> ChunkStoreConfig {
    ChunkStoreConfig::small_for_tests()
}

fn secret() -> MemSecretStore {
    MemSecretStore::from_label("store-tests")
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

    fn create(&self) -> ChunkStore {
        ChunkStore::create(
            Arc::new(self.mem.clone()),
            &secret(),
            Arc::new(self.counter.clone()),
            cfg(),
        )
        .unwrap()
    }

    fn create_with(&self, cfg: ChunkStoreConfig) -> ChunkStore {
        ChunkStore::create(
            Arc::new(self.mem.clone()),
            &secret(),
            Arc::new(self.counter.clone()),
            cfg,
        )
        .unwrap()
    }

    fn open(&self) -> chunk_store::Result<ChunkStore> {
        ChunkStore::open(
            Arc::new(self.mem.clone()),
            &secret(),
            Arc::new(self.counter.clone()),
            cfg(),
        )
    }
}

#[test]
fn write_read_roundtrip_within_session() {
    let fx = Fixture::new();
    let store = fx.create();
    let mut batch = store.begin_batch();
    let id = batch.allocate_chunk_id().unwrap();
    batch.write(id, b"meter: 1").unwrap();
    // Read-your-writes before commit.
    assert_eq!(batch.read(id).unwrap(), b"meter: 1");
    store.commit_batch(batch, Durability::Durable).unwrap();
    assert_eq!(store.read(id).unwrap(), b"meter: 1");
    // Overwrite with different size.
    let mut batch = store.begin_batch();
    batch
        .write(id, b"a much longer meter state than before")
        .unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    assert_eq!(
        store.read(id).unwrap(),
        b"a much longer meter state than before"
    );
}

#[test]
fn state_survives_reopen() {
    let fx = Fixture::new();
    {
        let store = fx.create();
        let mut batch = store.begin_batch();
        for i in 0..50u8 {
            let id = batch.allocate_chunk_id().unwrap();
            batch.write(id, &[i; 33]).unwrap();
        }
        store.commit_batch(batch, Durability::Durable).unwrap();
    }
    let store = fx.open().unwrap();
    for i in 0..50u64 {
        assert_eq!(
            store.read(chunk_store::ChunkId(i)).unwrap(),
            vec![i as u8; 33]
        );
    }
    assert_eq!(store.live_chunks(), 50);
}

#[test]
fn reopen_after_checkpoint_and_more_commits() {
    let fx = Fixture::new();
    {
        let store = fx.create();
        let mut batch = store.begin_batch();
        let ids: Vec<_> = (0..20)
            .map(|_| batch.allocate_chunk_id().unwrap())
            .collect();
        for (i, id) in ids.iter().enumerate() {
            batch.write(*id, format!("v1-{i}").as_bytes()).unwrap();
        }
        store.commit_batch(batch, Durability::Durable).unwrap();
        store.checkpoint().unwrap();
        // Post-checkpoint updates live only in the residual log.
        let mut batch = store.begin_batch();
        for (i, id) in ids.iter().enumerate().take(10) {
            batch.write(*id, format!("v2-{i}").as_bytes()).unwrap();
        }
        store.commit_batch(batch, Durability::Durable).unwrap();
    }
    let store = fx.open().unwrap();
    for i in 0..10u64 {
        assert_eq!(
            store.read(chunk_store::ChunkId(i)).unwrap(),
            format!("v2-{i}").as_bytes()
        );
    }
    for i in 10..20u64 {
        assert_eq!(
            store.read(chunk_store::ChunkId(i)).unwrap(),
            format!("v1-{i}").as_bytes()
        );
    }
}

#[test]
fn unallocated_and_unwritten_errors() {
    let fx = Fixture::new();
    let store = fx.create();
    let bogus = chunk_store::ChunkId(999);
    assert!(matches!(
        store.read(bogus),
        Err(ChunkStoreError::NotAllocated(_))
    ));
    let mut batch = store.begin_batch();
    assert!(matches!(
        batch.write(bogus, b"x"),
        Err(ChunkStoreError::NotAllocated(_))
    ));
    assert!(matches!(
        batch.deallocate(bogus),
        Err(ChunkStoreError::NotAllocated(_))
    ));

    let id = batch.allocate_chunk_id().unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    assert!(matches!(
        store.read(id),
        Err(ChunkStoreError::NotWritten(_))
    ));
}

#[test]
fn deallocate_frees_and_reuses_ids() {
    let fx = Fixture::new();
    let store = fx.create();
    let mut batch = store.begin_batch();
    let a = batch.allocate_chunk_id().unwrap();
    batch.write(a, b"gone soon").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    let mut batch = store.begin_batch();
    batch.deallocate(a).unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    assert!(matches!(
        store.read(a),
        Err(ChunkStoreError::NotAllocated(_))
    ));
    // The freed id is reused.
    let mut batch = store.begin_batch();
    let b = batch.allocate_chunk_id().unwrap();
    assert_eq!(a, b);
}

#[test]
fn free_ids_survive_reopen() {
    let fx = Fixture::new();
    {
        let store = fx.create();
        let mut batch = store.begin_batch();
        let a = batch.allocate_chunk_id().unwrap();
        let b = batch.allocate_chunk_id().unwrap();
        batch.write(a, b"a").unwrap();
        batch.write(b, b"b").unwrap();
        store.commit_batch(batch, Durability::Durable).unwrap();
        let mut batch = store.begin_batch();
        batch.deallocate(a).unwrap();
        store.commit_batch(batch, Durability::Durable).unwrap();
    }
    let store = fx.open().unwrap();
    let mut batch = store.begin_batch();
    let c = batch.allocate_chunk_id().unwrap();
    assert_eq!(c.as_u64(), 0, "freed id 0 should be reused after reopen");
}

#[test]
fn discard_rolls_back_batch() {
    let fx = Fixture::new();
    let store = fx.create();
    let mut batch = store.begin_batch();
    let a = batch.allocate_chunk_id().unwrap();
    batch.write(a, b"committed").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();

    let mut batch = store.begin_batch();
    batch.write(a, b"staged").unwrap();
    let b = batch.allocate_chunk_id().unwrap();
    batch.write(b, b"staged-new").unwrap();
    batch.discard();
    assert_eq!(store.read(a).unwrap(), b"committed");
    assert!(matches!(
        store.read(b),
        Err(ChunkStoreError::NotAllocated(_))
    ));
    // b's id returned to the free pool.
    let mut batch = store.begin_batch();
    assert_eq!(batch.allocate_chunk_id().unwrap(), b);
}

#[test]
fn atomic_batch_commit() {
    let fx = Fixture::new();
    let store = fx.create();
    let mut batch = store.begin_batch();
    let ids: Vec<_> = (0..10)
        .map(|_| batch.allocate_chunk_id().unwrap())
        .collect();
    for id in &ids {
        batch.write(*id, b"batch").unwrap();
    }
    store.commit_batch(batch, Durability::Durable).unwrap();
    // Batch larger than max-ops-per-commit still commits atomically.
    let mut batch = store.begin_batch();
    let many: Vec<_> = (0..500)
        .map(|_| batch.allocate_chunk_id().unwrap())
        .collect();
    for id in &many {
        batch.write(*id, &[1u8; 40]).unwrap();
    }
    store.commit_batch(batch, Durability::Durable).unwrap();
    for id in many {
        assert_eq!(store.read(id).unwrap(), vec![1u8; 40]);
    }
}

// ---------------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------------

/// Run `work` against a store whose writes crash after `budget` bytes, then
/// reopen from the surviving bytes and return the recovered store.
fn crash_and_recover(
    budget: u64,
    setup: impl FnOnce(&ChunkStore),
    work: impl FnOnce(&ChunkStore),
) -> (ChunkStore, MemStore) {
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let plan = FaultPlan::unlimited();
    let faulty = FaultStore::new(mem.clone(), plan.clone());
    let store = ChunkStore::create(
        Arc::new(faulty),
        &secret(),
        Arc::new(counter.clone()),
        cfg(),
    )
    .unwrap();
    setup(&store);
    plan.rearm(budget);
    work(&store);
    drop(store);
    let recovered =
        ChunkStore::open(Arc::new(mem.clone()), &secret(), Arc::new(counter), cfg()).unwrap();
    (recovered, mem)
}

#[test]
fn crash_mid_commit_loses_nothing_durable() {
    for budget in [0u64, 1, 7, 33, 64, 100, 200, 400, 1000] {
        let (recovered, _) = crash_and_recover(
            budget,
            |store| {
                let mut batch = store.begin_batch();
                for i in 0..10u8 {
                    let id = batch.allocate_chunk_id().unwrap();
                    batch.write(id, &[i; 20]).unwrap();
                }
                store.commit_batch(batch, Durability::Durable).unwrap();
            },
            |store| {
                // This durable commit crashes partway.
                let mut batch = store.begin_batch();
                for i in 0..10u64 {
                    batch.write(chunk_store::ChunkId(i), &[0xEE; 20]).unwrap();
                }
                let _ = store.commit_batch(batch, Durability::Durable);
            },
        );
        // Either the whole update survived or none of it; the old state is
        // never corrupted.
        let first = recovered.read(chunk_store::ChunkId(0)).unwrap();
        assert!(
            first == vec![0u8; 20] || first == vec![0xEE; 20],
            "budget {budget}"
        );
        for i in 1..10u64 {
            let got = recovered.read(chunk_store::ChunkId(i)).unwrap();
            // Atomicity: all chunks agree on which version survived.
            if first == vec![0xEE; 20] {
                assert_eq!(got, vec![0xEE; 20], "budget {budget}, chunk {i}");
            } else {
                assert_eq!(got, vec![i as u8; 20], "budget {budget}, chunk {i}");
            }
        }
    }
}

#[test]
fn nondurable_commit_never_survives_crash() {
    let (recovered, _) = crash_and_recover(
        u64::MAX,
        |store| {
            let mut batch = store.begin_batch();
            let id = batch.allocate_chunk_id().unwrap();
            batch.write(id, b"durable state").unwrap();
            store.commit_batch(batch, Durability::Durable).unwrap();
        },
        |store| {
            let mut batch = store.begin_batch();
            batch
                .write(chunk_store::ChunkId(0), b"nondurable update")
                .unwrap();
            store.commit_batch(batch, Durability::Lazy).unwrap();
            // Crash without a durable commit: the nondurable one must die,
            // even though its bytes were fully written.
        },
    );
    assert_eq!(
        recovered.read(chunk_store::ChunkId(0)).unwrap(),
        b"durable state"
    );
}

#[test]
fn durable_commit_persists_prior_nondurable_commits() {
    let fx = Fixture::new();
    {
        let store = fx.create();
        let mut batch = store.begin_batch();
        let a = batch.allocate_chunk_id().unwrap();
        batch.write(a, b"v1").unwrap();
        store.commit_batch(batch, Durability::Lazy).unwrap();
        let mut batch = store.begin_batch();
        batch.write(a, b"v2").unwrap();
        store.commit_batch(batch, Durability::Lazy).unwrap();
        let mut batch = store.begin_batch();
        let b = batch.allocate_chunk_id().unwrap();
        batch.write(b, b"w").unwrap();
        store.commit_batch(batch, Durability::Durable).unwrap(); // makes v2 + w durable
    }
    let store = fx.open().unwrap();
    assert_eq!(store.read(chunk_store::ChunkId(0)).unwrap(), b"v2");
    assert_eq!(store.read(chunk_store::ChunkId(1)).unwrap(), b"w");
}

#[test]
fn crash_during_checkpoint_recovers() {
    for budget in [10u64, 50, 150, 300, 600, 1200, 2400] {
        let mem = MemStore::new();
        let counter = VolatileCounter::new();
        let plan = FaultPlan::unlimited();
        let faulty = FaultStore::new(mem.clone(), plan.clone());
        let store = ChunkStore::create(
            Arc::new(faulty),
            &secret(),
            Arc::new(counter.clone()),
            cfg(),
        )
        .unwrap();
        let mut batch = store.begin_batch();
        for i in 0..30u8 {
            let id = batch.allocate_chunk_id().unwrap();
            batch.write(id, &[i; 25]).unwrap();
        }
        store.commit_batch(batch, Durability::Durable).unwrap();
        plan.rearm(budget);
        let _ = store.checkpoint();
        drop(store);
        let recovered =
            ChunkStore::open(Arc::new(mem), &secret(), Arc::new(counter), cfg()).unwrap();
        for i in 0..30u64 {
            assert_eq!(
                recovered.read(chunk_store::ChunkId(i)).unwrap(),
                vec![i as u8; 25],
                "budget {budget}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Tamper and replay detection
// ---------------------------------------------------------------------------

#[test]
fn bit_flip_in_chunk_data_is_detected_on_read() {
    let fx = Fixture::new();
    let store = fx.create();
    let mut batch = store.begin_batch();
    let id = batch.allocate_chunk_id().unwrap();
    batch.write(id, &[0x55; 200]).unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();

    // Flip bits throughout segment 0; at least the chunk read must fail.
    let raw = fx.mem.raw("seg.000000").unwrap();
    let mut detected = false;
    for off in (20..raw.len() as u64).step_by(16) {
        fx.mem.corrupt("seg.000000", off, 1).unwrap();
        match store.read(id) {
            Err(ChunkStoreError::TamperDetected(_)) => detected = true,
            Ok(data) => assert_eq!(data, vec![0x55; 200], "silent corruption!"),
            Err(e) => panic!("unexpected error {e}"),
        }
        fx.mem.corrupt("seg.000000", off, 1).unwrap(); // restore
    }
    assert!(detected, "no flip was ever detected");
}

#[test]
fn tampered_residual_log_is_detected_at_open() {
    let fx = Fixture::new();
    {
        let store = fx.create();
        let mut batch = store.begin_batch();
        let id = batch.allocate_chunk_id().unwrap();
        batch.write(id, b"pay-per-view count: 10").unwrap();
        store.commit_batch(batch, Durability::Durable).unwrap();
    }
    // Corrupt the log tail (where the commit record lives).
    let raw = fx.mem.raw("seg.000000").unwrap();
    fx.mem
        .corrupt("seg.000000", raw.len() as u64 - 10, 4)
        .unwrap();
    match fx.open() {
        Err(ChunkStoreError::TamperDetected(_)) => {}
        Err(e) => panic!("expected tamper detection, got {e}"),
        Ok(_) => panic!("tampered database opened successfully"),
    }
}

#[test]
fn tampered_anchor_is_detected() {
    let fx = Fixture::new();
    {
        let store = fx.create();
        let mut batch = store.begin_batch();
        let id = batch.allocate_chunk_id().unwrap();
        batch.write(id, b"x").unwrap();
        store.commit_batch(batch, Durability::Durable).unwrap();
    }
    fx.mem.corrupt("anchor.a", 30, 2).unwrap();
    fx.mem.corrupt("anchor.b", 30, 2).unwrap();
    assert!(matches!(
        fx.open(),
        Err(ChunkStoreError::TamperDetected(_) | ChunkStoreError::ConfigMismatch(_))
    ));
}

#[test]
fn whole_database_replay_is_detected() {
    let fx = Fixture::new();
    let store = fx.create();
    let mut batch = store.begin_batch();
    let id = batch.allocate_chunk_id().unwrap();
    batch.write(id, b"balance: $100").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();

    // Consumer saves a copy of the database...
    let saved = fx.mem.deep_clone();

    // ...spends money...
    let mut batch = store.begin_batch();
    batch.write(id, b"balance: $0").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    drop(store);

    // ...and replays the saved copy to get the balance back.
    fx.mem.restore_from(&saved);
    match fx.open() {
        Err(ChunkStoreError::ReplayDetected {
            anchor_counter,
            hardware_counter,
        }) => {
            assert!(anchor_counter < hardware_counter);
        }
        Err(e) => panic!("expected replay detection, got {e}"),
        Ok(_) => panic!("replayed database opened successfully"),
    }
}

#[test]
fn replay_succeeds_if_counter_is_also_rolled_back() {
    // Sanity check that detection really rests on the one-way property:
    // with a (hypothetically) resettable counter the attack works.
    let mem = MemStore::new();
    let counter = TamperableCounter::new();
    let store = ChunkStore::create(
        Arc::new(mem.clone()),
        &secret(),
        Arc::new(counter.clone()),
        cfg(),
    )
    .unwrap();
    let mut batch = store.begin_batch();
    let id = batch.allocate_chunk_id().unwrap();
    batch.write(id, b"balance: $100").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    let saved = mem.deep_clone();
    let counter_at_save = counter.read().unwrap();
    let mut batch = store.begin_batch();
    batch.write(id, b"balance: $0").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    drop(store);

    mem.restore_from(&saved);
    counter.set(counter_at_save); // the hardware violation
    let store = ChunkStore::open(Arc::new(mem), &secret(), Arc::new(counter), cfg()).unwrap();
    assert_eq!(store.read(id).unwrap(), b"balance: $100");
}

#[test]
fn wrong_secret_cannot_open() {
    let fx = Fixture::new();
    {
        let store = fx.create();
        let mut batch = store.begin_batch();
        let id = batch.allocate_chunk_id().unwrap();
        batch.write(id, b"secret data").unwrap();
        store.commit_batch(batch, Durability::Durable).unwrap();
    }
    let result = ChunkStore::open(
        Arc::new(fx.mem.clone()),
        &MemSecretStore::from_label("WRONG"),
        Arc::new(fx.counter.clone()),
        cfg(),
    );
    assert!(matches!(result, Err(ChunkStoreError::TamperDetected(_))));
}

#[test]
fn ciphertext_reveals_nothing() {
    let fx = Fixture::new();
    let store = fx.create();
    let mut batch = store.begin_batch();
    let id = batch.allocate_chunk_id().unwrap();
    let plaintext = b"TOP-SECRET-CONTENT-KEY-0123456789";
    batch.write(id, plaintext).unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    store.checkpoint().unwrap();
    for name in fx.mem.list().unwrap() {
        let raw = fx.mem.raw(&name).unwrap();
        assert!(
            !raw.windows(plaintext.len()).any(|w| w == plaintext),
            "plaintext leaked into {name}"
        );
        // Even a fragment must not appear.
        assert!(
            !raw.windows(10).any(|w| w == &plaintext[..10]),
            "fragment leaked into {name}"
        );
    }
}

#[test]
fn security_off_stores_plaintext_and_skips_counter() {
    let fx = Fixture::new();
    let mut c = cfg();
    c.security = SecurityMode::Off;
    let store = fx.create_with(c);
    let mut batch = store.begin_batch();
    let id = batch.allocate_chunk_id().unwrap();
    batch.write(id, b"VISIBLE-PLAINTEXT").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    let raw = fx.mem.raw("seg.000000").unwrap();
    assert!(raw.windows(17).any(|w| w == b"VISIBLE-PLAINTEXT"));
    assert_eq!(
        fx.counter.read().unwrap(),
        0,
        "Off mode must not touch the counter"
    );
}

#[test]
fn mode_mismatch_is_rejected() {
    let fx = Fixture::new();
    {
        let _ = fx.create(); // Full mode
    }
    let mut off = cfg();
    off.security = SecurityMode::Off;
    let result = ChunkStore::open(
        Arc::new(fx.mem.clone()),
        &secret(),
        Arc::new(fx.counter.clone()),
        off,
    );
    assert!(matches!(
        result,
        Err(ChunkStoreError::ConfigMismatch(_) | ChunkStoreError::TamperDetected(_))
    ));
}

// ---------------------------------------------------------------------------
// Cleaning, utilization, growth
// ---------------------------------------------------------------------------

#[test]
fn heavy_overwrite_traffic_is_cleaned_and_bounded() {
    let fx = Fixture::new();
    let store = fx.create();
    let mut batch = store.begin_batch();
    let ids: Vec<_> = (0..16)
        .map(|_| batch.allocate_chunk_id().unwrap())
        .collect();
    for id in &ids {
        batch.write(*id, &[0u8; 100]).unwrap();
    }
    store.commit_batch(batch, Durability::Durable).unwrap();

    // 400 rounds of overwrites: ~6.4 MB of writes through 4 KiB segments.
    for round in 0..400u32 {
        let mut batch = store.begin_batch();
        for id in &ids {
            batch.write(*id, &round.to_le_bytes().repeat(25)).unwrap();
        }
        store.commit_batch(batch, Durability::Durable).unwrap();
    }
    let stats = store.stats();
    assert!(stats.cleaner_passes > 0, "cleaner never ran");
    assert!(
        stats.cleaner_segments_freed > 0,
        "cleaner never freed a segment"
    );

    // The database stays bounded: live data is ~16*~120B, so a handful of
    // segments suffices. Without cleaning we would have hundreds.
    let size = store.disk_size();
    assert!(size < 40 * 4096, "database grew unboundedly: {size} bytes");

    // And the data is still correct.
    for id in &ids {
        assert_eq!(store.read(*id).unwrap(), 399u32.to_le_bytes().repeat(25));
    }
}

#[test]
fn database_survives_reopen_after_heavy_cleaning() {
    let fx = Fixture::new();
    {
        let store = fx.create();
        let mut batch = store.begin_batch();
        let ids: Vec<_> = (0..16)
            .map(|_| batch.allocate_chunk_id().unwrap())
            .collect();
        for round in 0..200u32 {
            for id in &ids {
                batch.write(*id, &round.to_le_bytes().repeat(30)).unwrap();
            }
            store.commit_batch(batch, Durability::Durable).unwrap();
            batch = store.begin_batch();
        }
    }
    let store = fx.open().unwrap();
    for i in 0..16u64 {
        assert_eq!(
            store.read(chunk_store::ChunkId(i)).unwrap(),
            199u32.to_le_bytes().repeat(30)
        );
    }
}

#[test]
fn higher_max_utilization_gives_smaller_database() {
    let mut sizes = Vec::new();
    for util in [0.3, 0.6, 0.9] {
        let fx = Fixture::new();
        let mut c = cfg();
        c.max_utilization = util;
        let store = fx.create_with(c);
        let mut batch = store.begin_batch();
        // ~32 KiB of live data: enough segments that the handful of free
        // ones the store keeps in reserve do not decide the comparison.
        let ids: Vec<_> = (0..64)
            .map(|_| batch.allocate_chunk_id().unwrap())
            .collect();
        for round in 0..60u32 {
            for id in &ids {
                batch.write(*id, &round.to_le_bytes().repeat(125)).unwrap();
            }
            store.commit_batch(batch, Durability::Durable).unwrap();
            batch = store.begin_batch();
        }
        store.checkpoint().unwrap();
        sizes.push(store.disk_size());
    }
    assert!(
        sizes[0] >= sizes[2],
        "size at util 0.3 ({}) should be >= size at util 0.9 ({})",
        sizes[0],
        sizes[2]
    );
}

#[test]
fn out_of_space_when_growth_disabled() {
    let fx = Fixture::new();
    let mut c = cfg();
    c.allow_growth = false;
    c.initial_segments = 3;
    let store = fx.create_with(c);
    let mut result = Ok(());
    for _ in 0..2000u32 {
        let mut batch = store.begin_batch();
        let id = batch.allocate_chunk_id().unwrap();
        if let Err(e) = batch
            .write(id, &[1u8; 64])
            .and_then(|_| store.commit_batch(batch, Durability::Durable))
        {
            result = Err(e);
            break;
        }
    }
    assert!(matches!(result, Err(ChunkStoreError::OutOfSpace { .. })));
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

#[test]
fn snapshot_isolation_and_reads() {
    let fx = Fixture::new();
    let store = fx.create();
    let mut batch = store.begin_batch();
    let id = batch.allocate_chunk_id().unwrap();
    batch.write(id, b"version 1").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();

    let snap = store.snapshot();
    let mut batch = store.begin_batch();
    batch.write(id, b"version 2").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();

    assert_eq!(store.read(id).unwrap(), b"version 2");
    assert_eq!(store.read_at_snapshot(&snap, id).unwrap(), b"version 1");
}

#[test]
fn snapshot_survives_cleaning() {
    let fx = Fixture::new();
    let store = fx.create();
    let mut batch = store.begin_batch();
    let ids: Vec<_> = (0..8).map(|_| batch.allocate_chunk_id().unwrap()).collect();
    for id in &ids {
        batch.write(*id, b"snapshotted-v0").unwrap();
    }
    store.commit_batch(batch, Durability::Durable).unwrap();
    let snap = store.snapshot();

    // Churn enough to force cleaning.
    for round in 0..300u32 {
        let mut batch = store.begin_batch();
        for id in &ids {
            batch.write(*id, &round.to_le_bytes().repeat(20)).unwrap();
        }
        store.commit_batch(batch, Durability::Durable).unwrap();
    }
    assert!(store.stats().cleaner_passes > 0);
    for id in &ids {
        assert_eq!(
            store.read_at_snapshot(&snap, *id).unwrap(),
            b"snapshotted-v0"
        );
    }

    // Dropping the snapshot releases the pin; later cleaning reclaims.
    drop(snap);
    for round in 0..100u32 {
        let mut batch = store.begin_batch();
        for id in &ids {
            batch.write(*id, &round.to_le_bytes().repeat(20)).unwrap();
        }
        store.commit_batch(batch, Durability::Durable).unwrap();
    }
    assert!(store.disk_size() < 60 * 4096);
}

#[test]
fn snapshot_diff_lists_changes() {
    let fx = Fixture::new();
    let store = fx.create();
    let mut batch = store.begin_batch();
    let ids: Vec<_> = (0..6).map(|_| batch.allocate_chunk_id().unwrap()).collect();
    for id in &ids {
        batch.write(*id, b"base").unwrap();
    }
    store.commit_batch(batch, Durability::Durable).unwrap();
    let before = store.snapshot();

    let mut batch = store.begin_batch();
    batch.write(ids[1], b"changed").unwrap();
    batch.deallocate(ids[4]).unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    // Deallocation takes effect at commit; the freed id is now reusable.
    let mut batch = store.begin_batch();
    let new_id = batch.allocate_chunk_id().unwrap();
    assert_eq!(new_id, ids[4], "dealloc'd id reused after commit");
    batch.write(new_id, b"recreated").unwrap();
    let fresh = batch.allocate_chunk_id().unwrap();
    batch.write(fresh, b"brand new").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    let after = store.snapshot();

    let diff = store.diff_snapshots(&before, &after);
    let changed: Vec<u64> = diff.changed.iter().map(|(id, _)| id.as_u64()).collect();
    assert!(changed.contains(&ids[1].as_u64()));
    assert!(changed.contains(&fresh.as_u64()));
    assert!(changed.contains(&ids[4].as_u64())); // recreated counts as changed
    assert!(!changed.contains(&ids[0].as_u64()));
    assert!(diff.removed.is_empty());

    assert!(before.commit_seq() < after.commit_seq());
    assert_eq!(after.len(), 7);
}

#[test]
fn empty_snapshot_of_fresh_store() {
    let fx = Fixture::new();
    let store = fx.create();
    let snap = store.snapshot();
    assert!(snap.is_empty());
    assert_eq!(snap.chunk_ids(), vec![]);
}

// ---------------------------------------------------------------------------
// Accounting / stats
// ---------------------------------------------------------------------------

#[test]
fn stats_track_write_amplification_sources() {
    let fx = Fixture::new();
    let store = fx.create();
    let before = store.stats();
    let mut batch = store.begin_batch();
    let id = batch.allocate_chunk_id().unwrap();
    batch.write(id, &[7u8; 100]).unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    let after = store.stats();
    let delta = after.since(&before);
    assert_eq!(delta.commits, 1);
    assert_eq!(delta.durable_commits, 1);
    assert!(delta.chunk_bytes_appended >= 100);
    assert!(delta.commit_bytes_appended > 0);
    assert!(delta.syncs >= 1);
    assert_eq!(delta.counter_increments, 1);
    assert!(delta.bytes_appended >= delta.chunk_bytes_appended + delta.commit_bytes_appended);
}

#[test]
fn nondurable_commits_do_not_sync_or_touch_counter() {
    let fx = Fixture::new();
    let store = fx.create();
    let mut batch = store.begin_batch();
    let id = batch.allocate_chunk_id().unwrap();
    batch.write(id, b"x").unwrap();
    let before = store.stats();
    let counter_before = fx.counter.read().unwrap();
    store.commit_batch(batch, Durability::Lazy).unwrap();
    let delta = store.stats().since(&before);
    assert_eq!(delta.syncs, 0, "nondurable commit must not sync");
    assert_eq!(delta.anchor_writes, 0);
    assert_eq!(fx.counter.read().unwrap(), counter_before);
}

#[test]
fn utilization_reported_in_unit_range() {
    let fx = Fixture::new();
    let store = fx.create();
    for _ in 0..50 {
        let mut batch = store.begin_batch();
        let id = batch.allocate_chunk_id().unwrap();
        batch.write(id, &[1u8; 80]).unwrap();
        store.commit_batch(batch, Durability::Durable).unwrap();
    }
    let u = store.utilization();
    assert!(u > 0.0 && u <= 1.0, "utilization {u}");
}
