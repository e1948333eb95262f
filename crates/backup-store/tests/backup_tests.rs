//! End-to-end backup/restore tests: validated restore, sequencing,
//! incremental efficiency, and adversarial archives.

use backup_store::{BackupError, BackupManager};
use chunk_store::Durability;
use chunk_store::{ChunkId, ChunkStore, ChunkStoreConfig, SecurityMode, WriteBatch};
use std::sync::Arc;
use tdb_platform::{ArchivalStore, MemArchive, MemSecretStore, MemStore, VolatileCounter};

fn secret() -> MemSecretStore {
    MemSecretStore::from_label("backup-tests")
}

fn new_store() -> ChunkStore {
    ChunkStore::create(
        Arc::new(MemStore::new()),
        &secret(),
        Arc::new(VolatileCounter::new()),
        ChunkStoreConfig::small_for_tests(),
    )
    .unwrap()
}

fn put(batch: &mut WriteBatch, data: &[u8]) -> ChunkId {
    let id = batch.allocate_chunk_id().unwrap();
    batch.write(id, data).unwrap();
    id
}

#[test]
fn full_backup_and_restore_roundtrip() {
    let store = new_store();
    let mut batch = store.begin_batch();
    let ids: Vec<_> = (0..25)
        .map(|i| put(&mut batch, format!("chunk-{i}").as_bytes()))
        .collect();
    store.commit_batch(batch, Durability::Durable).unwrap();

    let archive = Arc::new(MemArchive::new());
    let mut mgr = BackupManager::new(archive.clone(), &secret(), SecurityMode::Full).unwrap();
    let name = mgr.backup_full(&store).unwrap();
    assert!(name.ends_with(".full"));

    let restored = new_store();
    BackupManager::restore_chain(&*archive, &secret(), SecurityMode::Full, &[name], &restored)
        .unwrap();
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(restored.read(*id).unwrap(), format!("chunk-{i}").as_bytes());
    }
    assert_eq!(restored.live_chunks(), 25);
    // Allocation state restored: a new id does not collide.
    let fresh = restored.begin_batch().allocate_chunk_id().unwrap();
    assert!(!ids.contains(&fresh));
}

#[test]
fn incremental_chain_restores_in_order() {
    let store = new_store();
    let mut batch = store.begin_batch();
    let a = put(&mut batch, b"a-v1");
    let b = put(&mut batch, b"b-v1");
    store.commit_batch(batch, Durability::Durable).unwrap();

    let archive = Arc::new(MemArchive::new());
    let mut mgr = BackupManager::new(archive.clone(), &secret(), SecurityMode::Full).unwrap();
    let full = mgr.backup_full(&store).unwrap();

    // Change 1: update a, add c.
    let mut batch = store.begin_batch();
    batch.write(a, b"a-v2").unwrap();
    let c = put(&mut batch, b"c-v1");
    store.commit_batch(batch, Durability::Durable).unwrap();
    let incr1 = mgr.backup_incremental(&store).unwrap();

    // Change 2: remove b, update c.
    let mut batch = store.begin_batch();
    batch.deallocate(b).unwrap();
    batch.write(c, b"c-v2").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    let incr2 = mgr.backup_incremental(&store).unwrap();

    let restored = new_store();
    BackupManager::restore_chain(
        &*archive,
        &secret(),
        SecurityMode::Full,
        &[full, incr1, incr2],
        &restored,
    )
    .unwrap();
    assert_eq!(restored.read(a).unwrap(), b"a-v2");
    assert!(restored.read(b).is_err());
    assert_eq!(restored.read(c).unwrap(), b"c-v2");
    assert_eq!(restored.live_chunks(), 2);
}

#[test]
fn incremental_is_small() {
    let store = new_store();
    let mut batch = store.begin_batch();
    let ids: Vec<_> = (0..200).map(|i| put(&mut batch, &[i as u8; 100])).collect();
    store.commit_batch(batch, Durability::Durable).unwrap();

    let archive = Arc::new(MemArchive::new());
    let mut mgr = BackupManager::new(archive.clone(), &secret(), SecurityMode::Full).unwrap();
    let full = mgr.backup_full(&store).unwrap();

    let mut batch = store.begin_batch();
    batch.write(ids[7], b"tiny change").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    let incr = mgr.backup_incremental(&store).unwrap();

    let full_len = archive.len_of(&full).unwrap();
    let incr_len = archive.len_of(&incr).unwrap();
    assert!(
        incr_len * 10 < full_len,
        "incremental ({incr_len}) should be far smaller than full ({full_len})"
    );
}

#[test]
fn incremental_without_base_fails() {
    let store = new_store();
    let archive = Arc::new(MemArchive::new());
    let mut mgr = BackupManager::new(archive, &secret(), SecurityMode::Full).unwrap();
    assert!(matches!(
        mgr.backup_incremental(&store),
        Err(BackupError::NoBaseBackup)
    ));
}

#[test]
fn corrupted_backup_is_rejected_entirely() {
    let store = new_store();
    let mut batch = store.begin_batch();
    put(&mut batch, b"precious");
    store.commit_batch(batch, Durability::Durable).unwrap();
    let archive = Arc::new(MemArchive::new());
    let mut mgr = BackupManager::new(archive.clone(), &secret(), SecurityMode::Full).unwrap();
    let name = mgr.backup_full(&store).unwrap();

    archive.corrupt(&name, 20, 3).unwrap();
    let restored = new_store();
    let err =
        BackupManager::restore_chain(&*archive, &secret(), SecurityMode::Full, &[name], &restored)
            .unwrap_err();
    assert!(matches!(err, BackupError::InvalidBackup(_)), "{err}");
    // Nothing was applied.
    assert_eq!(restored.live_chunks(), 0);
}

#[test]
fn truncated_backup_is_rejected() {
    let store = new_store();
    let mut batch = store.begin_batch();
    put(&mut batch, b"precious");
    store.commit_batch(batch, Durability::Durable).unwrap();
    let archive = Arc::new(MemArchive::new());
    let mut mgr = BackupManager::new(archive.clone(), &secret(), SecurityMode::Full).unwrap();
    let name = mgr.backup_full(&store).unwrap();
    let len = archive.len_of(&name).unwrap();
    archive.truncate(&name, len / 2).unwrap();
    let restored = new_store();
    assert!(BackupManager::restore_chain(
        &*archive,
        &secret(),
        SecurityMode::Full,
        &[name],
        &restored
    )
    .is_err());
}

#[test]
fn out_of_order_incrementals_are_rejected() {
    let store = new_store();
    let mut batch = store.begin_batch();
    let a = put(&mut batch, b"v1");
    store.commit_batch(batch, Durability::Durable).unwrap();
    let archive = Arc::new(MemArchive::new());
    let mut mgr = BackupManager::new(archive.clone(), &secret(), SecurityMode::Full).unwrap();
    let full = mgr.backup_full(&store).unwrap();
    let mut batch = store.begin_batch();
    batch.write(a, b"v2").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    let incr1 = mgr.backup_incremental(&store).unwrap();
    let mut batch = store.begin_batch();
    batch.write(a, b"v3").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    let incr2 = mgr.backup_incremental(&store).unwrap();

    // Swapped order.
    let restored = new_store();
    let err = BackupManager::restore_chain(
        &*archive,
        &secret(),
        SecurityMode::Full,
        &[full.clone(), incr2.clone(), incr1.clone()],
        &restored,
    )
    .unwrap_err();
    assert!(matches!(err, BackupError::SequenceViolation(_)));

    // Skipped incremental.
    let restored = new_store();
    let err = BackupManager::restore_chain(
        &*archive,
        &secret(),
        SecurityMode::Full,
        &[full, incr2],
        &restored,
    )
    .unwrap_err();
    assert!(matches!(err, BackupError::SequenceViolation(_)));
}

#[test]
fn chain_must_start_with_full() {
    let store = new_store();
    let mut batch = store.begin_batch();
    let a = put(&mut batch, b"v1");
    store.commit_batch(batch, Durability::Durable).unwrap();
    let archive = Arc::new(MemArchive::new());
    let mut mgr = BackupManager::new(archive.clone(), &secret(), SecurityMode::Full).unwrap();
    let _full = mgr.backup_full(&store).unwrap();
    let mut batch = store.begin_batch();
    batch.write(a, b"v2").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    let incr = mgr.backup_incremental(&store).unwrap();

    let restored = new_store();
    let err =
        BackupManager::restore_chain(&*archive, &secret(), SecurityMode::Full, &[incr], &restored)
            .unwrap_err();
    assert!(matches!(err, BackupError::SequenceViolation(_)));
}

#[test]
fn latest_chain_discovery() {
    let store = new_store();
    let mut batch = store.begin_batch();
    let a = put(&mut batch, b"v1");
    store.commit_batch(batch, Durability::Durable).unwrap();
    let archive = Arc::new(MemArchive::new());
    let mut mgr = BackupManager::new(archive.clone(), &secret(), SecurityMode::Full).unwrap();
    mgr.backup_full(&store).unwrap();
    let mut batch = store.begin_batch();
    batch.write(a, b"v2").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    mgr.backup_incremental(&store).unwrap();
    // Second full resets the chain.
    mgr.backup_full(&store).unwrap();
    let mut batch = store.begin_batch();
    batch.write(a, b"v3").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    mgr.backup_incremental(&store).unwrap();

    let chain = BackupManager::latest_chain(&*archive).unwrap();
    assert_eq!(chain.len(), 2);
    assert!(chain[0].ends_with(".full"));
    assert!(chain[1].ends_with(".incr"));

    let restored = new_store();
    BackupManager::restore_latest(&*archive, &secret(), SecurityMode::Full, &restored).unwrap();
    assert_eq!(restored.read(a).unwrap(), b"v3");
}

#[test]
fn backup_under_wrong_secret_cannot_restore() {
    let store = new_store();
    let mut batch = store.begin_batch();
    put(&mut batch, b"x");
    store.commit_batch(batch, Durability::Durable).unwrap();
    let archive = Arc::new(MemArchive::new());
    let mut mgr = BackupManager::new(archive.clone(), &secret(), SecurityMode::Full).unwrap();
    let name = mgr.backup_full(&store).unwrap();

    let restored = new_store();
    let err = BackupManager::restore_chain(
        &*archive,
        &MemSecretStore::from_label("WRONG"),
        SecurityMode::Full,
        &[name],
        &restored,
    )
    .unwrap_err();
    assert!(matches!(err, BackupError::InvalidBackup(_)));
}

#[test]
fn backup_streams_are_encrypted() {
    let store = new_store();
    let mut batch = store.begin_batch();
    put(&mut batch, b"DO-NOT-LEAK-ME-0123456789");
    store.commit_batch(batch, Durability::Durable).unwrap();
    let archive = Arc::new(MemArchive::new());
    let mut mgr = BackupManager::new(archive.clone(), &secret(), SecurityMode::Full).unwrap();
    let name = mgr.backup_full(&store).unwrap();
    let mut r = archive.open(&name).unwrap();
    let mut bytes = Vec::new();
    std::io::Read::read_to_end(&mut r, &mut bytes).unwrap();
    assert!(!bytes.windows(12).any(|w| w == b"DO-NOT-LEAK-"));
}

#[test]
fn restore_into_nonempty_store_fails() {
    let store = new_store();
    let mut batch = store.begin_batch();
    put(&mut batch, b"x");
    store.commit_batch(batch, Durability::Durable).unwrap();
    let archive = Arc::new(MemArchive::new());
    let mut mgr = BackupManager::new(archive.clone(), &secret(), SecurityMode::Full).unwrap();
    let name = mgr.backup_full(&store).unwrap();

    let target = new_store();
    let mut batch = target.begin_batch();
    put(&mut batch, b"already here");
    target.commit_batch(batch, Durability::Durable).unwrap();
    assert!(BackupManager::restore_chain(
        &*archive,
        &secret(),
        SecurityMode::Full,
        &[name],
        &target
    )
    .is_err());
}

#[test]
fn manager_continues_sequence_from_archive() {
    let store = new_store();
    let mut batch = store.begin_batch();
    put(&mut batch, b"x");
    store.commit_batch(batch, Durability::Durable).unwrap();
    let archive = Arc::new(MemArchive::new());
    let first_name;
    {
        let mut mgr = BackupManager::new(archive.clone(), &secret(), SecurityMode::Full).unwrap();
        first_name = mgr.backup_full(&store).unwrap();
    }
    // A new manager (process restart) must not collide with old names.
    let mut mgr2 = BackupManager::new(archive.clone(), &secret(), SecurityMode::Full).unwrap();
    let second_name = mgr2.backup_full(&store).unwrap();
    assert_ne!(first_name, second_name);
    assert!(mgr2.next_seq() >= 3);
}

#[test]
fn prune_keeps_newest_chains() {
    let store = new_store();
    let mut batch = store.begin_batch();
    let a = put(&mut batch, b"v1");
    store.commit_batch(batch, Durability::Durable).unwrap();
    let archive = Arc::new(MemArchive::new());
    let mut mgr = BackupManager::new(archive.clone(), &secret(), SecurityMode::Full).unwrap();

    // Chain 1: full + incr. Chain 2: full + 2 incrs. Chain 3: full.
    mgr.backup_full(&store).unwrap();
    let mut batch = store.begin_batch();
    batch.write(a, b"v2").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    mgr.backup_incremental(&store).unwrap();
    mgr.backup_full(&store).unwrap();
    let mut batch = store.begin_batch();
    batch.write(a, b"v3").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    mgr.backup_incremental(&store).unwrap();
    let mut batch = store.begin_batch();
    batch.write(a, b"v4").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    mgr.backup_incremental(&store).unwrap();
    mgr.backup_full(&store).unwrap();
    assert_eq!(BackupManager::list_backups(&*archive).unwrap().len(), 6);

    // Keep the last two chains: chain 1 (2 streams) goes away.
    let removed = BackupManager::prune(&*archive, 2).unwrap();
    assert_eq!(removed.len(), 2);
    assert_eq!(BackupManager::list_backups(&*archive).unwrap().len(), 4);

    // Latest chain still restores.
    let restored = new_store();
    BackupManager::restore_latest(&*archive, &secret(), SecurityMode::Full, &restored).unwrap();
    assert_eq!(restored.read(a).unwrap(), b"v4");

    // keep_chains = 0 is a no-op guard, and over-keeping removes nothing.
    assert!(BackupManager::prune(&*archive, 0).unwrap().is_empty());
    assert!(BackupManager::prune(&*archive, 10).unwrap().is_empty());
}

#[test]
fn off_mode_backup_roundtrip() {
    let mem = MemStore::new();
    let mut cfg = ChunkStoreConfig::small_for_tests();
    cfg.security = SecurityMode::Off;
    let store = ChunkStore::create(
        Arc::new(mem),
        &secret(),
        Arc::new(VolatileCounter::new()),
        cfg.clone(),
    )
    .unwrap();
    let mut batch = store.begin_batch();
    let id = put(&mut batch, b"plain");
    store.commit_batch(batch, Durability::Durable).unwrap();
    let archive = Arc::new(MemArchive::new());
    let mut mgr = BackupManager::new(archive.clone(), &secret(), SecurityMode::Off).unwrap();
    let name = mgr.backup_full(&store).unwrap();

    let restored = ChunkStore::create(
        Arc::new(MemStore::new()),
        &secret(),
        Arc::new(VolatileCounter::new()),
        cfg,
    )
    .unwrap();
    BackupManager::restore_chain(&*archive, &secret(), SecurityMode::Off, &[name], &restored)
        .unwrap();
    assert_eq!(restored.read(id).unwrap(), b"plain");
}
