//! Stress + tamper regressions for the sharded chunk store.
//!
//! The stress half races writer transactions doing **cross-shard**
//! transfers against snapshot readers and forced per-shard cleaning on a
//! 2-shard database, with a money-conservation oracle: every reader
//! snapshot must see the initial total exactly, so a torn two-phase commit
//! (one shard's leg applied, the other's missing) is immediately visible.
//! Run with `--release` in CI.
//!
//! The tamper half attacks the sharding trust structure directly: swapping
//! two shards' committed segments, corrupting both root-of-roots slots,
//! and rolling the whole image back under an advanced one-way counter must
//! each surface as a *security* error kind — never as wrong data.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use tdb::platform::{MemSecretStore, MemStore, UntrustedStore, VolatileCounter};
use tdb::{
    impl_persistent_boilerplate, Db, Durability, ErrorKind, IndexKind, IndexSpec, Key, Options,
    Persistent, PickleError, Pickler, TdbError, Unpickler,
};

const CLASS_ACCOUNT: u32 = 0xACC7_0003;
const ACCOUNTS: i64 = 8;
const INITIAL: i64 = 1_000;
const SHARDS: usize = 2;

struct Account {
    id: i64,
    balance: i64,
}

impl Persistent for Account {
    impl_persistent_boilerplate!(CLASS_ACCOUNT);
    fn pickle(&self, w: &mut Pickler) {
        w.i64(self.id);
        w.i64(self.balance);
    }
}

fn unpickle_account(r: &mut Unpickler) -> Result<Box<dyn Persistent>, PickleError> {
    Ok(Box::new(Account {
        id: r.i64()?,
        balance: r.i64()?,
    }))
}

fn options_on(mem: &MemStore, counter: &VolatileCounter, label: &str) -> Options {
    // Tiny segments force the cleaners to actually relocate live chunks on
    // both shards while the workload runs.
    Options::in_memory()
        .with_substrates(
            Arc::new(mem.clone()),
            MemSecretStore::from_label(label),
            Arc::new(counter.clone()),
        )
        .chunk_config(tdb::ChunkStoreConfig::small_for_tests())
        .shards(SHARDS)
        .register_class(CLASS_ACCOUNT, "Account", unpickle_account)
        .register_extractor("acct.id", |o| {
            tdb::extractor_typed::<Account>(o, |a| Key::I64(a.id))
        })
}

fn seed_accounts(db: &Db) {
    let accounts = db.collection::<i64, Account>("accounts");
    let t = db.begin();
    accounts
        .ensure(
            &t,
            &[IndexSpec::new("by-id", "acct.id", true, IndexKind::BTree)],
        )
        .unwrap();
    for id in 0..ACCOUNTS {
        accounts
            .insert(
                &t,
                Account {
                    id,
                    balance: INITIAL,
                },
            )
            .unwrap();
    }
    t.commit(Durability::Durable).unwrap();
}

/// Cross-shard transfers vs. snapshot readers vs. forced cleaning on both
/// shards. Readers conserve money on every snapshot; the final durable
/// state conserves it too.
#[test]
fn cross_shard_transfers_conserve_money_under_cleaning() {
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let db = Db::open(options_on(&mem, &counter, "sharded-stress")).unwrap();
    assert_eq!(db.chunk_store().shards(), SHARDS);
    seed_accounts(&db);
    let accounts = db.collection::<i64, Account>("accounts");

    let writers = 2;
    let readers = 3;
    let transfers_per_writer: u64 = if cfg!(debug_assertions) { 120 } else { 500 };

    let stop = Arc::new(AtomicBool::new(false));
    let snapshots_checked = Arc::new(AtomicU64::new(0));
    let start = Arc::new(Barrier::new(writers + readers + 2));
    let mut handles = Vec::new();

    // Writers: transfers between *adjacent* account ids. Chunk ids are
    // handed out round-robin across shards, so adjacent objects live on
    // different shards and nearly every transfer is a two-phase
    // cross-shard commit (mixed durable/lazy — lazy upgrades internally).
    for w in 0..writers {
        let db = db.clone();
        let accounts = accounts.clone();
        let start = start.clone();
        handles.push(std::thread::spawn(move || {
            start.wait();
            let mut state = 0x9E37_79B9u64.wrapping_add(w as u64);
            let mut rand = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut done: u64 = 0;
            while done < transfers_per_writer {
                let from = (rand() % ACCOUNTS as u64) as i64;
                let to = (from + 1) % ACCOUNTS;
                let amount = (rand() % 50) as i64 + 1;
                let t = db.begin();
                let moved = (|| -> Result<bool, TdbError> {
                    let a = accounts.update(&t, "by-id", from, |acc| acc.balance -= amount)?;
                    let b = accounts.update(&t, "by-id", to, |acc| acc.balance += amount)?;
                    Ok(a == 1 && b == 1)
                })();
                match moved {
                    Ok(true) => {
                        let durability = Durability::from(done.is_multiple_of(2));
                        match t.commit(durability).map_err(tdb::Error::from) {
                            Ok(()) => done += 1,
                            // Conflict aborts are expected; anything else
                            // (e.g. a torn cross-shard commit surfacing as
                            // Usage/Tamper) must fail the test loudly
                            // instead of livelocking the writer.
                            Err(e) if e.is_retryable() => {}
                            Err(e) => panic!("writer {w} commit failed: {:?} {e}", e.kind()),
                        }
                    }
                    Ok(false) => t.abort(),
                    Err(e) if e.is_retryable() => t.abort(),
                    Err(e) => panic!("writer failed: {e}"),
                }
            }
        }));
    }

    // Readers: every snapshot must conserve money across both shards.
    for _ in 0..readers {
        let db = db.clone();
        let accounts = accounts.clone();
        let stop = stop.clone();
        let start = start.clone();
        let checked = snapshots_checked.clone();
        handles.push(std::thread::spawn(move || {
            start.wait();
            while !stop.load(Ordering::Relaxed) {
                let r = db.begin_read();
                let entries = accounts.scan(&r, "by-id").unwrap();
                assert_eq!(entries.len(), ACCOUNTS as usize);
                let coll = accounts.read(&r).unwrap();
                let mut total = 0i64;
                for (_key, oid) in &entries {
                    total += coll.get::<Account, _>(*oid, |a| a.balance).unwrap();
                }
                assert_eq!(
                    total,
                    ACCOUNTS * INITIAL,
                    "snapshot is not cross-shard transaction-consistent"
                );
                r.finish();
                checked.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }

    // Cleaner: force checkpoint + cleaning on every shard the whole time.
    {
        let chunks = db.chunk_store().clone();
        let stop = stop.clone();
        let start = start.clone();
        handles.push(std::thread::spawn(move || {
            start.wait();
            while !stop.load(Ordering::Relaxed) {
                let _ = chunks.checkpoint();
                let _ = chunks.clean();
                std::thread::yield_now();
            }
        }));
    }

    start.wait();
    let mut handles = handles.into_iter();
    for _ in 0..writers {
        handles.next().unwrap().join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }

    assert!(
        snapshots_checked.load(Ordering::Relaxed) > 0,
        "readers never completed a snapshot check"
    );
    // Final durable state conserves money, and both shards did real work.
    let r = db.begin_read();
    let entries = accounts.scan(&r, "by-id").unwrap();
    let coll = accounts.read(&r).unwrap();
    let total: i64 = entries
        .iter()
        .map(|(_k, oid)| coll.get::<Account, _>(*oid, |a| a.balance).unwrap())
        .sum();
    assert_eq!(total, ACCOUNTS * INITIAL);
    r.finish();
    let obs = db.chunk_store().obs_snapshot();
    for i in 0..SHARDS {
        // Beyond the one commit that reserved its bookkeeping chunk.
        assert!(
            obs.counter(&format!("shard{i}.chunk.commits")) > 1,
            "shard {i} took no commits — the workload never spanned it"
        );
    }
}

// ---------------------------------------------------------------------------
// Tamper regressions against the sharding trust structure
// ---------------------------------------------------------------------------

/// Overwrite `name` in `mem` with `bytes`.
fn put(mem: &MemStore, name: &str, bytes: &[u8]) {
    let f = mem.open(name, false).unwrap();
    f.set_len(0).unwrap();
    f.write_at(0, bytes).unwrap();
}

/// Build a 2-shard database with committed cross-shard state, then close
/// it, leaving the image in `mem` for the attacker.
fn build_sharded_image(mem: &MemStore, counter: &VolatileCounter, label: &str) {
    let db = Db::open(options_on(mem, counter, label)).unwrap();
    seed_accounts(&db);
    let accounts = db.collection::<i64, Account>("accounts");
    for round in 0..6i64 {
        let t = db.begin();
        let from = round % ACCOUNTS;
        let to = (from + 1) % ACCOUNTS;
        accounts
            .update(&t, "by-id", from, |a| a.balance -= 7)
            .unwrap();
        accounts
            .update(&t, "by-id", to, |a| a.balance += 7)
            .unwrap();
        t.commit(Durability::Durable).unwrap();
    }
    db.checkpoint().unwrap();
    db.chunk_store().close();
}

fn open_err_kind(mem: &MemStore, counter: &VolatileCounter, label: &str) -> ErrorKind {
    match Db::open(options_on(mem, counter, label)) {
        Ok(_) => panic!("tampered database opened cleanly"),
        Err(e) => e.kind(),
    }
}

/// Swapping two shards' committed segment files is the canonical
/// cross-shard splice: each file is individually well-formed ciphertext,
/// but each shard's chunks are encrypted and MAC'd under a per-shard
/// derived secret, so the swap must surface as a security error — never as
/// data from the wrong shard.
#[test]
fn swapped_shard_segments_are_detected() {
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    build_sharded_image(&mem, &counter, "sharded-swap");

    let names = mem.list().unwrap();
    let mut swapped = 0;
    for name in &names {
        let Some(suffix) = name.strip_prefix("shard0--") else {
            continue;
        };
        if !suffix.starts_with("seg.") {
            continue;
        }
        let peer = format!("shard1--{suffix}");
        if !names.contains(&peer) {
            continue;
        }
        let a = mem.raw(name).unwrap();
        let b = mem.raw(&peer).unwrap();
        put(&mem, name, &b);
        put(&mem, &peer, &a);
        swapped += 1;
    }
    assert!(swapped > 0, "no matching segment pair to swap: {names:?}");

    let kind = open_err_kind(&mem, &counter, "sharded-swap");
    assert!(
        matches!(kind, ErrorKind::Tamper | ErrorKind::Replay),
        "segment swap surfaced as {kind:?}, not a security kind"
    );
}

/// Corrupting both root-of-roots slots destroys the combiner record that
/// binds the per-shard Merkle roots to the one-way counter. With no valid
/// slot left, open must refuse with a tamper error (one corrupted slot is
/// survivable by design — that is what double-buffering is for).
#[test]
fn corrupting_both_root_of_roots_slots_is_tamper() {
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    build_sharded_image(&mem, &counter, "sharded-rr");

    for slot in ["rr.a", "rr.b"] {
        let len = mem.raw(slot).unwrap().len();
        assert!(len > 0, "{slot} missing from a sharded image");
        for off in (0..len).step_by(7) {
            mem.corrupt(slot, off as u64, 1).unwrap();
        }
    }
    let kind = open_err_kind(&mem, &counter, "sharded-rr");
    assert_eq!(
        kind,
        ErrorKind::Tamper,
        "rr corruption surfaced as {kind:?}"
    );
}

/// Rolling the whole sharded image back to a stale-but-consistent copy
/// while the hardware counter has moved on is the §3 replay attack; the
/// root-of-roots must pin *all* shards to the counter, so the replay is
/// detected even though every shard is internally consistent.
#[test]
fn whole_image_rollback_is_replay() {
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    build_sharded_image(&mem, &counter, "sharded-replay");

    let stale = mem.deep_clone();
    // The device moves on: more durable commits advance the counter.
    {
        let db = Db::open(options_on(&mem, &counter, "sharded-replay")).unwrap();
        let accounts = db.collection::<i64, Account>("accounts");
        for round in 0..3i64 {
            let t = db.begin();
            accounts
                .update(&t, "by-id", round % ACCOUNTS, |a| a.balance += 1)
                .unwrap();
            accounts
                .update(&t, "by-id", (round + 1) % ACCOUNTS, |a| a.balance -= 1)
                .unwrap();
            t.commit(Durability::Durable).unwrap();
        }
        db.chunk_store().close();
    }

    let kind = open_err_kind(&stale, &counter, "sharded-replay");
    assert_eq!(kind, ErrorKind::Replay, "rollback surfaced as {kind:?}");
}
