//! Concurrent commit integration tests: N-thread TPC-B-style transfers
//! through the full stack, group-commit durability under crash injection,
//! and the failure-isolation guarantees of per-transaction write batches
//! (a failed commit discards only its own staged writes).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;
use tdb::platform::{
    FaultPlan, FaultStore, MemSecretStore, MemStore, UntrustedStore, VolatileCounter,
};
use tdb::Durability;
use tdb::{
    impl_persistent_boilerplate, ClassRegistry, Database, DatabaseConfig, ExtractorRegistry,
    IndexKind, IndexSpec, Key, Persistent, PickleError, Pickler, Unpickler,
};

const CLASS_ACCOUNT: u32 = 0xACC7_0001;

struct Account {
    id: u64,
    balance: i64,
    hits: i64,
    /// Padding so tests can make a transaction's staged bytes arbitrarily
    /// large (e.g. to span log segments); empty in normal use.
    pad: Vec<u8>,
}

impl Account {
    fn new(id: u64) -> Self {
        Account {
            id,
            balance: 0,
            hits: 0,
            pad: Vec::new(),
        }
    }
}

impl Persistent for Account {
    impl_persistent_boilerplate!(CLASS_ACCOUNT);
    fn pickle(&self, w: &mut Pickler) {
        w.u64(self.id);
        w.i64(self.balance);
        w.i64(self.hits);
        w.bytes(&self.pad);
    }
}

fn unpickle_account(r: &mut Unpickler) -> Result<Box<dyn Persistent>, PickleError> {
    Ok(Box::new(Account {
        id: r.u64()?,
        balance: r.i64()?,
        hits: r.i64()?,
        pad: r.bytes()?.to_vec(),
    }))
}

fn registries() -> (ClassRegistry, ExtractorRegistry) {
    let mut classes = ClassRegistry::new();
    classes.register(CLASS_ACCOUNT, "Account", unpickle_account);
    let mut extractors = ExtractorRegistry::new();
    extractors.register("account.id", |o| {
        tdb::extractor_typed::<Account>(o, |a| Key::U64(a.id))
    });
    (classes, extractors)
}

fn specs() -> [IndexSpec; 1] {
    [IndexSpec::new("by-id", "account.id", true, IndexKind::Hash)]
}

fn make_db(store: Arc<dyn UntrustedStore>, cfg: DatabaseConfig) -> Database {
    let secret = MemSecretStore::from_label("concurrent-commit");
    let (classes, extractors) = registries();
    Database::create(
        store,
        &secret,
        Arc::new(VolatileCounter::new()),
        classes,
        extractors,
        cfg,
    )
    .unwrap()
}

fn create_accounts(db: &Database, n: u64) {
    let t = db.begin();
    let c = t.create_collection("accounts", &specs()).unwrap();
    for id in 0..n {
        c.insert(Box::new(Account::new(id))).unwrap();
    }
    drop(c);
    t.commit(Durability::Durable).unwrap();
}

/// One TPC-B-style transfer: move one unit from `from` to `to`, bumping
/// the source's hit count, all in a single durable transaction. Accounts
/// are always locked in id order so concurrent transfers cannot deadlock.
fn transfer(db: &Database, from: u64, to: u64) -> Result<(), String> {
    let t = db.begin();
    let result = (|| -> Result<(), String> {
        let c = t.write_collection("accounts").map_err(|e| e.to_string())?;
        for id in [from.min(to), from.max(to)] {
            let mut it = c.exact("by-id", &Key::U64(id)).map_err(|e| e.to_string())?;
            {
                let a = it.write::<Account>().map_err(|e| e.to_string())?;
                let mut a = a.get_mut();
                if id == from {
                    a.balance -= 1;
                    a.hits += 1;
                } else {
                    a.balance += 1;
                }
            }
            it.close().map_err(|e| e.to_string())?;
        }
        Ok(())
    })();
    match result {
        Ok(()) => t.commit(Durability::Durable).map_err(|e| e.to_string()),
        Err(e) => {
            t.abort();
            Err(e)
        }
    }
}

/// Read back every account; returns (count, balance sum, hits sum, and the
/// per-account (balance, hits) map).
fn scan_accounts(db: &Database) -> (usize, i64, i64, Vec<(i64, i64)>) {
    let t = db.begin();
    let c = t.read_collection("accounts").unwrap();
    let mut it = c.scan("by-id").unwrap();
    let mut seen = 0;
    let mut balance = 0i64;
    let mut hits = 0i64;
    let mut per = Vec::new();
    while !it.end() {
        let a = it.read::<Account>().unwrap();
        let (id, b, h) = {
            let acc = a.get();
            (acc.id, acc.balance, acc.hits)
        };
        balance += b;
        hits += h;
        per.push((id, b, h));
        drop(a);
        seen += 1;
        it.next();
    }
    it.close().unwrap();
    drop(c);
    t.commit(Durability::Lazy).unwrap();
    per.sort_by_key(|(id, _, _)| *id);
    (
        seen,
        balance,
        hits,
        per.into_iter().map(|(_, b, h)| (b, h)).collect(),
    )
}

/// Tentpole behaviour: concurrent durable transfers on one database must
/// preserve the balance-sum invariant and lose no acknowledged update, and
/// the group-commit coordinator must actually form groups (the
/// `commit.group_size` histogram is populated).
#[test]
fn threaded_transfers_preserve_balance_and_lose_no_updates() {
    const ACCOUNTS: u64 = 32;
    const THREADS: u64 = 4;
    const TRANSFERS: u64 = 250;

    let db = make_db(
        Arc::new(MemStore::new()),
        DatabaseConfig::without_security(),
    );
    create_accounts(&db, ACCOUNTS);

    // Expected per-account state, updated only after a commit is
    // acknowledged — any divergence from the database is a lost update.
    let expected: Vec<(AtomicI64, AtomicI64)> = (0..ACCOUNTS)
        .map(|_| (AtomicI64::new(0), AtomicI64::new(0)))
        .collect();

    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let db = &db;
            let expected = &expected;
            s.spawn(move || {
                let mut rng = 0x9E37_79B9u64.wrapping_mul(tid + 1) | 1;
                let mut step = |m: u64| {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (rng >> 33) % m
                };
                for _ in 0..TRANSFERS {
                    loop {
                        let from = step(ACCOUNTS);
                        let to = (from + 1 + step(ACCOUNTS - 1)) % ACCOUNTS;
                        if transfer(db, from, to).is_ok() {
                            expected[from as usize].0.fetch_sub(1, Ordering::Relaxed);
                            expected[from as usize].1.fetch_add(1, Ordering::Relaxed);
                            expected[to as usize].0.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
            });
        }
    });

    let (seen, balance_sum, hits_sum, per) = scan_accounts(&db);
    assert_eq!(seen, ACCOUNTS as usize);
    assert_eq!(balance_sum, 0, "transfers must conserve the balance sum");
    assert_eq!(hits_sum, (THREADS * TRANSFERS) as i64);
    for (id, (b, h)) in per.iter().enumerate() {
        assert_eq!(
            (*b, *h),
            (
                expected[id].0.load(Ordering::Relaxed),
                expected[id].1.load(Ordering::Relaxed)
            ),
            "account {id}: committed state diverged from acknowledged updates"
        );
    }

    let snap = db.obs().snapshot();
    let group = snap
        .histograms
        .get("commit.group_size")
        .expect("group-commit rounds must record commit.group_size");
    assert!(group.count() > 0, "no group-commit round was recorded");
}

/// Crash injection mid-run: cut the store's write budget while four
/// threads are committing in groups, so the crash lands at arbitrary
/// points inside group commits (between a group's append and its sync, or
/// mid-anchor). Recovery must succeed, conserve the balance sum, and keep
/// every acknowledged transfer.
#[test]
fn crash_mid_group_commit_recovers_cleanly() {
    const ACCOUNTS: u64 = 16;
    const THREADS: u64 = 4;

    for budget in [2_000u64, 8_000, 30_000] {
        let mem = MemStore::new();
        let counter = VolatileCounter::new();
        let secret = MemSecretStore::from_label("crash-group");
        let plan = FaultPlan::unlimited();
        let (classes, extractors) = registries();
        let acked = AtomicU64::new(0);
        {
            let db = Database::create(
                Arc::new(FaultStore::new(mem.clone(), plan.clone())),
                &secret,
                Arc::new(counter.clone()),
                classes,
                extractors,
                DatabaseConfig::default(),
            )
            .unwrap();
            create_accounts(&db, ACCOUNTS);

            plan.rearm(budget);
            std::thread::scope(|s| {
                for tid in 0..THREADS {
                    let db = &db;
                    let acked = &acked;
                    s.spawn(move || {
                        for round in 0..200u64 {
                            let from = (tid * 7 + round) % ACCOUNTS;
                            let to = (from + 1 + tid) % ACCOUNTS;
                            match transfer(db, from, to) {
                                Ok(()) => {
                                    acked.fetch_add(1, Ordering::Relaxed);
                                }
                                // First store fault = the crash; stop like
                                // a process that lost its disk.
                                Err(_) => break,
                            }
                        }
                    });
                }
            });
        }

        // Recover from the surviving bytes with a fresh "process".
        let (classes, extractors) = registries();
        let db = Database::open(
            Arc::new(mem),
            &secret,
            Arc::new(counter),
            classes,
            extractors,
            DatabaseConfig::default(),
        )
        .unwrap_or_else(|e| panic!("budget {budget}: recovery failed: {e}"));
        let (seen, balance_sum, hits_sum, _) = scan_accounts(&db);
        assert_eq!(
            seen, ACCOUNTS as usize,
            "budget {budget}: membership damaged"
        );
        assert_eq!(
            balance_sum, 0,
            "budget {budget}: a transfer was torn across the crash"
        );
        // Acknowledged durable commits are a prefix-closed subset of what
        // recovery replays; un-acked commits from the torn group may also
        // have landed (anchor written, ack lost) — never fewer.
        let acked = acked.load(Ordering::Relaxed) as i64;
        assert!(
            hits_sum >= acked,
            "budget {budget}: {hits_sum} transfers recovered but {acked} were acknowledged"
        );
    }
}

/// Regression (chunk layer): a commit that fails in the middle of its
/// append — the store dies while the append is rolling to a fresh log
/// segment, before the commit record exists — must discard only the
/// failing batch's staged writes. A batch staged concurrently is
/// untouched, commits once the store is back, and survives reopen.
#[test]
fn failed_commit_discards_only_its_own_batch() {
    use chunk_store::{ChunkStore, ChunkStoreConfig};

    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let secret = MemSecretStore::from_label("batch-isolation");
    let plan = FaultPlan::unlimited();
    let alpha;
    {
        let store = ChunkStore::create(
            Arc::new(FaultStore::new(mem.clone(), plan.clone())),
            &secret,
            Arc::new(counter.clone()),
            ChunkStoreConfig::small_for_tests(),
        )
        .unwrap();

        let mut a = store.begin_batch();
        alpha = a.allocate_chunk_id().unwrap();
        a.write(alpha, b"alpha survives").unwrap();

        // b stages more than a 4 KiB segment's worth, so its append must
        // roll to a new segment — which writes through to the (dead) store
        // and fails before b's commit record is ever appended.
        let mut b = store.begin_batch();
        let mut beta_ids = Vec::new();
        for _ in 0..8 {
            let id = b.allocate_chunk_id().unwrap();
            b.write(id, &[0xBB; 1000]).unwrap();
            beta_ids.push(id);
        }
        plan.rearm(0);
        assert!(store.commit_batch(b, Durability::Durable).is_err());
        plan.rearm(u64::MAX);

        // a's staged write is untouched by b's failure and commits fine.
        assert_eq!(a.read(alpha).unwrap(), b"alpha survives");
        store.commit_batch(a, Durability::Durable).unwrap();
        assert_eq!(store.read(alpha).unwrap(), b"alpha survives");
        for id in beta_ids {
            assert!(
                store.read(id).is_err(),
                "failed batch's chunk {id:?} must not exist"
            );
        }
    }

    // And it is durable: a fresh open replays a's commit, not b's.
    let store = ChunkStore::open(
        Arc::new(mem),
        &secret,
        Arc::new(counter),
        ChunkStoreConfig::small_for_tests(),
    )
    .unwrap();
    assert_eq!(store.read(alpha).unwrap(), b"alpha survives");
}

/// Regression (object/collection layer): two interleaved transactions on
/// one database; the one whose commit fails before the commit point (the
/// store dies while its oversized append rolls log segments) must roll
/// back fully — cache included — without disturbing the other
/// transaction's staged writes or leaving its locks behind.
#[test]
fn interleaved_txn_failure_leaves_other_txn_intact() {
    let mem = MemStore::new();
    let plan = FaultPlan::unlimited();
    let mut cfg = DatabaseConfig::without_security();
    cfg.chunk = chunk_store::ChunkStoreConfig::small_for_tests();
    cfg.chunk.security = tdb::SecurityMode::Off;
    let db = make_db(Arc::new(FaultStore::new(mem, plan.clone())), cfg);
    const N: u64 = 12;
    create_accounts(&db, N);

    let bump = |t: &tdb::CTransaction, id: u64, delta: i64, pad: usize| -> Result<(), String> {
        let c = t.write_collection("accounts").map_err(|e| e.to_string())?;
        let mut it = c.exact("by-id", &Key::U64(id)).map_err(|e| e.to_string())?;
        {
            let a = it.write::<Account>().map_err(|e| e.to_string())?;
            let mut a = a.get_mut();
            a.balance += delta;
            a.pad = vec![0xBB; pad];
        }
        it.close().map_err(|e| e.to_string())?;
        Ok(())
    };

    let t1 = db.begin();
    bump(&t1, 0, 10, 0).unwrap();
    // t2 stages several padded accounts — more than one 4 KiB log segment —
    // so its commit's append must roll segments and dies mid-append, before
    // its commit record exists.
    let t2 = db.begin();
    for id in 2..N {
        bump(&t2, id, 99, 800).unwrap();
    }
    plan.rearm(0);
    assert!(t2.commit(Durability::Durable).is_err());
    plan.rearm(u64::MAX);
    // t1 is interleaved but must be immune.
    t1.commit(Durability::Durable).unwrap();

    let (_, balance_sum, _, per) = scan_accounts(&db);
    assert_eq!(per[0].0, 10, "t1's committed update must survive");
    for (id, (balance, _)) in per.iter().enumerate().skip(2) {
        assert_eq!(*balance, 0, "t2's failed update to {id} must roll back");
    }
    assert_eq!(balance_sum, 10);

    // t2's locks were released by the failed commit: its accounts are
    // immediately writable again, and the rollback reached the cache (the
    // re-read above saw 0, not t2's in-flight 99).
    let t3 = db.begin();
    bump(&t3, 2, 1, 0).unwrap();
    t3.commit(Durability::Durable).unwrap();
    let (_, _, _, per) = scan_accounts(&db);
    assert_eq!(per[2].0, 1);
}

/// Under real concurrency, a lock that times out because its holder is
/// merely slow is classified as contention — not deadlock.
#[test]
fn slow_holder_timeout_classified_as_contention() {
    let mut cfg = DatabaseConfig::without_security();
    cfg.object.lock_timeout = Duration::from_millis(100);
    let db = make_db(Arc::new(MemStore::new()), cfg);
    create_accounts(&db, 2);

    let holding = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            let t = db.begin();
            let c = t.write_collection("accounts").unwrap();
            let mut it = c.exact("by-id", &Key::U64(0)).unwrap();
            let _guard = it.write::<Account>().unwrap();
            holding.wait();
            // Hold the exclusive lock well past the victim's timeout.
            std::thread::sleep(Duration::from_millis(400));
            drop(_guard);
            it.close().unwrap();
            drop(c);
            t.abort();
        });
        s.spawn(|| {
            holding.wait();
            let err = transfer(&db, 0, 1).unwrap_err();
            assert!(err.contains("lock"), "expected a lock timeout, got: {err}");
        });
    });

    let snap = db.chunk_store().obs_snapshot();
    assert_eq!(snap.counter("lock.timeouts_contention"), 1);
    let deadlocks = snap.counter("lock.timeouts_deadlock");
    assert_eq!(deadlocks, 0, "a slow holder is not a deadlock");
}

/// Two transactions acquiring the same pair of objects in opposite order
/// form a genuine cycle; the timed-out victim must be classified as a
/// deadlock (the wait-for graph is walked across lock shards).
#[test]
fn crossed_acquisition_timeout_classified_as_deadlock() {
    let mut cfg = DatabaseConfig::without_security();
    cfg.object.lock_timeout = Duration::from_millis(150);
    let db = make_db(Arc::new(MemStore::new()), cfg);
    create_accounts(&db, 2);

    let crossed = Barrier::new(2);
    let failures = AtomicU64::new(0);
    std::thread::scope(|s| {
        for (first, second) in [(0u64, 1u64), (1, 0)] {
            let db = &db;
            let crossed = &crossed;
            let failures = &failures;
            s.spawn(move || {
                let t = db.begin();
                let c = t.write_collection("accounts").unwrap();
                let mut it = c.exact("by-id", &Key::U64(first)).unwrap();
                {
                    let a = it.write::<Account>().unwrap();
                    a.get_mut().balance += 1;
                }
                it.close().unwrap();
                crossed.wait(); // both now hold one lock each
                let mut it = c.exact("by-id", &Key::U64(second)).unwrap();
                match it.write::<Account>() {
                    Ok(a) => {
                        a.get_mut().balance -= 1;
                        drop(a);
                        it.close().unwrap();
                        drop(c);
                        t.commit(Durability::Durable).unwrap();
                    }
                    Err(_) => {
                        failures.fetch_add(1, Ordering::Relaxed);
                        it.close().ok();
                        drop(c);
                        t.abort(); // releases its lock, unblocking the peer
                    }
                }
            });
        }
    });

    assert!(
        failures.load(Ordering::Relaxed) >= 1,
        "the cycle must break"
    );
    let snap = db.obs().snapshot();
    assert!(
        snap.counters
            .get("lock.timeouts_deadlock")
            .copied()
            .unwrap_or(0)
            >= 1,
        "a real cycle must be classified as deadlock, counters: {:?}",
        snap.counters
    );
}

/// Stress the background maintenance thread: concurrent durable transfers
/// on a fixed-size log small enough that the cleaner must run continuously
/// (growth disabled, watermarks tight), while a reader thread opens
/// chunk-level snapshots mid-pass and walks them — the concurrent version
/// of the deterministic mid-pass TOCTOU test. Committers may stall on the
/// backpressure path but must never fail; snapshot reads must never trip
/// tamper detection (a freed pinned segment would); and the final state
/// must show no lost update.
#[test]
fn transfers_survive_forced_background_cleaning() {
    use tdb::{ChunkId, ChunkStoreConfig, ChunkStoreError};

    const ACCOUNTS: u64 = 16;
    const THREADS: u64 = 4;
    const TRANSFERS: u64 = 150;

    let mut cfg = DatabaseConfig::without_security();
    cfg.chunk = ChunkStoreConfig {
        segment_size: 8 * 1024,
        map_fanout: 8,
        checkpoint_threshold: 16 * 1024,
        cleaner_batch: 4,
        initial_segments: 12,
        allow_growth: false,
        background_maintenance: true,
        clean_low_free: 2,
        clean_high_free: 4,
        maintenance_slice_chunks: 4,
        ..ChunkStoreConfig::default()
    };
    cfg.chunk.security = tdb::SecurityMode::Off;
    let db = make_db(Arc::new(MemStore::new()), cfg);
    create_accounts(&db, ACCOUNTS);

    let expected: Vec<(AtomicI64, AtomicI64)> = (0..ACCOUNTS)
        .map(|_| (AtomicI64::new(0), AtomicI64::new(0)))
        .collect();
    let done = AtomicU64::new(0);

    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let db = &db;
            let expected = &expected;
            let done = &done;
            s.spawn(move || {
                let mut rng = 0xD1B5_4A32u64.wrapping_mul(tid + 1) | 1;
                let mut step = |m: u64| {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (rng >> 33) % m
                };
                for _ in 0..TRANSFERS {
                    let mut attempts = 0;
                    loop {
                        attempts += 1;
                        assert!(
                            attempts < 200,
                            "transfer could not commit under cleaning pressure"
                        );
                        let from = step(ACCOUNTS);
                        let to = (from + 1 + step(ACCOUNTS - 1)) % ACCOUNTS;
                        if transfer(db, from, to).is_ok() {
                            expected[from as usize].0.fetch_sub(1, Ordering::Relaxed);
                            expected[from as usize].1.fetch_add(1, Ordering::Relaxed);
                            expected[to as usize].0.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Snapshot reader: repeatedly pin a chunk-level snapshot (likely
        // mid-cleaning-pass) and walk a dense id prefix through it. Ids
        // missing from the snapshot are fine; tamper or replay reports are
        // exactly the freed-pinned-segment corruption this guards against.
        let db = &db;
        let done = &done;
        s.spawn(move || {
            let chunks = db.chunk_store();
            while done.load(Ordering::Relaxed) < THREADS {
                let snap = chunks.snapshot();
                for id in 0..64u64 {
                    match chunks.read_at_snapshot(&snap, ChunkId(id)) {
                        Ok(_) => {}
                        Err(ChunkStoreError::TamperDetected(m)) => {
                            panic!("snapshot read hit tamper detection: {m}")
                        }
                        Err(ChunkStoreError::ReplayDetected { .. }) => {
                            panic!("snapshot read hit replay detection")
                        }
                        Err(_) => {} // unallocated / unwritten ids
                    }
                }
                drop(snap);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
    });

    let passes = db
        .chunk_store()
        .obs_snapshot()
        .counter("chunk.cleaner_passes");
    assert!(passes > 0, "the workload must have forced cleaning");
    let (seen, balance_sum, hits_sum, per) = scan_accounts(&db);
    assert_eq!(seen, ACCOUNTS as usize);
    assert_eq!(balance_sum, 0, "transfers must conserve the balance sum");
    assert_eq!(hits_sum, (THREADS * TRANSFERS) as i64);
    for (id, (b, h)) in per.iter().enumerate() {
        assert_eq!(
            (*b, *h),
            (
                expected[id].0.load(Ordering::Relaxed),
                expected[id].1.load(Ordering::Relaxed)
            ),
            "account {id} diverged (lost update)"
        );
    }
}
